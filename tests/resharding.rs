//! Online re-sharding end to end: for every query family and every
//! `S → S'` transition in {1, 2, 4}², results are identical before and
//! after a repartition ([`ShardedServer::reshard`]) — in process and on a
//! live TCP host — and an `S → S' → S` round trip leaves every shard's
//! rows bit-identical.

use ssxdb::core::protocol::{Request, Response};
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, serve_tcp_mux, ClientFilter, EncryptedDb, Engine, EngineKind, LocalTransport,
    MapFile, MatchRule, MuxPool, ShardRouter, ShardedServer,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::store::Row;
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;
use std::net::TcpListener;

fn secrets() -> (MapFile, Seed) {
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(5)).unwrap();
    (map, Seed::from_test_key(77))
}

const QUERIES: [&str; 4] = [
    "/site//europe/item",
    "//bidder/date",
    "/site/*/person//city",
    "/site/open_auctions/open_auction/../closed_auctions",
];

const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

/// `xml` encoded across `shards` in-process filters.
fn sharded(xml: &str, map: &MapFile, seed: &Seed, shards: u32) -> ShardedServer {
    let out = encode_document(xml, map, seed).unwrap();
    ShardedServer::from_table(out.table, out.ring, shards).unwrap()
}

/// Repartitions `server` across `shards` filters in memory.
fn reshard(server: ShardedServer, shards: u32) -> ShardedServer {
    let server = server.reshard(shards).map_err(|(_, e)| e).unwrap();
    assert_eq!(server.spec().shards(), shards);
    server
}

/// A client over a fresh in-process router onto `server`.
fn local_client(
    server: ShardedServer,
    map: &MapFile,
    seed: &Seed,
) -> ClientFilter<ShardRouter<LocalTransport>> {
    ClientFilter::new(ShardRouter::local(server), map.clone(), seed.clone()).unwrap()
}

/// Every shard's rows, each shard's in `pre` order.
fn shard_rows(server: &ShardedServer) -> Vec<Vec<Row>> {
    server
        .filters()
        .iter()
        .map(|f| {
            let mut rows = f.table().rows().to_vec();
            rows.sort_by_key(|r| r.loc.pre);
            rows
        })
        .collect()
}

/// Every engine × rule × query combination returns the same result set
/// after any `S → S'` repartition of the in-process plane.
#[test]
fn reshard_is_invisible_to_every_query_family() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 6 * 1024,
    });
    let (map, seed) = secrets();
    // Baseline: fresh single-shard database.
    let mut baseline_db = EncryptedDb::encode(&xml, map.clone(), seed.clone()).unwrap();
    let mut baseline = Vec::new();
    for q in QUERIES {
        for kind in [EngineKind::Simple, EngineKind::Advanced] {
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                baseline.push(baseline_db.query(q, kind, rule).unwrap().pres());
            }
        }
    }
    for from in SHARD_COUNTS {
        for to in SHARD_COUNTS {
            let mut c = local_client(reshard(sharded(&xml, &map, &seed, from), to), &map, &seed);
            let mut i = 0;
            for q in QUERIES {
                let query = parse_query(q).unwrap().expand_text_predicates();
                for kind in [EngineKind::Simple, EngineKind::Advanced] {
                    for rule in [MatchRule::Containment, MatchRule::Equality] {
                        let out = Engine::run(kind, rule, &query, &mut c).unwrap();
                        assert_eq!(
                            out.pres(),
                            baseline[i],
                            "{q} {kind:?} {rule:?} S={from}→{to}"
                        );
                        i += 1;
                    }
                }
            }
        }
    }
}

/// The low-level fetch families (children / descendants / locs_of /
/// equality) answer identically across a repartition.
#[test]
fn reshard_preserves_every_fetch_family() {
    let xml = generate(&XmarkConfig {
        seed: 11,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let mut base = local_client(sharded(&xml, &map, &seed, 2), &map, &seed);
    let root = base.roots().unwrap()[0];
    let all: Vec<_> = {
        let mut v = vec![root];
        v.extend(base.descendants(root).unwrap());
        v
    };
    let pres: Vec<u32> = all.iter().map(|l| l.pre).collect();
    let value = base.value_of("item").unwrap();
    let children = base.children_many(&pres).unwrap();
    let descendants = base.descendants_many(&all).unwrap();
    let locs = base.locs_of_many(&pres).unwrap();
    let equality = base.equality_many(&all, value).unwrap();
    let containment = base.containment_many(&all, &[value]).unwrap();
    for to in SHARD_COUNTS {
        let mut client = local_client(reshard(sharded(&xml, &map, &seed, 2), to), &map, &seed);
        assert_eq!(client.children_many(&pres).unwrap(), children, "S'={to}");
        assert_eq!(
            client.descendants_many(&all).unwrap(),
            descendants,
            "S'={to}"
        );
        assert_eq!(client.locs_of_many(&pres).unwrap(), locs, "S'={to}");
        assert_eq!(
            client.equality_many(&all, value).unwrap(),
            equality,
            "S'={to}"
        );
        assert_eq!(
            client.containment_many(&all, &[value]).unwrap(),
            containment,
            "S'={to}"
        );
    }
}

/// `S → S' → S` must leave every shard's rows bit-identical: the partition
/// moves rows, never rewrites them.
#[test]
fn reshard_round_trip_saves_bit_identical_bytes() {
    let xml = generate(&XmarkConfig {
        seed: 12,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    for from in SHARD_COUNTS {
        for to in SHARD_COUNTS {
            let server = sharded(&xml, &map, &seed, from);
            let before = shard_rows(&server);
            let after = shard_rows(&reshard(reshard(server, to), from));
            assert_eq!(before, after, "S={from}→{to}→{from} changed a shard's rows");
        }
    }
}

/// Online re-shard over TCP: a live sharded host repartitions on a
/// `Reshard` frame; fresh clients (adopting the new shard count) get
/// identical answers, clients insisting on the stale count are refused by
/// the handshake, and the host returns the re-sharded fleet on shutdown.
#[test]
fn tcp_host_reshards_online() {
    let xml = generate(&XmarkConfig {
        seed: 13,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let out = encode_document(&xml, &map, &seed).unwrap();
    let rows = out.table.len();
    let server = ShardedServer::from_table(out.table, out.ring, 2).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    let query = parse_query("//bidder/date").unwrap();
    let expected = {
        let mut c = ClientFilter::new(
            ShardRouter::mux(&MuxPool::connect(addr, 2).unwrap()),
            map.clone(),
            seed.clone(),
        )
        .unwrap();
        Engine::run(EngineKind::Simple, MatchRule::Containment, &query, &mut c)
            .unwrap()
            .pres()
    };

    // Repartition the live host: 2 → 3.
    let mut admin = MuxPool::dial(addr, None).unwrap().transport(0);
    assert_eq!(
        admin.call(&Request::Reshard { shards: 3 }).unwrap(),
        Response::Ok
    );
    assert_eq!(
        admin.call(&Request::ShardCount).unwrap(),
        Response::Count(3)
    );
    drop(admin);

    // A stale client (old shard count) is refused at connect.
    assert!(MuxPool::connect(addr, 2).is_err());

    // A fresh client adopts the new partition and gets identical answers.
    let pool = MuxPool::dial(addr, None).unwrap();
    assert_eq!(pool.shards(), 3);
    let mut c = ClientFilter::new(ShardRouter::mux(&pool), map, seed).unwrap();
    let out = Engine::run(EngineKind::Simple, MatchRule::Containment, &query, &mut c).unwrap();
    assert_eq!(out.pres(), expected, "answers survive the online reshard");

    c.transport_mut().call(&Request::Shutdown).unwrap();
    let server = handle.join().unwrap();
    assert_eq!(server.spec().shards(), 3, "host kept the new partition");
    assert_eq!(server.total_rows(), rows, "no row lost in flight");
}

/// Concurrent queries keep answering correctly while another connection
/// re-shards the host under them: stale-partition requests surface as
/// errors or correct answers, never wrong answers, and a reconnect with
/// the new count always succeeds.
#[test]
fn tcp_reshard_races_with_live_queries_safely() {
    let xml = generate(&XmarkConfig {
        seed: 14,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let out = encode_document(&xml, &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    let query = parse_query("//bidder/date").unwrap();
    let expected = {
        let mut c = ClientFilter::new(
            ShardRouter::mux(&MuxPool::connect(addr, 1).unwrap()),
            map.clone(),
            seed.clone(),
        )
        .unwrap();
        Engine::run(EngineKind::Simple, MatchRule::Containment, &query, &mut c)
            .unwrap()
            .pres()
    };

    let workers: Vec<_> = (0..3)
        .map(|_| {
            let map = map.clone();
            let seed = seed.clone();
            let query = query.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..6 {
                    // The host may repartition at any moment; connect fresh
                    // each round with whatever count it reports.
                    let Ok(router) = MuxPool::dial(addr, None).map(|p| ShardRouter::mux(&p)) else {
                        continue; // count changed between two sockets' handshakes
                    };
                    let mut c = ClientFilter::new(router, map.clone(), seed.clone()).unwrap();
                    // The invariant: a *completed* query is exactly correct;
                    // a reshard mid-query surfaces as an error, which is fine.
                    if let Ok(out) =
                        Engine::run(EngineKind::Simple, MatchRule::Containment, &query, &mut c)
                    {
                        assert_eq!(out.pres(), expected);
                    }
                }
            })
        })
        .collect();

    let mut admin = MuxPool::dial(addr, None).unwrap().transport(0);
    for shards in [2u32, 4, 3, 1, 2] {
        assert_eq!(
            admin.call(&Request::Reshard { shards }).unwrap(),
            Response::Ok
        );
    }
    for w in workers {
        w.join().unwrap();
    }
    admin.call(&Request::Shutdown).unwrap();
    let server = handle.join().unwrap();
    assert_eq!(server.spec().shards(), 2);
}

/// A bare single-filter endpoint — no host around it to repartition —
/// refuses the frame cleanly.
#[test]
fn legacy_server_refuses_reshard() {
    let (map, seed) = secrets();
    let out = encode_document(
        &generate(&XmarkConfig {
            seed: 15,
            target_bytes: 2 * 1024,
        }),
        &map,
        &seed,
    )
    .unwrap();
    let server = ssxdb::core::ServerFilter::new(out.table, out.ring);
    let mut t = LocalTransport::new(server);
    assert!(matches!(
        t.call(&Request::Reshard { shards: 2 }).unwrap(),
        Response::Err(_)
    ));
    assert!(matches!(t.call(&Request::Count).unwrap(), Response::Count(n) if n > 0));
}
