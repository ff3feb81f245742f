//! Online re-sharding end to end: for every query family and every
//! `S → S'` transition in {1, 2, 4}², results are identical before and
//! after `reshard` — over the in-process plane and over TCP — and the
//! persisted bytes round-trip bit-identically.

use ssxdb::core::protocol::{Request, Response};
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, serve_tcp_mux, serve_tcp_mux_opts, ClientFilter, EncryptedDb, Engine,
    EngineKind, LocalTransport, MapFile, MatchRule, MuxHostOptions, MuxPool, ShardRouter,
    ShardedServer,
};
use ssxdb::prg::{Prg, Seed};
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
            let mut db =
                EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), from).unwrap();
            db.reshard(to).unwrap();
            assert_eq!(db.shards(), to);
            let mut i = 0;
            for q in QUERIES {
                for kind in [EngineKind::Simple, EngineKind::Advanced] {
                    for rule in [MatchRule::Containment, MatchRule::Equality] {
                        let out = db.query(q, kind, rule).unwrap();
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
    let mut db = EncryptedDb::encode_sharded(&xml, map, seed, 2).unwrap();
    let client = db.client_mut();
    let root = client.roots().unwrap()[0];
    let all: Vec<_> = {
        let mut v = vec![root];
        v.extend(client.descendants(root).unwrap());
        v
    };
    let pres: Vec<u32> = all.iter().map(|l| l.pre).collect();
    let value = client.value_of("item").unwrap();
    let children = client.children_many(&pres).unwrap();
    let descendants = client.descendants_many(&all).unwrap();
    let locs = client.locs_of_many(&pres).unwrap();
    let equality = client.equality_many(&all, value).unwrap();
    let containment = client.containment_many(&all, value).unwrap();
    for to in SHARD_COUNTS {
        db.reshard(to).unwrap();
        let client = db.client_mut();
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
            client.containment_many(&all, value).unwrap(),
            containment,
            "S'={to}"
        );
    }
}

/// `S → S' → S` must persist bit-identical bytes: the partition moves rows,
/// never rewrites them.
#[test]
fn reshard_round_trip_saves_bit_identical_bytes() {
    let xml = generate(&XmarkConfig {
        seed: 12,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let dir = std::env::temp_dir().join("ssxdb_resharding_tests");
    std::fs::create_dir_all(&dir).unwrap();
    for from in SHARD_COUNTS {
        for to in SHARD_COUNTS {
            let mut db =
                EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), from).unwrap();
            let before = dir.join(format!("before_{from}_{to}.ssxdb"));
            let after = dir.join(format!("after_{from}_{to}.ssxdb"));
            db.save(&before).unwrap();
            db.reshard(to).unwrap();
            db.reshard(from).unwrap();
            db.save(&after).unwrap();
            assert_eq!(
                std::fs::read(&before).unwrap(),
                std::fs::read(&after).unwrap(),
                "S={from}→{to}→{from} changed the persisted bytes"
            );
            std::fs::remove_file(&before).ok();
            std::fs::remove_file(&after).ok();
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

/// `serve --auto-reshard-target BYTES`: the host's own ticker sizes the
/// fleet from *stored* bytes. Starting at 1 shard with a target that
/// argues for several, the count must converge to `⌈total/target⌉`, stay
/// there (the suggestion is a fixed point of the repartition), and a
/// client connected under the converged count must see exactly the
/// single-shard answers.
#[test]
fn auto_reshard_converges_and_never_changes_results() {
    let xml = generate(&XmarkConfig {
        seed: 17,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let out = encode_document(&xml, &map, &seed).unwrap();
    let total = out.table.size_report().data_bytes() as u64;
    // A target that asks for a handful of shards; the fixed point is
    // exactly ⌈total/target⌉ whatever the count the host starts at.
    let target = total.div_ceil(4);
    let expected_shards = total.div_ceil(target) as u32;
    assert!(expected_shards > 1, "test needs a growth-inducing target");
    let server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = MuxHostOptions {
        auto_target: Some(target),
        ..MuxHostOptions::default()
    };
    let handle = std::thread::spawn(move || serve_tcp_mux_opts(listener, server, opts).unwrap());

    let query = parse_query("//bidder/date").unwrap();
    let expected = {
        let mut db = EncryptedDb::encode(&xml, map.clone(), seed.clone()).unwrap();
        db.run(&query, EngineKind::Simple, MatchRule::Containment)
            .unwrap()
            .pres()
    };

    // Convergence: the live count reaches the fixed point…
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        // A dial racing a repartition is refused; that is "not yet".
        if let Ok(pool) = MuxPool::dial(addr, None) {
            if pool.shards() == expected_shards {
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "auto-reshard did not converge to {expected_shards} shards"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // …and stays there: several tick periods later nothing has moved.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let pool = MuxPool::dial(addr, None).unwrap();
    assert_eq!(
        pool.shards(),
        expected_shards,
        "converged count must be a fixed point"
    );

    // Results under the converged partition are the single-shard answers.
    let mut c = ClientFilter::new(ShardRouter::mux(&pool), map, seed).unwrap();
    let out = Engine::run(EngineKind::Simple, MatchRule::Containment, &query, &mut c).unwrap();
    assert_eq!(out.pres(), expected, "auto-reshard never changes results");

    c.transport_mut().call(&Request::Shutdown).unwrap();
    let server = handle.join().unwrap();
    assert_eq!(server.spec().shards(), expected_shards);
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
