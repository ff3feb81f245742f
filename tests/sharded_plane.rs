//! The sharded, batched query plane end to end: identical results for
//! `S ∈ {1, 2, 4}` in process and over TCP, concurrent TCP serving, and
//! the round-trip economics the plane exists for.

use ssxdb::core::protocol::Request;
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, reference_eval, serve_tcp_mux, ClientFilter, EncryptedDb, Engine, EngineKind,
    MapFile, MatchRule, MuxPool, ShardRouter, ShardedServer, SimpleEngine,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xml::Document;
use ssxdb::xpath::parse_query;
use std::net::TcpListener;

fn secrets() -> (MapFile, Seed) {
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(5)).unwrap();
    (map, Seed::from_test_key(77))
}

const QUERIES: [&str; 5] = [
    "/site//europe/item",
    "//bidder/date",
    "/site/*/person//city",
    "/site/regions/europe/item/description",
    "/site/open_auctions/open_auction/../closed_auctions",
];

/// Results and logical round trips are invariant in the shard count, over
/// the in-process router.
#[test]
fn shard_count_is_invisible_in_results() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 8 * 1024,
    });
    let (map, seed) = secrets();

    let mut baseline: Vec<Vec<u32>> = Vec::new();
    for (i, shards) in [1u32, 2, 4].into_iter().enumerate() {
        let mut db = EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
        assert_eq!(db.shards(), shards);
        for (qi, q) in QUERIES.iter().enumerate() {
            for kind in [EngineKind::Simple, EngineKind::Advanced] {
                for rule in [MatchRule::Containment, MatchRule::Equality] {
                    let out = db.query(q, kind, rule).unwrap();
                    if i == 0 && kind == EngineKind::Simple && rule == MatchRule::Containment {
                        baseline.push(out.pres());
                    }
                    if kind == EngineKind::Simple && rule == MatchRule::Containment {
                        assert_eq!(out.pres(), baseline[qi], "{q} S={shards}");
                    }
                }
            }
        }
    }
}

/// The full plane over real sockets: a concurrent sharded host, one
/// connection per shard, tagged frames — same answers as the in-process
/// single-shard plane, work spread across every shard.
#[test]
fn sharded_tcp_serving_matches_local() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 6 * 1024,
    });
    let (map, seed) = secrets();
    let out = encode_document(&xml, &map, &seed).unwrap();
    let shards = 3u32;
    let tcp_server =
        ShardedServer::from_table(out.table.clone(), out.ring.clone(), shards).unwrap();
    let local_server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, tcp_server, 0).unwrap());

    // Wave counts are compared across the two transports: pin both sides'
    // speculation, which unpinned follows each link's measured `Roots`
    // wave time.
    let mut local_router = ShardRouter::local(local_server);
    local_router.set_speculation(false);
    let mut local_client = ClientFilter::new(local_router, map.clone(), seed.clone()).unwrap();
    let mut tcp_router = ShardRouter::mux(&MuxPool::connect(addr, shards).unwrap());
    tcp_router.set_speculation(false);
    let mut tcp_client = ClientFilter::new(tcp_router, map, seed).unwrap();

    for q in [
        "/site//europe/item",
        "//bidder/date",
        "/site/*/person//city",
    ] {
        let query = parse_query(q).unwrap();
        for rule in [MatchRule::Containment, MatchRule::Equality] {
            for kind in [EngineKind::Simple, EngineKind::Advanced] {
                let a = Engine::run(kind, rule, &query, &mut local_client).unwrap();
                let b = Engine::run(kind, rule, &query, &mut tcp_client).unwrap();
                assert_eq!(a.pres(), b.pres(), "{q} {kind:?} {rule:?}");
                assert_eq!(
                    a.stats.round_trips, b.stats.round_trips,
                    "same logical waves: {q} {kind:?} {rule:?}"
                );
            }
        }
    }

    tcp_client.transport_mut().call(&Request::Shutdown).unwrap();
    let server = handle.join().unwrap();
    // Every shard did real work and kept its own counters.
    for (i, f) in server.filters().iter().enumerate() {
        assert!(f.stats().requests > 0, "shard {i} idle");
        assert!(!f.table().is_empty(), "shard {i} empty");
    }
}

/// Two clients on the concurrent host at once, interleaving queries.
#[test]
fn concurrent_clients_share_the_sharded_host() {
    let xml = generate(&XmarkConfig {
        seed: 11,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let out = encode_document(&xml, &map, &seed).unwrap();
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
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let map = map.clone();
            let seed = seed.clone();
            let query = query.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = ClientFilter::new(
                    ShardRouter::mux(&MuxPool::connect(addr, 2).unwrap()),
                    map,
                    seed,
                )
                .unwrap();
                for _ in 0..3 {
                    let out =
                        Engine::run(EngineKind::Simple, MatchRule::Containment, &query, &mut c)
                            .unwrap();
                    assert_eq!(out.pres(), expected);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let mut closer = ShardRouter::mux(&MuxPool::connect(addr, 2).unwrap());
    closer.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// The acceptance criterion: batching on (whole-frontier batches) must cut
/// measured round trips by ≥5× against the unbatched path — batch limit 1,
/// the one-request-per-round-trip wire shape — at identical results, for
/// every shard count.
#[test]
fn batching_cuts_round_trips_5x_at_identical_results() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 32 * 1024,
    });
    let (map, seed) = secrets();
    for query in ["/site/regions/europe/item/description", "//bidder/date"] {
        for rule in [MatchRule::Containment, MatchRule::Equality] {
            for shards in [1u32, 2, 4] {
                let mut batched =
                    EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
                let mut unbatched =
                    EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
                unbatched.set_batch_limit(Some(1));

                let a = batched.query(query, EngineKind::Simple, rule).unwrap();
                let b = unbatched.query(query, EngineKind::Simple, rule).unwrap();
                assert_eq!(a.pres(), b.pres(), "batching must not change results");
                assert_eq!(a.stats.evaluations(), b.stats.evaluations());
                assert!(
                    b.stats.round_trips >= 5 * a.stats.round_trips,
                    "{query} {rule:?} S={shards}: unbatched {} vs batched {} round trips",
                    b.stats.round_trips,
                    a.stats.round_trips
                );
                assert!(a.stats.batches > 0, "frontiers actually batched");
                assert!(a.stats.batched_requests > a.stats.batches);
            }
        }
    }
}

/// The batched simple engine answers exactly what the plaintext oracle
/// does over every shard count.
#[test]
fn simple_engine_matches_the_reference_over_shards() {
    let xml = generate(&XmarkConfig {
        seed: 12,
        target_bytes: 4 * 1024,
    });
    let doc = Document::parse(&xml).unwrap();
    let (map, seed) = secrets();
    let query = parse_query("//bidder/date").unwrap();
    for shards in [1u32, 2, 4] {
        let mut db = EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
        for rule in [MatchRule::Containment, MatchRule::Equality] {
            let out = SimpleEngine::run(&query, rule, db.client_mut()).unwrap();
            let oracle = reference_eval(&doc, &query, rule).unwrap();
            assert_eq!(out.pres(), oracle, "S={shards} {rule:?}");
        }
    }
}
