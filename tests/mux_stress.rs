//! The multiplexed transport under concurrency stress: N clients sharing
//! one [`MuxPool`] (one socket per shard) must each see exactly the answers
//! the single-client plaintext oracle (`reference.rs`) predicts, for every
//! engine × rule; wave and speculation counters must be invariant between
//! the in-process and mux transports; a reshard racing the pool must surface
//! as explicit errors, never wrong answers; and garbage on a neighbouring
//! connection must not confuse anyone's completion slots.
//!
//! CI runs this under `--release` with `SSXDB_STRESS_MAX_CLIENTS=8` to
//! bound the biggest fan-out; unbounded local runs go to 16.

use ssxdb::core::protocol::{Request, Response};
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, reference_eval, serve_tcp_mux, ClientFilter, EncryptedDb, Engine, EngineKind,
    MapFile, MatchRule, MuxPool, RemoteMuxDb, ShardRouter, ShardedServer,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xml::Document;
use ssxdb::xpath::{parse_query, Query};
use std::io::Write;
use std::net::{TcpListener, TcpStream};

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

/// Upper bound on the client fan-out, overridable by
/// `SSXDB_STRESS_MAX_CLIENTS` (CI bounds it to 8).
fn max_clients() -> usize {
    std::env::var("SSXDB_STRESS_MAX_CLIENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

fn spawn_mux_host(
    xml: &str,
    map: &MapFile,
    seed: &Seed,
    shards: u32,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ShardedServer>) {
    let out = encode_document(xml, map, seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, shards).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());
    (addr, handle)
}

fn shutdown_mux(addr: std::net::SocketAddr) {
    let mut closer = MuxPool::dial(addr, None).unwrap().transport(0);
    closer.call(&Request::Shutdown).unwrap();
}

/// The plaintext ground truth for every query × rule on `xml`.
fn oracle(xml: &str, queries: &[Query]) -> Vec<(usize, MatchRule, Vec<u32>)> {
    let doc = Document::parse(xml).unwrap();
    let mut out = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        for rule in [MatchRule::Containment, MatchRule::Equality] {
            out.push((i, rule, reference_eval(&doc, q, rule).unwrap()));
        }
    }
    out
}

/// N ∈ {2, 8, 16} concurrent clients on one shared pool, every engine ×
/// rule × query, each result compared against the single-client plaintext
/// oracle. The pool must also end with zero stray correlation ids — no
/// response ever resolved a slot it was not addressed to.
#[test]
fn concurrent_mux_clients_match_the_plaintext_oracle() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 6 * 1024,
    });
    let (map, seed) = secrets();
    let queries: Vec<Query> = QUERIES
        .iter()
        .map(|q| parse_query(q).unwrap().expand_text_predicates())
        .collect();
    let truth = oracle(&xml, &queries);
    let cap = max_clients();
    for shards in [1u32, 2] {
        let (addr, handle) = spawn_mux_host(&xml, &map, &seed, shards);
        for clients in [2usize, 8, 16] {
            if clients > cap {
                continue;
            }
            let pool = MuxPool::connect(addr, shards).unwrap();
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let pool = &pool;
                    let queries = &queries;
                    let truth = &truth;
                    let (map, seed) = (map.clone(), seed.clone());
                    scope.spawn(move || {
                        let mut db = RemoteMuxDb::connect_mux(pool, map, seed).unwrap();
                        // Half the clients speculate: the overlap must stay
                        // invisible under interleaving too.
                        db.set_speculation(c % 2 == 1);
                        for kind in [EngineKind::Simple, EngineKind::Advanced] {
                            for (i, rule, want) in truth {
                                let got = db.run(&queries[*i], kind, *rule).unwrap();
                                assert_eq!(
                                    got.pres(),
                                    *want,
                                    "client {c}/{clients} S={shards} q#{i} {kind:?} {rule:?}"
                                );
                            }
                        }
                    });
                }
            });
            assert_eq!(
                pool.stray_responses(),
                0,
                "S={shards} N={clients}: a response resolved no slot"
            );
        }
        shutdown_mux(addr);
        handle.join().unwrap();
    }
}

/// The acceptance criterion pinned end to end: on the fig5 chain, results
/// are **bit-identical** across the local plane and the mux TCP host for
/// S ∈ {1, 2, 4} — and the wave count,
/// `speculative_hits` and `speculative_wasted` are invariant too, with
/// speculation off and on. The mux transport may change how frames travel;
/// it must not change how many waves the router runs or what it prefetches.
#[test]
fn waves_and_speculation_counters_invariant_across_transports() {
    const FIG5_CHAIN: &str = "/site/regions/europe/item/description/parlist/listitem/text/keyword";
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(0x2005)).unwrap();
    let seed = Seed::from_test_key(0x5D4_2005);
    let xml = generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 64 * 1024,
    });
    let query = parse_query(FIG5_CHAIN).unwrap().expand_text_predicates();
    for shards in [1u32, 2, 4] {
        let (mux_addr, mux_handle) = spawn_mux_host(&xml, &map, &seed, shards);

        for speculate in [false, true] {
            // Local baseline.
            let mut local =
                EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
            local.set_speculation(speculate);
            let want = local
                .run(&query, EngineKind::Simple, MatchRule::Containment)
                .unwrap();

            let pool = MuxPool::connect(mux_addr, shards).unwrap();
            let mut mux_router = ShardRouter::mux(&pool);
            mux_router.set_speculation(speculate);
            let mut mux_client = ClientFilter::new(mux_router, map.clone(), seed.clone()).unwrap();
            let muxed = Engine::run(
                EngineKind::Simple,
                MatchRule::Containment,
                &query,
                &mut mux_client,
            )
            .unwrap();

            let label = format!("S={shards} speculate={speculate}");
            assert_eq!(want.pres(), muxed.pres(), "{label}: mux results");
            assert_eq!(
                muxed.stats.round_trips, want.stats.round_trips,
                "{label}: mux must not add or remove waves"
            );
            assert_eq!(
                muxed.stats.speculative_hits, want.stats.speculative_hits,
                "{label}: mux speculative hits"
            );
            assert_eq!(
                muxed.stats.speculative_wasted, want.stats.speculative_wasted,
                "{label}: mux speculative waste"
            );
            assert_eq!(
                muxed.stats.evaluations(),
                want.stats.evaluations(),
                "{label}: mux cryptographic work"
            );
            assert_eq!(pool.stray_responses(), 0, "{label}");
        }
        shutdown_mux(mux_addr);
        mux_handle.join().unwrap();
    }
}

/// A reshard to the count the host already serves moves no row — every
/// `pre` keeps its `(pre − 1) mod S` home — so the host answers it `Ok`
/// and fences nothing: the pool keeps answering exactly, and no error
/// reaches the caller. A reshard to a different count must still surface
/// (the pool's routing topology is wrong).
#[test]
fn a_same_count_reshard_leaves_the_mux_pool_unfenced() {
    let xml = generate(&XmarkConfig {
        seed: 23,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let (addr, handle) = spawn_mux_host(&xml, &map, &seed, 2);
    let query = parse_query("//bidder/date")
        .unwrap()
        .expand_text_predicates();

    let pool = MuxPool::connect(addr, 2).unwrap();
    let mut db = RemoteMuxDb::connect_mux(&pool, map.clone(), seed.clone()).unwrap();
    let expected = db
        .run(&query, EngineKind::Simple, MatchRule::Containment)
        .unwrap()
        .pres();

    // Reshard 2 → 2 over an admin connection: the host already serves two
    // shards, so nothing moves, the generation stays, and no pooled socket
    // is fenced.
    let mut admin = MuxPool::dial(addr, None).unwrap().transport(0);
    assert_eq!(
        admin.call(&Request::Reshard { shards: 2 }).unwrap(),
        Response::Ok
    );

    // The same pool keeps answering on its original sockets, and the
    // results are bit-identical. Repeat a few times, and once through a
    // *new* transport on the same pool.
    for _ in 0..3 {
        let out = db
            .run(&query, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        assert_eq!(out.pres(), expected);
    }
    let mut fresh = RemoteMuxDb::connect_mux(&pool, map.clone(), seed.clone()).unwrap();
    assert_eq!(
        fresh
            .run(&query, EngineKind::Advanced, MatchRule::Equality)
            .unwrap()
            .pres(),
        {
            let doc = Document::parse(&xml).unwrap();
            reference_eval(&doc, &query, MatchRule::Equality).unwrap()
        }
    );

    // A count-changing reshard fences every pooled socket: the host
    // answers the stale partition with its "reconnect" error.
    assert_eq!(
        admin.call(&Request::Reshard { shards: 3 }).unwrap(),
        Response::Ok
    );
    let err = db
        .run(&query, EngineKind::Simple, MatchRule::Containment)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("3 shard(s)") || err.contains("reconnect"),
        "expected a shard-count error after 2→3 reshard, got: {err}"
    );

    shutdown_mux(addr);
    handle.join().unwrap();
}

/// Online reshards racing a shared mux pool: a query that completes is
/// exactly correct; a query interrupted by the fence errors explicitly
/// ("reconnect"), never answers wrong, and a fresh pool under the new
/// count always works. Mirrors the resharding suite's race, with the fence
/// observed through multiplexed connections.
#[test]
fn reshard_races_the_mux_pool_safely() {
    let xml = generate(&XmarkConfig {
        seed: 14,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let (addr, handle) = spawn_mux_host(&xml, &map, &seed, 1);
    let query = parse_query("//bidder/date")
        .unwrap()
        .expand_text_predicates();

    let expected = {
        let pool = MuxPool::connect(addr, 1).unwrap();
        let mut db = RemoteMuxDb::connect_mux(&pool, map.clone(), seed.clone()).unwrap();
        db.run(&query, EngineKind::Simple, MatchRule::Containment)
            .unwrap()
            .pres()
    };

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (map, seed) = (map.clone(), seed.clone());
            let query = query.clone();
            let expected = expected.clone();
            scope.spawn(move || {
                for _ in 0..6 {
                    // The host may repartition at any moment; pool up fresh
                    // under whatever count its handshake reports.
                    let Ok(pool) = MuxPool::dial(addr, None) else {
                        continue; // count changed between two sockets' handshakes
                    };
                    let Ok(mut db) = RemoteMuxDb::connect_mux(&pool, map.clone(), seed.clone())
                    else {
                        continue;
                    };
                    // The invariant: a *completed* query is exactly correct;
                    // a reshard mid-query surfaces as an error, which is fine.
                    if let Ok(out) = db.run(&query, EngineKind::Simple, MatchRule::Containment) {
                        assert_eq!(out.pres(), expected);
                    }
                }
            });
        }
        let mut admin = MuxPool::dial(addr, None).unwrap().transport(0);
        for shards in [2u32, 4, 3, 1, 2] {
            assert_eq!(
                admin.call(&Request::Reshard { shards }).unwrap(),
                Response::Ok
            );
        }
    });

    // A pool that predates the last reshard is fenced: explicit errors,
    // never silent partial answers.
    shutdown_mux(addr);
    let server = handle.join().unwrap();
    assert_eq!(server.spec().shards(), 2);
}

/// A rogue connection spraying garbage — random bytes, oversized prefixes,
/// corr envelopes on an un-upgraded connection, half frames — must not
/// perturb concurrent well-behaved mux clients on the same host, and no
/// response may ever land in a slot it was not addressed to.
#[test]
fn rogue_frames_do_not_confuse_concurrent_mux_clients() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 4 * 1024,
    });
    let (map, seed) = secrets();
    let (addr, handle) = spawn_mux_host(&xml, &map, &seed, 2);
    let query = parse_query("//bidder/date")
        .unwrap()
        .expand_text_predicates();
    let pool = MuxPool::connect(addr, 2).unwrap();
    let expected = {
        let mut db = RemoteMuxDb::connect_mux(&pool, map.clone(), seed.clone()).unwrap();
        db.run(&query, EngineKind::Simple, MatchRule::Containment)
            .unwrap()
            .pres()
    };

    std::thread::scope(|scope| {
        // Good clients hammer the pool…
        for _ in 0..3 {
            let pool = &pool;
            let (map, seed) = (map.clone(), seed.clone());
            let query = query.clone();
            let expected = expected.clone();
            scope.spawn(move || {
                let mut db = RemoteMuxDb::connect_mux(pool, map, seed).unwrap();
                for _ in 0..8 {
                    let out = db
                        .run(&query, EngineKind::Simple, MatchRule::Containment)
                        .unwrap();
                    assert_eq!(out.pres(), expected);
                }
            });
        }
        // …while rogues poison their own connections.
        scope.spawn(move || {
            let mut prg = Prg::from_u64(99);
            for round in 0..12u64 {
                let Ok(mut bad) = TcpStream::connect(addr) else {
                    continue;
                };
                match round % 4 {
                    0 => {
                        // Random bytes, no framing at all.
                        let junk: Vec<u8> = (0..64).map(|_| prg.next_u64() as u8).collect();
                        let _ = bad.write_all(&junk);
                    }
                    1 => {
                        // An oversized length prefix.
                        let _ = bad.write_all(&u32::MAX.to_le_bytes());
                    }
                    2 => {
                        // A mux-looking corr frame without the handshake:
                        // refused with an error on the rogue's own
                        // connection, which the host then closes.
                        let mut frame = 7u64.to_le_bytes().to_vec();
                        frame.extend_from_slice(&[0xAB; 9]);
                        let _ = bad.write_all(&(frame.len() as u32).to_le_bytes());
                        let _ = bad.write_all(&frame);
                    }
                    _ => {
                        // A half-delivered frame.
                        let _ = bad.write_all(&40u32.to_le_bytes());
                        let _ = bad.write_all(&[1, 2, 3]);
                    }
                }
                // Drop mid-stream.
            }
        });
    });
    assert_eq!(pool.stray_responses(), 0, "slots stayed uncontaminated");
    shutdown_mux(addr);
    handle.join().unwrap();
}
