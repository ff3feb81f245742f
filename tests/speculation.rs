//! Speculative wave pipelining end to end: the fig5 chain query must
//! complete in strictly fewer round-trip waves than the PR-3 baseline (18)
//! at identical results; mis-speculation (frontiers that diverge from the
//! prediction) must be invisible in results and leak nothing. The prefetch
//! cache lives for one op; unpinned, a router speculates behind a slow link
//! and never in process.

use ssxdb::core::protocol::Request;
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, encode_document_at, run_aggregate, serve_tcp_mux, AggOp, AggregateSpec,
    ChaosConfig, ChaosTransport, ClientFilter, EncryptedDb, Engine, EngineKind, LocalTransport,
    MapFile, MatchRule, MuxPool, QueryOutcome, ShardRouter, ShardedServer,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;
use std::net::TcpListener;
use std::time::Duration;

/// The Table-1 chain and the bench harness's exact secrets/document, so the
/// measured baseline is the committed PR-3 figure.
const FIG5_CHAIN: &str = "/site/regions/europe/item/description/parlist/listitem/text/keyword";
/// PR 3's measured wave count for the chain (`BENCH_3.json`,
/// `EXPERIMENTS.md`): 1 root wave + 8 expansion waves + 9 test waves.
const PR3_BASELINE_WAVES: u64 = 18;

fn bench_secrets() -> (MapFile, Seed) {
    (
        MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(0x2005)).unwrap(),
        Seed::from_test_key(0x5D4_2005),
    )
}

fn bench_document() -> String {
    document(64)
}

/// The bench harness's document at `kb` KB.
fn document(kb: usize) -> String {
    generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: kb * 1024,
    })
}

/// The router's measured window: an unpinned router speculates from the
/// op that completes this many slow `Roots` waves in a row.
const WINDOW: usize = 8;

/// The Table-2 queries and the fig5 chain.
const PAPER_QUERIES: [&str; 6] = [
    "/site//europe/item",
    "/site//europe//item",
    "/site/*/person//city",
    "/*/*/open_auction/bidder/date",
    "//bidder/date",
    FIG5_CHAIN,
];

/// A client over `xml` at `shards` in-process shards, every shard call
/// behind `link` (if any), with speculation pinned to `pin` (if any).
fn client(
    xml: &str,
    shards: u32,
    link: Option<Duration>,
    pin: Option<bool>,
) -> ClientFilter<ShardRouter<ChaosTransport<LocalTransport>>> {
    let (map, seed) = bench_secrets();
    let out = encode_document(xml, &map, &seed).unwrap();
    let host = ShardedServer::from_table(out.table, out.ring, shards).unwrap();
    let spec = host.spec();
    let links = host
        .into_filters()
        .into_iter()
        .map(|f| {
            let cfg = match link {
                Some(delay) => ChaosConfig::fixed_delay(9, delay),
                None => ChaosConfig::quiet(9),
            };
            ChaosTransport::new(LocalTransport::new(f), cfg)
        })
        .collect();
    let mut router = ShardRouter::new(spec, links, false, false);
    if let Some(pin) = pin {
        router.set_speculation(pin);
    }
    ClientFilter::new(router, map, seed).unwrap()
}

fn run<T: Transport>(
    client: &mut ClientFilter<T>,
    q: &str,
    kind: EngineKind,
    rule: MatchRule,
) -> QueryOutcome {
    let query = parse_query(q).unwrap().expand_text_predicates();
    Engine::run(kind, rule, &query, client).unwrap()
}

/// What an op's path must reproduce exactly: results, waves, bytes both
/// ways and the speculation counters.
fn path(out: &QueryOutcome) -> (Vec<u32>, [u64; 5]) {
    let s = &out.stats;
    (
        out.pres(),
        [
            s.round_trips,
            s.bytes_sent,
            s.bytes_received,
            s.speculative_hits,
            s.speculative_wasted,
        ],
    )
}

/// The acceptance criterion: with speculation on, the fig5 chain costs
/// strictly fewer waves than PR 3's 18, with identical results, at every
/// shard count.
#[test]
fn fig5_chain_beats_the_pr3_wave_baseline() {
    let xml = bench_document();
    let (map, seed) = bench_secrets();
    for shards in [1u32, 2, 4] {
        let mut plain =
            EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
        plain.set_speculation(false);
        let mut spec =
            EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
        spec.set_speculation(true);
        let a = plain
            .query(FIG5_CHAIN, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        let b = spec
            .query(FIG5_CHAIN, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        assert_eq!(a.pres(), b.pres(), "S={shards}: identical results");
        assert_eq!(
            a.stats.round_trips, PR3_BASELINE_WAVES,
            "S={shards}: the speculation-off plane is the PR-3 baseline"
        );
        assert!(
            b.stats.round_trips < PR3_BASELINE_WAVES,
            "S={shards}: speculative waves {} must beat the baseline {}",
            b.stats.round_trips,
            PR3_BASELINE_WAVES
        );
        assert!(b.stats.speculative_hits > 0, "S={shards}");
        assert_eq!(
            b.stats.evaluations(),
            a.stats.evaluations(),
            "S={shards}: speculation changes waves, not cryptographic work"
        );
    }
}

/// Speculation is invisible in results for every query shape, engine and
/// rule — including the mis-speculation paths: `..` steps (the frontier
/// climbs instead of descending), `//` steps (descendant expansion the
/// prediction does not cover) and look-ahead pruning.
#[test]
fn speculation_is_invisible_across_engines_and_rules() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 8 * 1024,
    });
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(5)).unwrap();
    let seed = Seed::from_test_key(77);
    let queries = [
        "/site//europe/item",
        "//bidder/date",
        "/site/*/person//city",
        "/site/regions/europe/item/description",
        "/site/open_auctions/open_auction/../closed_auctions",
    ];
    for shards in [1u32, 2] {
        let mut plain =
            EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
        plain.set_speculation(false);
        let mut spec =
            EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), shards).unwrap();
        spec.set_speculation(true);
        for q in queries {
            for kind in [EngineKind::Simple, EngineKind::Advanced] {
                for rule in [MatchRule::Containment, MatchRule::Equality] {
                    let a = plain.query(q, kind, rule).unwrap();
                    let b = spec.query(q, kind, rule).unwrap();
                    assert_eq!(a.pres(), b.pres(), "{q} {kind:?} {rule:?} S={shards}");
                    assert!(
                        b.stats.round_trips <= a.stats.round_trips,
                        "{q} {kind:?} {rule:?} S={shards}: speculation must never add waves"
                    );
                }
            }
        }
    }
}

/// A diverging frontier (`..` climbs away from the predicted children)
/// wastes its prefetches and changes nothing else.
#[test]
fn mis_speculation_is_counted_and_harmless() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 8 * 1024,
    });
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(5)).unwrap();
    let seed = Seed::from_test_key(77);
    let q = "/site/open_auctions/open_auction/../closed_auctions";
    let mut plain = EncryptedDb::encode(&xml, map.clone(), seed.clone()).unwrap();
    plain.set_speculation(false);
    let mut spec = EncryptedDb::encode(&xml, map, seed).unwrap();
    spec.set_speculation(true);
    let a = plain
        .query(q, EngineKind::Simple, MatchRule::Containment)
        .unwrap();
    let b = spec
        .query(q, EngineKind::Simple, MatchRule::Containment)
        .unwrap();
    assert_eq!(a.pres(), b.pres());
    assert!(
        b.stats.speculative_wasted > 0,
        "the `..` step must strand prefetches: {:?}",
        b.stats
    );
}

/// Speculation over real sockets: a sharded TCP host, tagged frames, same
/// answers, fewer waves. The speculative prefetches are ordinary
/// `Children` frames — no server change is needed.
#[test]
fn speculation_over_tcp_matches_and_saves_waves() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 6 * 1024,
    });
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(5)).unwrap();
    let seed = Seed::from_test_key(77);
    let out = encode_document(&xml, &map, &seed).unwrap();
    let shards = 3u32;
    let server = ShardedServer::from_table(out.table, out.ring, shards).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    let query = parse_query("/site/regions/europe/item").unwrap();
    let mut plain_router = ShardRouter::mux(&MuxPool::connect(addr, shards).unwrap());
    plain_router.set_speculation(false);
    let mut plain = ClientFilter::new(plain_router, map.clone(), seed.clone()).unwrap();
    let mut router = ShardRouter::mux(&MuxPool::connect(addr, shards).unwrap());
    router.set_speculation(true);
    let mut spec = ClientFilter::new(router, map, seed).unwrap();

    let a = Engine::run(
        EngineKind::Simple,
        MatchRule::Containment,
        &query,
        &mut plain,
    )
    .unwrap();
    let b = Engine::run(
        EngineKind::Simple,
        MatchRule::Containment,
        &query,
        &mut spec,
    )
    .unwrap();
    assert_eq!(a.pres(), b.pres());
    assert!(
        b.stats.round_trips < a.stats.round_trips,
        "speculative {} vs plain {}",
        b.stats.round_trips,
        a.stats.round_trips
    );
    assert!(b.stats.speculative_hits > 0);

    // Release the idle router so the host's connection scope can drain.
    drop(plain);
    spec.transport_mut().call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// Behind a 1 ms link every `Roots` wave is slow, so a warmed router
/// speculates for every op, and the fig5 chain costs the same waves, bytes,
/// hits and wasted prefetches on a freshly warmed router as after other
/// queries, an aggregate, and a write and its undo: no prefetch outlives
/// its op. The benchmark's traced parity pass runs each op on two clients
/// with different histories and relies on this.
#[test]
fn behind_a_slow_link_an_ops_path_does_not_depend_on_the_ops_before_it() {
    let xml = document(16);
    let (map, seed) = bench_secrets();
    let link = Some(Duration::from_millis(1));
    let (kind, rule) = (EngineKind::Advanced, MatchRule::Containment);
    for shards in [1u32, 2] {
        let mut c = client(&xml, shards, link, None);
        // Warm-up: the measured default's window, less the chain's own op.
        for _ in 1..WINDOW {
            run(&mut c, "//bidder/date", kind, rule);
        }
        let first = path(&run(&mut c, FIG5_CHAIN, kind, rule));
        assert!(first.1[3] > 0, "S={shards}: the chain must speculate");

        for q in PAPER_QUERIES {
            run(&mut c, q, EngineKind::Simple, MatchRule::Equality);
        }
        let count = AggregateSpec {
            query: parse_query("//item/quantity").unwrap(),
            op: AggOp::Count,
            range: None,
        };
        run_aggregate(&mut c, kind, MatchRule::Equality, &count).unwrap();
        let offset = c.max_pre().unwrap();
        let doc = encode_document_at("<site><regions/></site>", &map, &seed, offset).unwrap();
        let rows: Vec<_> = doc
            .table
            .rows()
            .iter()
            .map(|r| (r.loc, r.poly.to_vec()))
            .collect();
        let pres = rows.iter().map(|(loc, _)| loc.pre).collect();
        c.insert_rows(rows).unwrap();
        c.delete_pres(pres).unwrap();

        let again = path(&run(&mut c, FIG5_CHAIN, kind, rule));
        assert_eq!(again, first, "S={shards}: the chain's path moved");
    }
}

/// In process there is no link to hide: on the fig5 chain and the Table-2
/// queries, both engines and both rules, at S = 1 and 2, the unpinned
/// router never speculates, so every op costs exactly the waves and bytes
/// of speculation pinned off, on a router long past its first measurement
/// window. The margin is wide: on this 16 KB document in a debug build no
/// 8 `Roots` waves in a row all took more than 0.022 ms, against the
/// 0.5 ms threshold (EXPERIMENTS.md, "speculation by measured default").
#[test]
fn in_process_the_default_never_speculates() {
    let xml = document(16);
    for shards in [1u32, 2] {
        let mut default = client(&xml, shards, None, None);
        let mut off = client(&xml, shards, None, Some(false));
        for pass in 0..2 {
            for q in PAPER_QUERIES {
                for kind in [EngineKind::Simple, EngineKind::Advanced] {
                    for rule in [MatchRule::Containment, MatchRule::Equality] {
                        let a = run(&mut off, q, kind, rule);
                        let b = run(&mut default, q, kind, rule);
                        let label = format!("{q} {kind:?} {rule:?} S={shards} pass {pass}");
                        assert_eq!(path(&b), path(&a), "{label}");
                        assert!(!default.transport().speculation(), "{label}");
                    }
                }
            }
        }
    }
}

/// Behind a 1 ms link the unpinned router speculates without being asked:
/// the ops before a full window of slow `Roots` waves run the baseline's
/// 18 waves, and from the op that completes it the fig5 chain costs the
/// waves of speculation pinned on, fewer than pinned off, at identical
/// results.
#[test]
fn behind_a_slow_link_the_default_cuts_fig5_chain_waves() {
    let xml = bench_document();
    let link = Some(Duration::from_millis(1));
    let (kind, rule) = (EngineKind::Simple, MatchRule::Containment);
    for shards in [1u32, 2] {
        let mut default = client(&xml, shards, link, None);
        let mut cold = Vec::new();
        for _ in 1..WINDOW {
            cold.push(run(&mut default, FIG5_CHAIN, kind, rule));
        }
        for out in &cold {
            assert_eq!(
                out.stats.round_trips, PR3_BASELINE_WAVES,
                "S={shards}: the window is not full yet"
            );
        }
        let warm = run(&mut default, FIG5_CHAIN, kind, rule);
        assert!(default.transport().speculation(), "S={shards}");
        let on = run(
            &mut client(&xml, shards, link, Some(true)),
            FIG5_CHAIN,
            kind,
            rule,
        );
        assert_eq!(
            path(&warm),
            path(&on),
            "S={shards}: the default is speculation on"
        );
        assert_eq!(warm.pres(), cold[0].pres(), "S={shards}: identical results");
        assert!(
            warm.stats.round_trips < PR3_BASELINE_WAVES,
            "S={shards}: {} waves",
            warm.stats.round_trips
        );
    }
}
