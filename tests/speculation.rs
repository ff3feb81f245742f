//! Speculative wave pipelining end to end: the fig5 chain query must
//! complete in strictly fewer round-trip waves than the PR-3 baseline (18)
//! at identical results; mis-speculation (frontiers that diverge from the
//! prediction) must be invisible in results and leak nothing.

use ssxdb::core::protocol::Request;
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, serve_tcp_mux, ClientFilter, EncryptedDb, Engine, EngineKind, MapFile,
    MatchRule, MuxPool, ShardRouter, ShardedServer,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;
use std::net::TcpListener;

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
    generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 64 * 1024,
    })
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
    let mut plain = ClientFilter::new(
        ShardRouter::mux(&MuxPool::connect(addr, shards).unwrap()),
        map.clone(),
        seed.clone(),
    )
    .unwrap();
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
