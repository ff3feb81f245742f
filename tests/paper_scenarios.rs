//! Scenario tests pinned to specific claims in the paper's text.

use ssxdb::core::{accuracy_percent, EncryptedDb, EngineKind, MapFile, MatchRule};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;

fn db(bytes: usize) -> EncryptedDb {
    let xml = generate(&XmarkConfig {
        seed: 55,
        target_bytes: bytes,
    });
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(8)).unwrap();
    EncryptedDb::encode(&xml, map, Seed::from_test_key(55)).unwrap()
}

/// §5.3: "The first slash instructs the search engine to locate the root
/// node (i.e. the only node without a parent (parent=0)). Since the parent
/// field is indexed this is done in constant time."
#[test]
fn root_lookup_is_one_round_trip() {
    let mut db = db(4 * 1024);
    let out = db
        .query("/site", EngineKind::Simple, MatchRule::Containment)
        .unwrap();
    assert_eq!(out.result.len(), 1);
    // Root + 1 batched containment evaluation = 2 round trips.
    assert_eq!(out.stats.round_trips, 2);
    assert_eq!(out.stats.containment_tests, 1);
}

/// §5.3: "The * reduces the workload because no additional filtering is
/// needed."
#[test]
fn star_step_needs_no_evaluations() {
    let mut db = db(4 * 1024);
    let starred = db
        .query("/site/*", EngineKind::Simple, MatchRule::Containment)
        .unwrap();
    // Only the /site test costs evaluations; /* is pure navigation.
    assert_eq!(starred.stats.containment_tests, 1);
    assert_eq!(starred.result.len(), 6, "the six site sections");
}

/// §5.3 (AdvancedQuery): at the root, the engine checks containment of all
/// query names — for /site/*/person//city that is 3 tests: site, person,
/// city.
#[test]
fn advanced_initial_lookahead_counts() {
    let mut db = db(4 * 1024);
    let q = parse_query("/site/*/person//city").unwrap();
    let out = db
        .run(&q, EngineKind::Advanced, MatchRule::Containment)
        .unwrap();
    assert!(
        out.stats.containment_tests >= 3,
        "at least the root look-ahead"
    );
    // And the result is non-empty (the generator guarantees a person with
    // an address).
    assert!(!out.result.is_empty());
}

/// §6.3 / Fig 7: accuracy drops as `//` steps are added; absolute queries
/// reach 100%.
#[test]
fn accuracy_shape_matches_fig7() {
    let mut db = db(24 * 1024);
    let acc = |db: &mut EncryptedDb, q: &str| {
        let e = db
            .query(q, EngineKind::Advanced, MatchRule::Equality)
            .unwrap()
            .result
            .len();
        let c = db
            .query(q, EngineKind::Advanced, MatchRule::Containment)
            .unwrap()
            .result
            .len();
        accuracy_percent(e, c)
    };
    // Absolute chain: every step's containment matches only real tag nodes
    // when the chain ends at leaf level… keyword is a leaf-ish element.
    let deep = acc(
        &mut db,
        "/site/regions/europe/item/description/parlist/listitem/text/keyword",
    );
    // One and two descendant steps.
    let one_desc = acc(&mut db, "/site//europe/item");
    let two_desc = acc(&mut db, "/site//europe//item");
    assert!(deep >= one_desc, "absolute {deep}% >= one-// {one_desc}%");
    assert!(
        one_desc >= two_desc,
        "one-// {one_desc}% >= two-// {two_desc}%"
    );
    assert!((0.0..=100.0).contains(&two_desc));
}

/// Fig 5: on the Table-1 chain queries the two engines differ by at most a
/// constant factor — check the advanced engine is never more than ~4x the
/// simple one on evaluations (the paper shows a near-constant gap).
#[test]
fn fig5_constant_factor_gap() {
    let mut db = db(16 * 1024);
    let chain = "/site/regions/europe/item/description/parlist/listitem/text/keyword";
    let parts: Vec<&str> = chain.trim_start_matches('/').split('/').collect();
    for len in 1..=parts.len() {
        let q = format!("/{}", parts[..len].join("/"));
        let simple = db
            .query(&q, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        let advanced = db
            .query(&q, EngineKind::Advanced, MatchRule::Containment)
            .unwrap();
        assert_eq!(simple.pres(), advanced.pres(), "{q}");
        let s = simple.stats.evaluations().max(1);
        let a = advanced.stats.evaluations().max(1);
        let factor = a as f64 / s as f64;
        assert!(
            factor < 4.0,
            "advanced/simple evaluation factor {factor:.1} too large on {q}"
        );
    }
}

/// Fig 5 as EXPERIMENTS.md commits it: the containment rule's evaluation
/// counts, simple and advanced, for Table-1 chain prefixes 1–9 on the
/// figure's own ~64 KB document and secrets (`SSXDB_SCALE=0.25 repro
/// fig5`). A change to how the advanced engine tests a non-strict step
/// moves the advanced column.
#[test]
fn fig5_evaluations_are_the_committed_figure() {
    const SIMPLE: [u64; 9] = [2, 14, 26, 38, 150, 162, 170, 178, 202];
    const ADVANCED: [u64; 9] = [2, 16, 32, 50, 180, 152, 190, 236, 306];
    let xml = generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 64 * 1024,
    });
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(0x2005)).unwrap();
    let mut db = EncryptedDb::encode(&xml, map, Seed::from_test_key(0x5D4_2005)).unwrap();
    let chain = "/site/regions/europe/item/description/parlist/listitem/text/keyword";
    let parts: Vec<&str> = chain.trim_start_matches('/').split('/').collect();
    let (mut simple, mut advanced) = (Vec::new(), Vec::new());
    for len in 1..=parts.len() {
        let q = format!("/{}", parts[..len].join("/"));
        for (kind, column) in [
            (EngineKind::Simple, &mut simple),
            (EngineKind::Advanced, &mut advanced),
        ] {
            let out = db.query(&q, kind, MatchRule::Containment).unwrap();
            column.push(out.stats.evaluations());
        }
    }
    assert_eq!(simple, SIMPLE, "simple column");
    assert_eq!(advanced, ADVANCED, "advanced column");
}

/// §6.1: output is dominated by polynomials; encoding is deterministic for
/// a given seed (bit-identical databases).
#[test]
fn deterministic_encoding() {
    let xml = generate(&XmarkConfig {
        seed: 77,
        target_bytes: 4 * 1024,
    });
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(8)).unwrap();
    let d1 = EncryptedDb::encode(&xml, map.clone(), Seed::from_test_key(9)).unwrap();
    let d2 = EncryptedDb::encode(&xml, map, Seed::from_test_key(9)).unwrap();
    assert_eq!(d1.size_report(), d2.size_report());
}

/// The paper's closing claim (§7): "it is often better to use the equality
/// test to reduce the number of nodes to check, especially for the simple
/// algorithm." Check the mechanism: under equality the frontier after each
/// step is never larger than under containment.
#[test]
fn strictness_shrinks_frontiers() {
    let mut db = db(12 * 1024);
    for q in [
        "/site//europe/item",
        "//bidder/date",
        "/site/*/person//city",
    ] {
        let e = db
            .query(q, EngineKind::Simple, MatchRule::Equality)
            .unwrap();
        let c = db
            .query(q, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        assert!(e.result.len() <= c.result.len(), "{q}");
    }
}
