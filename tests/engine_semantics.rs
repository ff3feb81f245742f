//! Hand-crafted fixtures pinning down the engines' step semantics —
//! the cases where XPath subtleties hide.

use ssxdb::core::{reference_eval, EncryptedDb, EngineKind, MapFile, MatchRule, SimpleEngine};
use ssxdb::prg::Seed;
use ssxdb::xml::Document;
use ssxdb::xpath::parse_query;

const TAGS: [&str; 6] = ["r", "a", "b", "c", "d", "e"];

fn db(xml: &str) -> EncryptedDb {
    let map = MapFile::sequential(83, 1, &TAGS).unwrap();
    EncryptedDb::encode(xml, map, Seed::from_test_key(777)).unwrap()
}

fn eq(db: &mut EncryptedDb, q: &str) -> Vec<u32> {
    let a = db
        .query(q, EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .pres();
    let b = db
        .query(q, EngineKind::Advanced, MatchRule::Equality)
        .unwrap()
        .pres();
    assert_eq!(a, b, "engines disagree on {q}");
    a
}

#[test]
fn descendant_at_query_start_includes_root_element() {
    // //r from the document root can match the root element itself.
    let mut db = db("<r><a/></r>");
    assert_eq!(eq(&mut db, "//r"), vec![1]);
    assert_eq!(eq(&mut db, "//a"), vec![2]);
}

#[test]
fn descendant_mid_query_excludes_self() {
    // /r//r: the root is not its own descendant; no nested r => empty.
    let mut flat = db("<r><a/></r>");
    assert_eq!(eq(&mut flat, "/r//r"), Vec::<u32>::new());
    // With a nested r it matches only the inner one.
    let mut nested = db("<r><a><r/></a></r>");
    assert_eq!(eq(&mut nested, "/r//r"), vec![3]);
}

#[test]
fn repeated_tags_along_a_path() {
    // a/a/a chains: each step must advance exactly one level.
    let mut db = db("<r><a><a><a/></a></a></r>");
    assert_eq!(eq(&mut db, "/r/a"), vec![2]);
    assert_eq!(eq(&mut db, "/r/a/a"), vec![3]);
    assert_eq!(eq(&mut db, "/r/a/a/a"), vec![4]);
    assert_eq!(eq(&mut db, "/r/a/a/a/a"), Vec::<u32>::new());
    assert_eq!(
        eq(&mut db, "//a//a"),
        vec![3, 4],
        "all a's strictly below another a"
    );
}

#[test]
fn parent_steps_can_climb_and_descend_again() {
    //      r(1)
    //      ├ a(2) ─ c(3)
    //      └ b(4) ─ d(5)
    let mut db = db("<r><a><c/></a><b><d/></b></r>");
    assert_eq!(eq(&mut db, "/r/a/../b"), vec![4]);
    assert_eq!(eq(&mut db, "/r/a/c/../../b/d"), vec![5]);
    // Parent of multiple frontier nodes dedups.
    assert_eq!(eq(&mut db, "//c/.."), vec![2]);
    assert_eq!(
        eq(&mut db, "/r/*/../*"),
        vec![2, 4],
        "climb to r, expand again"
    );
}

#[test]
fn star_chains_enumerate_levels() {
    let mut db = db("<r><a><c/></a><b><d/><e/></b></r>");
    assert_eq!(eq(&mut db, "/*"), vec![1]);
    assert_eq!(eq(&mut db, "/*/*"), vec![2, 4]);
    assert_eq!(eq(&mut db, "/*/*/*"), vec![3, 5, 6]);
    assert_eq!(eq(&mut db, "/*/*/*/*"), Vec::<u32>::new());
    // //* = every element including the root.
    assert_eq!(eq(&mut db, "//*"), vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn overlapping_descendant_frontiers_dedup() {
    // //a selects nested a's whose descendant sets overlap; //a//c must not
    // report duplicates.
    let mut db = db("<r><a><a><c/></a></a></r>");
    assert_eq!(eq(&mut db, "//a//c"), vec![4]);
}

#[test]
fn containment_on_chains_counts_ancestors() {
    // Under containment, /r/a returns every child of r containing an a —
    // including b, which only wraps one.
    let mut db = db("<r><a/><b><a/></b><c/></r>");
    let c = db
        .query("/r/a", EngineKind::Simple, MatchRule::Containment)
        .unwrap()
        .pres();
    assert_eq!(c, vec![2, 3]);
    let e = eq(&mut db, "/r/a");
    assert_eq!(e, vec![2]);
}

#[test]
fn simple_engine_matches_the_reference_on_fixtures() {
    let xml = "<r><a><c/></a><b><d/><e/></b><a><d/></a></r>";
    let doc = Document::parse(xml).unwrap();
    let mut db = db(xml);
    for q in ["/r/a", "//d", "/r/*/d", "/r/b/../a/d", "//a//d"] {
        let query = parse_query(q).unwrap();
        for rule in [MatchRule::Containment, MatchRule::Equality] {
            let out = SimpleEngine::run(&query, rule, db.client_mut()).unwrap();
            let oracle = reference_eval(&doc, &query, rule).unwrap();
            assert_eq!(out.pres(), oracle, "{q} {rule:?}");
        }
    }
}

#[test]
fn stats_invariants() {
    let mut db = db("<r><a><c/></a><b><d/><e/></b></r>");
    // Containment-only queries: client and server evaluations match 1:1.
    for q in ["/r/a", "//d", "/r/*/c"] {
        let out = db
            .query(q, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        assert_eq!(out.stats.client_evals, out.stats.server_evals, "{q}");
        assert_eq!(out.stats.equality_tests, 0, "{q}");
        assert_eq!(out.stats.polys_fetched, 0, "{q}");
        assert_eq!(
            out.stats.evaluations(),
            out.stats.client_evals + out.stats.server_evals
        );
    }
    // Equality queries fetch at least one polynomial per test.
    let out = db
        .query("/r/a", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert!(out.stats.polys_fetched >= out.stats.equality_tests);
}

#[test]
fn results_are_sorted_and_unique() {
    let mut db = db("<r><a><d/></a><b><d/></b><a><d/></a></r>");
    for q in ["//d", "/r/*/d", "//a/d"] {
        let pres = eq(&mut db, q);
        let mut sorted = pres.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pres, sorted, "{q} not in sorted/unique document order");
    }
}
