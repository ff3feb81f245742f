//! The two query engines (§5.3) and the two matching rules (§6.3).
//!
//! * [`SimpleEngine`] parses the query left to right. Each step expands the
//!   candidate set (children for `/`, all descendants for `//`) and filters
//!   it with one test per node. No look-ahead: a `//` step enumerates every
//!   descendant ("this step is quite expensive in terms of execution time").
//! * [`AdvancedEngine`] walks the tree top-down, taking "the whole remaining
//!   query into account": before and after each step it tests containment of
//!   *all remaining query names*, abandoning dead branches early; `//` steps
//!   run a pruned DFS instead of a full enumeration.
//! * [`MatchRule::Containment`] (non-strict): one evaluation per test; a
//!   node passes when its *subtree contains* the tag — cheap but inexact.
//! * [`MatchRule::Equality`] (strict): polynomial reconstruction + division;
//!   a node passes only when *it is* the tag — exact but expensive.
//!
//! For a fixed rule, both engines return identical result sets (the
//! advanced engine only prunes branches that cannot contribute); this
//! invariant is property-tested. Fig 5 compares their evaluation counts,
//! Fig 6 their wall-clock times under both rules, Fig 7 the accuracy of
//! containment vs equality results.

use crate::client::{ClientFilter, ClientStats};
use crate::error::CoreError;
use crate::transport::Transport;
use ssx_store::Loc;
use ssx_xpath::{Axis, NodeTest, Query, Step};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Non-strict (containment) vs strict (equality) node matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchRule {
    /// One evaluation per test; passes when the subtree contains the tag.
    Containment,
    /// Reconstruction + division; passes when the node is the tag.
    Equality,
}

/// Which engine to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Left-to-right, no look-ahead.
    Simple,
    /// Top-down with look-ahead pruning.
    Advanced,
}

/// Cost metrics for one query run (deltas of client + transport counters).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Containment tests (each = 1 client + 1 server evaluation).
    pub containment_tests: u64,
    /// Equality tests (each = reconstructions + a division).
    pub equality_tests: u64,
    /// Client-share evaluations.
    pub client_evals: u64,
    /// Server-share evaluations.
    pub server_evals: u64,
    /// Full polynomials transferred for equality tests.
    pub polys_fetched: u64,
    /// Protocol round trips (logical waves: a batch or a concurrent
    /// multi-shard dispatch counts once).
    pub round_trips: u64,
    /// Request bytes.
    pub bytes_sent: u64,
    /// Response bytes.
    pub bytes_received: u64,
    /// Batch frames sent.
    pub batches: u64,
    /// Sub-requests carried inside batch frames.
    pub batched_requests: u64,
    /// Physical per-shard sends behind the logical round trips (0 unless a
    /// shard router is in play).
    pub shard_dispatches: u64,
    /// Requests answered from the router's speculation cache — each one a
    /// round trip the query did not pay (0 unless the router speculated
    /// for this query: pinned on, or measured on over a slow link).
    pub speculative_hits: u64,
    /// Speculative prefetches this query issued that went unconsumed
    /// within its window — the mis-speculation cost.
    pub speculative_wasted: u64,
    /// Fleet waves answered from the first `max(t, 2)` verified responses
    /// while slower parties were still out (0 unless hedging is on).
    pub hedged_wins: u64,
    /// Milliseconds hedged-wave stragglers kept running past their wave's
    /// cutoff — latency the client did *not* wait for.
    pub straggler_ms: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl QueryStats {
    /// Total single-point evaluations, client + server — the y-axis of
    /// Fig 5.
    pub fn evaluations(&self) -> u64 {
        self.client_evals + self.server_evals
    }
}

/// A query answer: matching locations (document order) plus costs.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Matching node locations in document order.
    pub result: Vec<Loc>,
    /// Cost metrics.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// `pre` numbers of the matches (stable identifiers for comparisons).
    pub fn pres(&self) -> Vec<u32> {
        self.result.iter().map(|l| l.pre).collect()
    }
}

/// Engine dispatch helper.
pub struct Engine;

impl Engine {
    /// Runs `query` with the chosen engine and rule.
    pub fn run<T: Transport>(
        kind: EngineKind,
        rule: MatchRule,
        query: &Query,
        filter: &mut ClientFilter<T>,
    ) -> Result<QueryOutcome, CoreError> {
        match kind {
            EngineKind::Simple => SimpleEngine::run(query, rule, filter),
            EngineKind::Advanced => AdvancedEngine::run(query, rule, filter),
        }
    }

    /// Runs `query` from an externally supplied root frontier. The
    /// aggregation plane fetches the roots together with the store epochs
    /// in its snapshot wave, then hands them here — re-fetching them would
    /// both waste a wave and race the epoch fence.
    pub fn run_from<T: Transport>(
        kind: EngineKind,
        rule: MatchRule,
        query: &Query,
        filter: &mut ClientFilter<T>,
        frontier: Vec<Loc>,
    ) -> Result<QueryOutcome, CoreError> {
        match kind {
            EngineKind::Simple => SimpleEngine::run_from(query, rule, filter, frontier),
            EngineKind::Advanced => AdvancedEngine::run_from(query, rule, filter, frontier),
        }
    }
}

/// Computes the per-run stats delta.
struct StatWindow {
    client_before: ClientStats,
    transport_before: crate::transport::TransportStats,
    started: Instant,
}

impl StatWindow {
    fn open<T: Transport>(filter: &ClientFilter<T>) -> Self {
        StatWindow {
            client_before: filter.stats(),
            transport_before: filter.transport_stats(),
            started: Instant::now(),
        }
    }

    fn close<T: Transport>(self, filter: &ClientFilter<T>, result: Vec<Loc>) -> QueryOutcome {
        let c = filter.stats();
        let t = filter.transport_stats();
        QueryOutcome {
            result,
            stats: QueryStats {
                containment_tests: c.containment_tests - self.client_before.containment_tests,
                equality_tests: c.equality_tests - self.client_before.equality_tests,
                client_evals: c.client_evals - self.client_before.client_evals,
                server_evals: c.server_evals - self.client_before.server_evals,
                polys_fetched: c.polys_fetched - self.client_before.polys_fetched,
                round_trips: t.round_trips - self.transport_before.round_trips,
                // Saturating only as a guard: a fleet pipe counts a leg out
                // with a hedged wave's straggler at its last snapshot, so
                // cumulative byte counts do not dip below the window's
                // opening snapshot.
                bytes_sent: t
                    .bytes_sent
                    .saturating_sub(self.transport_before.bytes_sent),
                bytes_received: t
                    .bytes_received
                    .saturating_sub(self.transport_before.bytes_received),
                batches: t.batches - self.transport_before.batches,
                batched_requests: t.batched_requests - self.transport_before.batched_requests,
                shard_dispatches: t.shard_dispatches - self.transport_before.shard_dispatches,
                speculative_hits: t.speculative_hits - self.transport_before.speculative_hits,
                // Saturating only as a guard: the router empties its
                // prefetch cache at every op's roots wave, so each prefetch
                // consumed in this window was issued in it.
                speculative_wasted: t
                    .speculative_wasted
                    .saturating_sub(self.transport_before.speculative_wasted),
                hedged_wins: t.hedged_wins - self.transport_before.hedged_wins,
                // Saturating: stragglers of an earlier hedged wave are
                // credited when harvested, which may land in this window.
                straggler_ms: t
                    .straggler_ms
                    .saturating_sub(self.transport_before.straggler_ms),
                elapsed: self.started.elapsed(),
            },
        }
    }
}

/// Rejects queries with unexpanded text predicates (callers must run
/// [`Query::expand_text_predicates`] first — §4's translation).
fn check_expanded(query: &Query) -> Result<(), CoreError> {
    if query.has_text_predicates() {
        return Err(CoreError::Unsupported(
            "query has text predicates; call expand_text_predicates() first".into(),
        ));
    }
    Ok(())
}

/// Applies the rule test to every candidate, batching containment tests
/// into one round trip.
fn filter_by_rule<T: Transport>(
    filter: &mut ClientFilter<T>,
    rule: MatchRule,
    candidates: Vec<Loc>,
    value: u64,
) -> Result<Vec<Loc>, CoreError> {
    match rule {
        MatchRule::Containment => {
            let keep = filter.containment_many(&candidates, value)?;
            Ok(candidates
                .into_iter()
                .zip(keep)
                .filter(|(_, k)| *k)
                .map(|(l, _)| l)
                .collect())
        }
        MatchRule::Equality => {
            // Two waves for the whole candidate set (children + polys)
            // instead of two round trips per candidate.
            let keep = filter.equality_many(&candidates, value)?;
            Ok(candidates
                .into_iter()
                .zip(keep)
                .filter(|(_, k)| *k)
                .map(|(l, _)| l)
                .collect())
        }
    }
}

/// Document-order dedup.
fn dedup(mut locs: Vec<Loc>) -> Vec<Loc> {
    locs.sort_by_key(|l| l.pre);
    locs.dedup_by_key(|l| l.pre);
    locs
}

/// Expands one step's candidate set from the current frontier (shared by
/// both engines; the advanced engine overrides descendant expansion). The
/// whole frontier expands in one batched round trip.
fn expand_candidates<T: Transport>(
    filter: &mut ClientFilter<T>,
    frontier: &[Loc],
    step: &Step,
    first_step: bool,
) -> Result<Vec<Loc>, CoreError> {
    let mut out = Vec::new();
    match step.axis {
        Axis::Child => {
            if first_step {
                // Step 0 is evaluated against the root element itself (the
                // conceptual context node is the document root above it).
                out.extend_from_slice(frontier);
            } else {
                let pres: Vec<u32> = frontier.iter().map(|l| l.pre).collect();
                for kids in filter.children_many(&pres)? {
                    out.extend(kids);
                }
            }
        }
        Axis::Descendant => {
            if first_step {
                // `//x` from the document root: root element + descendants.
                out.extend_from_slice(frontier);
            }
            for desc in filter.descendants_many(frontier)? {
                out.extend(desc);
            }
        }
    }
    Ok(dedup(out))
}

/// Replaces the frontier with the parents of its members (the `..` test),
/// one batched round trip for the whole frontier.
fn parents_of<T: Transport>(
    filter: &mut ClientFilter<T>,
    frontier: &[Loc],
) -> Result<Vec<Loc>, CoreError> {
    let pres: Vec<u32> = frontier
        .iter()
        .filter(|f| f.parent != 0) // the root has no parent node
        .map(|f| f.parent)
        .collect();
    let out = filter.locs_of_many(&pres)?.into_iter().flatten().collect();
    Ok(dedup(out))
}

/// The left-to-right engine.
pub struct SimpleEngine;

impl SimpleEngine {
    /// Runs a (structural) query. Each step expands its whole frontier in
    /// one batched wave and tests the candidates in batched waves too.
    pub fn run<T: Transport>(
        query: &Query,
        rule: MatchRule,
        filter: &mut ClientFilter<T>,
    ) -> Result<QueryOutcome, CoreError> {
        check_expanded(query)?;
        let window = StatWindow::open(filter);
        // Every document root: the write plane grows a forest, and an
        // absolute query addresses all of it.
        let frontier = filter.roots()?;
        Self::run_inner(query, rule, filter, window, frontier)
    }

    /// Like [`SimpleEngine::run`] but starting from an externally supplied
    /// root frontier (see [`Engine::run_from`]).
    pub fn run_from<T: Transport>(
        query: &Query,
        rule: MatchRule,
        filter: &mut ClientFilter<T>,
        frontier: Vec<Loc>,
    ) -> Result<QueryOutcome, CoreError> {
        check_expanded(query)?;
        let window = StatWindow::open(filter);
        Self::run_inner(query, rule, filter, window, frontier)
    }

    fn run_inner<T: Transport>(
        query: &Query,
        rule: MatchRule,
        filter: &mut ClientFilter<T>,
        window: StatWindow,
        mut frontier: Vec<Loc>,
    ) -> Result<QueryOutcome, CoreError> {
        if frontier.is_empty() {
            return Ok(window.close(filter, Vec::new()));
        }
        for (i, step) in query.steps.iter().enumerate() {
            if frontier.is_empty() {
                break;
            }
            frontier = match &step.test {
                NodeTest::Parent => {
                    if step.axis == Axis::Descendant {
                        return Err(CoreError::Unsupported("'//..' is not supported".into()));
                    }
                    if i == 0 {
                        return Err(CoreError::Unsupported("'/..' cannot start a query".into()));
                    }
                    parents_of(filter, &frontier)?
                }
                NodeTest::Star => expand_candidates(filter, &frontier, step, i == 0)?,
                NodeTest::Name(name) => {
                    let value = filter.value_of(name)?;
                    let candidates = expand_candidates(filter, &frontier, step, i == 0)?;
                    filter_by_rule(filter, rule, candidates, value)?
                }
            };
        }
        Ok(window.close(filter, frontier))
    }
}

/// The look-ahead engine.
pub struct AdvancedEngine;

impl AdvancedEngine {
    /// Runs a (structural) query.
    pub fn run<T: Transport>(
        query: &Query,
        rule: MatchRule,
        filter: &mut ClientFilter<T>,
    ) -> Result<QueryOutcome, CoreError> {
        check_expanded(query)?;
        let window = StatWindow::open(filter);
        // Every document root: the write plane grows a forest, and an
        // absolute query addresses all of it.
        let frontier = filter.roots()?;
        Self::run_inner(query, rule, filter, window, frontier)
    }

    /// Like [`AdvancedEngine::run`] but starting from an externally
    /// supplied root frontier (see [`Engine::run_from`]).
    pub fn run_from<T: Transport>(
        query: &Query,
        rule: MatchRule,
        filter: &mut ClientFilter<T>,
        frontier: Vec<Loc>,
    ) -> Result<QueryOutcome, CoreError> {
        check_expanded(query)?;
        let window = StatWindow::open(filter);
        Self::run_inner(query, rule, filter, window, frontier)
    }

    fn run_inner<T: Transport>(
        query: &Query,
        rule: MatchRule,
        filter: &mut ClientFilter<T>,
        window: StatWindow,
        mut frontier: Vec<Loc>,
    ) -> Result<QueryOutcome, CoreError> {
        if frontier.is_empty() {
            return Ok(window.close(filter, Vec::new()));
        }
        // Distinct tag values tested by steps[i..] — the look-ahead sets.
        let suffix_values = Self::suffix_values(query, filter)?;
        // Initial look-ahead: the root must contain every name the query
        // will ever test beyond step 0 (step 0's own test happens below, so
        // at the root the engine performs exactly |names| evaluations —
        // "this node is checked against map(site), map(person) and
        // map(city)", §5.3).
        frontier = Self::prune(filter, frontier, &suffix_values[1])?;
        for (i, step) in query.steps.iter().enumerate() {
            if frontier.is_empty() {
                break;
            }
            let after = &suffix_values[i + 1];
            frontier = match &step.test {
                NodeTest::Parent => {
                    if step.axis == Axis::Descendant {
                        return Err(CoreError::Unsupported("'//..' is not supported".into()));
                    }
                    if i == 0 {
                        return Err(CoreError::Unsupported("'/..' cannot start a query".into()));
                    }
                    parents_of(filter, &frontier)?
                }
                NodeTest::Star => expand_candidates(filter, &frontier, step, i == 0)?,
                NodeTest::Name(name) => {
                    let value = filter.value_of(name)?;
                    match step.axis {
                        Axis::Child => {
                            let candidates = expand_candidates(filter, &frontier, step, i == 0)?;
                            filter_by_rule(filter, rule, candidates, value)?
                        }
                        Axis::Descendant => {
                            Self::pruned_descendant_search(filter, &frontier, value, rule, i == 0)?
                        }
                    }
                }
            };
            frontier = Self::prune(filter, frontier, after)?;
        }
        Ok(window.close(filter, frontier))
    }

    /// `suffix_values[i]` = distinct tag values tested by `steps[i..]` **up
    /// to the next `..` step**. Names beyond a `..` must not participate in
    /// the look-ahead: after climbing back up, they can be matched outside
    /// the current node's subtree, so pruning on them would drop correct
    /// answers (regression-tested in `parent_steps_can_climb_and_descend_again`).
    fn suffix_values<T: Transport>(
        query: &Query,
        filter: &ClientFilter<T>,
    ) -> Result<Vec<Vec<u64>>, CoreError> {
        let n = query.steps.len();
        let mut out = vec![Vec::new(); n + 1];
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for i in (0..n).rev() {
            match &query.steps[i].test {
                NodeTest::Parent => seen.clear(),
                NodeTest::Name(name) => {
                    seen.insert(filter.value_of(name)?);
                }
                NodeTest::Star => {}
            }
            out[i] = seen.iter().copied().collect();
        }
        Ok(out)
    }

    /// Keeps only frontier nodes whose subtree contains *all* `values` —
    /// the look-ahead filter. One batched round trip per value.
    fn prune<T: Transport>(
        filter: &mut ClientFilter<T>,
        frontier: Vec<Loc>,
        values: &[u64],
    ) -> Result<Vec<Loc>, CoreError> {
        let mut frontier = frontier;
        for &v in values {
            if frontier.is_empty() {
                break;
            }
            let keep = filter.containment_many(&frontier, v)?;
            frontier = frontier
                .into_iter()
                .zip(keep)
                .filter(|(_, k)| *k)
                .map(|(l, _)| l)
                .collect();
        }
        Ok(frontier)
    }

    /// `//name` with pruning: walk down from the frontier, abandoning any
    /// branch whose subtree no longer contains `name` ("identify dead
    /// branches early", §5.3). Collects matches per the rule.
    fn pruned_descendant_search<T: Transport>(
        filter: &mut ClientFilter<T>,
        frontier: &[Loc],
        value: u64,
        rule: MatchRule,
        include_frontier: bool,
    ) -> Result<Vec<Loc>, CoreError> {
        let mut out = Vec::new();
        // Level-order walk: per level one batched containment round trip,
        // one batched children expansion (and under the strict rule two
        // batched equality waves) — wave count scales with depth, not nodes.
        let fetch_level =
            |filter: &mut ClientFilter<T>, locs: &[Loc]| -> Result<Vec<Loc>, CoreError> {
                let pres: Vec<u32> = locs.iter().map(|l| l.pre).collect();
                let mut kids = Vec::new();
                for list in filter.children_many(&pres)? {
                    kids.extend(list);
                }
                Ok(dedup(kids))
            };
        let mut level: Vec<Loc> = if include_frontier {
            frontier.to_vec()
        } else {
            fetch_level(filter, frontier)?
        };
        while !level.is_empty() {
            let keep = filter.containment_many(&level, value)?;
            let alive: Vec<Loc> = level
                .into_iter()
                .zip(keep)
                .filter(|(_, k)| *k)
                .map(|(l, _)| l)
                .collect();
            match rule {
                MatchRule::Containment => out.extend_from_slice(&alive),
                MatchRule::Equality => {
                    let keep = filter.equality_many(&alive, value)?;
                    out.extend(alive.iter().zip(keep).filter(|(_, k)| *k).map(|(l, _)| *l));
                }
            }
            level = fetch_level(filter, &alive)?;
        }
        Ok(dedup(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use crate::map::MapFile;
    use crate::server::ServerFilter;
    use crate::transport::LocalTransport;
    use ssx_prg::Seed;
    use ssx_xpath::parse_query;

    /// Fixture document with nested repetition:
    ///
    /// ```text
    /// site(1)
    /// ├── a(2) ── b(3) ── c(4)
    /// ├── a(5) ── c(6)
    /// └── b(7) ── a(8) ── c(9)
    /// ```
    const FIXTURE: &str = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";

    fn client() -> ClientFilter<LocalTransport> {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(21);
        let out = encode_document(FIXTURE, &map, &seed).unwrap();
        let server = ServerFilter::new(out.table, out.ring);
        ClientFilter::new(LocalTransport::new(server), map, seed).unwrap()
    }

    fn run(kind: EngineKind, rule: MatchRule, q: &str) -> Vec<u32> {
        let mut c = client();
        let query = parse_query(q).unwrap();
        Engine::run(kind, rule, &query, &mut c).unwrap().pres()
    }

    #[test]
    fn equality_rule_is_exact_xpath() {
        for kind in [EngineKind::Simple, EngineKind::Advanced] {
            assert_eq!(run(kind, MatchRule::Equality, "/site"), vec![1], "{kind:?}");
            assert_eq!(
                run(kind, MatchRule::Equality, "/site/a"),
                vec![2, 5],
                "{kind:?}"
            );
            assert_eq!(
                run(kind, MatchRule::Equality, "/site/a/c"),
                vec![6],
                "{kind:?}"
            );
            assert_eq!(
                run(kind, MatchRule::Equality, "//c"),
                vec![4, 6, 9],
                "{kind:?}"
            );
            assert_eq!(
                run(kind, MatchRule::Equality, "/site//a"),
                vec![2, 5, 8],
                "{kind:?}"
            );
            assert_eq!(
                run(kind, MatchRule::Equality, "/site/*/c"),
                vec![6],
                "{kind:?}"
            );
            assert_eq!(
                run(kind, MatchRule::Equality, "/site/b//c"),
                vec![9],
                "{kind:?}"
            );
            assert_eq!(
                run(kind, MatchRule::Equality, "/site/a/../b"),
                vec![7],
                "{kind:?}"
            );
            assert_eq!(run(kind, MatchRule::Equality, "//b/c"), vec![4], "{kind:?}");
        }
    }

    #[test]
    fn containment_rule_overapproximates() {
        // /site/a under containment keeps every child of site whose subtree
        // contains an a — including b(7) which merely wraps a(8).
        for kind in [EngineKind::Simple, EngineKind::Advanced] {
            assert_eq!(
                run(kind, MatchRule::Containment, "/site/a"),
                vec![2, 5, 7],
                "{kind:?}"
            );
            // /site/a/c keeps children whose subtree contains a c: b(3)
            // (wraps c(4)), c(6) itself, a(8) (wraps c(9)). The exact answer
            // would be {4, 6, 9} — this is the Fig 7 accuracy loss even on
            // absolute queries over *this* document shape; the paper's 100%
            // claim holds when containment-matched steps are leaf-level.
            assert_eq!(
                run(kind, MatchRule::Containment, "/site/a/c"),
                vec![3, 6, 8],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn engines_agree_on_both_rules() {
        let queries = [
            "/site",
            "/site/a",
            "/site/a/b",
            "//c",
            "/site//c",
            "/site/*/c",
            "//a//c",
            "//b/c",
            "/site/a/../b",
            "/*",
            "/*/*",
        ];
        for q in queries {
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                let s = run(EngineKind::Simple, rule, q);
                let a = run(EngineKind::Advanced, rule, q);
                assert_eq!(s, a, "engines disagree on {q} under {rule:?}");
            }
        }
    }

    #[test]
    fn equality_subset_of_containment() {
        for q in ["/site/a", "//c", "/site//a", "//b/c", "/site/*/c"] {
            let e = run(EngineKind::Simple, MatchRule::Equality, q);
            let c = run(EngineKind::Simple, MatchRule::Containment, q);
            for pre in &e {
                assert!(c.contains(pre), "E ⊄ C for {q}: {pre} missing");
            }
        }
    }

    #[test]
    fn advanced_prunes_dead_branches() {
        // //c under advanced never descends below c-less branches; on this
        // small doc both visit similar counts, so use a query with a dead
        // subtree: /site/b//c — simple enumerates all descendants of the b
        // frontier; advanced walks down only while containment holds.
        let mut cs = client();
        let q = parse_query("//b/c").unwrap();
        let simple = SimpleEngine::run(&q, MatchRule::Containment, &mut cs).unwrap();
        let mut ca = client();
        let advanced = AdvancedEngine::run(&q, MatchRule::Containment, &mut ca).unwrap();
        assert_eq!(simple.pres(), advanced.pres());
        // The advanced engine must not do more *structure fetches* than the
        // document has nodes per level... sanity: both did work.
        assert!(simple.stats.evaluations() > 0);
        assert!(advanced.stats.evaluations() > 0);
    }

    #[test]
    fn no_match_returns_empty() {
        // d exists in the map but not in the document.
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c", "d"]).unwrap();
        let seed = Seed::from_test_key(21);
        let out = encode_document("<site><a/></site>", &map, &seed).unwrap();
        let server = ServerFilter::new(out.table, out.ring);
        let mut c = ClientFilter::new(LocalTransport::new(server), map, seed).unwrap();
        for kind in [EngineKind::Simple, EngineKind::Advanced] {
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                let q = parse_query("/site/d").unwrap();
                let out = Engine::run(kind, rule, &q, &mut c).unwrap();
                assert!(out.result.is_empty(), "{kind:?} {rule:?}");
            }
        }
    }

    #[test]
    fn unknown_tag_in_query_errors() {
        let mut c = client();
        let q = parse_query("/site/zzz").unwrap();
        assert!(matches!(
            SimpleEngine::run(&q, MatchRule::Containment, &mut c),
            Err(CoreError::UnknownTag(_))
        ));
    }

    #[test]
    fn unsupported_constructs_rejected() {
        let mut c = client();
        for q in ["/..", "/site//.."] {
            let query = parse_query(q).unwrap();
            assert!(
                matches!(
                    SimpleEngine::run(&query, MatchRule::Containment, &mut c),
                    Err(CoreError::Unsupported(_))
                ),
                "{q}"
            );
            assert!(
                matches!(
                    AdvancedEngine::run(&query, MatchRule::Containment, &mut c),
                    Err(CoreError::Unsupported(_))
                ),
                "{q}"
            );
        }
    }

    #[test]
    fn unexpanded_predicates_rejected() {
        let mut c = client();
        let q = parse_query(r#"/site[contains(text(), "x")]"#).unwrap();
        assert!(matches!(
            SimpleEngine::run(&q, MatchRule::Containment, &mut c),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn stats_report_work() {
        let mut c = client();
        let q = parse_query("/site//c").unwrap();
        let out = SimpleEngine::run(&q, MatchRule::Containment, &mut c).unwrap();
        assert!(out.stats.containment_tests > 0);
        assert_eq!(out.stats.client_evals, out.stats.server_evals);
        assert!(out.stats.round_trips > 0);
        assert!(out.stats.bytes_sent > 0);
        let out2 = SimpleEngine::run(&q, MatchRule::Equality, &mut c).unwrap();
        assert!(out2.stats.equality_tests > 0);
        assert!(out2.stats.polys_fetched > 0);
    }

    #[test]
    fn simple_engine_matches_the_reference() {
        let doc = ssx_xml::Document::parse(FIXTURE).unwrap();
        let queries = [
            "/site",
            "/site/a",
            "//c",
            "/site//c",
            "/site/*/c",
            "//b/c",
            "/site/a/../b",
        ];
        for q in queries {
            let query = parse_query(q).unwrap();
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                let want = crate::reference::reference_eval(&doc, &query, rule).unwrap();
                assert_eq!(run(EngineKind::Simple, rule, q), want, "{q} {rule:?}");
            }
        }
    }

    #[test]
    fn star_queries() {
        for kind in [EngineKind::Simple, EngineKind::Advanced] {
            assert_eq!(run(kind, MatchRule::Equality, "/*"), vec![1], "{kind:?}");
            assert_eq!(
                run(kind, MatchRule::Equality, "/*/*"),
                vec![2, 5, 7],
                "{kind:?}"
            );
            assert_eq!(
                run(kind, MatchRule::Equality, "/site/*"),
                vec![2, 5, 7],
                "{kind:?}"
            );
        }
    }
}
