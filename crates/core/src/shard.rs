//! The sharded store/server layer.
//!
//! The paper's §5.2 architecture has one big server; related secret-sharing
//! systems scale by partitioning the stored shares across servers and
//! batching the oblivious operations against each partition (OBSCURE;
//! Dolev–Li–Sharma). This module splits the encoded table across `S`
//! independent [`ServerFilter`]s by a deterministic `pre → shard` partition:
//!
//! * **Partition function.** [`ShardSpec::shard_of`] assigns node `pre` to
//!   shard `(pre − 1) mod S` — round-robin in document order, so both
//!   storage and any document-ordered batch of evaluations split evenly
//!   across shards (a contiguous range partition would skew hot subtrees
//!   onto one shard).
//! * **Per-shard state.** Each shard owns its rows, its B-tree indices, its
//!   lazy evaluation-domain cache and its counters; shards never talk to
//!   each other. All cross-shard merging happens in the client-side
//!   [`crate::router::ShardRouter`].
//! * **What a shard learns.** Exactly what the single server learned before,
//!   restricted to its partition: evaluation points and the access pattern
//!   of *its own* rows. No shard sees the whole access pattern — see
//!   DESIGN.md's shard-plane section for the leakage discussion.
//!
//! `children_of`/`descendants_of` remain correct on a partial table: the
//! `(parent, pre)` index keys rows by their parent value whether or not the
//! parent row lives on the same shard, and the pre/post interval property
//! holds row-wise, so each shard returns the document-ordered subset of an
//! answer it stores and a k-way merge by `pre` reconstructs the full answer.

use crate::protocol::{Request, Response};
use crate::server::ServerFilter;
use ssx_poly::RingCtx;
use ssx_store::{StoreError, Table};

/// The deterministic `pre → shard` partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    shards: u32,
}

impl ShardSpec {
    /// A spec for `shards ≥ 1` shards (0 is clamped to 1).
    pub fn new(shards: u32) -> Self {
        ShardSpec {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard holding node `pre`: round-robin `(pre − 1) mod S` (`pre`
    /// is 1-based, so the root lands on shard 0).
    #[inline]
    pub fn shard_of(&self, pre: u32) -> u32 {
        pre.wrapping_sub(1) % self.shards
    }
}

/// Splits `table` into one partial table per shard. Every row keeps its
/// original `(pre, post, parent)` triple — locations are global, only
/// placement changes — and the packed polynomial bytes move without being
/// re-encoded, so the storage format stays bit-identical per row.
pub fn partition_table(table: Table, spec: ShardSpec) -> Result<Vec<Table>, StoreError> {
    let poly_len = table.poly_len();
    let mut shards: Vec<Table> = (0..spec.shards()).map(|_| Table::new(poly_len)).collect();
    for row in table.into_rows() {
        shards[spec.shard_of(row.loc.pre) as usize].insert(row)?;
    }
    Ok(shards)
}

/// `S` independent server filters over one logical document — the unit a
/// concurrent TCP host serves and the local facade wires a router onto.
pub struct ShardedServer {
    spec: ShardSpec,
    filters: Vec<ServerFilter>,
}

impl ShardedServer {
    /// Partitions `table` and builds one [`ServerFilter`] per shard (each
    /// with its own eval cache and stats). `shards = 1` reproduces the
    /// monolithic server exactly.
    pub fn from_table(table: Table, ring: RingCtx, shards: u32) -> Result<Self, StoreError> {
        let spec = ShardSpec::new(shards);
        let filters = partition_table(table, spec)?
            .into_iter()
            .map(|t| ServerFilter::new(t, ring.clone()))
            .collect();
        Ok(ShardedServer { spec, filters })
    }

    /// Wraps pre-built filters (testing, custom partitions). The filters
    /// must follow `spec`'s placement for router merges to be correct.
    pub fn from_filters(spec: ShardSpec, filters: Vec<ServerFilter>) -> Self {
        assert_eq!(spec.shards() as usize, filters.len());
        ShardedServer { spec, filters }
    }

    /// The partition spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Per-shard filters (read access: stats, table sizes).
    pub fn filters(&self) -> &[ServerFilter] {
        &self.filters
    }

    /// Consumes the server, yielding the per-shard filters (used to wire
    /// one local transport per shard).
    pub fn into_filters(self) -> Vec<ServerFilter> {
        self.filters
    }

    /// Repartitions the fleet across `shards` filters **in memory** — the
    /// online alternative to the save/load cycle. Every row moves to its
    /// new `(pre − 1) mod S'` home with its packed polynomial bytes
    /// untouched (the partition only decides placement), so `S → S' → S`
    /// round trips are bit-identical row-for-row. Derived per-shard state
    /// (eval caches, counters, any open cursors) is dropped with the old
    /// filters: caches rebuild lazily, and an invalidated cursor surfaces
    /// as an explicit `no cursor` error on its next use — never a wrong
    /// answer. `S' = S` still rebuilds (a cheap no-op placement-wise).
    ///
    /// Failure is **non-destructive**: the fleet is validated *before*
    /// anything moves (a hand-built [`ShardedServer::from_filters`] fleet
    /// may hold rows that cannot coexist in one partition — duplicate
    /// `pre`/`post` across shards, mismatched polynomial lengths), and a
    /// rejected reshard hands the untouched server back with the error, so
    /// a live host never loses rows to a bad request.
    pub fn reshard(self, shards: u32) -> Result<Self, (Self, StoreError)> {
        if let Err(e) = self.validate_movable() {
            return Err((self, e));
        }
        let spec = ShardSpec::new(shards);
        let ring = self.filters[0].ring().clone();
        let poly_len = self.filters[0].table().poly_len();
        let mut tables: Vec<Table> = (0..spec.shards()).map(|_| Table::new(poly_len)).collect();
        for filter in self.filters {
            for row in filter.into_table().into_rows() {
                tables[spec.shard_of(row.loc.pre) as usize]
                    .insert(row)
                    .expect("validated row set repartitions without conflicts");
            }
        }
        let filters = tables
            .into_iter()
            .map(|t| ServerFilter::new(t, ring.clone()))
            .collect();
        Ok(ShardedServer { spec, filters })
    }

    /// Checks that every row of the fleet can be re-inserted under *any*
    /// placement: one polynomial length fleet-wide and globally unique
    /// `pre`/`post` (per-row sanity — `pre ≥ 1`, `parent < pre` — held at
    /// original insert time). [`Table::insert`] can fail on nothing else,
    /// so a fleet passing this check repartitions infallibly.
    fn validate_movable(&self) -> Result<(), StoreError> {
        let poly_len = self.filters[0].table().poly_len();
        let mut pres = std::collections::HashSet::new();
        let mut posts = std::collections::HashSet::new();
        for filter in &self.filters {
            let table = filter.table();
            if table.poly_len() != poly_len {
                return Err(StoreError::WrongPolyLen {
                    expected: poly_len,
                    got: table.poly_len(),
                });
            }
            for row in table.rows() {
                if !pres.insert(row.loc.pre) {
                    return Err(StoreError::BadRow(format!(
                        "pre {} stored on more than one shard",
                        row.loc.pre
                    )));
                }
                if !posts.insert(row.loc.post) {
                    return Err(StoreError::BadRow(format!(
                        "post {} stored on more than one shard",
                        row.loc.post
                    )));
                }
            }
        }
        Ok(())
    }

    /// Handles one request addressed to `shard`. Out-of-range shards get a
    /// protocol error, not a panic — the index arrives from the network.
    pub fn handle(&mut self, shard: u32, req: &Request) -> Response {
        match self.filters.get_mut(shard as usize) {
            Some(f) => f.handle(req),
            None => Response::Err(format!(
                "no shard {shard} (server has {})",
                self.spec.shards()
            )),
        }
    }

    /// Total rows across shards.
    pub fn total_rows(&self) -> usize {
        self.filters.iter().map(|f| f.table().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use crate::map::MapFile;
    use ssx_prg::Seed;
    use ssx_store::Loc;

    fn encoded() -> (Table, RingCtx) {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(5);
        let xml = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";
        let out = encode_document(xml, &map, &seed).unwrap();
        (out.table, out.ring)
    }

    #[test]
    fn partition_is_deterministic_and_total() {
        let spec = ShardSpec::new(4);
        for pre in 1..100u32 {
            assert_eq!(spec.shard_of(pre), (pre - 1) % 4);
            assert!(spec.shard_of(pre) < spec.shards());
        }
        // Zero shards clamps instead of dividing by zero.
        assert_eq!(ShardSpec::new(0).shards(), 1);
    }

    #[test]
    fn partitioned_tables_cover_all_rows_disjointly() {
        let (table, _) = encoded();
        let total = table.len();
        let all: Vec<Loc> = table.all_locs();
        let spec = ShardSpec::new(3);
        let shards = partition_table(table, spec).unwrap();
        assert_eq!(shards.iter().map(|t| t.len()).sum::<usize>(), total);
        for loc in all {
            let hits = shards
                .iter()
                .filter(|t| t.by_pre(loc.pre).is_some())
                .count();
            assert_eq!(hits, 1, "pre={} must live on exactly one shard", loc.pre);
            assert!(shards[spec.shard_of(loc.pre) as usize]
                .by_pre(loc.pre)
                .is_some());
        }
    }

    #[test]
    fn shard_local_answers_merge_to_the_full_answer() {
        let (table, _) = encoded();
        let root = table.root().unwrap().loc;
        let children = table.children_of(root.pre);
        let descendants = table.descendants_of(root);
        let shards = partition_table(table, ShardSpec::new(3)).unwrap();
        // Exactly one shard holds the root.
        assert_eq!(shards.iter().filter(|t| t.root().is_some()).count(), 1);
        // Children/descendants: concat the per-shard document-ordered
        // subsets, sort by pre — must equal the unsharded answer.
        let mut merged_children: Vec<Loc> = shards
            .iter()
            .flat_map(|t| t.children_of(root.pre))
            .collect();
        merged_children.sort_by_key(|l| l.pre);
        assert_eq!(merged_children, children);
        let mut merged_desc: Vec<Loc> =
            shards.iter().flat_map(|t| t.descendants_of(root)).collect();
        merged_desc.sort_by_key(|l| l.pre);
        assert_eq!(merged_desc, descendants);
    }

    #[test]
    fn reshard_moves_every_row_bit_identically() {
        let (table, ring) = encoded();
        let originals: Vec<(u32, Vec<u8>)> = table
            .rows()
            .iter()
            .map(|r| (r.loc.pre, r.poly.to_vec()))
            .collect();
        let mut server = ShardedServer::from_table(table, ring, 1).unwrap();
        for shards in [3u32, 1, 4, 2, 1] {
            server = server.reshard(shards).map_err(|(_, e)| e).unwrap();
            assert_eq!(server.spec().shards(), shards);
            assert_eq!(server.total_rows(), originals.len());
            for (pre, poly) in &originals {
                let home = server.spec().shard_of(*pre) as usize;
                let row = server.filters()[home]
                    .table()
                    .by_pre(*pre)
                    .unwrap_or_else(|| panic!("pre={pre} missing after S={shards}"));
                assert_eq!(&row.poly.to_vec(), poly, "pre={pre} bytes moved intact");
                // …and on no other shard.
                let hits = server
                    .filters()
                    .iter()
                    .filter(|f| f.table().by_pre(*pre).is_some())
                    .count();
                assert_eq!(hits, 1);
            }
        }
    }

    /// The reshard-path staleness proof: a warmed eval cache must die with
    /// the old filters. After a reshard moves `pre` to a different shard
    /// and the row is reborn there with different share bytes, evaluation
    /// must answer from the new bytes — bit-identical to a cold server
    /// over the same final tables, never from a pre-reshard cached decode.
    #[test]
    fn eval_cache_does_not_survive_a_reshard() {
        let (table, ring) = encoded();
        let donor = table.rows()[1].poly.to_vec();
        let victim = table.rows()[3].clone();
        let pre = victim.loc.pre;
        let mut server = ShardedServer::from_table(table, ring.clone(), 2).unwrap();
        let home = server.spec().shard_of(pre);
        // Warm the cache: second eval of the same row is a hit.
        for _ in 0..2 {
            match server.handle(
                home,
                &Request::EvalMany {
                    pres: vec![pre],
                    point: 3,
                },
            ) {
                Response::Values(_) => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(server.filters()[home as usize].stats().eval_cache_hits, 1);
        // Move every row: 2 → 3 shards re-homes this pre.
        server = server.reshard(3).map_err(|(_, e)| e).unwrap();
        let rehomed = server.spec().shard_of(pre);
        // Rebirth the pre on the new fleet with a different (valid) share.
        assert_eq!(
            server.handle(rehomed, &Request::Delete { pres: vec![pre] }),
            Response::Count(1)
        );
        assert_eq!(
            server.handle(
                rehomed,
                &Request::Insert {
                    rows: vec![(victim.loc, donor.clone())]
                }
            ),
            Response::Count(1)
        );
        let eval1 = Request::EvalMany {
            pres: vec![pre],
            point: 3,
        };
        let got = match server.handle(rehomed, &eval1) {
            Response::Values(vs) => vs[0],
            other => panic!("{other:?}"),
        };
        // No hit carried across the reshard, and the answer matches a cold
        // server rebuilt from the final per-shard tables.
        assert_eq!(
            server.filters()[rehomed as usize].stats().eval_cache_hits,
            0
        );
        let final_table = server.filters()[rehomed as usize].table().clone();
        let mut cold = ServerFilter::new(final_table, ring);
        let want = match cold.handle(&eval1) {
            Response::Values(vs) => vs[0],
            other => panic!("{other:?}"),
        };
        assert_eq!(got, want, "stale eval cache survived the reshard");
    }

    #[test]
    fn reshard_zero_clamps_to_one() {
        let (table, ring) = encoded();
        let server = ShardedServer::from_table(table, ring, 2).unwrap();
        let server = server.reshard(0).map_err(|(_, e)| e).unwrap();
        assert_eq!(server.spec().shards(), 1);
    }

    /// A hand-built fleet whose rows cannot coexist in one partition (the
    /// same `pre` on two shards) must be *refused* — and handed back whole,
    /// not consumed: a live host never loses rows to a bad reshard request.
    #[test]
    fn reshard_failure_is_non_destructive() {
        let (table, ring) = encoded();
        let rows = table.len();
        let filters = partition_table(table, ShardSpec::new(2))
            .unwrap()
            .into_iter()
            .map(|t| ServerFilter::new(t, ring.clone()))
            .collect::<Vec<_>>();
        // Duplicate one shard's table onto both shards: every pre now lives
        // twice across the fleet.
        let dup = {
            let t0 = filters[0].table();
            let mut copy = Table::new(t0.poly_len());
            for row in t0.rows() {
                copy.insert(row.clone()).unwrap();
            }
            ServerFilter::new(copy, ring.clone())
        };
        let broken = ShardedServer::from_filters(
            ShardSpec::new(2),
            vec![dup, filters.into_iter().next().unwrap()],
        );
        let before = broken.total_rows();
        assert!(before < 2 * rows && before > 0);
        let (returned, err) = match broken.reshard(1) {
            Err(t) => t,
            Ok(_) => panic!("duplicate pres must refuse"),
        };
        assert!(err.to_string().contains("more than one shard"), "{err}");
        // The fleet came back untouched: same shard count, same rows.
        assert_eq!(returned.spec().shards(), 2);
        assert_eq!(returned.total_rows(), before);
    }

    #[test]
    fn sharded_server_routes_and_rejects_bad_shards() {
        let (table, ring) = encoded();
        let rows = table.len() as u64;
        let mut s = ShardedServer::from_table(table, ring, 2).unwrap();
        assert_eq!(s.spec().shards(), 2);
        assert_eq!(s.total_rows() as u64, rows);
        let (a, b) = match (s.handle(0, &Request::Count), s.handle(1, &Request::Count)) {
            (Response::Count(a), Response::Count(b)) => (a, b),
            other => panic!("{other:?}"),
        };
        assert_eq!(a + b, rows);
        assert!(matches!(s.handle(7, &Request::Count), Response::Err(_)));
        // Per-shard stats are independent.
        assert_eq!(s.filters()[0].stats().requests, 1);
        assert_eq!(s.filters()[1].stats().requests, 1);
    }
}
