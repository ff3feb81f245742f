//! The server side of the filter (§5.2).
//!
//! The server holds only server shares and the public tree structure. It can
//! evaluate its shares at points the client names and enumerate children
//! and descendants through the B-tree indices. Clients send it a whole
//! frontier per wave (a `Batch` frame), where the paper's client pulled one
//! node per round trip from a server-buffered cursor (§5.2). It learns
//! evaluation points and access patterns, never tag names or plaintext
//! polynomials.

use crate::protocol::{Request, Response, AGG_CHECK, AGG_FENCE, AGG_FETCH, AGG_SUM};
use ssx_poly::{EvalPoly, Packer, RingCtx, RingPoly};
use ssx_store::{Loc, Row, Table, NUM_PLANE_BASE};
use std::collections::HashMap;

/// Inert: no server answer carries this message any more. It was the
/// refusal of a cursor pull across a write, and the cursor plane is gone;
/// it stays only because the repository benchmark (`perfbench/`) still
/// matches errors against it.
pub const EPOCH_FENCE: &str = "store epoch changed (write since cursor opened); reopen cursor";

/// Upper bound on decoded evaluation-domain rows kept in memory. Each entry
/// costs `q − 1` words; at the paper's `q = 83` a full cache of this size is
/// ~0.7 GB — beyond it the server still answers, it just re-decodes.
const EVAL_CACHE_MAX_ENTRIES: usize = 1 << 20;

/// Server-side counters (reported by benches and the TCP example).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests handled.
    pub requests: u64,
    /// Single-point share evaluations performed.
    pub evaluations: u64,
    /// Evaluations answered from the decoded evaluation-domain cache
    /// (an O(1) component lookup instead of unpack + Horner).
    pub eval_cache_hits: u64,
    /// Packed polynomials served to the client.
    pub polys_served: u64,
    /// Inert, always 0: the cursor plane is gone. Kept only because the
    /// repository benchmark (`perfbench/`) still reads it.
    pub cursors_opened: u64,
    /// Inert, always 0 (see [`ServerStats::cursors_opened`]).
    pub cursor_items: u64,
    /// Rows added through the write plane.
    pub rows_inserted: u64,
    /// Rows removed through the write plane.
    pub rows_removed: u64,
}

/// The `ServerFilter`: table + ring + request handler.
pub struct ServerFilter {
    table: Table,
    ring: RingCtx,
    packer: Packer,
    stats: ServerStats,
    /// Bumped by every applied mutation. Aggregates record it in their
    /// snapshot wave; a closing frame across a bump is refused with an
    /// [`AGG_FENCE`] error instead of summing torn state.
    epoch: u64,
    /// Rows decoded into the evaluation domain on first touch: every later
    /// evaluation of that share is an O(1) lookup ("the big server will do
    /// the buffering", §5.2). The stored table keeps the packed coefficient
    /// form — this cache is derived data, never persisted.
    eval_cache: HashMap<u32, EvalPoly>,
    /// Reused coefficient buffer for first-touch row decodes (the unpack
    /// boundary allocates nothing in steady state).
    scratch_row: RingPoly,
}

impl ServerFilter {
    /// Wraps a filled table. `ring` must match the parameters the table was
    /// encoded with (the packed length is checked).
    pub fn new(table: Table, ring: RingCtx) -> Self {
        let packer = Packer::new(&ring);
        assert_eq!(
            packer.radix_len(),
            table.poly_len(),
            "table was packed for a different field"
        );
        let scratch_row = ring.zero();
        ServerFilter {
            table,
            ring,
            packer,
            stats: ServerStats::default(),
            epoch: 0,
            eval_cache: HashMap::new(),
            scratch_row,
        }
    }

    /// The current store epoch (bumped by every applied mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying table (read access for size reports).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The ring the stored shares live in.
    pub fn ring(&self) -> &RingCtx {
        &self.ring
    }

    /// Consumes the filter, yielding its table — the rows move out intact
    /// (bit-identical packed bytes), which is what online re-sharding
    /// repartitions. Derived state (eval cache, counters) is
    /// dropped: it is rebuilt lazily on the new placement.
    pub fn into_table(self) -> Table {
        self.table
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Evaluates the stored share of `pre` at `point`. The point is
    /// validated first — it arrives from the network and must not reach the
    /// ring arithmetic out of range.
    ///
    /// The first evaluation of a row unpacks it and transforms it into the
    /// evaluation domain; every subsequent evaluation at any nonzero point
    /// is then an O(1) component lookup instead of a Horner pass.
    fn eval_one(&mut self, pre: u32, point: u64) -> Result<u64, String> {
        if !self.ring.field().is_valid(point) {
            return Err(format!(
                "evaluation point {point} outside F_{}",
                self.ring.field().order()
            ));
        }
        if let Some(evals) = self.eval_cache.get(&pre) {
            self.stats.evaluations += 1;
            self.stats.eval_cache_hits += 1;
            return Ok(self.ring.eval_at(evals, point));
        }
        let row = self
            .table
            .by_pre(pre)
            .ok_or_else(|| format!("no node pre={pre}"))?;
        self.packer
            .unpack_radix_into(&row.poly, &mut self.scratch_row)
            .map_err(|e| format!("row pre={pre}: {e}"))?;
        let evals = self.ring.to_evals(&self.scratch_row);
        let value = self.ring.eval_at(&evals, point);
        if self.eval_cache.len() < EVAL_CACHE_MAX_ENTRIES {
            self.eval_cache.insert(pre, evals);
        }
        self.stats.evaluations += 1;
        Ok(value)
    }

    /// Handles one request. Never panics on malformed input — errors travel
    /// back as [`Response::Err`].
    pub fn handle(&mut self, req: &Request) -> Response {
        self.stats.requests += 1;
        match req {
            // Numeric-plane rows carry `parent = 0` so the nesting invariant
            // holds; they are value storage, not document roots. `roots`
            // leaves them out itself; mask them out of every other
            // structural answer.
            Request::Roots => Response::Locs(self.table.roots()),
            Request::GetLoc { pre } => Response::MaybeLoc(self.table.by_pre(*pre).map(|r| r.loc)),
            Request::Children { pre } => Response::Locs(
                self.table
                    .children_of(*pre)
                    .into_iter()
                    .filter(|l| l.pre < NUM_PLANE_BASE)
                    .collect(),
            ),
            Request::Descendants { loc } => Response::Locs(
                self.table
                    .descendants_of(*loc)
                    .into_iter()
                    .filter(|l| l.pre < NUM_PLANE_BASE)
                    .collect(),
            ),
            Request::EvalMany { pres, point } => {
                let mut out = Vec::with_capacity(pres.len());
                for &pre in pres {
                    match self.eval_one(pre, *point) {
                        Ok(v) => out.push(v),
                        Err(e) => return Response::Err(e),
                    }
                }
                Response::Values(out)
            }
            Request::GetPolys { pres } => {
                let mut out = Vec::with_capacity(pres.len());
                for &pre in pres {
                    match self.table.by_pre(pre) {
                        Some(row) => {
                            self.stats.polys_served += 1;
                            out.push(row.poly.to_vec());
                        }
                        None => return Response::Err(format!("no node pre={pre}")),
                    }
                }
                Response::Polys(out)
            }
            Request::Count => Response::Count(self.table.len() as u64),
            Request::Shutdown => Response::Ok,
            // A bare filter is a 1-shard endpoint; sharded hosts intercept
            // this request before it reaches any filter.
            Request::ShardCount => Response::Count(1),
            // Repartitioning is a fleet-level operation; sharded hosts
            // intercept it before it reaches any filter.
            Request::Reshard { .. } => {
                Response::Err("reshard requires a sharded host endpoint".into())
            }
            // The mux handshake is a connection-level operation: the
            // host's reader intercepts it before any filter; anywhere else
            // (a bare filter, inside a batch) it is a clean refusal.
            Request::Hello { .. } => {
                Response::Err("mux handshake requires a mux host endpoint".into())
            }
            Request::Insert { rows } => self.apply_insert(rows),
            Request::Delete { pres } => self.apply_delete(pres),
            Request::MaxPre => Response::Count(self.table.max_pre() as u64),
            Request::Epoch => Response::Count(self.epoch),
            Request::Agg {
                op,
                pres,
                expect_epoch,
            } => self.handle_agg(*op, pres, *expect_epoch),
            Request::Batch(subs) => {
                let mut out = Vec::with_capacity(subs.len());
                for sub in subs {
                    out.push(match sub {
                        Request::Batch(_) | Request::ToShard { .. } | Request::Pair { .. } => {
                            Response::Err("nested batch refused".into())
                        }
                        // The codec refuses these too; in-process callers get
                        // the same answer (writes don't reorder against the
                        // reads sharing the round trip).
                        Request::Insert { .. } | Request::Delete { .. } => {
                            Response::Err("write frame refused in batch".into())
                        }
                        _ => self.handle(sub),
                    });
                }
                Response::Batch(out)
            }
            Request::ToShard { .. } => {
                Response::Err("shard-tagged request reached an unsharded endpoint".into())
            }
            // Data/MAC pairs address a fleet party host, which answers each
            // half on its own filter.
            Request::Pair { .. } => Response::Err("pair frame reached a bare filter".into()),
        }
    }

    /// Answers one [`Request::Agg`] frame. The epoch fence comes first: a
    /// write that landed after the aggregate's snapshot wave invalidates the
    /// client's matched set, so the whole frame is refused with a stable
    /// [`AGG_FENCE`]-prefixed error rather than summing torn state. The
    /// server touches exactly the listed rows — it learns which *shard* an
    /// aggregate visited (it visits all of them) and how many rows rode the
    /// frame, never which rows matched which predicate, because the listed
    /// `pres` are indistinguishable from any other batched read's.
    fn handle_agg(&mut self, op: u8, pres: &[u32], expect_epoch: u64) -> Response {
        if self.epoch != expect_epoch {
            return Response::Err(format!(
                "{AGG_FENCE} (write since aggregate started); retry from a fresh snapshot"
            ));
        }
        match op {
            AGG_CHECK => Response::Agg {
                found: vec![],
                partials: vec![],
            },
            AGG_SUM => {
                // Pointwise share-sum in groups of at most `ring_len` rows:
                // numeric rows carry base-2 digits (0/1 coefficients), so a
                // group's digit sums stay below q and reconstruct exactly.
                let group = self.ring.len();
                let mut found = Vec::new();
                let mut partials = Vec::new();
                let mut acc = self.ring.zero();
                let mut in_group = 0usize;
                for &pre in pres {
                    let Some(row) = self.table.by_pre(pre) else {
                        continue;
                    };
                    if let Err(e) = self
                        .packer
                        .unpack_radix_into(&row.poly, &mut self.scratch_row)
                    {
                        return Response::Err(format!("row pre={pre}: {e}"));
                    }
                    self.ring.add_assign(&mut acc, &self.scratch_row);
                    found.push(pre);
                    in_group += 1;
                    if in_group == group {
                        partials.push(self.packer.pack_radix(&acc));
                        acc = self.ring.zero();
                        in_group = 0;
                    }
                }
                if in_group > 0 {
                    partials.push(self.packer.pack_radix(&acc));
                }
                Response::Agg { found, partials }
            }
            AGG_FETCH => {
                // The rows themselves (range-predicate evaluation); unlike
                // `GetPolys`, absent rows are skipped, not errors — an
                // element without a numeric value simply fails the range.
                let mut found = Vec::new();
                let mut partials = Vec::new();
                for &pre in pres {
                    if let Some(row) = self.table.by_pre(pre) {
                        self.stats.polys_served += 1;
                        found.push(pre);
                        partials.push(row.poly.to_vec());
                    }
                }
                Response::Agg { found, partials }
            }
            other => Response::Err(format!("unknown agg op {other}")),
        }
    }

    /// Applies one [`Request::Insert`] frame atomically: either every row
    /// lands or none do (a failed row rolls the earlier ones back before the
    /// error returns). Applied writes bump the epoch and drop any cached
    /// evaluation rows for the touched `pre`s — a re-used `pre` must never
    /// answer from the share it carried in a previous life.
    fn apply_insert(&mut self, rows: &[(Loc, Vec<u8>)]) -> Response {
        let mut done = Vec::with_capacity(rows.len());
        for (loc, poly) in rows {
            match self.table.insert(Row {
                loc: *loc,
                poly: poly.clone().into_boxed_slice(),
            }) {
                Ok(()) => done.push(loc.pre),
                Err(e) => {
                    for &pre in done.iter().rev() {
                        self.table.remove(pre).expect("rollback of fresh insert");
                    }
                    return Response::Err(format!("insert pre={}: {e}", loc.pre));
                }
            }
        }
        if !done.is_empty() {
            for pre in &done {
                self.eval_cache.remove(pre);
            }
            self.epoch += 1;
            self.stats.rows_inserted += done.len() as u64;
        }
        Response::Count(done.len() as u64)
    }

    /// Applies one [`Request::Delete`] frame. Missing `pre`s are skipped
    /// (delete is idempotent — a retried frame answers a smaller count, not
    /// an error); any removed row bumps the epoch and evicts its cached
    /// evaluation form.
    fn apply_delete(&mut self, pres: &[u32]) -> Response {
        let mut removed = 0u64;
        for &pre in pres {
            if self.table.remove(pre).is_ok() {
                self.eval_cache.remove(&pre);
                removed += 1;
            }
        }
        if removed > 0 {
            self.epoch += 1;
            self.stats.rows_removed += removed;
        }
        Response::Count(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use crate::map::MapFile;
    use ssx_prg::Seed;

    fn server() -> ServerFilter {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(5);
        let out = encode_document("<site><a><b/><b/></a><c/></site>", &map, &seed).unwrap();
        ServerFilter::new(out.table, out.ring)
    }

    /// One node evaluated at one point, via a one-item `EvalMany`.
    fn eval1(s: &mut ServerFilter, pre: u32, point: u64) -> u64 {
        match s.handle(&Request::EvalMany {
            pres: vec![pre],
            point,
        }) {
            Response::Values(vs) => vs[0],
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn structure_queries() {
        let mut s = server();
        match s.handle(&Request::Roots) {
            Response::Locs(ls) => assert_eq!(ls.iter().map(|l| l.pre).collect::<Vec<_>>(), vec![1]),
            other => panic!("{other:?}"),
        }
        match s.handle(&Request::Children { pre: 1 }) {
            Response::Locs(ls) => {
                assert_eq!(ls.iter().map(|l| l.pre).collect::<Vec<_>>(), vec![2, 5])
            }
            other => panic!("{other:?}"),
        }
        match s.handle(&Request::Count) {
            Response::Count(5) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eval_and_errors() {
        let mut s = server();
        match s.handle(&Request::EvalMany {
            pres: vec![1],
            point: 3,
        }) {
            Response::Values(vs) => assert_eq!(vs.len(), 1),
            other => panic!("{other:?}"),
        }
        match s.handle(&Request::EvalMany {
            pres: vec![99],
            point: 3,
        }) {
            Response::Err(msg) => assert!(msg.contains("99")),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().evaluations, 1);
        match s.handle(&Request::EvalMany {
            pres: vec![1, 2, 3],
            point: 7,
        }) {
            Response::Values(vs) => assert_eq!(vs.len(), 3),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().evaluations, 4);
    }

    #[test]
    fn batch_requests_answered_slotwise() {
        let mut s = server();
        let resp = s.handle(&Request::Batch(vec![
            Request::Count,
            Request::Children { pre: 1 },
            Request::EvalMany {
                pres: vec![999],
                point: 3,
            },
            Request::Batch(vec![Request::Count]),
        ]));
        match resp {
            Response::Batch(subs) => {
                assert_eq!(subs.len(), 4);
                assert_eq!(subs[0], Response::Count(5));
                assert!(matches!(&subs[1], Response::Locs(ls) if ls.len() == 2));
                assert!(matches!(&subs[2], Response::Err(_)), "bad slot is inline");
                assert!(matches!(&subs[3], Response::Err(_)), "nested batch refused");
            }
            other => panic!("{other:?}"),
        }
        // Envelope + each sub counted as server work.
        assert_eq!(s.stats().requests, 1 + 3);
        // Shard tags are a router/server-host concern, not ServerFilter's.
        assert!(matches!(
            s.handle(&Request::ToShard {
                shard: 0,
                req: Box::new(Request::Count)
            }),
            Response::Err(_)
        ));
    }

    #[test]
    fn repeat_evaluations_hit_the_eval_cache() {
        let mut s = server();
        // First eval of a row decodes it; later evals (any point) are hits.
        for point in [3u64, 7, 11, 3] {
            match s.handle(&Request::EvalMany {
                pres: vec![1],
                point,
            }) {
                Response::Values(_) => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(s.stats().evaluations, 4);
        assert_eq!(s.stats().eval_cache_hits, 3);
        // Cached answers must agree with a fresh server's.
        let mut fresh = server();
        for point in 1..83u64 {
            let a = eval1(&mut s, 2, point);
            let b = eval1(&mut fresh, 2, point);
            assert_eq!(a, b, "point={point}");
        }
    }

    /// Valid packed share bytes for one row, parameterised so different
    /// fills give different polynomials.
    fn row_bytes(s: &ServerFilter, fill: u64) -> Vec<u8> {
        let ring = s.ring();
        let q = ring.field().order();
        let mut x = fill | 1;
        let coeffs = (0..ring.len())
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % q
            })
            .collect();
        Packer::new(ring).pack_radix(&ring.poly_from_coeffs(coeffs).unwrap())
    }

    #[test]
    fn insert_delete_round_trip_and_stats() {
        let mut s = server();
        let poly = row_bytes(&s, 7);
        let new = Loc {
            pre: 6,
            post: 6,
            parent: 0,
        };
        match s.handle(&Request::Insert {
            rows: vec![(new, poly.clone())],
        }) {
            Response::Count(1) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.handle(&Request::Count), Response::Count(6));
        assert_eq!(s.handle(&Request::MaxPre), Response::Count(6));
        match s.handle(&Request::GetPolys { pres: vec![6] }) {
            Response::Polys(ps) => assert_eq!(ps[0], poly),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().rows_inserted, 1);
        // Delete it; a second delete of the same pre is a clean zero.
        assert_eq!(
            s.handle(&Request::Delete { pres: vec![6] }),
            Response::Count(1)
        );
        assert_eq!(
            s.handle(&Request::Delete { pres: vec![6] }),
            Response::Count(0)
        );
        assert_eq!(s.handle(&Request::Count), Response::Count(5));
        assert_eq!(s.stats().rows_removed, 1);
    }

    #[test]
    fn failed_insert_rolls_back_whole_frame() {
        let mut s = server();
        let ok = row_bytes(&s, 1);
        let epoch_before = s.epoch();
        // Second row duplicates an existing pre: the whole frame must unwind.
        let rows = vec![
            (
                Loc {
                    pre: 6,
                    post: 6,
                    parent: 0,
                },
                ok.clone(),
            ),
            (
                Loc {
                    pre: 1,
                    post: 99,
                    parent: 0,
                },
                ok,
            ),
        ];
        match s.handle(&Request::Insert { rows }) {
            Response::Err(msg) => assert!(msg.contains("insert pre=1"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.handle(&Request::Count), Response::Count(5), "rolled back");
        assert_eq!(s.epoch(), epoch_before, "failed frame must not bump epoch");
        assert_eq!(s.stats().rows_inserted, 0);
    }

    /// Every applied write bumps the epoch aggregates fence on; a delete
    /// that removes nothing leaves it alone.
    #[test]
    fn effective_writes_bump_the_epoch() {
        let mut s = server();
        let e0 = s.epoch();
        let new = Loc {
            pre: 6,
            post: 6,
            parent: 0,
        };
        let poly = row_bytes(&s, 3);
        assert_eq!(
            s.handle(&Request::Insert {
                rows: vec![(new, poly)]
            }),
            Response::Count(1)
        );
        assert_eq!(s.epoch(), e0 + 1);
        assert_eq!(s.handle(&Request::Epoch), Response::Count(e0 + 1));
        assert_eq!(
            s.handle(&Request::Delete { pres: vec![99] }),
            Response::Count(0)
        );
        assert_eq!(s.epoch(), e0 + 1, "an ineffective delete is no write");
        assert_eq!(
            s.handle(&Request::Delete { pres: vec![6] }),
            Response::Count(1)
        );
        assert_eq!(s.epoch(), e0 + 2);
    }

    /// A pre that dies and is reborn with a different share must never
    /// answer evaluations from its previous life's cached decode.
    #[test]
    fn eval_cache_does_not_survive_rebirth_of_a_pre() {
        let mut s = server();
        let loc = Loc {
            pre: 6,
            post: 6,
            parent: 0,
        };
        let first = row_bytes(&s, 2);
        assert_eq!(
            s.handle(&Request::Insert {
                rows: vec![(loc, first)]
            }),
            Response::Count(1)
        );
        let before = eval1(&mut s, 6, 3);
        // Kill and re-insert the same pre with different share bytes.
        assert_eq!(
            s.handle(&Request::Delete { pres: vec![6] }),
            Response::Count(1)
        );
        let second = row_bytes(&s, 9);
        assert_eq!(
            s.handle(&Request::Insert {
                rows: vec![(loc, second.clone())]
            }),
            Response::Count(1)
        );
        let after = eval1(&mut s, 6, 3);
        assert_ne!(before, after, "stale eval cache served a dead share");
        // And the fresh answer matches a cold server over the same table.
        let mut cold = ServerFilter::new(s.table().clone(), s.ring().clone());
        let want = eval1(&mut cold, 6, 3);
        assert_eq!(after, want);
    }

    #[test]
    fn write_frames_refused_inside_batch() {
        let mut s = server();
        let resp = s.handle(&Request::Batch(vec![
            Request::Count,
            Request::Delete { pres: vec![1] },
        ]));
        match resp {
            Response::Batch(subs) => {
                assert_eq!(subs[0], Response::Count(5));
                assert!(matches!(&subs[1], Response::Err(_)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            s.handle(&Request::Count),
            Response::Count(5),
            "no write applied"
        );
    }

    #[test]
    fn polys_served_counted() {
        let mut s = server();
        match s.handle(&Request::GetPolys { pres: vec![1, 2] }) {
            Response::Polys(ps) => {
                assert_eq!(ps.len(), 2);
                assert_eq!(ps[0].len(), 66, "f_83 radix-packed length");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.stats().polys_served, 2);
        match s.handle(&Request::GetPolys { pres: vec![77] }) {
            Response::Err(_) => {}
            other => panic!("{other:?}"),
        }
    }
}
