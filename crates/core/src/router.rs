//! The shard-aware, batch-first transport: [`ShardRouter`].
//!
//! A router owns one [`Transport`] per shard and presents the whole fleet as
//! a single [`Transport`]: engines and the [`crate::client::ClientFilter`]
//! stay shard-oblivious. Per logical round trip (a *wave*) the router
//!
//! 1. **splits** every sub-request by the deterministic `pre → shard`
//!    partition ([`ShardSpec::shard_of`]): point requests (`GetLoc`) go to
//!    the owning shard, item-list requests (`EvalMany`, `GetPolys`) are
//!    split into per-shard sublists, and structure requests (`Roots`,
//!    `Children`, `Descendants`, `Count`) fan out to every shard;
//! 2. **dispatches** at most one frame per shard — many sub-requests for
//!    the same shard collapse into one [`Request::Batch`] — as pipelined
//!    sends on a multiplexed transport ([`MuxTransport`]), on scoped
//!    threads for blocking pipes that do not pipeline (a networked fleet's
//!    [`crate::fleet::FleetTransport`]), or as a sequential loop for
//!    in-process ones;
//! 3. **merges** the answers back in document order: split item lists are
//!    scattered to their original positions, fanned location lists are
//!    k-way merged by `pre` (shards hold disjoint `pre` sets, so the merge
//!    reproduces the unsharded answer exactly).
//!
//! Cursors (the §5.2 `nextNode()` pipeline) keep working over shards: the
//! router opens one cursor per shard, holds one look-ahead head per stream,
//! and answers each `Next` with the minimum-`pre` head — the same document
//! order a single server streams, at one wave per node.
//!
//! # Speculative wave pipelining
//!
//! With [`ShardRouter::set_speculation`] on, the router overlaps dependent
//! waves: every `EvalMany` wave (a frontier being tested) piggybacks
//! `Children` prefetches for the same nodes **inside the same physical
//! frames** — wave *k + 1*'s probable batch travels while wave *k*'s
//! answers are in flight. The predicted answers land in a bounded cache;
//! when the engine then expands the surviving frontier, those `Children`
//! requests are answered locally (`speculative_hits`) and the expansion
//! wave costs **zero round trips**. A frontier that diverges from the
//! prediction (look-ahead pruning, `..` steps, descendant expansion) simply
//! never consumes its prefetches — they are counted as
//! `speculative_wasted`, and correctness is untouched because cached
//! answers are the very responses the owning shards produced for an
//! immutable table. Speculation is invisible in results by construction;
//! what it trades is bytes (prefetches for pruned nodes) for waves.

use crate::error::CoreError;
use crate::protocol::{Request, Response};
use crate::server::ServerFilter;
use crate::shard::{ShardSpec, ShardedServer};
use crate::transport::{LocalTransport, MuxPool, MuxTransport, Transport, TransportStats};
use ssx_store::Loc;
use std::collections::HashMap;

/// How the answers of one original request are reassembled from per-shard
/// sub-responses.
enum Slot {
    /// Answer produced without touching any shard (e.g. an empty item list).
    Ready(Response),
    /// The request went verbatim to one shard.
    Single { shard: usize, pos: usize },
    /// An item-list request was split; each part remembers which original
    /// item indices it carries.
    Split {
        kind: SplitKind,
        total_items: usize,
        parts: Vec<(usize, usize, Vec<usize>)>,
    },
    /// The request was sent to every shard; `positions[s]` is its slot in
    /// shard `s`'s frame.
    Fan {
        kind: FanKind,
        positions: Vec<usize>,
    },
}

#[derive(Clone, Copy)]
enum SplitKind {
    /// `EvalMany` → `Values`, scattered by item index.
    Values,
    /// `GetPolys` → `Polys`, scattered by item index.
    Polys,
}

#[derive(Clone, Copy)]
enum FanKind {
    /// `Roots`/`Children`/`Descendants`: disjoint sorted lists, merged by
    /// `pre`.
    Locs,
    /// `Count`: summed.
    Count,
    /// `MaxPre`: the maximum across shards.
    Max,
    /// `Shutdown` and friends: every shard must ack.
    Ok,
    /// `Epoch`: per-shard epochs, kept separate (`Values`, shard order) —
    /// aggregate fences are validated shard by shard, so collapsing them
    /// into one number would lose exactly the information they exist for.
    Epochs,
}

/// Upper bound on cached speculative answers (entries, each one node's
/// children list). Beyond it the router stops prefetching rather than
/// evicting — a bounded memory footprint with no cache-churn pathology.
const SPEC_CACHE_MAX: usize = 1 << 16;

/// Default per-shard traffic budget (bytes, client-observed send + receive)
/// behind [`ShardRouter::suggest_shards`]: the fleet is sized so one
/// shard's share of a measurement window stays under ~1 MiB.
pub const SUGGEST_TARGET_BYTES: u64 = 1 << 20;

/// Ceiling on what [`ShardRouter::suggest_shards`] will ever recommend.
pub const MAX_SUGGESTED_SHARDS: u32 = 64;

/// A speculative `Children` prefetch riding an `EvalMany` wave: one fanned
/// sub-request per shard, harvested into the cache on arrival.
struct SpecFetch {
    pre: u32,
    /// `positions[s]` = slot of the prefetch in shard `s`'s frame.
    positions: Vec<usize>,
}

/// A cached speculative answer. `consumed` marks first use, for the
/// hit/wasted accounting.
struct SpecEntry {
    locs: Vec<Loc>,
    consumed: bool,
}

/// One per-shard cursor stream of a merged cursor, with one look-ahead head.
struct ShardStream {
    cursor: u32,
    head: Loc,
}

/// A router-level cursor: the live per-shard streams (index = shard).
struct MergeCursor {
    streams: Vec<Option<ShardStream>>,
}

/// The shard-aware batch-first transport (see the module docs).
pub struct ShardRouter<T: Transport> {
    spec: ShardSpec,
    transports: Vec<T>,
    /// Wrap per-shard frames in [`Request::ToShard`]. Socket endpoints need
    /// the tag (the host routes on it); local transports are positional.
    tag_frames: bool,
    /// Dispatch per-shard frames on scoped threads instead of a sequential
    /// loop when the transports do not pipeline. On for networked fleet
    /// pipes, off for in-process transports.
    concurrent: bool,
    waves: u64,
    batches: u64,
    batched_requests: u64,
    cursors: HashMap<u32, MergeCursor>,
    next_cursor: u32,
    /// Speculative wave pipelining (see the module docs). Off by default —
    /// the PR-3 wire shape — because it trades bytes for waves.
    speculate: bool,
    /// Children lists prefetched by speculation, keyed by parent `pre`.
    spec_cache: HashMap<u32, SpecEntry>,
    /// Prefetches issued / answers served from the cache / distinct cached
    /// entries consumed at least once (`issued − consumed` = wasted).
    spec_issued: u64,
    spec_hits: u64,
    spec_consumed: u64,
    /// Traffic of transports retired by [`ShardRouter::reshard`] — folded
    /// into [`ShardRouter::stats`] so counters never run backwards across a
    /// repartition. Only `bytes_sent`/`bytes_received`/`shard_dispatches`
    /// are ever non-zero here.
    carry: TransportStats,
}

impl ShardRouter<LocalTransport> {
    /// Routes to in-process shards: one [`LocalTransport`] per filter of
    /// `server`, sequential dispatch (there is no I/O to overlap).
    pub fn local(server: ShardedServer) -> Self {
        let spec = server.spec();
        let transports = server
            .into_filters()
            .into_iter()
            .map(LocalTransport::new)
            .collect();
        ShardRouter::new(spec, transports, false, false)
    }

    /// Read access to the per-shard servers (stats, table sizes).
    pub fn servers(&self) -> impl Iterator<Item = &ServerFilter> {
        self.transports.iter().map(|t| t.server())
    }

    /// Mutable access to the per-shard servers (stat resets in benches).
    pub fn servers_mut(&mut self) -> impl Iterator<Item = &mut ServerFilter> {
        self.transports.iter_mut().map(|t| t.server_mut())
    }

    /// Repartitions the in-process fleet across `shards` filters without a
    /// save/load cycle ([`ShardedServer::reshard`]): rows move
    /// bit-identically, the router re-wires one transport per new shard,
    /// and cumulative byte counters carry over. Open merged cursors are
    /// invalidated (their server-side buffers die with the old placement;
    /// the next `Next` gets an explicit error), and the speculation cache
    /// is cleared. A refused repartition (see [`ShardedServer::reshard`])
    /// re-wires the *original* fleet and surfaces the error — the router
    /// stays fully usable either way.
    pub fn reshard(&mut self, shards: u32) -> Result<(), CoreError> {
        self.cursors.clear();
        self.spec_cache.clear();
        for t in &self.transports {
            let u = t.stats();
            self.carry.bytes_sent += u.bytes_sent;
            self.carry.bytes_received += u.bytes_received;
            self.carry.shard_dispatches += u.round_trips;
        }
        let filters: Vec<ServerFilter> = std::mem::take(&mut self.transports)
            .into_iter()
            .map(LocalTransport::into_server)
            .collect();
        let (server, outcome) =
            match ShardedServer::from_filters(self.spec, filters).reshard(shards) {
                Ok(server) => (server, Ok(())),
                Err((original, e)) => (original, Err(CoreError::from(e))),
            };
        self.spec = server.spec();
        self.transports = server
            .into_filters()
            .into_iter()
            .map(LocalTransport::new)
            .collect();
        outcome
    }
}

impl ShardRouter<MuxTransport> {
    /// Routes over a shared [`MuxPool`]: one **multiplexed** socket per
    /// shard, shared with every other router built on the same pool, so the
    /// waves of many concurrent clients overlap on the wire. Frames are
    /// shard-tagged when the host has more than one shard and pipelined
    /// across shards; the pool's [`Request::Hello`] handshake already
    /// negotiated the framing and fixed the shard count.
    pub fn mux(pool: &MuxPool) -> Self {
        let spec = ShardSpec::new(pool.shards());
        let transports = (0..spec.shards()).map(|s| pool.transport(s)).collect();
        ShardRouter::new(spec, transports, spec.shards() > 1, true)
    }
}

impl<T: Transport + Send> ShardRouter<T> {
    /// Wires a router over explicit per-shard transports.
    pub fn new(spec: ShardSpec, transports: Vec<T>, tag_frames: bool, concurrent: bool) -> Self {
        assert_eq!(spec.shards() as usize, transports.len());
        ShardRouter {
            spec,
            transports,
            tag_frames,
            concurrent,
            waves: 0,
            batches: 0,
            batched_requests: 0,
            cursors: HashMap::new(),
            next_cursor: 1,
            speculate: false,
            spec_cache: HashMap::new(),
            spec_issued: 0,
            spec_hits: 0,
            spec_consumed: 0,
            carry: TransportStats::default(),
        }
    }

    /// Enables or disables speculative wave pipelining (see the module
    /// docs). Disabling clears the prefetch cache; counters persist.
    pub fn set_speculation(&mut self, enabled: bool) {
        self.speculate = enabled;
        if !enabled {
            self.spec_cache.clear();
        }
    }

    /// Whether speculative wave pipelining is on.
    pub fn speculation(&self) -> bool {
        self.speculate
    }

    /// The partition spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Per-shard traffic counters (physical sends, bytes per shard).
    pub fn shard_stats(&self) -> Vec<TransportStats> {
        self.transports.iter().map(|t| t.stats()).collect()
    }

    /// Auto-tuning: the shard count the observed per-shard load argues for,
    /// at the default [`SUGGEST_TARGET_BYTES`] per-shard budget. See
    /// [`ShardRouter::suggest_shards_for_target`].
    pub fn suggest_shards(&self) -> u32 {
        self.suggest_shards_for_target(SUGGEST_TARGET_BYTES)
    }

    /// Auto-tuning with an explicit per-shard byte budget: sizes the fleet
    /// so that the *busiest* shard's observed traffic, taken as what any
    /// shard may attract (conservative under load skew), would fit under
    /// `target_bytes` — `⌈busiest · S / target⌉`, clamped to
    /// `[1, MAX_SUGGESTED_SHARDS]`. Under the balanced round-robin
    /// partition this reduces to `⌈total / target⌉`; skew (one shard
    /// hotter than the mean) pushes the suggestion up. With no traffic
    /// observed it keeps the current count. Feed the result to
    /// [`ShardRouter::reshard`] (or `ssxdb reshard`) — the router never
    /// repartitions behind the caller's back.
    pub fn suggest_shards_for_target(&self, target_bytes: u64) -> u32 {
        let target = target_bytes.max(1);
        let loads = self
            .transports
            .iter()
            .map(|t| {
                let s = t.stats();
                s.bytes_sent + s.bytes_received
            })
            .collect::<Vec<u64>>();
        let busiest = loads.iter().copied().max().unwrap_or(0);
        if busiest == 0 {
            return self.spec.shards();
        }
        let needed = busiest
            .saturating_mul(self.spec.shards() as u64)
            .div_ceil(target)
            .min(MAX_SUGGESTED_SHARDS as u64) as u32;
        needed.max(1)
    }

    /// The underlying per-shard transports.
    pub fn transports(&self) -> &[T] {
        &self.transports
    }

    /// Mutable access to the underlying transports.
    pub fn transports_mut(&mut self) -> &mut [T] {
        &mut self.transports
    }

    fn shard_of(&self, pre: u32) -> usize {
        self.spec.shard_of(pre) as usize
    }

    /// Sends one frame per shard with work queued (batching multi-request
    /// shards), one wave. Returns per-shard response lists parallel to
    /// `per_shard`.
    fn dispatch(&mut self, per_shard: Vec<Vec<Request>>) -> Result<Vec<Vec<Response>>, CoreError> {
        debug_assert_eq!(per_shard.len(), self.transports.len());
        if per_shard.iter().all(|v| v.is_empty()) {
            return Ok(per_shard.into_iter().map(|_| Vec::new()).collect());
        }
        self.waves += 1;
        let tag = self.tag_frames;
        // Build the outgoing frame per shard.
        let mut frames: Vec<Option<(Request, usize)>> = Vec::with_capacity(per_shard.len());
        for (shard, reqs) in per_shard.into_iter().enumerate() {
            if reqs.is_empty() {
                frames.push(None);
                continue;
            }
            let expected = reqs.len();
            let mut frame = if expected == 1 {
                reqs.into_iter().next().expect("one request")
            } else {
                self.batches += 1;
                self.batched_requests += expected as u64;
                Request::Batch(reqs)
            };
            if tag {
                frame = Request::ToShard {
                    shard: shard as u32,
                    req: Box::new(frame),
                };
            }
            frames.push(Some((frame, expected)));
        }
        // Dispatch: a pipelining transport (mux) overlaps the round trips
        // with zero extra threads — every frame goes on the wire, then the
        // completion slots are collected; scoped threads overlap blocking
        // pipes (a networked fleet's legs); the sequential loop is the
        // right shape for in-process shards.
        let results: Vec<Option<Result<Response, CoreError>>> =
            if self.transports.first().is_some_and(Transport::pipelines) {
                let pending: Vec<_> = self
                    .transports
                    .iter_mut()
                    .zip(&frames)
                    .map(|(t, f)| f.as_ref().map(|(frame, _)| t.call_pipelined(frame)))
                    .collect();
                self.transports
                    .iter_mut()
                    .zip(pending)
                    .map(|(t, p)| p.map(|p| p.and_then(|call| t.finish_pipelined(call))))
                    .collect()
            } else if self.concurrent {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .transports
                        .iter_mut()
                        .zip(&frames)
                        .map(|(t, f)| {
                            f.as_ref()
                                .map(|(frame, _)| scope.spawn(move || t.call(frame)))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.map(|h| h.join().expect("shard dispatch thread")))
                        .collect()
                })
            } else {
                self.transports
                    .iter_mut()
                    .zip(&frames)
                    .map(|(t, f)| f.as_ref().map(|(frame, _)| t.call(frame)))
                    .collect()
            };
        // Unwrap batch envelopes back into per-shard response lists.
        let mut out = Vec::with_capacity(results.len());
        for (res, frame) in results.into_iter().zip(frames) {
            match (res, frame) {
                (None, _) => out.push(Vec::new()),
                (Some(res), Some((_, expected))) => {
                    let resp = res?;
                    if expected == 1 {
                        out.push(vec![resp]);
                    } else {
                        out.push(crate::transport::unwrap_batch(resp, expected)?);
                    }
                }
                (Some(_), None) => unreachable!("response without a frame"),
            }
        }
        Ok(out)
    }

    /// Splits `reqs` by shard, dispatches one wave, merges the answers back
    /// in request order. Cursor requests need router-held merge state and
    /// are answered through it (each is its own wave).
    fn route_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        if reqs.iter().any(|r| {
            matches!(
                r,
                Request::OpenChildrenCursor { .. }
                    | Request::OpenDescendantsCursor { .. }
                    | Request::Next { .. }
                    | Request::CloseCursor { .. }
                    | Request::Insert { .. }
                    | Request::Delete { .. }
            )
        }) {
            return reqs.iter().map(|r| self.route_one(r)).collect();
        }
        self.route_batch_core(reqs)
    }

    /// The non-cursor wave: plan every request, piggyback speculative
    /// prefetches, dispatch (at most) once, harvest, merge. A wave whose
    /// every request was answered from the speculation cache dispatches
    /// nothing and costs zero round trips.
    fn route_batch_core(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        let shards = self.transports.len();
        let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); shards];
        let mut slots: Vec<Slot> = Vec::with_capacity(reqs.len());
        for req in reqs {
            slots.push(self.plan(req, &mut per_shard));
        }
        let specs = self.plan_speculation(reqs, &mut per_shard);
        let mut responses = self.dispatch(per_shard)?;
        self.harvest_speculation(specs, &mut responses);
        slots
            .into_iter()
            .map(|slot| merge_slot(slot, &mut responses))
            .collect()
    }

    /// Queues the next wave's probable `Children` fetches onto a wave that
    /// is about to dispatch anyway: one fanned prefetch per distinct
    /// `EvalMany` node not already cached. Prefetches never *create* a wave
    /// — an otherwise-empty wave stays empty — and stop when the cache is
    /// full.
    fn plan_speculation(
        &mut self,
        reqs: &[Request],
        per_shard: &mut [Vec<Request>],
    ) -> Vec<SpecFetch> {
        if !self.speculate || per_shard.iter().all(|v| v.is_empty()) {
            return Vec::new();
        }
        let mut out: Vec<SpecFetch> = Vec::new();
        let mut queued: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for req in reqs {
            let Request::EvalMany { pres, .. } = req else {
                continue;
            };
            for &pre in pres {
                if self.spec_cache.len() + out.len() >= SPEC_CACHE_MAX {
                    return out;
                }
                if !queued.insert(pre) || self.spec_cache.contains_key(&pre) {
                    continue;
                }
                // Children of `pre` may live on any shard (the partition is
                // by the *child's* pre), so the prefetch fans like a real
                // `Children` request would.
                let positions = per_shard
                    .iter_mut()
                    .map(|q| {
                        q.push(Request::Children { pre });
                        q.len() - 1
                    })
                    .collect();
                self.spec_issued += 1;
                out.push(SpecFetch { pre, positions });
            }
        }
        out
    }

    /// Moves the speculative answers out of the wave and into the cache.
    /// A prefetch any shard answered with an error is dropped (it stays
    /// issued-but-never-consumed, i.e. wasted) — the cache holds only
    /// answers identical to what a real fan would have merged.
    fn harvest_speculation(&mut self, specs: Vec<SpecFetch>, responses: &mut [Vec<Response>]) {
        for spec in specs {
            let mut locs: Vec<Loc> = Vec::new();
            let mut ok = true;
            for (shard, &pos) in spec.positions.iter().enumerate() {
                match take_response(responses, shard, pos) {
                    Response::Locs(ls) => locs.extend(ls),
                    _ => ok = false,
                }
            }
            if ok {
                // Disjoint pre sets: sorting is the exact k-way merge.
                locs.sort_by_key(|l| l.pre);
                self.spec_cache.insert(
                    spec.pre,
                    SpecEntry {
                        locs,
                        consumed: false,
                    },
                );
            }
        }
    }

    /// Routes one request that is not a cursor operation.
    fn plan(&mut self, req: &Request, per_shard: &mut [Vec<Request>]) -> Slot {
        match req {
            Request::GetLoc { pre } => {
                let shard = self.shard_of(*pre);
                let pos = per_shard[shard].len();
                per_shard[shard].push(req.clone());
                Slot::Single { shard, pos }
            }
            Request::EvalMany { pres, point } => {
                let parts = self.split_items(pres, per_shard, |sub| Request::EvalMany {
                    pres: sub,
                    point: *point,
                });
                Slot::Split {
                    kind: SplitKind::Values,
                    total_items: pres.len(),
                    parts,
                }
            }
            Request::GetPolys { pres } => {
                let parts =
                    self.split_items(pres, per_shard, |sub| Request::GetPolys { pres: sub });
                Slot::Split {
                    kind: SplitKind::Polys,
                    total_items: pres.len(),
                    parts,
                }
            }
            Request::Children { pre } => {
                // A speculative prefetch may already hold this answer; if
                // so the request never leaves the router.
                if self.speculate {
                    if let Some(entry) = self.spec_cache.get_mut(pre) {
                        self.spec_hits += 1;
                        if !entry.consumed {
                            entry.consumed = true;
                            self.spec_consumed += 1;
                        }
                        return Slot::Ready(Response::Locs(entry.locs.clone()));
                    }
                }
                self.fan(req, FanKind::Locs, per_shard)
            }
            Request::Descendants { .. } => self.fan(req, FanKind::Locs, per_shard),
            // Locs-merging the fan gives exactly the document-order forest.
            Request::Roots => self.fan(req, FanKind::Locs, per_shard),
            Request::Count => self.fan(req, FanKind::Count, per_shard),
            Request::MaxPre => self.fan(req, FanKind::Max, per_shard),
            Request::Epoch => self.fan(req, FanKind::Epochs, per_shard),
            // An aggregate closing frame is inherently single-shard: its
            // `expect_epoch` is one shard's fence, so the client splits the
            // matched pres by the public partition itself and routes each
            // sub-frame by its first pre (for `AGG_CHECK`, a representative
            // pre owned by the target shard — `shard + 1` under the
            // round-robin partition).
            Request::Agg { pres, .. } => {
                let Some(&first) = pres.first() else {
                    return Slot::Ready(Response::Err(
                        "Agg via a router needs at least one pre to route by; \
                         send a representative pre for AGG_CHECK"
                            .into(),
                    ));
                };
                let shard = self.shard_of(first);
                if pres.iter().any(|&p| self.shard_of(p) != shard) {
                    return Slot::Ready(Response::Err(
                        "Agg pres span shards; split them by ShardSpec::shard_of first".into(),
                    ));
                }
                let pos = per_shard[shard].len();
                per_shard[shard].push(req.clone());
                Slot::Single { shard, pos }
            }
            Request::Shutdown => self.fan(req, FanKind::Ok, per_shard),
            // The router *is* the sharded endpoint from its client's view.
            Request::ShardCount => Slot::Ready(Response::Count(self.spec.shards() as u64)),
            // Repartitioning a fleet the router holds open connections to
            // would silently invalidate its own partition; the owning
            // endpoint does it instead ([`ShardRouter::reshard`] locally, a
            // raw transport against a TCP host remotely).
            Request::Reshard { .. } => Slot::Ready(Response::Err(
                "reshard via ShardRouter::reshard (local) or a direct transport (TCP host)".into(),
            )),
            // Framing negotiation belongs to the connection owner; a mux
            // router's pool already performed it at connect time.
            Request::Hello { .. } => Slot::Ready(Response::Err(
                "mux handshakes are performed by the owning transport at connect time".into(),
            )),
            Request::Batch(_) | Request::ToShard { .. } | Request::Pair { .. } => Slot::Ready(
                Response::Err("routers build their own envelopes; send plain requests".into()),
            ),
            Request::OpenChildrenCursor { .. }
            | Request::OpenDescendantsCursor { .. }
            | Request::Next { .. }
            | Request::CloseCursor { .. } => {
                unreachable!("cursor requests are answered by the merge-cursor path")
            }
            Request::Insert { .. } | Request::Delete { .. } => {
                unreachable!("write frames are answered by the write path")
            }
        }
    }

    /// Groups `pres` by owning shard, queueing one sub-request per shard
    /// with items; records original item indices for the scatter.
    fn split_items(
        &self,
        pres: &[u32],
        per_shard: &mut [Vec<Request>],
        make: impl Fn(Vec<u32>) -> Request,
    ) -> Vec<(usize, usize, Vec<usize>)> {
        let mut grouped: Vec<(Vec<u32>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); per_shard.len()];
        for (i, &pre) in pres.iter().enumerate() {
            let shard = self.shard_of(pre);
            grouped[shard].0.push(pre);
            grouped[shard].1.push(i);
        }
        let mut parts = Vec::new();
        for (shard, (sub, idxs)) in grouped.into_iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let pos = per_shard[shard].len();
            per_shard[shard].push(make(sub));
            parts.push((shard, pos, idxs));
        }
        parts
    }

    fn fan(&self, req: &Request, kind: FanKind, per_shard: &mut [Vec<Request>]) -> Slot {
        let positions = per_shard
            .iter_mut()
            .map(|q| {
                q.push(req.clone());
                q.len() - 1
            })
            .collect();
        Slot::Fan { kind, positions }
    }

    fn route_one(&mut self, req: &Request) -> Result<Response, CoreError> {
        match req {
            Request::OpenChildrenCursor { .. } | Request::OpenDescendantsCursor { .. } => {
                self.open_merge_cursor(req)
            }
            Request::Next { cursor } => self.next_merged(*cursor),
            Request::CloseCursor { cursor } => self.close_merged(*cursor),
            Request::Insert { rows } => self.route_insert(rows),
            Request::Delete { pres } => self.route_delete(pres),
            _ => {
                let mut responses = self.route_batch_core(std::slice::from_ref(req))?;
                Ok(responses.pop().expect("one response per request"))
            }
        }
    }

    // ---- the write plane --------------------------------------------------

    /// Every derived answer the router holds was computed against the
    /// pre-write table: prefetched children lists and merged cursor state
    /// both die with the write (open cursors surface "no cursor" on their
    /// next pull — the router-side face of the server's epoch fence).
    fn invalidate_for_write(&mut self) {
        self.spec_cache.clear();
        self.cursors.clear();
    }

    /// Splits `rows` by owning shard and dispatches one `Insert` per shard
    /// with work, one wave. If any shard refuses, the rows the *other*
    /// shards already applied are deleted again (compensation) so a
    /// multi-shard document never survives half-inserted; the error then
    /// surfaces as the answer.
    fn route_insert(&mut self, rows: &[(Loc, Vec<u8>)]) -> Result<Response, CoreError> {
        self.invalidate_for_write();
        let shards = self.transports.len();
        let mut grouped: Vec<Vec<(Loc, Vec<u8>)>> = vec![Vec::new(); shards];
        for (loc, poly) in rows {
            grouped[self.shard_of(loc.pre)].push((*loc, poly.clone()));
        }
        let pres_by_shard: Vec<Vec<u32>> = grouped
            .iter()
            .map(|g| g.iter().map(|(l, _)| l.pre).collect())
            .collect();
        let mut sent = Vec::new();
        let mut per_shard: Vec<Vec<Request>> = Vec::with_capacity(shards);
        for (shard, group) in grouped.into_iter().enumerate() {
            if group.is_empty() {
                per_shard.push(Vec::new());
            } else {
                sent.push(shard);
                per_shard.push(vec![Request::Insert { rows: group }]);
            }
        }
        let mut responses = self.dispatch(per_shard)?;
        let mut total = 0u64;
        let mut failed = None;
        let mut applied = Vec::new();
        for &shard in &sent {
            match take_response(&mut responses, shard, 0) {
                Response::Count(n) => {
                    total += n;
                    applied.push(shard);
                }
                Response::Err(e) => failed = Some(e),
                other => {
                    return Err(CoreError::Transport(format!(
                        "unexpected insert part {other:?}"
                    )))
                }
            }
        }
        if let Some(e) = failed {
            let mut undo: Vec<Vec<Request>> = vec![Vec::new(); shards];
            for shard in applied {
                undo[shard].push(Request::Delete {
                    pres: pres_by_shard[shard].clone(),
                });
            }
            self.dispatch(undo)?;
            return Ok(Response::Err(e));
        }
        Ok(Response::Count(total))
    }

    /// Splits `pres` by owning shard and dispatches one `Delete` per shard
    /// with work, one wave; per-shard removal counts sum. Deletes are
    /// idempotent end to end, so a partial failure is simply retried.
    fn route_delete(&mut self, pres: &[u32]) -> Result<Response, CoreError> {
        self.invalidate_for_write();
        let shards = self.transports.len();
        let mut grouped: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for &pre in pres {
            grouped[self.shard_of(pre)].push(pre);
        }
        let mut sent = Vec::new();
        let mut per_shard: Vec<Vec<Request>> = Vec::with_capacity(shards);
        for (shard, group) in grouped.into_iter().enumerate() {
            if group.is_empty() {
                per_shard.push(Vec::new());
            } else {
                sent.push(shard);
                per_shard.push(vec![Request::Delete { pres: group }]);
            }
        }
        let mut responses = self.dispatch(per_shard)?;
        let mut total = 0u64;
        for &shard in &sent {
            match take_response(&mut responses, shard, 0) {
                Response::Count(n) => total += n,
                Response::Err(e) => return Ok(Response::Err(e)),
                other => {
                    return Err(CoreError::Transport(format!(
                        "unexpected delete part {other:?}"
                    )))
                }
            }
        }
        Ok(Response::Count(total))
    }

    // ---- merged cursors ---------------------------------------------------

    /// Opens one per-shard cursor plus one look-ahead head per stream (two
    /// waves), registering a router-level cursor id.
    fn open_merge_cursor(&mut self, req: &Request) -> Result<Response, CoreError> {
        let shards = self.transports.len();
        let opened = self.dispatch(vec![vec![req.clone()]; shards])?;
        let mut shard_cursors = Vec::with_capacity(shards);
        for resp in opened {
            match resp.into_iter().next() {
                Some(Response::Cursor(c)) => shard_cursors.push(c),
                Some(Response::Err(e)) => return Ok(Response::Err(e)),
                other => {
                    return Err(CoreError::Transport(format!(
                        "unexpected cursor-open response {other:?}"
                    )))
                }
            }
        }
        let heads = self.dispatch(
            shard_cursors
                .iter()
                .map(|&c| vec![Request::Next { cursor: c }])
                .collect(),
        )?;
        let mut streams = Vec::with_capacity(shards);
        for (cursor, resp) in shard_cursors.into_iter().zip(heads) {
            match resp.into_iter().next() {
                Some(Response::MaybeLoc(Some(head))) => {
                    streams.push(Some(ShardStream { cursor, head }))
                }
                // Exhausted immediately; the shard already dropped it.
                Some(Response::MaybeLoc(None)) => streams.push(None),
                Some(Response::Err(e)) => return Ok(Response::Err(e)),
                other => {
                    return Err(CoreError::Transport(format!(
                        "unexpected cursor-head response {other:?}"
                    )))
                }
            }
        }
        let id = self.next_cursor;
        self.next_cursor = self.next_cursor.wrapping_add(1).max(1);
        self.cursors.insert(id, MergeCursor { streams });
        Ok(Response::Cursor(id))
    }

    /// Pops the minimum-`pre` head across the live streams and refills that
    /// stream (one wave to one shard).
    fn next_merged(&mut self, id: u32) -> Result<Response, CoreError> {
        let Some(cursor) = self.cursors.get(&id) else {
            return Ok(Response::Err(format!("no cursor {id}")));
        };
        let Some((shard, _)) = cursor
            .streams
            .iter()
            .enumerate()
            .filter_map(|(s, st)| st.as_ref().map(|st| (s, st.head.pre)))
            .min_by_key(|&(_, pre)| pre)
        else {
            // Every stream drained: mirror the server's auto-close.
            self.cursors.remove(&id);
            return Ok(Response::MaybeLoc(None));
        };
        let shard_cursor = cursor.streams[shard].as_ref().expect("live stream").cursor;
        let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); self.transports.len()];
        per_shard[shard].push(Request::Next {
            cursor: shard_cursor,
        });
        let resp = self.dispatch(per_shard)?;
        let refill = match resp
            .into_iter()
            .nth(shard)
            .and_then(|v| v.into_iter().next())
        {
            Some(Response::MaybeLoc(l)) => l,
            Some(Response::Err(e)) => return Ok(Response::Err(e)),
            other => {
                return Err(CoreError::Transport(format!(
                    "unexpected cursor-next response {other:?}"
                )))
            }
        };
        let cursor = self.cursors.get_mut(&id).expect("checked above");
        let stream = cursor.streams[shard].as_mut().expect("live stream");
        let head = stream.head;
        match refill {
            Some(next) => stream.head = next,
            None => cursor.streams[shard] = None,
        }
        Ok(Response::MaybeLoc(Some(head)))
    }

    /// Closes the remaining per-shard cursors (one wave) and drops the
    /// merge state. Unknown ids ack like the server does.
    fn close_merged(&mut self, id: u32) -> Result<Response, CoreError> {
        let Some(cursor) = self.cursors.remove(&id) else {
            return Ok(Response::Ok);
        };
        let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); self.transports.len()];
        for (shard, stream) in cursor.streams.into_iter().enumerate() {
            if let Some(stream) = stream {
                per_shard[shard].push(Request::CloseCursor {
                    cursor: stream.cursor,
                });
            }
        }
        self.dispatch(per_shard)?;
        Ok(Response::Ok)
    }
}

/// Reassembles one original request's response from the per-shard lists.
/// Every `(shard, pos)` slot is consumed by exactly one original request,
/// so responses are *moved* out of the lists (polynomial payloads are never
/// copied), leaving `Response::Ok` placeholders behind.
fn merge_slot(slot: Slot, responses: &mut [Vec<Response>]) -> Result<Response, CoreError> {
    match slot {
        Slot::Ready(resp) => Ok(resp),
        Slot::Single { shard, pos } => Ok(take_response(responses, shard, pos)),
        Slot::Split {
            kind,
            total_items,
            parts,
        } => merge_split(kind, total_items, parts, responses),
        Slot::Fan { kind, positions } => merge_fan(kind, positions, responses),
    }
}

/// Moves one per-shard response out of the lists.
fn take_response(responses: &mut [Vec<Response>], shard: usize, pos: usize) -> Response {
    std::mem::replace(&mut responses[shard][pos], Response::Ok)
}

fn merge_split(
    kind: SplitKind,
    total_items: usize,
    parts: Vec<(usize, usize, Vec<usize>)>,
    responses: &mut [Vec<Response>],
) -> Result<Response, CoreError> {
    match kind {
        SplitKind::Values => {
            let mut out = vec![0u64; total_items];
            for (shard, pos, idxs) in parts {
                match take_response(responses, shard, pos) {
                    Response::Values(vs) if vs.len() == idxs.len() => {
                        for (&i, &v) in idxs.iter().zip(&vs) {
                            out[i] = v;
                        }
                    }
                    Response::Err(e) => return Ok(Response::Err(e)),
                    other => {
                        return Err(CoreError::Transport(format!(
                            "unexpected EvalMany part {other:?}"
                        )))
                    }
                }
            }
            Ok(Response::Values(out))
        }
        SplitKind::Polys => {
            let mut out = vec![Vec::new(); total_items];
            for (shard, pos, idxs) in parts {
                match take_response(responses, shard, pos) {
                    Response::Polys(ps) if ps.len() == idxs.len() => {
                        for (&i, p) in idxs.iter().zip(ps) {
                            out[i] = p;
                        }
                    }
                    Response::Err(e) => return Ok(Response::Err(e)),
                    other => {
                        return Err(CoreError::Transport(format!(
                            "unexpected GetPolys part {other:?}"
                        )))
                    }
                }
            }
            Ok(Response::Polys(out))
        }
    }
}

fn merge_fan(
    kind: FanKind,
    positions: Vec<usize>,
    responses: &mut [Vec<Response>],
) -> Result<Response, CoreError> {
    let parts: Vec<Response> = positions
        .iter()
        .enumerate()
        .map(|(shard, &pos)| take_response(responses, shard, pos))
        .collect();
    match kind {
        FanKind::Locs => {
            let mut out: Vec<Loc> = Vec::new();
            for part in parts {
                match part {
                    Response::Locs(ls) => out.extend(ls),
                    Response::Err(e) => return Ok(Response::Err(e)),
                    other => {
                        return Err(CoreError::Transport(format!(
                            "unexpected Locs part {other:?}"
                        )))
                    }
                }
            }
            // Shards hold disjoint pre sets: sorting the concatenation is
            // exactly the k-way document-order merge.
            out.sort_by_key(|l| l.pre);
            Ok(Response::Locs(out))
        }
        FanKind::Count => {
            let mut total = 0u64;
            for part in parts {
                match part {
                    Response::Count(n) => total += n,
                    Response::Err(e) => return Ok(Response::Err(e)),
                    other => {
                        return Err(CoreError::Transport(format!(
                            "unexpected Count part {other:?}"
                        )))
                    }
                }
            }
            Ok(Response::Count(total))
        }
        FanKind::Max => {
            let mut max = 0u64;
            for part in parts {
                match part {
                    Response::Count(n) => max = max.max(n),
                    Response::Err(e) => return Ok(Response::Err(e)),
                    other => {
                        return Err(CoreError::Transport(format!(
                            "unexpected MaxPre part {other:?}"
                        )))
                    }
                }
            }
            Ok(Response::Count(max))
        }
        FanKind::Ok => {
            for part in parts {
                match part {
                    Response::Ok => {}
                    Response::Err(e) => return Ok(Response::Err(e)),
                    other => {
                        return Err(CoreError::Transport(format!(
                            "unexpected ack part {other:?}"
                        )))
                    }
                }
            }
            Ok(Response::Ok)
        }
        FanKind::Epochs => {
            let mut epochs = Vec::with_capacity(parts.len());
            for part in parts {
                match part {
                    Response::Count(e) => epochs.push(e),
                    Response::Err(e) => return Ok(Response::Err(e)),
                    other => {
                        return Err(CoreError::Transport(format!(
                            "unexpected Epoch part {other:?}"
                        )))
                    }
                }
            }
            Ok(Response::Values(epochs))
        }
    }
}

impl<T: Transport + Send> Transport for ShardRouter<T> {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        self.route_one(req)
    }

    fn call_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        self.route_batch(reqs)
    }

    fn stats(&self) -> TransportStats {
        let mut s = TransportStats {
            round_trips: self.waves,
            batches: self.batches,
            batched_requests: self.batched_requests,
            speculative_hits: self.spec_hits,
            // `consumed ≤ issued` is the intended invariant (an entry can
            // only be consumed after its prefetch was issued, and cache
            // clears drop entries without touching either counter), but
            // `stats()` must never panic in release builds if a future
            // lifecycle change breaks it — saturate instead of wrapping to
            // an absurd ~u64::MAX figure.
            speculative_wasted: self.spec_issued.saturating_sub(self.spec_consumed),
            // Traffic of transports retired by a reshard.
            ..self.carry
        };
        for t in &self.transports {
            let u = t.stats();
            s.bytes_sent += u.bytes_sent;
            s.bytes_received += u.bytes_received;
            s.shard_dispatches += u.round_trips;
            s.hedged_wins += u.hedged_wins;
            s.straggler_ms += u.straggler_ms;
        }
        s
    }

    fn set_call_budget(&mut self, budget: Option<std::time::Duration>) {
        for t in self.transports.iter_mut() {
            t.set_call_budget(budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use crate::map::MapFile;
    use ssx_prg::Seed;

    fn router(shards: u32) -> ShardRouter<LocalTransport> {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(21);
        let xml = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";
        let out = encode_document(xml, &map, &seed).unwrap();
        let server = ShardedServer::from_table(out.table, out.ring, shards).unwrap();
        ShardRouter::local(server)
    }

    fn locs(resp: Response) -> Vec<u32> {
        match resp {
            Response::Locs(ls) => ls.iter().map(|l| l.pre).collect(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn structure_queries_merge_across_shards() {
        for shards in [1u32, 2, 4] {
            let mut r = router(shards);
            assert_eq!(
                locs(r.call(&Request::Roots).unwrap()),
                vec![1],
                "{shards} shards"
            );
            assert_eq!(
                locs(r.call(&Request::Children { pre: 1 }).unwrap()),
                vec![2, 5, 7],
                "{shards} shards"
            );
            let root = Loc {
                pre: 1,
                post: 9,
                parent: 0,
            };
            assert_eq!(
                locs(r.call(&Request::Descendants { loc: root }).unwrap()),
                vec![2, 3, 4, 5, 6, 7, 8, 9],
                "{shards} shards"
            );
            match r.call(&Request::Count).unwrap() {
                Response::Count(9) => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn eval_many_scatters_back_in_request_order() {
        let mut single = router(1);
        let mut sharded = router(4);
        let req = Request::EvalMany {
            pres: vec![9, 1, 4, 2, 8, 3],
            point: 17,
        };
        let a = match single.call(&req).unwrap() {
            Response::Values(vs) => vs,
            other => panic!("{other:?}"),
        };
        let b = match sharded.call(&req).unwrap() {
            Response::Values(vs) => vs,
            other => panic!("{other:?}"),
        };
        assert_eq!(a, b, "values must align with the request order");
        // The sharded call was still one logical round trip.
        assert_eq!(sharded.stats().round_trips, 1);
        assert!(sharded.stats().shard_dispatches >= 2, "work was split");
    }

    #[test]
    fn batched_waves_count_one_round_trip() {
        let mut r = router(2);
        let reqs = vec![
            Request::Children { pre: 1 },
            Request::Children { pre: 2 },
            Request::Children { pre: 7 },
            Request::GetLoc { pre: 4 },
        ];
        let resps = r.call_batch(&reqs).unwrap();
        assert_eq!(resps.len(), 4);
        assert_eq!(locs(resps[0].clone()), vec![2, 5, 7]);
        assert_eq!(locs(resps[1].clone()), vec![3]);
        assert_eq!(locs(resps[2].clone()), vec![8]);
        assert!(matches!(&resps[3], Response::MaybeLoc(Some(l)) if l.pre == 4));
        let s = r.stats();
        assert_eq!(s.round_trips, 1, "one wave for the whole frontier");
        assert!(s.batches >= 1);
        assert!(s.batched_requests >= 4);
    }

    #[test]
    fn merged_cursors_stream_in_document_order() {
        for shards in [1u32, 2, 4] {
            let mut r = router(shards);
            let cursor = match r
                .call(&Request::OpenChildrenCursor { pres: vec![1, 2] })
                .unwrap()
            {
                Response::Cursor(c) => c,
                other => panic!("{other:?}"),
            };
            let mut pres = Vec::new();
            loop {
                match r.call(&Request::Next { cursor }).unwrap() {
                    Response::MaybeLoc(Some(l)) => pres.push(l.pre),
                    Response::MaybeLoc(None) => break,
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(pres, vec![2, 3, 5, 7], "{shards} shards");
            // Drained merge cursor is gone, like the server's.
            assert!(matches!(
                r.call(&Request::Next { cursor }).unwrap(),
                Response::Err(_)
            ));
        }
    }

    #[test]
    fn close_cursor_releases_every_shard() {
        let mut r = router(4);
        let cursor = match r
            .call(&Request::OpenChildrenCursor { pres: vec![1] })
            .unwrap()
        {
            Response::Cursor(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            r.call(&Request::CloseCursor { cursor }).unwrap(),
            Response::Ok
        );
        for server in r.servers() {
            assert_eq!(server.open_cursors(), 0, "abandoned per-shard cursor");
        }
    }

    #[test]
    fn speculation_serves_children_without_a_wave() {
        for shards in [1u32, 2, 4] {
            let mut plain = router(shards);
            let mut spec = router(shards);
            spec.set_speculation(true);
            assert!(spec.speculation());
            // Wave k: test a frontier. The speculative router piggybacks
            // children prefetches on the same wave.
            let eval = Request::EvalMany {
                pres: vec![1, 2, 5, 7],
                point: 17,
            };
            let a = plain.call(&eval).unwrap();
            let b = spec.call(&eval).unwrap();
            assert_eq!(a, b, "speculation is invisible in answers");
            // Wave k+1: expand the (here: whole) frontier. The speculative
            // router answers from cache — zero additional round trips.
            let waves_before = spec.stats().round_trips;
            for pre in [1u32, 2, 5, 7] {
                let a = plain.call(&Request::Children { pre }).unwrap();
                let b = spec.call(&Request::Children { pre }).unwrap();
                assert_eq!(a, b, "pre={pre} S={shards}");
            }
            assert_eq!(
                spec.stats().round_trips,
                waves_before,
                "cached expansion must not cost waves (S={shards})"
            );
            let s = spec.stats();
            assert_eq!(s.speculative_hits, 4);
            assert_eq!(s.speculative_wasted, 0, "every prefetch was consumed");
            assert!(plain.stats().round_trips > spec.stats().round_trips);
        }
    }

    #[test]
    fn unconsumed_prefetches_count_as_wasted() {
        let mut r = router(2);
        r.set_speculation(true);
        r.call(&Request::EvalMany {
            pres: vec![1, 2],
            point: 17,
        })
        .unwrap();
        // The frontier "diverges": no children request ever arrives.
        let s = r.stats();
        assert_eq!(s.speculative_hits, 0);
        assert_eq!(s.speculative_wasted, 2);
        // …but a later wave may still consume them: not monotonic.
        r.call(&Request::Children { pre: 1 }).unwrap();
        let s = r.stats();
        assert_eq!(s.speculative_hits, 1);
        assert_eq!(s.speculative_wasted, 1);
    }

    #[test]
    fn speculation_never_creates_a_wave() {
        let mut r = router(2);
        r.set_speculation(true);
        // An empty item list is answered without touching any shard; the
        // speculative router must not turn that into a physical wave.
        let before = r.stats().round_trips;
        assert_eq!(
            r.call(&Request::EvalMany {
                pres: vec![],
                point: 3
            })
            .unwrap(),
            Response::Values(vec![])
        );
        assert_eq!(r.stats().round_trips, before);
    }

    #[test]
    fn disabling_speculation_clears_the_cache() {
        let mut r = router(2);
        r.set_speculation(true);
        r.call(&Request::EvalMany {
            pres: vec![1],
            point: 17,
        })
        .unwrap();
        r.set_speculation(false);
        let before = r.stats().round_trips;
        r.call(&Request::Children { pre: 1 }).unwrap();
        assert_eq!(r.stats().round_trips, before + 1, "no cache, real wave");
        assert_eq!(r.stats().speculative_hits, 0);
    }

    /// Resharding mid-speculation drops the prefetch cache; the accounting
    /// must stay `consumed ≤ issued` (never an underflowing `wasted`) across
    /// the clear and keep making sense once speculation resumes on the new
    /// fleet.
    #[test]
    fn reshard_mid_speculation_keeps_wasted_accounting_sane() {
        let mut r = router(2);
        r.set_speculation(true);
        // Issue two prefetches, consume one.
        r.call(&Request::EvalMany {
            pres: vec![1, 2],
            point: 17,
        })
        .unwrap();
        r.call(&Request::Children { pre: 1 }).unwrap();
        let s = r.stats();
        assert_eq!((s.speculative_hits, s.speculative_wasted), (1, 1));
        // Reshard with one prefetch still unconsumed: it stays wasted, and
        // nothing wraps around.
        r.reshard(3).unwrap();
        let s = r.stats();
        assert_eq!((s.speculative_hits, s.speculative_wasted), (1, 1));
        assert!(s.speculative_wasted < 1 << 32, "no underflow wrap");
        // Speculation keeps working on the new fleet; the re-issued
        // prefetches are consumable and only the reshard-dropped one stays
        // wasted for good.
        r.call(&Request::EvalMany {
            pres: vec![1, 2],
            point: 17,
        })
        .unwrap();
        for pre in [1u32, 2] {
            r.call(&Request::Children { pre }).unwrap();
        }
        let s = r.stats();
        assert_eq!((s.speculative_hits, s.speculative_wasted), (3, 1));
    }

    #[test]
    fn reshard_in_place_preserves_answers_and_counters() {
        let mut r = router(1);
        let before_children = locs(r.call(&Request::Children { pre: 1 }).unwrap());
        let bytes_before = r.stats().bytes_sent;
        assert!(bytes_before > 0);
        for shards in [4u32, 2, 1, 3] {
            r.reshard(shards).unwrap();
            assert_eq!(r.spec().shards(), shards);
            assert_eq!(
                locs(r.call(&Request::Children { pre: 1 }).unwrap()),
                before_children,
                "S={shards}"
            );
            match r.call(&Request::Count).unwrap() {
                Response::Count(9) => {}
                other => panic!("{other:?}"),
            }
        }
        assert!(
            r.stats().bytes_sent > bytes_before,
            "byte counters must survive re-sharding, not reset"
        );
    }

    #[test]
    fn reshard_invalidates_open_cursors_explicitly() {
        let mut r = router(2);
        let cursor = match r
            .call(&Request::OpenChildrenCursor { pres: vec![1] })
            .unwrap()
        {
            Response::Cursor(c) => c,
            other => panic!("{other:?}"),
        };
        r.reshard(3).unwrap();
        assert!(
            matches!(r.call(&Request::Next { cursor }).unwrap(), Response::Err(_)),
            "stale cursor surfaces as an error, not a wrong answer"
        );
        // The new fleet holds no leaked per-shard cursors.
        for server in r.servers() {
            assert_eq!(server.open_cursors(), 0);
        }
    }

    /// A refused repartition (here: the same rows on both shards, which
    /// cannot coexist in one partition) must leave the router fully wired —
    /// not an empty-transport husk that panics on the next call.
    #[test]
    fn failed_reshard_leaves_the_router_usable() {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(21);
        let xml = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";
        let out = encode_document(xml, &map, &seed).unwrap();
        let f1 = ServerFilter::new(out.table.clone(), out.ring.clone());
        let f2 = ServerFilter::new(out.table, out.ring);
        let server = ShardedServer::from_filters(ShardSpec::new(2), vec![f1, f2]);
        let mut r = ShardRouter::local(server);
        assert!(r.reshard(1).is_err(), "duplicate pres must refuse");
        assert_eq!(r.spec().shards(), 2, "original fleet restored");
        // The router still routes: the fanned count sums both shards.
        match r.call(&Request::Count).unwrap() {
            Response::Count(18) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reshard_request_through_a_router_is_refused() {
        let mut r = router(2);
        assert!(matches!(
            r.call(&Request::Reshard { shards: 4 }).unwrap(),
            Response::Err(_)
        ));
    }

    #[test]
    fn suggest_shards_scales_with_observed_load() {
        let mut r = router(2);
        // No traffic: keep the current fleet.
        assert_eq!(r.suggest_shards_for_target(1024), 2);
        // Generate some traffic, then ask with a tiny budget: grow.
        for _ in 0..20 {
            r.call(&Request::EvalMany {
                pres: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                point: 17,
            })
            .unwrap();
        }
        let grown = r.suggest_shards_for_target(64);
        assert!(grown > 2, "heavy load must suggest growth, got {grown}");
        assert!(grown <= MAX_SUGGESTED_SHARDS);
        // A huge budget suggests shrinking to a single shard.
        assert_eq!(r.suggest_shards_for_target(u64::MAX), 1);
    }

    /// The boundary cases of the auto-tuner: a zero budget clamps to one
    /// byte instead of dividing by zero, an absurd budget pressure saturates
    /// at [`MAX_SUGGESTED_SHARDS`] instead of overflowing, the suggestion
    /// never drops below one shard, and load *skew* (all traffic on one
    /// shard) is costed as if every shard could attract the busiest
    /// shard's load — strictly more shards than the balanced mean implies.
    #[test]
    fn suggest_shards_boundaries() {
        let mut r = router(2);
        // Zero budget behaves exactly like a 1-byte budget (the documented
        // clamp), and with traffic observed both saturate at the cap.
        assert_eq!(r.suggest_shards_for_target(0), 2, "no traffic: keep");
        for _ in 0..4 {
            r.call(&Request::EvalMany {
                pres: vec![1, 2, 3, 4, 5, 6],
                point: 17,
            })
            .unwrap();
        }
        assert_eq!(
            r.suggest_shards_for_target(0),
            r.suggest_shards_for_target(1)
        );
        assert_eq!(r.suggest_shards_for_target(0), MAX_SUGGESTED_SHARDS);
        // Floor: even when the busiest shard fits many times over, the
        // suggestion is a fleet of one, never zero.
        assert_eq!(r.suggest_shards_for_target(u64::MAX), 1);

        // Skew: route traffic at a *single* pre so one shard takes it all.
        let mut skewed = router(2);
        for _ in 0..8 {
            skewed
                .call(&Request::EvalMany {
                    pres: vec![1, 1, 1, 1],
                    point: 17,
                })
                .unwrap();
        }
        let loads: Vec<u64> = skewed
            .transports()
            .iter()
            .map(|t| {
                let s = t.stats();
                s.bytes_sent + s.bytes_received
            })
            .collect();
        let busiest = *loads.iter().max().unwrap();
        let total: u64 = loads.iter().sum();
        assert!(busiest > total - busiest, "traffic must actually skew");
        // Pick a budget between the balanced mean and the busiest shard:
        // the conservative costing must suggest growth where a
        // total-divided-evenly estimate would keep the fleet as-is.
        let budget = total.div_ceil(2);
        assert!(budget < busiest);
        let suggested = skewed.suggest_shards_for_target(budget);
        let balanced = total.div_ceil(budget).max(1) as u32;
        assert!(
            suggested > balanced.min(2),
            "skew must push past the balanced estimate: got {suggested}, balanced {balanced}"
        );
    }

    /// Valid packed share bytes in the router's ring.
    fn share_bytes(r: &ShardRouter<LocalTransport>, fill: u64) -> Vec<u8> {
        let ring = r.servers().next().unwrap().ring().clone();
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
        ssx_poly::Packer::new(&ring).pack_radix(&ring.poly_from_coeffs(coeffs).unwrap())
    }

    fn root_loc(pre: u32) -> Loc {
        Loc {
            pre,
            post: pre,
            parent: 0,
        }
    }

    #[test]
    fn writes_route_to_owning_shards_and_merge() {
        for shards in [1u32, 2, 4] {
            let mut r = router(shards);
            let rows: Vec<(Loc, Vec<u8>)> = (10u32..13)
                .map(|pre| (root_loc(pre), share_bytes(&r, pre as u64)))
                .collect();
            match r.call(&Request::Insert { rows }).unwrap() {
                Response::Count(3) => {}
                other => panic!("{other:?} (S={shards})"),
            }
            match r.call(&Request::Count).unwrap() {
                Response::Count(12) => {}
                other => panic!("{other:?} (S={shards})"),
            }
            match r.call(&Request::MaxPre).unwrap() {
                Response::Count(12) => {}
                other => panic!("{other:?} (S={shards})"),
            }
            // Reads still merge correctly after the write.
            assert_eq!(
                locs(r.call(&Request::Children { pre: 1 }).unwrap()),
                vec![2, 5, 7],
                "S={shards}"
            );
            // Delete splits by shard too; the missing pre costs nothing.
            match r
                .call(&Request::Delete {
                    pres: vec![10, 11, 12, 99],
                })
                .unwrap()
            {
                Response::Count(3) => {}
                other => panic!("{other:?} (S={shards})"),
            }
            match r.call(&Request::Count).unwrap() {
                Response::Count(9) => {}
                other => panic!("{other:?} (S={shards})"),
            }
        }
    }

    /// A multi-shard insert where one shard refuses must not survive as a
    /// half document: the rows other shards applied are deleted again.
    #[test]
    fn partial_insert_failure_compensates_applied_shards() {
        let mut r = router(2);
        let rows = vec![
            // Fresh row on shard (10-1)%2 = 1: applies.
            (root_loc(10), share_bytes(&r, 1)),
            // Duplicate of an existing pre on shard 0: refused.
            (root_loc(1), share_bytes(&r, 2)),
        ];
        match r.call(&Request::Insert { rows }).unwrap() {
            Response::Err(msg) => assert!(msg.contains("insert pre=1"), "{msg}"),
            other => panic!("{other:?}"),
        }
        match r.call(&Request::Count).unwrap() {
            Response::Count(9) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(
            r.call(&Request::GetLoc { pre: 10 }).unwrap(),
            Response::MaybeLoc(None),
            "compensated row must be gone"
        );
    }

    #[test]
    fn writes_invalidate_router_cursors_and_prefetches() {
        let mut r = router(2);
        r.set_speculation(true);
        let cursor = match r
            .call(&Request::OpenChildrenCursor { pres: vec![1] })
            .unwrap()
        {
            Response::Cursor(c) => c,
            other => panic!("{other:?}"),
        };
        // Prefetch children of 1 into the cache.
        r.call(&Request::EvalMany {
            pres: vec![1],
            point: 17,
        })
        .unwrap();
        let row = (root_loc(20), share_bytes(&r, 3));
        assert_eq!(
            r.call(&Request::Insert { rows: vec![row] }).unwrap(),
            Response::Count(1)
        );
        // The merged cursor died with the write — explicit error, no stale
        // stream.
        assert!(matches!(
            r.call(&Request::Next { cursor }).unwrap(),
            Response::Err(_)
        ));
        // And the prefetched children list was dropped: answering costs a
        // real wave, not a cache hit.
        let hits_before = r.stats().speculative_hits;
        r.call(&Request::Children { pre: 1 }).unwrap();
        assert_eq!(r.stats().speculative_hits, hits_before);
    }

    #[test]
    fn errors_surface_not_panic() {
        let mut r = router(2);
        assert!(matches!(
            r.call(&Request::GetPolys { pres: vec![999] }).unwrap(),
            Response::Err(_)
        ));
        assert!(matches!(
            r.call(&Request::EvalMany {
                pres: vec![1, 999],
                point: 3
            })
            .unwrap(),
            Response::Err(_)
        ));
        // Empty item lists cost nothing and still answer.
        assert_eq!(
            r.call(&Request::EvalMany {
                pres: vec![],
                point: 3
            })
            .unwrap(),
            Response::Values(vec![])
        );
    }
}
