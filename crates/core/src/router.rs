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
//!    [`crate::fleet::FleetTransport`]) when more than one frame goes out,
//!    or as a sequential loop for in-process ones and for a lone frame;
//! 3. **merges** the answers back in document order: split item lists are
//!    scattered to their original positions, fanned location lists are
//!    k-way merged by `pre` (shards hold disjoint `pre` sets, so the merge
//!    reproduces the unsharded answer exactly).
//!
//! # Speculative wave pipelining
//!
//! A speculating router overlaps dependent waves: every `EvalMany` wave (a
//! frontier being tested) piggybacks `Children` prefetches for the same
//! nodes **inside the same physical frames** — wave *k + 1*'s probable
//! batch travels while wave *k*'s answers are in flight. The predicted
//! answers land in a cache that lives for one op; when the engine then
//! expands the surviving frontier, those `Children` requests are answered
//! locally (`speculative_hits`) and the expansion wave costs **zero round
//! trips**. A frontier that diverges from the prediction (look-ahead
//! pruning, `..` steps, descendant expansion) simply never consumes its
//! prefetches — they are counted as `speculative_wasted`, and correctness
//! is untouched because cached answers are the very responses the owning
//! shards produced for the table as it stands. Speculation is invisible in
//! results by construction; what it trades is bytes (prefetches for pruned
//! nodes) for waves.
//!
//! An op starts with the wave that asks for [`Request::Roots`] (a query's
//! root lookup, an aggregate's snapshot): that wave empties the cache, so
//! no op is answered from another op's prefetches. Once the `Roots` wave is
//! back, the router decides whether the op speculates. Unless
//! [`ShardRouter::set_speculation`] pins the mode, the op speculates when
//! the `Roots` waves of the last 8 ops, its own included, each took at
//! least 0.5 ms (`SPEC_WINDOW`, `SPEC_THRESHOLD`). A `Roots` wave carries
//! no evaluation, so its time is the link's round trip plus whatever queue
//! it waited in: behind a slow link every op from the router's eighth on
//! speculates, in process none does. The mode follows the ops before it:
//! on a link whose round trip sits near 0.5 ms, or behind a host queue
//! that comes and goes, two clients with different histories may take
//! different modes for the same op, and so pay different waves and bytes
//! for the same answer.

use crate::error::CoreError;
use crate::protocol::{Request, Response};
use crate::server::ServerFilter;
use crate::shard::{ShardSpec, ShardedServer};
use crate::transport::{LocalTransport, MuxPool, MuxTransport, Transport, TransportStats};
use ssx_store::Loc;
use std::collections::HashMap;
use std::time::{Duration, Instant};

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

/// Consecutive `Roots` waves, one per op, the measured default looks back
/// over; a fresh router does not speculate until it has timed this many.
const SPEC_WINDOW: u32 = 8;

/// `Roots` wave time at or above which the measured default speculates.
/// The per-call delay sweep in EXPERIMENTS.md places it: from 0.5 ms per
/// call on, one op's prefetches cost neither engine time at the median,
/// and they save the advanced engine more than a quarter of it.
const SPEC_THRESHOLD: Duration = Duration::from_micros(500);

/// A cached speculative answer. `consumed` marks first use, for the
/// hit/wasted accounting.
struct SpecEntry {
    locs: Vec<Loc>,
    consumed: bool,
}

/// The shard-aware batch-first transport (see the module docs).
pub struct ShardRouter<T: Transport> {
    spec: ShardSpec,
    transports: Vec<T>,
    /// Wrap per-shard frames in [`Request::ToShard`]. Socket endpoints need
    /// the tag (the host routes on it); local transports are positional.
    tag_frames: bool,
    /// Dispatch per-shard frames on scoped threads instead of a sequential
    /// loop when the transports do not pipeline and a wave sends more than
    /// one frame. On for networked fleet pipes, off for in-process
    /// transports.
    concurrent: bool,
    waves: u64,
    batches: u64,
    batched_requests: u64,
    /// The mode [`ShardRouter::set_speculation`] pinned; `None` measures
    /// it per op (see the module docs).
    pin: Option<bool>,
    /// Whether the current op speculates.
    speculate: bool,
    /// How many of the most recent `Roots` waves in a row took at least
    /// `SPEC_THRESHOLD` (saturating).
    slow_roots: u32,
    /// Children lists prefetched by speculation during the current op,
    /// keyed by parent `pre`.
    spec_cache: HashMap<u32, SpecEntry>,
    /// Prefetches issued / answers served from the cache / distinct cached
    /// entries consumed at least once (`issued − consumed` = wasted).
    spec_issued: u64,
    spec_hits: u64,
    spec_consumed: u64,
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
            pin: None,
            speculate: false,
            slow_roots: 0,
            spec_cache: HashMap::new(),
            spec_issued: 0,
            spec_hits: 0,
            spec_consumed: 0,
        }
    }

    /// Pins speculative wave pipelining on or off from now on, in place of
    /// the measured default (see the module docs). Disabling clears the
    /// prefetch cache; counters persist.
    pub fn set_speculation(&mut self, enabled: bool) {
        self.pin = Some(enabled);
        self.speculate = enabled;
        if !enabled {
            self.spec_cache.clear();
        }
    }

    /// Whether the current op speculates.
    pub fn speculation(&self) -> bool {
        self.speculate
    }

    /// Starts an op once its `Roots` wave is back: counts the wave's time
    /// and decides whether the op speculates.
    fn begin_op(&mut self, roots_wave: Duration) {
        self.slow_roots = if roots_wave >= SPEC_THRESHOLD {
            self.slow_roots.saturating_add(1)
        } else {
            0
        };
        self.speculate = self.pin.unwrap_or(self.slow_roots >= SPEC_WINDOW);
    }

    /// The partition spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
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
    /// `per_shard`; the first failed shard's error fails the wave.
    fn dispatch(&mut self, per_shard: Vec<Vec<Request>>) -> Result<Vec<Vec<Response>>, CoreError> {
        self.dispatch_each(per_shard).into_iter().collect()
    }

    /// [`ShardRouter::dispatch`] with one outcome per shard: a shard whose
    /// link fails does not hide what the other shards answered (the write
    /// path needs both to compensate). Shards with nothing queued answer an
    /// empty list.
    fn dispatch_each(
        &mut self,
        per_shard: Vec<Vec<Request>>,
    ) -> Vec<Result<Vec<Response>, CoreError>> {
        debug_assert_eq!(per_shard.len(), self.transports.len());
        if per_shard.iter().all(|v| v.is_empty()) {
            return per_shard.into_iter().map(|_| Ok(Vec::new())).collect();
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
        // pipes (a networked fleet's legs) when more than one frame goes
        // out; the sequential loop is the right shape for in-process shards
        // and for a lone frame.
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
            } else if self.concurrent && frames.iter().flatten().count() > 1 {
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
        results
            .into_iter()
            .zip(frames)
            .map(|(res, frame)| match (res, frame) {
                (None, _) => Ok(Vec::new()),
                (Some(res), Some((_, 1))) => res.map(|resp| vec![resp]),
                (Some(res), Some((_, expected))) => {
                    res.and_then(|resp| crate::transport::unwrap_batch(resp, expected))
                }
                (Some(_), None) => unreachable!("response without a frame"),
            })
            .collect()
    }

    /// Splits `reqs` by shard, dispatches one wave, merges the answers back
    /// in request order. Write frames go through the write path instead,
    /// one by one (each is its own wave).
    fn route_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        if reqs
            .iter()
            .any(|r| matches!(r, Request::Insert { .. } | Request::Delete { .. }))
        {
            return reqs.iter().map(|r| self.route_one(r)).collect();
        }
        self.route_batch_core(reqs)
    }

    /// The read wave: plan every request, piggyback speculative
    /// prefetches, dispatch (at most) once, harvest, merge. A wave whose
    /// every request was answered from the speculation cache dispatches
    /// nothing and costs zero round trips. A wave that asks for the roots
    /// starts an op.
    fn route_batch_core(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        let starts_op = reqs.iter().any(|r| matches!(r, Request::Roots));
        if starts_op {
            self.spec_cache.clear();
        }
        let shards = self.transports.len();
        let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); shards];
        let mut slots: Vec<Slot> = Vec::with_capacity(reqs.len());
        for req in reqs {
            slots.push(self.plan(req, &mut per_shard));
        }
        let specs = self.plan_speculation(reqs, &mut per_shard);
        let began = Instant::now();
        let mut responses = self.dispatch(per_shard)?;
        if starts_op {
            self.begin_op(began.elapsed());
        }
        self.harvest_speculation(specs, &mut responses);
        slots
            .into_iter()
            .map(|slot| merge_slot(slot, &mut responses))
            .collect()
    }

    /// Queues the next wave's probable `Children` fetches onto a wave that
    /// is about to dispatch anyway: one fanned prefetch per distinct
    /// `EvalMany` node not already cached, appended to every shard's queue
    /// in the order of the returned `pre`s. Prefetches never *create* a
    /// wave — an otherwise-empty wave stays empty.
    fn plan_speculation(&mut self, reqs: &[Request], per_shard: &mut [Vec<Request>]) -> Vec<u32> {
        if !self.speculate || per_shard.iter().all(|v| v.is_empty()) {
            return Vec::new();
        }
        let mut pres: Vec<u32> = reqs
            .iter()
            .flat_map(|req| match req {
                Request::EvalMany { pres, .. } => pres.as_slice(),
                _ => &[],
            })
            .copied()
            .filter(|pre| !self.spec_cache.contains_key(pre))
            .collect();
        pres.sort_unstable();
        pres.dedup();
        // Children of `pre` may live on any shard (the partition is by the
        // *child's* pre), so the prefetch fans like a real `Children`
        // request would.
        for queue in per_shard.iter_mut() {
            queue.extend(pres.iter().map(|&pre| Request::Children { pre }));
        }
        self.spec_issued += pres.len() as u64;
        pres
    }

    /// Moves the speculative answers, the tail of every shard's list, out
    /// of the wave and into the cache. A prefetch any shard answered with
    /// an error is dropped (it stays issued-but-never-consumed, i.e.
    /// wasted) — the cache holds only answers identical to what a real fan
    /// would have merged.
    fn harvest_speculation(&mut self, pres: Vec<u32>, responses: &mut [Vec<Response>]) {
        if pres.is_empty() {
            return;
        }
        self.spec_cache.reserve(pres.len());
        let mut tails: Vec<_> = responses
            .iter_mut()
            .map(|list| list.drain(list.len() - pres.len()..))
            .collect();
        for pre in pres {
            let mut locs: Vec<Loc> = Vec::new();
            let mut ok = true;
            for tail in tails.iter_mut() {
                match tail.next() {
                    Some(Response::Locs(ls)) if locs.is_empty() => locs = ls,
                    Some(Response::Locs(ls)) => locs.extend(ls),
                    _ => ok = false,
                }
            }
            if ok {
                // Disjoint pre sets: sorting is the exact k-way merge.
                locs.sort_by_key(|l| l.pre);
                self.spec_cache.insert(
                    pre,
                    SpecEntry {
                        locs,
                        consumed: false,
                    },
                );
            }
        }
    }

    /// Routes one read request.
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
                if let Some(entry) = self.spec_cache.get_mut(pre) {
                    self.spec_hits += 1;
                    if !entry.consumed {
                        entry.consumed = true;
                        self.spec_consumed += 1;
                    }
                    return Slot::Ready(Response::Locs(entry.locs.clone()));
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
            // would silently invalidate its own partition; a live host is
            // resharded over a direct transport (`ssxdb reshard`).
            Request::Reshard { .. } => Slot::Ready(Response::Err(
                "reshard a live host over a direct transport, not through a router".into(),
            )),
            // Framing negotiation belongs to the connection owner; a mux
            // router's pool already performed it at connect time.
            Request::Hello { .. } => Slot::Ready(Response::Err(
                "mux handshakes are performed by the owning transport at connect time".into(),
            )),
            Request::Batch(_) | Request::ToShard { .. } | Request::Pair { .. } => Slot::Ready(
                Response::Err("routers build their own envelopes; send plain requests".into()),
            ),
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
            Request::Insert { rows } => self.route_insert(rows),
            Request::Delete { pres } => self.route_delete(pres),
            _ => {
                let mut responses = self.route_batch_core(std::slice::from_ref(req))?;
                Ok(responses.pop().expect("one response per request"))
            }
        }
    }

    // ---- the write plane --------------------------------------------------

    /// Splits `rows` by owning shard and dispatches one `Insert` per shard
    /// with work, one wave. If any shard refuses or its link fails, the
    /// insert is compensated so a multi-shard document never survives
    /// half-inserted: one more wave sends an idempotent `Delete` of their
    /// rows to every shard that applied its part, and to every shard whose
    /// link failed (its part may have landed before the failure). A shard
    /// that refused has already rolled its frame back and is left alone:
    /// its refused rows may name `pre`s it holds for another document.
    /// The first failure in shard order is the answer — a refusal as a
    /// [`Response::Err`], a link failure as the error itself. Compensation
    /// is best effort: a shard still unreachable keeps whatever landed.
    fn route_insert(&mut self, rows: &[(Loc, Vec<u8>)]) -> Result<Response, CoreError> {
        // Prefetched children lists were computed against the pre-write
        // table, so they die with the write.
        self.spec_cache.clear();
        let shards = self.transports.len();
        let mut grouped: Vec<Vec<(Loc, Vec<u8>)>> = vec![Vec::new(); shards];
        for (loc, poly) in rows {
            grouped[self.shard_of(loc.pre)].push((*loc, poly.clone()));
        }
        let mut pres_by_shard: Vec<Vec<u32>> = grouped
            .iter()
            .map(|g| g.iter().map(|(l, _)| l.pre).collect())
            .collect();
        let per_shard = grouped
            .into_iter()
            .map(|group| {
                if group.is_empty() {
                    Vec::new()
                } else {
                    vec![Request::Insert { rows: group }]
                }
            })
            .collect();
        let mut total = 0u64;
        let mut failure = None;
        for (shard, outcome) in self.dispatch_each(per_shard).into_iter().enumerate() {
            // Whether the shard may now hold rows of this insert.
            let may_hold = match outcome.map(|mut parts| parts.pop()) {
                Ok(None) => false, // nothing sent
                Ok(Some(Response::Count(n))) => {
                    total += n;
                    true
                }
                Ok(Some(Response::Err(e))) => {
                    failure.get_or_insert(Ok(Response::Err(e)));
                    false
                }
                Ok(Some(other)) => {
                    failure.get_or_insert(Err(CoreError::Transport(format!(
                        "unexpected insert part {other:?}"
                    ))));
                    true
                }
                Err(e) => {
                    failure.get_or_insert(Err(e));
                    true
                }
            };
            if !may_hold {
                pres_by_shard[shard].clear();
            }
        }
        let Some(failure) = failure else {
            return Ok(Response::Count(total));
        };
        let undo = pres_by_shard
            .into_iter()
            .map(|pres| {
                if pres.is_empty() {
                    Vec::new()
                } else {
                    vec![Request::Delete { pres }]
                }
            })
            .collect();
        let _ = self.dispatch_each(undo);
        failure
    }

    /// Splits `pres` by owning shard and dispatches one `Delete` per shard
    /// with work, one wave; per-shard removal counts sum. Deletes are
    /// idempotent end to end, so a partial failure is simply retried.
    fn route_delete(&mut self, pres: &[u32]) -> Result<Response, CoreError> {
        self.spec_cache.clear();
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
            ..TransportStats::default()
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

    /// The fixture document over `shards` in-process shards.
    fn server(shards: u32) -> ShardedServer {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(21);
        let xml = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";
        let out = encode_document(xml, &map, &seed).unwrap();
        ShardedServer::from_table(out.table, out.ring, shards).unwrap()
    }

    fn router(shards: u32) -> ShardRouter<LocalTransport> {
        ShardRouter::local(server(shards))
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

    /// A write mid-speculation drops the prefetch cache; the accounting
    /// must stay `consumed ≤ issued` (never an underflowing `wasted`) across
    /// the clear and keep making sense once speculation resumes.
    #[test]
    fn write_mid_speculation_keeps_wasted_accounting_sane() {
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
        // Write with one prefetch still unconsumed: it stays wasted, and
        // nothing wraps around.
        let rows = vec![(root_loc(100), share_bytes(&r, 100))];
        r.call(&Request::Insert { rows }).unwrap();
        let s = r.stats();
        assert_eq!((s.speculative_hits, s.speculative_wasted), (1, 1));
        assert!(s.speculative_wasted < 1 << 32, "no underflow wrap");
        // Speculation keeps working after the write; the re-issued
        // prefetches are consumable and only the write-dropped one stays
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

    /// The cache lives for one op: the wave that asks for the roots starts
    /// the next op with nothing prefetched.
    #[test]
    fn a_roots_wave_empties_the_prefetch_cache() {
        let mut r = router(2);
        r.set_speculation(true);
        r.call(&Request::EvalMany {
            pres: vec![1],
            point: 17,
        })
        .unwrap();
        r.call(&Request::Roots).unwrap();
        let before = r.stats();
        r.call(&Request::Children { pre: 1 }).unwrap();
        let after = r.stats();
        assert_eq!(after.round_trips, before.round_trips + 1, "a real wave");
        assert_eq!(after.speculative_hits, 0);
        assert_eq!(after.speculative_wasted, 1, "the dropped prefetch");
    }

    /// Unpinned, a router speculates for an op only once the `Roots` waves
    /// of its last `SPEC_WINDOW` ops, the op's own included, each took at
    /// least `SPEC_THRESHOLD`; other waves do not count. Behind a 1 ms
    /// link that is the `SPEC_WINDOW`-th op, in process never.
    #[test]
    fn the_measured_default_needs_a_full_window_of_slow_roots_waves() {
        let host = server(1);
        let spec = host.spec();
        let links = host
            .into_filters()
            .into_iter()
            .map(|f| {
                let cfg = crate::chaos::ChaosConfig::fixed_delay(3, Duration::from_millis(1));
                crate::chaos::ChaosTransport::new(LocalTransport::new(f), cfg)
            })
            .collect();
        let mut slow = ShardRouter::new(spec, links, false, false);
        let mut local = router(1);
        for r in [&mut slow as &mut dyn Transport, &mut local] {
            for _ in 1..SPEC_WINDOW {
                r.call(&Request::Roots).unwrap();
                r.call(&Request::GetLoc { pre: 2 }).unwrap();
            }
        }
        assert!(!slow.speculation(), "one slow Roots wave short");
        slow.call(&Request::Roots).unwrap();
        local.call(&Request::Roots).unwrap();
        assert!(slow.speculation(), "a full window of slow Roots waves");
        assert!(!local.speculation(), "in process");
        slow.call(&Request::EvalMany {
            pres: vec![1],
            point: 17,
        })
        .unwrap();
        let waves = slow.stats().round_trips;
        slow.call(&Request::Children { pre: 1 }).unwrap();
        assert_eq!(slow.stats().round_trips, waves, "answered from the cache");
    }

    #[test]
    fn reshard_request_through_a_router_is_refused() {
        let mut r = router(2);
        assert!(matches!(
            r.call(&Request::Reshard { shards: 4 }).unwrap(),
            Response::Err(_)
        ));
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

    /// A shard link that fails every `Insert` frame before it reaches the
    /// shard, and forwards everything else.
    struct DropsInserts {
        inner: LocalTransport,
        drop_inserts: bool,
    }

    impl Transport for DropsInserts {
        fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
            if self.drop_inserts && matches!(req, Request::Insert { .. }) {
                return Err(CoreError::Transport("link dropped the insert frame".into()));
            }
            self.inner.call(req)
        }

        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    /// A multi-shard insert whose frame is lost on one shard's link must
    /// not survive as a half document either: the rows the other shards
    /// applied are deleted again and the transport error surfaces.
    #[test]
    fn link_failure_mid_insert_compensates_applied_shards() {
        let plain = router(2);
        // Pres 10 and 12 live on shard 1 (lost), 11 and 13 on shard 0.
        let rows = (10u32..14)
            .map(|pre| (root_loc(pre), share_bytes(&plain, pre as u64)))
            .collect();
        let host = server(2);
        let spec = host.spec();
        let links = host
            .into_filters()
            .into_iter()
            .enumerate()
            .map(|(shard, f)| DropsInserts {
                inner: LocalTransport::new(f),
                drop_inserts: shard == 1,
            })
            .collect();
        let mut r = ShardRouter::new(spec, links, false, false);
        let err = r.call(&Request::Insert { rows }).unwrap_err();
        assert!(err.to_string().contains("dropped the insert"), "{err}");
        match r.call(&Request::Count).unwrap() {
            Response::Count(9) => {}
            other => panic!("the store must be unchanged: {other:?}"),
        }
        for pre in 10..14 {
            assert_eq!(
                r.call(&Request::GetLoc { pre }).unwrap(),
                Response::MaybeLoc(None),
                "pre={pre} must be gone"
            );
        }
    }

    /// A shard link that logs the thread each of its calls runs on.
    struct ThreadLog {
        inner: LocalTransport,
        log: std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl Transport for ThreadLog {
        fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
            self.log.lock().unwrap().push(std::thread::current().id());
            self.inner.call(req)
        }

        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    /// A concurrent router sends a wave's lone frame on the caller's
    /// thread — every wave at S = 1, a single-shard wave at S = 2 — and
    /// gives each frame of a multi-shard fan a thread of its own.
    #[test]
    fn a_single_frame_wave_spawns_no_thread() {
        let caller = std::thread::current().id();
        for shards in [1u32, 2] {
            let log = std::sync::Arc::default();
            let host = server(shards);
            let spec = host.spec();
            let links = host
                .into_filters()
                .into_iter()
                .map(|f| ThreadLog {
                    inner: LocalTransport::new(f),
                    log: std::sync::Arc::clone(&log),
                })
                .collect();
            let mut r = ShardRouter::new(spec, links, false, true);
            let ran_on = |r: &mut ShardRouter<ThreadLog>, req: &Request| {
                r.call(req).unwrap();
                std::mem::take(&mut *log.lock().unwrap())
            };
            let fan = ran_on(&mut r, &Request::Roots);
            assert_eq!(
                fan.len(),
                shards as usize,
                "S={shards}: one frame per shard"
            );
            if shards == 1 {
                assert_eq!(fan, [caller], "S=1: the lone frame stays on the caller");
            } else {
                assert!(fan.iter().all(|&t| t != caller), "S=2: the fan {fan:?}");
            }
            let lone = ran_on(&mut r, &Request::GetLoc { pre: 1 });
            assert_eq!(lone, [caller], "S={shards}: a single-shard wave");
        }
    }

    #[test]
    fn writes_invalidate_router_prefetches() {
        let mut r = router(2);
        r.set_speculation(true);
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
        // The prefetched children list was dropped: answering costs a real
        // wave, not a cache hit.
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
