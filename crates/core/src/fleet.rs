//! The multi-party fleet: one logical server realised as `n` independent
//! parties, any `t` of which suffice to answer a wave.
//!
//! # Topology
//!
//! [`FleetTransport`] implements [`Transport`] and sits *under* the
//! existing [`ShardRouter`]: the router still plans waves, batches, and
//! speculation against `S` logical data shards, and each of its `S`
//! per-shard pipes is a fleet pipe fanning every frame to all `n` parties
//! over independent connections. Wave structure, batching decisions and
//! speculation counters are therefore **bit-identical** between the `n = 1`
//! single-party deployment and any fleet — the trust boundary moves, the
//! waves do not.
//!
//! # Party layout
//!
//! Each party hosts `2·S` filters over the *unchanged* wire protocol:
//! filters `0..S` hold the party's Shamir share of the data plane (the
//! familiar partitions), filters `S..2S` hold its share of the MAC plane
//! `α ⊙ data` ([`crate::encode::split_fleet`]). A fleet pipe mirrors every
//! data-plane request (`EvalMany`/`GetPolys`/`Agg`) to the MAC shard and
//! sends the frame and its mirror as one [`Request::Pair`]: one round trip
//! per party per wave. Each half still addresses exactly one shard, and the
//! party host answers it exactly as it would answer that frame alone.
//!
//! # Reconstruction and verification
//!
//! * **Data-plane responses** (values, value vectors, packed polynomials)
//!   are Lagrange-combined at zero over the live responders and checked
//!   against the combined MAC: `α · s = m`. A mismatch with more than `t`
//!   responders is *attributed* by leave-one-out re-combination and the
//!   culprit is named and quarantined; with exactly `t` responders the
//!   corruption is still detected (the query errors), it just cannot be
//!   pinned on one party.
//! * **Structural responses** (locations, counts) carry no
//!   shares; they must agree byte-for-byte on a `≥ t` quorum, and any
//!   deviant is named.
//! * A party that fails at the transport level (dead at connect,
//!   mid-wave disconnect) is retired from the pipe; as long as `≥ t`
//!   parties answer, the wave completes with the correct result —
//!   dropout degrades latency, never correctness.
//!
//! # Writes
//!
//! `Insert` frames carry whole server-share rows, so a fleet pipe cannot
//! simply mirror them: each party must receive its *own* Shamir share of
//! every row. The pipe re-splits each row on the client side
//! ([`crate::encode::split_fleet_row`], bit-identical to the build-time
//! split) and sends each party one [`Request::Pair`] — share rows to the
//! data shard, MAC rows to its mirror. Writes are never hedged and never
//! answered early: every participating leg must acknowledge, both planes
//! of a party must agree, and the acks must form a `≥ t` structural
//! quorum.
//! A party that misses a write — absent from the wave, or failing
//! mid-application — has permanently diverged from the fleet's state and
//! is retired exactly like a party caught lying.

use crate::encode::{fleet_mac_key, split_fleet_row, FleetEncodeOutput, FleetSpec};
use crate::error::CoreError;
use crate::map::MapFile;
use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use crate::router::ShardRouter;
use crate::server::ServerFilter;
use crate::shard::{partition_table, ShardSpec, ShardedServer};
use crate::transport::{
    answer_pair, shard_target, MuxPool, MuxTransport, Transport, TransportStats,
};
use ssx_poly::{lagrange_at_zero, Packer, RingCtx};
use ssx_prg::{Prg, Seed};
use ssx_store::{Loc, Table};
use std::borrow::Cow;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Builds one party's 2·S-filter server: data partitions `0..S`, MAC
/// partitions `S..2S`, both split by the same [`ShardSpec`] so a frame
/// addressed to data shard `k` has its MAC mirror at `S + k`.
pub fn party_server(
    data: Table,
    mac: Table,
    ring: &RingCtx,
    data_shards: u32,
) -> Result<ShardedServer, CoreError> {
    let spec = ShardSpec::new(data_shards);
    let mut filters = Vec::with_capacity(2 * spec.shards() as usize);
    for table in partition_table(data, spec)? {
        filters.push(ServerFilter::new(table, ring.clone()));
    }
    for table in partition_table(mac, spec)? {
        filters.push(ServerFilter::new(table, ring.clone()));
    }
    Ok(ShardedServer::from_filters(
        ShardSpec::new(2 * spec.shards()),
        filters,
    ))
}

/// In-process transport onto one fleet party: routes `ToShard` frames to
/// the party's filters and answers `Pair` frames half by half like the TCP
/// host does, with the same encode/decode round trip so counted bytes match
/// the wire exactly. Pipes of the same party share the host through an
/// `Arc<Mutex<_>>`.
pub struct LocalPartyTransport {
    host: Arc<Mutex<ShardedServer>>,
    stats: TransportStats,
}

impl LocalPartyTransport {
    /// Wraps a shared party host.
    pub fn new(host: Arc<Mutex<ShardedServer>>) -> Self {
        LocalPartyTransport {
            host,
            stats: TransportStats::default(),
        }
    }
}

impl Transport for LocalPartyTransport {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        let frame = encode_request(req);
        self.stats.bytes_sent += frame.len() as u64;
        let decoded = decode_request(&frame)?;
        let resp = {
            let mut host = self.host.lock().unwrap_or_else(|p| p.into_inner());
            let mut answer = |shard: u32, inner: &Request| {
                if matches!(inner, Request::ShardCount) {
                    Response::Count(host.spec().shards() as u64)
                } else {
                    host.handle(shard, inner)
                }
            };
            match &decoded {
                Request::Pair { data, mac } => answer_pair(data, mac, answer),
                single => {
                    let (shard, inner) = shard_target(single);
                    answer(shard, inner)
                }
            }
        };
        let resp_frame = encode_response(&resp);
        self.stats.bytes_received += resp_frame.len() as u64;
        self.stats.round_trips += 1;
        decode_response(&resp_frame)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// How a fleet pipe dials a replacement connection to one party, used for
/// in-wave retry reconnects and for re-admission probes. The argument is
/// the pipe's configured per-call deadline so the dial itself can be
/// bounded.
pub type Dialer<T> = Arc<dyn Fn(Option<Duration>) -> Result<T, CoreError> + Send + Sync>;

/// Where a party stands in a pipe's health state machine.
///
/// Availability faults walk `Live → Suspect → Quarantined`, sit out a
/// wave-counted cooldown, then re-enter through a probe as `Probation`
/// and are promoted back to `Live` by their first successful wave.
/// Integrity faults (a party caught lying) quarantine permanently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartyHealth {
    /// In rotation, answering waves.
    Live,
    /// One recent transient failure; still in rotation, but the next
    /// strike quarantines it.
    Suspect,
    /// Out of rotation, counting down its cooldown (integrity faults
    /// never count down).
    Quarantined,
    /// Passed a re-admission probe; back in rotation, one wave away from
    /// `Live` and one failure away from re-quarantine.
    Probation,
}

/// Snapshot of one party's standing, for operators and tests.
#[derive(Clone, Debug)]
pub struct PartyStatus {
    /// 1-based party id.
    pub party: usize,
    /// Where the leg points (`"local"` for in-process legs).
    pub addr: String,
    /// Current health state.
    pub health: PartyHealth,
    /// Waves this leg has answered successfully.
    pub waves_ok: u64,
    /// Most recent recorded fault, if any.
    pub fault: Option<String>,
}

/// A failed re-admission probe doubles the cooldown up to this many times
/// the configured base, so a flapping party backs off but is never written
/// off for good.
pub const COOLDOWN_PENALTY_CAP: u64 = 64;

/// First backoff step of a leg retry; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Ceiling of a leg retry's backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Seed of the deterministic backoff jitter, mixed with the party and the
/// wave.
const JITTER_SEED: u64 = 0x5f33_7d1e;

/// Resilience policy for a fleet pipe: deadlines, bounded retry, hedged
/// reconstruction and quarantine cooldowns. Installed with
/// [`FleetTransport::set_resilience`].
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Per-call budget applied to every leg transport (`None` = wait
    /// forever, the pre-resilience behaviour).
    pub deadline: Option<Duration>,
    /// Transient-failure retries per leg per wave (0 = fail fast), with
    /// exponential backoff and deterministic jitter between attempts.
    pub retries: u32,
    /// Answer each wave as soon as `t` verified responses arrive, draining
    /// stragglers in the background ([`TransportStats::hedged_wins`]).
    pub hedge: bool,
    /// Waves a quarantined party sits out before its first re-admission
    /// probe; doubles per failed probe up to [`COOLDOWN_PENALTY_CAP`]×.
    pub cooldown_waves: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            deadline: None,
            retries: 1,
            hedge: false,
            cooldown_waves: 4,
        }
    }
}

/// Backoff before retry `attempt` (1-based): `BACKOFF_BASE · 2^(attempt−1)`
/// plus deterministic jitter in `[0, BACKOFF_BASE)`, capped at
/// `BACKOFF_CAP`.
fn backoff(attempt: u32, jitter_raw: u64) -> Duration {
    let exp = BACKOFF_BASE.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let jitter = Duration::from_micros(jitter_raw % BACKOFF_BASE.as_micros() as u64);
    (exp + jitter).min(BACKOFF_CAP)
}

/// `Timeout` and `Transport` failures are worth retrying — the party may
/// be back (or reachable over a fresh connection) a backoff later.
/// Integrity and protocol errors are not.
fn is_transient(e: &CoreError) -> bool {
    matches!(e, CoreError::Timeout(_) | CoreError::Transport(_))
}

fn next_penalty(penalty: u64, base: u64) -> u64 {
    let base = base.max(1);
    if penalty == 0 {
        base
    } else {
        penalty.saturating_mul(2).min(base * COOLDOWN_PENALTY_CAP)
    }
}

/// One party's connection inside a fleet pipe.
pub struct FleetLeg<T> {
    party: usize,
    addr: String,
    transport: Option<T>,
    /// The transport's counters when a wave took it ([`FleetLeg::lend`]);
    /// they stand in for it in [`FleetTransport::stats`] until it comes
    /// home, so a hedged straggler never makes the pipe's byte counts dip.
    lent: Option<TransportStats>,
    dial: Option<Dialer<T>>,
    health: PartyHealth,
    strikes: u32,
    cooldown: u64,
    penalty: u64,
    waves_ok: u64,
    fault: Option<String>,
}

impl<T> FleetLeg<T> {
    /// A live leg to 1-based `party`.
    pub fn up(party: usize, transport: T) -> Self {
        FleetLeg {
            party,
            addr: "local".into(),
            transport: Some(transport),
            lent: None,
            dial: None,
            health: PartyHealth::Live,
            strikes: 0,
            cooldown: 0,
            penalty: 0,
            waves_ok: 0,
            fault: None,
        }
    }

    /// A leg that was already down when the pipe was built (e.g. dead at
    /// connect); the pipe starts degraded but functional. With a
    /// [`Dialer`] attached the party is probed for re-admission from the
    /// first wave on.
    pub fn down(party: usize, fault: String) -> Self {
        FleetLeg {
            party,
            addr: "local".into(),
            transport: None,
            lent: None,
            dial: None,
            health: PartyHealth::Quarantined,
            strikes: 0,
            cooldown: 0,
            penalty: 0,
            waves_ok: 0,
            fault: Some(fault),
        }
    }

    /// Labels the leg with the party's address; every fault raised for
    /// this leg names it.
    pub fn at(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Attaches a dialer for in-wave retry reconnects and re-admission
    /// probes. Without one, a quarantined leg stays quarantined.
    pub fn with_dialer(mut self, dial: Dialer<T>) -> Self {
        self.dial = Some(dial);
        self
    }

    /// Records a successful wave: strikes clear, the leg is (back to)
    /// `Live`, penalties reset.
    fn note_success(&mut self) {
        self.strikes = 0;
        self.waves_ok += 1;
        self.penalty = 0;
        self.health = PartyHealth::Live;
        self.fault = None;
    }
}

impl<T: Transport> FleetLeg<T> {
    /// Hands the leg's transport to a wave, noting its counters first.
    fn lend(&mut self) -> T {
        let t = self.transport.take().expect("leg checked live");
        self.lent = Some(t.stats());
        t
    }

    /// Puts a transport back after a wave.
    fn home(&mut self, t: T) {
        self.transport = Some(t);
        self.lent = None;
    }

    /// The traffic counters this leg contributes: its transport's, or the
    /// last ones seen while a wave has it out.
    fn seen(&self) -> Option<TransportStats> {
        self.transport.as_ref().map(T::stats).or(self.lent)
    }

    /// Folds the leg's traffic counters into the pipe carry and drops the
    /// connection (or forgets the one a lost worker took with it).
    fn fold_transport(&mut self, carry: &mut TransportStats) {
        if let Some(s) = self.seen() {
            carry.bytes_sent += s.bytes_sent;
            carry.bytes_received += s.bytes_received;
        }
        self.transport = None;
        self.lent = None;
    }

    /// Records a failed wave. The first strike on a `Live` leg demotes it
    /// to `Suspect` but keeps it in rotation (it may answer the next wave
    /// over a retried connection); any further failure — or a failure on
    /// `Probation` — quarantines it for a wave-counted cooldown.
    fn strike(&mut self, carry: &mut TransportStats, base_cooldown: u64, fault: String) {
        self.strikes += 1;
        self.fault = Some(fault);
        if self.health == PartyHealth::Live && self.strikes < 2 {
            self.health = PartyHealth::Suspect;
        } else {
            self.fold_transport(carry);
            self.health = PartyHealth::Quarantined;
            self.penalty = next_penalty(self.penalty, base_cooldown);
            self.cooldown = self.penalty;
        }
    }

    /// Permanent quarantine for integrity faults — a party caught lying
    /// is never probed for re-admission.
    fn quarantine_integrity(&mut self, carry: &mut TransportStats, fault: String) {
        self.fold_transport(carry);
        self.health = PartyHealth::Quarantined;
        self.cooldown = u64::MAX;
        self.penalty = u64::MAX;
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }
}

/// One leg's answer to a wave: its data-plane response and, for a mirrored
/// wave, the MAC mirror's.
type LegOutcome = Result<(Response, Option<Response>), CoreError>;

/// What a detached leg worker reports back: the leg's transport (returned
/// to its slot), the exchange outcome, and the traffic counters of any
/// connections discarded by in-wave re-dials (folded into the pipe carry
/// so cumulative stats never regress).
struct LegReport<T> {
    transport: T,
    outcome: LegOutcome,
    finished: Instant,
    lost: TransportStats,
}

/// A hedged wave's straggler channel: legs still out with detached
/// workers after the wave was answered from `t` responses. Harvested
/// without blocking at the start of later waves.
struct PendingWave<T> {
    rx: mpsc::Receiver<(usize, LegReport<T>)>,
    outstanding: Vec<usize>,
    done: Instant,
}

/// One wave's leg outcomes as they land: `(party, data, mac)` for every
/// answering leg, those legs' indices (credited once the wave verifies),
/// and the legs that failed.
#[derive(Default)]
struct Answers {
    live: Vec<(usize, Response, Option<Response>)>,
    ok_legs: Vec<usize>,
    failed: Vec<(usize, CoreError)>,
}

/// Sends one leg's wave frame and splits the answer into the data-plane
/// response and, when the frame is a [`Request::Pair`], its MAC mirror's.
/// A pair answered as a whole (one top-level reply, such as the reshard
/// fence or a refusal) stands for both halves, as two refused frames did.
fn exchange<T: Transport>(transport: &mut T, frame: &Request) -> LegOutcome {
    Ok(match (frame, transport.call(frame)?) {
        (Request::Pair { .. }, Response::Pair { data, mac }) => (*data, Some(*mac)),
        (Request::Pair { .. }, whole) => (whole.clone(), Some(whole)),
        (_, single) => (single, None),
    })
}

/// One leg's wave: exchange, and on a transient failure retry up to
/// `cfg.retries` times with exponential backoff and deterministic jitter,
/// re-dialing a fresh connection through the leg's [`Dialer`] when one is
/// available. Always hands the transport back.
fn exchange_with_retry<T: Transport>(
    mut transport: T,
    frame: &Request,
    cfg: &ResilienceConfig,
    dial: Option<&Dialer<T>>,
    jitter_seed: u64,
) -> LegReport<T> {
    let mut prg = Prg::from_u64(jitter_seed);
    let mut attempt = 0u32;
    let mut lost = TransportStats::default();
    loop {
        match exchange(&mut transport, frame) {
            Ok(v) => {
                return LegReport {
                    transport,
                    outcome: Ok(v),
                    finished: Instant::now(),
                    lost,
                }
            }
            Err(e) if attempt < cfg.retries && is_transient(&e) => {
                attempt += 1;
                std::thread::sleep(backoff(attempt, prg.next_u64()));
                if let Some(dial) = dial {
                    if let Ok(mut fresh) = dial(cfg.deadline) {
                        fresh.set_call_budget(cfg.deadline);
                        let s = transport.stats();
                        lost.bytes_sent += s.bytes_sent;
                        lost.bytes_received += s.bytes_received;
                        transport = fresh;
                    }
                }
            }
            Err(e) => {
                return LegReport {
                    transport,
                    outcome: Err(e),
                    finished: Instant::now(),
                    lost,
                }
            }
        }
    }
}

/// Which parts of a wave were mirrored to the MAC plane.
enum MirrorPlan {
    /// No data-plane content; structural agreement only.
    None,
    /// The whole request is data-plane.
    Whole,
    /// A batch whose listed slot indices are data-plane.
    Slots(Vec<usize>),
}

fn is_data_plane(req: &Request) -> bool {
    matches!(
        req,
        Request::EvalMany { .. }
            | Request::GetPolys { .. }
            // Aggregate frames carry share content (grouped partial sums /
            // fetched rows); the MAC mirror reuses the same `expect_epoch`,
            // valid because every write bumps both planes' epochs in
            // lockstep. `AGG_CHECK` rides along harmlessly: both planes
            // answer the same empty frame and agree structurally.
            | Request::Agg { .. }
    )
}

/// The MAC mirror of `inner`, if any part of it is data-plane.
fn mirror_of(inner: &Request) -> (Option<Request>, MirrorPlan) {
    match inner {
        r if is_data_plane(r) => (Some(r.clone()), MirrorPlan::Whole),
        Request::Batch(subs) => {
            let idx: Vec<usize> = subs
                .iter()
                .enumerate()
                .filter(|(_, r)| is_data_plane(r))
                .map(|(i, _)| i)
                .collect();
            if idx.is_empty() {
                (None, MirrorPlan::None)
            } else {
                let sel = idx.iter().map(|&i| subs[i].clone()).collect();
                (Some(Request::Batch(sel)), MirrorPlan::Slots(idx))
            }
        }
        _ => (None, MirrorPlan::None),
    }
}

/// Outcome of a combination step that did not produce a clean response.
enum FleetError {
    /// Specific parties were caught deviating; they are quarantined and the
    /// wave errors naming them.
    Blamed { parties: Vec<usize>, detail: String },
    /// Corruption or disagreement detected but not attributable.
    Fatal(String),
}

/// Fans every wave to all parties of one data shard, reconstructs with
/// MAC verification, and tolerates up to `n − t` dead parties. See the
/// module docs for the full protocol.
pub struct FleetTransport<T> {
    legs: Vec<FleetLeg<T>>,
    threshold: usize,
    data_shards: u32,
    shard: u32,
    ring: RingCtx,
    packer: Packer,
    alpha: u64,
    concurrent: bool,
    config: ResilienceConfig,
    pending: Vec<PendingWave<T>>,
    stats: TransportStats,
    write_seed: Option<Seed>,
}

impl<T: Transport> FleetTransport<T> {
    /// Assembles a fleet pipe for data shard `shard` of `data_shards`.
    /// `alpha` is the MAC key ([`fleet_mac_key`]); `concurrent` fans the
    /// legs out on scoped threads (use for network legs).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        legs: Vec<FleetLeg<T>>,
        threshold: usize,
        data_shards: u32,
        shard: u32,
        ring: RingCtx,
        packer: Packer,
        alpha: u64,
        concurrent: bool,
    ) -> Self {
        assert!(threshold >= 1 && threshold <= legs.len());
        FleetTransport {
            legs,
            threshold,
            data_shards,
            shard,
            ring,
            packer,
            alpha,
            concurrent,
            config: ResilienceConfig::default(),
            pending: Vec::new(),
            stats: TransportStats::default(),
            write_seed: None,
        }
    }

    /// Arms the pipe's write path. Incoming `Insert` rows are re-split
    /// per party with this seed ([`crate::encode::split_fleet_row`]),
    /// bit-identical to the build-time [`crate::encode::split_fleet`];
    /// without a seed, write frames error instead of fanning.
    pub fn set_split_seed(&mut self, seed: Seed) {
        self.write_seed = Some(seed);
    }

    /// Installs the resilience policy, applying its deadline to every
    /// live leg immediately.
    pub fn set_resilience(&mut self, cfg: ResilienceConfig) {
        self.config = cfg;
        for leg in self.legs.iter_mut() {
            if let Some(t) = leg.transport.as_mut() {
                t.set_call_budget(cfg.deadline);
            }
        }
    }

    /// The active resilience policy.
    pub fn resilience(&self) -> ResilienceConfig {
        self.config
    }

    /// Health snapshot of every party, in party order.
    pub fn party_status(&self) -> Vec<PartyStatus> {
        self.legs
            .iter()
            .map(|l| PartyStatus {
                party: l.party,
                addr: l.addr.clone(),
                health: l.health,
                waves_ok: l.waves_ok,
                fault: l.fault.clone(),
            })
            .collect()
    }

    /// 1-based ids of parties still in the wave rotation.
    pub fn live_parties(&self) -> Vec<usize> {
        self.legs
            .iter()
            .filter(|l| l.health != PartyHealth::Quarantined)
            .map(|l| l.party)
            .collect()
    }

    /// `(party, fault)` for every retired leg.
    pub fn faults(&self) -> Vec<(usize, String)> {
        self.legs
            .iter()
            .filter_map(|l| l.fault.clone().map(|f| (l.party, f)))
            .collect()
    }

    /// Indices of the legs whose transport is home, in party order.
    fn available(&self) -> Vec<usize> {
        self.legs
            .iter()
            .enumerate()
            .filter(|(_, l)| l.transport.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Lends leg `idx`'s transport to wave `wave`, with the leg's dialer
    /// and its deterministic backoff-jitter seed for that wave.
    fn lend(&mut self, idx: usize, wave: u64) -> (T, Option<Dialer<T>>, u64) {
        let leg = &mut self.legs[idx];
        let seed = JITTER_SEED ^ ((leg.party as u64) << 32) ^ wave;
        (leg.lend(), leg.dial.clone(), seed)
    }

    /// Books a returning leg worker: traffic of the connections it re-dialed
    /// away joins the carry and the transport goes home. Returns the
    /// exchange outcome.
    fn land(&mut self, idx: usize, report: LegReport<T>) -> LegOutcome {
        self.stats.bytes_sent += report.lost.bytes_sent;
        self.stats.bytes_received += report.lost.bytes_received;
        self.legs[idx].home(report.transport);
        report.outcome
    }

    /// [`FleetTransport::land`]s a worker of the running wave and files its
    /// outcome.
    fn land_in(&mut self, idx: usize, report: LegReport<T>, answers: &mut Answers) {
        match self.land(idx, report) {
            Ok((data, mac)) => {
                answers.live.push((self.legs[idx].party, data, mac));
                answers.ok_legs.push(idx);
            }
            Err(e) => answers.failed.push((idx, e)),
        }
    }

    /// Collects answers from hedged-wave stragglers, returning their
    /// transports to the rotation and crediting
    /// [`TransportStats::straggler_ms`] with how long each ran past its
    /// wave's cutoff. Read waves harvest without blocking; a write wave
    /// passes `block` to wait every straggler home first, so no leg's
    /// transport is out with an old read when the write fans out.
    fn harvest_stragglers(&mut self, block: bool) {
        if self.pending.is_empty() {
            return;
        }
        let base = self.config.cooldown_waves;
        let mut pending = std::mem::take(&mut self.pending);
        for wave in &mut pending {
            loop {
                if block && wave.outstanding.is_empty() {
                    break;
                }
                let received = if block {
                    wave.rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
                } else {
                    wave.rx.try_recv()
                };
                match received {
                    Ok((idx, report)) => {
                        wave.outstanding.retain(|&i| i != idx);
                        let lag = report.finished.saturating_duration_since(wave.done);
                        self.stats.straggler_ms += lag.as_millis() as u64;
                        match self.land(idx, report) {
                            Ok(_) => self.legs[idx].note_success(),
                            Err(e) => self.legs[idx].strike(&mut self.stats, base, e.to_string()),
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        // The workers are gone; a leg still listed lost its
                        // transport with its worker.
                        for idx in wave.outstanding.drain(..) {
                            self.legs[idx].strike(
                                &mut self.stats,
                                base,
                                "fleet leg worker lost".into(),
                            );
                        }
                        break;
                    }
                }
            }
        }
        pending.retain(|w| !w.outstanding.is_empty());
        self.pending = pending;
    }

    /// Walks quarantined legs: counts each cooldown down one wave and, at
    /// zero, re-dials and probes the party (a `ShardCount` round trip that
    /// must report the fleet's own layout). A passed probe re-admits the
    /// party on [`PartyHealth::Probation`]; a failed one doubles the
    /// cooldown. Integrity quarantines (`cooldown == u64::MAX`) and legs
    /// without a dialer are skipped.
    fn tick_readmission(&mut self) {
        let deadline = self.config.deadline;
        let expect = 2 * self.data_shards as u64;
        let base = self.config.cooldown_waves;
        for leg in self.legs.iter_mut() {
            if leg.health != PartyHealth::Quarantined || leg.cooldown == u64::MAX {
                continue;
            }
            let Some(dial) = leg.dial.as_ref() else {
                continue;
            };
            if leg.cooldown > 0 {
                leg.cooldown -= 1;
                continue;
            }
            let outcome = dial(deadline).and_then(|mut t| {
                t.set_call_budget(deadline);
                match t.call(&Request::ShardCount)? {
                    Response::Count(c) if c == expect => Ok(t),
                    other => Err(CoreError::Transport(format!(
                        "probe expected Count({expect}), got {other:?}"
                    ))),
                }
            });
            match outcome {
                Ok(t) => {
                    leg.home(t);
                    leg.health = PartyHealth::Probation;
                    leg.strikes = 0;
                    // The fault stays on record until a successful wave.
                }
                Err(e) => {
                    leg.penalty = next_penalty(leg.penalty, base);
                    leg.cooldown = leg.penalty;
                    leg.fault = Some(format!("re-admission probe failed: {e}"));
                }
            }
        }
    }

    /// Lagrange-combines per-party vectors and verifies every element
    /// against the combined MAC (`α · s = m`). On mismatch, attributes by
    /// leave-one-out when the responder count allows it.
    fn verified_vector(
        &self,
        parties: &[usize],
        data: &[Vec<u64>],
        mac: &[Vec<u64>],
    ) -> Result<Vec<u64>, FleetError> {
        let field = self.ring.field();
        let m = parties.len();
        let len = data[0].len();
        let try_subset = |sel: &[usize]| -> Option<Vec<u64>> {
            let xs: Vec<u64> = sel
                .iter()
                .map(|&k| FleetSpec::party_x(parties[k]))
                .collect();
            let lambda = lagrange_at_zero(field, &xs)?;
            let mut out = Vec::with_capacity(len);
            for i in 0..len {
                let mut s = field.zero();
                let mut w = field.zero();
                for (&k, &l) in sel.iter().zip(&lambda) {
                    s = field.add(s, field.mul(l, data[k][i]));
                    w = field.add(w, field.mul(l, mac[k][i]));
                }
                if field.mul(self.alpha, s) != w {
                    return None;
                }
                out.push(s);
            }
            Some(out)
        };
        let all: Vec<usize> = (0..m).collect();
        if let Some(out) = try_subset(&all) {
            return Ok(out);
        }
        if m > self.threshold {
            let mut culprit: Option<usize> = None;
            let mut ambiguous = false;
            for skip in 0..m {
                let sel: Vec<usize> = (0..m).filter(|&k| k != skip).collect();
                if sel.len() < self.threshold {
                    continue;
                }
                if try_subset(&sel).is_some() {
                    if culprit.is_some() {
                        ambiguous = true;
                        break;
                    }
                    culprit = Some(skip);
                }
            }
            if let (Some(skip), false) = (culprit, ambiguous) {
                let p = parties[skip];
                return Err(FleetError::Blamed {
                    parties: vec![p],
                    detail: format!(
                        "MAC verification failed; corrupted share attributed to party {p}"
                    ),
                });
            }
            return Err(FleetError::Fatal(format!(
                "MAC verification failed and attribution was ambiguous among parties {parties:?}"
            )));
        }
        Err(FleetError::Fatal(format!(
            "MAC verification failed with exactly {m} responders (parties {parties:?}); \
             more than threshold {} responders are needed to attribute the corruption",
            self.threshold
        )))
    }

    /// Requires a `≥ t`, byte-identical quorum on a structural response;
    /// deviants are blamed by name.
    fn structural_majority(&self, parts: &[(usize, &Response)]) -> Result<Response, FleetError> {
        let mut groups: Vec<(Vec<usize>, &Response)> = Vec::new();
        for &(party, resp) in parts {
            match groups.iter_mut().find(|(_, r)| *r == resp) {
                Some(g) => g.0.push(party),
                None => groups.push((vec![party], resp)),
            }
        }
        groups.sort_by_key(|(ps, _)| std::cmp::Reverse(ps.len()));
        let all: Vec<usize> = parts.iter().map(|&(p, _)| p).collect();
        let (winners, resp) = &groups[0];
        if winners.len() < self.threshold {
            return Err(FleetError::Fatal(format!(
                "no {}-party agreement on a structural response among parties {all:?}",
                self.threshold
            )));
        }
        if groups.len() > 1 && groups[1].0.len() >= self.threshold {
            return Err(FleetError::Fatal(format!(
                "two quorums disagree on a structural response (parties {:?} vs {:?})",
                winners, groups[1].0
            )));
        }
        let deviants: Vec<usize> = all
            .iter()
            .copied()
            .filter(|p| !winners.contains(p))
            .collect();
        if !deviants.is_empty() {
            let detail = if deviants.len() == 1 {
                format!(
                    "party {} disagreed with the {}-party quorum on a structural response",
                    deviants[0],
                    winners.len()
                )
            } else {
                format!(
                    "parties {deviants:?} disagreed with the {}-party quorum on a structural response",
                    winners.len()
                )
            };
            return Err(FleetError::Blamed {
                parties: deviants,
                detail,
            });
        }
        Ok((*resp).clone())
    }

    /// Combines one data-plane slot: per-party shares plus their MAC
    /// mirrors, matched by response shape.
    fn combine_data_slot(
        &self,
        parts: &[(usize, &Response)],
        macs: &[(usize, &Response)],
    ) -> Result<Response, FleetError> {
        let parties: Vec<usize> = parts.iter().map(|&(p, _)| p).collect();
        // Evaluation vectors of one common length.
        let values_of = |r: &Response| match r {
            Response::Values(v) => Some(v.clone()),
            _ => None,
        };
        if let (Some(data), Some(mac)) = (
            parts
                .iter()
                .map(|(_, r)| values_of(r))
                .collect::<Option<Vec<_>>>(),
            macs.iter()
                .map(|(_, r)| values_of(r))
                .collect::<Option<Vec<_>>>(),
        ) {
            let len = data[0].len();
            if data.iter().all(|v| v.len() == len) && mac.iter().all(|v| v.len() == len) {
                return Ok(Response::Values(
                    self.verified_vector(&parties, &data, &mac)?,
                ));
            }
        }
        // Packed polynomials: unpack, combine coefficient-wise, repack.
        let polys_of = |r: &Response| match r {
            Response::Polys(p) => Some(p.clone()),
            _ => None,
        };
        if let (Some(data), Some(mac)) = (
            parts
                .iter()
                .map(|(_, r)| polys_of(r))
                .collect::<Option<Vec<_>>>(),
            macs.iter()
                .map(|(_, r)| polys_of(r))
                .collect::<Option<Vec<_>>>(),
        ) {
            let count = data[0].len();
            if data.iter().all(|p| p.len() == count) && mac.iter().all(|p| p.len() == count) {
                let mut out = Vec::with_capacity(count);
                for j in 0..count {
                    let unpack = |bytes: &[u8], party: usize| {
                        self.packer.unpack_radix(&self.ring, bytes).map_err(|e| {
                            FleetError::Blamed {
                                parties: vec![party],
                                detail: format!(
                                    "party {party} returned an undecodable share polynomial: {e}"
                                ),
                            }
                        })
                    };
                    let mut dcoeffs = Vec::with_capacity(parties.len());
                    let mut mcoeffs = Vec::with_capacity(parties.len());
                    for (k, &p) in parties.iter().enumerate() {
                        dcoeffs.push(unpack(&data[k][j], p)?.coeffs().to_vec());
                        mcoeffs.push(unpack(&mac[k][j], p)?.coeffs().to_vec());
                    }
                    let combined = self.verified_vector(&parties, &dcoeffs, &mcoeffs)?;
                    let poly = self
                        .ring
                        .poly_from_coeffs(combined)
                        .map_err(|e| FleetError::Fatal(format!("recombined polynomial: {e}")))?;
                    out.push(self.packer.pack_radix(&poly));
                }
                return Ok(Response::Polys(out));
            }
        }
        // Aggregate responses: the `found` lists are structural (every
        // honest party computed them from the same table layout and they
        // must agree byte-for-byte, across both planes), while the grouped
        // partial sums are share data — combined coefficient-wise under the
        // MAC exactly like packed polynomials. Summation is linear, so the
        // MAC plane's grouped sums are `α ⊙` the data plane's and the
        // `α · s = m` check carries over unchanged.
        fn agg_of(r: &Response) -> Option<(&Vec<u32>, &Vec<Vec<u8>>)> {
            match r {
                Response::Agg { found, partials } => Some((found, partials)),
                _ => None,
            }
        }
        if let (Some(data), Some(mac)) = (
            parts
                .iter()
                .map(|(_, r)| agg_of(r))
                .collect::<Option<Vec<_>>>(),
            macs.iter()
                .map(|(_, r)| agg_of(r))
                .collect::<Option<Vec<_>>>(),
        ) {
            let (found0, partials0) = data[0];
            let shape_ok =
                |(f, p): &(&Vec<u32>, &Vec<Vec<u8>>)| *f == found0 && p.len() == partials0.len();
            if data.iter().all(shape_ok) && mac.iter().all(shape_ok) {
                let count = partials0.len();
                let mut out = Vec::with_capacity(count);
                for j in 0..count {
                    let unpack = |bytes: &[u8], party: usize| {
                        self.packer.unpack_radix(&self.ring, bytes).map_err(|e| {
                            FleetError::Blamed {
                                parties: vec![party],
                                detail: format!(
                                    "party {party} returned an undecodable aggregate partial: {e}"
                                ),
                            }
                        })
                    };
                    let mut dcoeffs = Vec::with_capacity(parties.len());
                    let mut mcoeffs = Vec::with_capacity(parties.len());
                    for (k, &p) in parties.iter().enumerate() {
                        dcoeffs.push(unpack(&data[k].1[j], p)?.coeffs().to_vec());
                        mcoeffs.push(unpack(&mac[k].1[j], p)?.coeffs().to_vec());
                    }
                    let combined = self.verified_vector(&parties, &dcoeffs, &mcoeffs)?;
                    let poly = self
                        .ring
                        .poly_from_coeffs(combined)
                        .map_err(|e| FleetError::Fatal(format!("recombined partial: {e}")))?;
                    out.push(self.packer.pack_radix(&poly));
                }
                return Ok(Response::Agg {
                    found: found0.clone(),
                    partials: out,
                });
            }
            // A deviant `found` list or partial count is a structural lie;
            // fall through so the quorum rule names the culprit.
            return self.structural_majority(parts);
        }
        // Mixed or unexpected shapes (e.g. an agreed per-slot error):
        // structural agreement is the only safe rule left.
        self.structural_majority(parts)
    }

    /// Combines one wave's live responses according to the mirror plan.
    fn combine_wave(
        &self,
        live: &[(usize, Response, Option<Response>)],
        plan: &MirrorPlan,
    ) -> Result<Response, FleetError> {
        let parts: Vec<(usize, &Response)> = live.iter().map(|(p, d, _)| (*p, d)).collect();
        match plan {
            MirrorPlan::None => self.structural_majority(&parts),
            MirrorPlan::Whole => {
                let macs: Vec<(usize, &Response)> = live
                    .iter()
                    .filter_map(|(p, _, m)| m.as_ref().map(|m| (*p, m)))
                    .collect();
                if macs.len() != parts.len() {
                    return Err(FleetError::Fatal(
                        "a mirrored wave is missing MAC responses".into(),
                    ));
                }
                self.combine_data_slot(&parts, &macs)
            }
            MirrorPlan::Slots(idx) => {
                // Every live party must agree this is a batch of the same
                // slot count, with a MAC batch parallel to `idx`.
                let batch_of = |r: &Response| match r {
                    Response::Batch(slots) => Some(slots.len()),
                    _ => None,
                };
                let shapes: Option<Vec<usize>> = parts.iter().map(|(_, r)| batch_of(r)).collect();
                let mac_ok = live.iter().all(|(_, _, m)| {
                    matches!(m, Some(Response::Batch(slots)) if slots.len() == idx.len())
                });
                let Some(counts) = shapes else {
                    // Not everyone answered with a batch (e.g. an agreed
                    // top-level error such as the reshard fence).
                    return self.structural_majority(&parts);
                };
                if counts.windows(2).any(|w| w[0] != w[1]) || !mac_ok {
                    return self.structural_majority(&parts);
                }
                let slot_count = counts[0];
                fn slots_of(r: &Response) -> &Vec<Response> {
                    match r {
                        Response::Batch(slots) => slots,
                        _ => unreachable!(),
                    }
                }
                let mut out = Vec::with_capacity(slot_count);
                for i in 0..slot_count {
                    let slot_parts: Vec<(usize, &Response)> =
                        live.iter().map(|(p, d, _)| (*p, &slots_of(d)[i])).collect();
                    if let Ok(pos) = idx.binary_search(&i) {
                        let slot_macs: Vec<(usize, &Response)> = live
                            .iter()
                            .map(|(p, _, m)| {
                                (*p, &slots_of(m.as_ref().expect("mac batch checked"))[pos])
                            })
                            .collect();
                        out.push(self.combine_data_slot(&slot_parts, &slot_macs)?);
                    } else {
                        out.push(self.structural_majority(&slot_parts)?);
                    }
                }
                Ok(Response::Batch(out))
            }
        }
    }
}

impl<T: Transport + Send + 'static> FleetTransport<T> {
    /// One write wave. Every leg gets one `(data, MAC)` [`Request::Pair`]:
    /// inserts are re-split per party, so each leg's pair carries its own
    /// shares; a delete sends every leg the same pair. Never hedged: the
    /// wave waits for every participating leg, requires both planes of a
    /// party to acknowledge identically, and answers from a `≥ t`
    /// structural quorum. Any party that misses the write — absent, failed
    /// mid-application, or deviant — is quarantined permanently, because
    /// its state has diverged and a re-admission probe cannot detect that.
    fn write_wave(&mut self, dshard: u32, inner: &Request) -> Result<Response, CoreError> {
        let n = self.legs.len();
        let mirror = self.data_shards + dshard;
        let pair = |data: Request, mac: Request| {
            Arc::new(Request::Pair {
                data: Box::new(Request::ToShard {
                    shard: dshard,
                    req: Box::new(data),
                }),
                mac: Box::new(Request::ToShard {
                    shard: mirror,
                    req: Box::new(mac),
                }),
            })
        };
        // Per-leg frames, indexed like `legs`.
        let frames: Vec<Arc<Request>> = match inner {
            Request::Insert { rows } => {
                let seed = self.write_seed.clone().ok_or_else(|| {
                    CoreError::Transport("fleet pipe has no split seed; writes are disabled".into())
                })?;
                let spec = FleetSpec::new(n, self.threshold)?;
                let mut data: Vec<Vec<(Loc, Vec<u8>)>> =
                    (0..n).map(|_| Vec::with_capacity(rows.len())).collect();
                let mut mac: Vec<Vec<(Loc, Vec<u8>)>> =
                    (0..n).map(|_| Vec::with_capacity(rows.len())).collect();
                for (loc, poly) in rows {
                    let shares =
                        split_fleet_row(&self.ring, &self.packer, &seed, spec, loc.pre, poly)?;
                    for (j, (d, m)) in shares.into_iter().enumerate() {
                        data[j].push((*loc, d));
                        mac[j].push((*loc, m));
                    }
                }
                data.into_iter()
                    .zip(mac)
                    .map(|(d, m)| pair(Request::Insert { rows: d }, Request::Insert { rows: m }))
                    .collect()
            }
            Request::Delete { pres } => {
                let frame = pair(
                    Request::Delete { pres: pres.clone() },
                    Request::Delete { pres: pres.clone() },
                );
                vec![frame; n]
            }
            other => unreachable!("write_wave on non-write frame {other:?}"),
        };

        // A party that cannot take this write diverges from the fleet's
        // state for good; re-admitting it later would serve stale shares.
        for leg in self.legs.iter_mut() {
            if leg.transport.is_none() && leg.cooldown != u64::MAX {
                leg.quarantine_integrity(
                    &mut self.stats,
                    "missed a write; party state diverged".into(),
                );
            }
        }

        let avail = self.available();
        let cfg = self.config;
        let wave = self.stats.round_trips;
        let mut answers = Answers::default();
        if self.concurrent && avail.len() > 1 {
            let (tx, rx) = mpsc::channel::<(usize, LegReport<T>)>();
            for &idx in &avail {
                let (transport, dial, seed) = self.lend(idx, wave);
                let frame = Arc::clone(&frames[idx]);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let report = exchange_with_retry(transport, &frame, &cfg, dial.as_ref(), seed);
                    let _ = tx.send((idx, report));
                });
            }
            drop(tx);
            let mut outstanding = avail.clone();
            while !outstanding.is_empty() {
                let Ok((idx, report)) = rx.recv() else { break };
                outstanding.retain(|&i| i != idx);
                self.land_in(idx, report, &mut answers);
            }
            for idx in outstanding {
                self.legs[idx].quarantine_integrity(
                    &mut self.stats,
                    "fleet leg panicked during a write".into(),
                );
            }
        } else {
            for &idx in &avail {
                let (transport, dial, seed) = self.lend(idx, wave);
                let report =
                    exchange_with_retry(transport, &frames[idx], &cfg, dial.as_ref(), seed);
                self.land_in(idx, report, &mut answers);
            }
        }
        let Answers {
            live,
            ok_legs,
            failed,
        } = answers;

        // A leg that failed a write frame may have applied half of it;
        // like an absent party, it is divergent and retired for good.
        for (idx, e) in failed {
            self.legs[idx].quarantine_integrity(&mut self.stats, format!("write failed: {e}"));
        }
        // Both planes of one party must acknowledge identically.
        let mut parts: Vec<(usize, &Response)> = Vec::new();
        for (party, d, m) in &live {
            match m {
                Some(m) if m == d => parts.push((*party, d)),
                _ => {
                    let detail = format!(
                        "party {party} acknowledged a write differently on its data and MAC planes"
                    );
                    for leg in self.legs.iter_mut() {
                        if leg.party == *party {
                            leg.quarantine_integrity(
                                &mut self.stats,
                                format!("quarantined: {detail}"),
                            );
                        }
                    }
                }
            }
        }
        if parts.len() < self.threshold {
            let faults: Vec<String> = self
                .legs
                .iter()
                .filter_map(|l| {
                    l.fault
                        .as_ref()
                        .map(|f| format!("party {} at {}: {f}", l.party, l.addr))
                })
                .collect();
            return Err(CoreError::Transport(format!(
                "fleet quorum lost on a write: {} of {} parties applied it, threshold {} ({})",
                parts.len(),
                self.legs.len(),
                self.threshold,
                faults.join("; ")
            )));
        }
        match self.structural_majority(&parts) {
            Ok(resp) => {
                for idx in ok_legs {
                    if self.legs[idx].health != PartyHealth::Quarantined {
                        self.legs[idx].note_success();
                    }
                }
                Ok(resp)
            }
            Err(FleetError::Blamed { parties, detail }) => {
                for leg in self.legs.iter_mut() {
                    if parties.contains(&leg.party) {
                        leg.quarantine_integrity(&mut self.stats, format!("quarantined: {detail}"));
                    }
                }
                Err(CoreError::Corrupt(format!(
                    "fleet integrity failure: {detail}"
                )))
            }
            Err(FleetError::Fatal(detail)) => Err(CoreError::Corrupt(format!(
                "fleet integrity failure: {detail}"
            ))),
        }
    }
}

impl<T: Transport + Send + 'static> Transport for FleetTransport<T> {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        self.stats.round_trips += 1;
        self.harvest_stragglers(false);
        self.tick_readmission();
        let dshard = match req {
            Request::ToShard { shard, .. } => *shard,
            _ => self.shard,
        };
        let inner: &Request = match req {
            Request::ToShard { req, .. } => req,
            other => other,
        };
        if matches!(inner, Request::Insert { .. } | Request::Delete { .. }) {
            // Writes wait for every hedged straggler first: a leg whose
            // transport is still out with an old read must take the write
            // too, or its party silently misses it.
            self.harvest_stragglers(true);
            return self.write_wave(dshard, inner);
        }
        let (mirror, plan) = mirror_of(inner);
        // A mirrored wave sends every leg the data frame and its MAC mirror
        // as one pair, built once for the whole wave.
        let frame: Cow<Request> = match mirror {
            Some(m) => Cow::Owned(Request::Pair {
                data: Box::new(req.clone()),
                mac: Box::new(Request::ToShard {
                    shard: self.data_shards + dshard,
                    req: Box::new(m),
                }),
            }),
            None => Cow::Borrowed(req),
        };

        let avail = self.available();
        let cfg = self.config;
        let base = cfg.cooldown_waves;
        let wave = self.stats.round_trips;
        let mut answers = Answers::default();

        if (self.concurrent || cfg.hedge) && avail.len() > 1 {
            // One detached worker per leg; transports travel to the worker
            // and come back through the channel, so a hedged wave can
            // return while stragglers are still out.
            let (tx, rx) = mpsc::channel::<(usize, LegReport<T>)>();
            let frame = Arc::new(frame.into_owned());
            for &idx in &avail {
                let (transport, dial, seed) = self.lend(idx, wave);
                let tx = tx.clone();
                let frame = Arc::clone(&frame);
                std::thread::spawn(move || {
                    let report = exchange_with_retry(transport, &frame, &cfg, dial.as_ref(), seed);
                    let _ = tx.send((idx, report));
                });
            }
            drop(tx);
            let mut outstanding = avail.clone();
            let mut hedged: Option<Response> = None;
            while !outstanding.is_empty() {
                let Ok((idx, report)) = rx.recv() else { break };
                outstanding.retain(|&i| i != idx);
                self.land_in(idx, report, &mut answers);
                // t-first: with hedging on, try to answer the wave as soon
                // as a verifiable t-quorum is in. A combination that does
                // not yet verify (e.g. a corrupt share among the first t)
                // simply keeps waiting for more responders.
                if cfg.hedge && !outstanding.is_empty() && answers.live.len() >= self.threshold {
                    if let Ok(resp) = self.combine_wave(&answers.live, &plan) {
                        hedged = Some(resp);
                        break;
                    }
                }
            }
            if let Some(resp) = hedged {
                self.stats.hedged_wins += 1;
                self.pending.push(PendingWave {
                    rx,
                    outstanding,
                    done: Instant::now(),
                });
                for (idx, e) in answers.failed {
                    self.legs[idx].strike(&mut self.stats, base, e.to_string());
                }
                for idx in answers.ok_legs {
                    self.legs[idx].note_success();
                }
                return Ok(resp);
            }
            // The channel disconnected early only if workers panicked.
            for idx in outstanding {
                self.legs[idx].strike(&mut self.stats, base, "fleet leg panicked".into());
            }
        } else {
            for &idx in &avail {
                let (transport, dial, seed) = self.lend(idx, wave);
                let report = exchange_with_retry(transport, &frame, &cfg, dial.as_ref(), seed);
                self.land_in(idx, report, &mut answers);
            }
        }
        let Answers {
            live,
            ok_legs,
            failed,
        } = answers;

        for (idx, e) in failed {
            self.legs[idx].strike(&mut self.stats, base, e.to_string());
        }
        if live.len() < self.threshold {
            let faults: Vec<String> = self
                .legs
                .iter()
                .filter_map(|l| {
                    l.fault
                        .as_ref()
                        .map(|f| format!("party {} at {}: {f}", l.party, l.addr))
                })
                .collect();
            return Err(CoreError::Transport(format!(
                "fleet quorum lost: {} of {} parties answering, threshold {} ({})",
                live.len(),
                self.legs.len(),
                self.threshold,
                faults.join("; ")
            )));
        }
        match self.combine_wave(&live, &plan) {
            Ok(resp) => {
                for idx in ok_legs {
                    self.legs[idx].note_success();
                }
                Ok(resp)
            }
            Err(FleetError::Blamed { parties, detail }) => {
                for leg in self.legs.iter_mut() {
                    if parties.contains(&leg.party) {
                        leg.quarantine_integrity(&mut self.stats, format!("quarantined: {detail}"));
                    }
                }
                Err(CoreError::Corrupt(format!(
                    "fleet integrity failure: {detail}"
                )))
            }
            Err(FleetError::Fatal(detail)) => Err(CoreError::Corrupt(format!(
                "fleet integrity failure: {detail}"
            ))),
        }
    }

    fn stats(&self) -> TransportStats {
        let mut s = self.stats;
        for u in self.legs.iter().filter_map(FleetLeg::seen) {
            s.bytes_sent += u.bytes_sent;
            s.bytes_received += u.bytes_received;
        }
        s
    }

    fn set_call_budget(&mut self, budget: Option<Duration>) {
        self.config.deadline = budget;
        for leg in self.legs.iter_mut() {
            if let Some(t) = leg.transport.as_mut() {
                t.set_call_budget(budget);
            }
        }
    }
}

/// Builds the full in-process fleet stack from a fleet encoding: one
/// shared party host per party, `data_shards` fleet pipes, and the usual
/// [`ShardRouter`] on top. The `n = 1, t = 1` case routes the exact same
/// waves as the single-party [`ShardRouter::local`] deployment.
pub fn local_fleet_router(
    fleet: FleetEncodeOutput,
    seed: &Seed,
    data_shards: u32,
) -> Result<ShardRouter<FleetTransport<LocalPartyTransport>>, CoreError> {
    local_fleet_router_wrapped(fleet, seed, data_shards, |_, t| t)
}

/// Like [`local_fleet_router`] but passes every leg transport through
/// `wrap(party, transport)` first — the hook the chaos plane and the
/// degraded-mode bench use to interpose [`crate::chaos::ChaosTransport`]
/// on individual parties.
pub fn local_fleet_router_wrapped<T, F>(
    fleet: FleetEncodeOutput,
    seed: &Seed,
    data_shards: u32,
    mut wrap: F,
) -> Result<ShardRouter<FleetTransport<T>>, CoreError>
where
    T: Transport + Send + 'static,
    F: FnMut(usize, LocalPartyTransport) -> T,
{
    let FleetEncodeOutput {
        parties,
        spec,
        ring,
        packer,
        ..
    } = fleet;
    let alpha = fleet_mac_key(seed, &ring);
    let hosts = parties
        .into_iter()
        .map(|p| {
            party_server(p.data, p.mac, &ring, data_shards)
                .map(Mutex::new)
                .map(Arc::new)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sspec = ShardSpec::new(data_shards);
    let pipes: Vec<FleetTransport<T>> = (0..sspec.shards())
        .map(|k| {
            let legs = hosts
                .iter()
                .enumerate()
                .map(|(j, h)| {
                    FleetLeg::up(j + 1, wrap(j + 1, LocalPartyTransport::new(Arc::clone(h))))
                })
                .collect();
            let mut pipe = FleetTransport::new(
                legs,
                spec.threshold,
                sspec.shards(),
                k,
                ring.clone(),
                packer.clone(),
                alpha,
                false,
            );
            pipe.set_split_seed(seed.clone());
            pipe
        })
        .collect();
    Ok(ShardRouter::new(sspec, pipes, sspec.shards() > 1, false))
}

/// How long [`connect_fleet_mux`] waits for each party's connect and
/// handshake: a party that accepts the connection but never answers counts
/// as dead at connect instead of hanging the client.
pub const FLEET_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// One party's pool after the connect-time handshake, or why it has none.
type Probe = Result<MuxPool, String>;

/// Resolves the host shard count the reachable parties agree on, requiring
/// at least `threshold` of them. A party whose count disagrees with the
/// first reachable one is faulted in place.
fn fleet_consensus(probes: &mut [Probe], threshold: usize) -> Result<u32, CoreError> {
    let mut agreed: Option<u32> = None;
    for p in probes.iter_mut() {
        let Ok(pool) = p else { continue };
        let c = pool.shards();
        match agreed {
            None => agreed = Some(c),
            Some(a) if a != c => *p = Err(format!("shard count mismatch: {c} vs fleet's {a}")),
            _ => {}
        }
    }
    let faults = |probes: &[Probe]| -> String {
        probes
            .iter()
            .enumerate()
            .filter_map(|(j, p)| p.as_ref().err().map(|f| format!("party {}: {f}", j + 1)))
            .collect::<Vec<_>>()
            .join("; ")
    };
    let Some(total) = agreed else {
        return Err(CoreError::Transport(format!(
            "no fleet party reachable ({})",
            faults(probes)
        )));
    };
    let live = probes.iter().filter(|p| p.is_ok()).count();
    if live < threshold {
        return Err(CoreError::Transport(format!(
            "fleet quorum unreachable at connect: {live} live, threshold {threshold} ({})",
            faults(probes)
        )));
    }
    Ok(total)
}

/// Connects to an `n`-party fleet of [`crate::transport::serve_tcp_mux`]
/// hosts: one [`MuxPool`] per party, whose data-shard connections become
/// the fleet legs. Each pool adopts the shard count its host reports in
/// the `Hello` answer (`2·S`: data plus MAC planes). Parties dead at
/// connect — refused, silent past [`FLEET_CONNECT_TIMEOUT`], or at odds
/// with the fleet's layout — are tolerated down to `threshold` live legs.
pub fn connect_fleet_mux(
    addrs: &[String],
    threshold: usize,
    map: &MapFile,
    seed: &Seed,
) -> Result<ShardRouter<FleetTransport<MuxTransport>>, CoreError> {
    FleetSpec::new(addrs.len(), threshold)?;
    let ring = RingCtx::new(map.p(), map.e())?;
    let packer = Packer::new(&ring);
    let alpha = fleet_mac_key(seed, &ring);
    let mut probes: Vec<Probe> = addrs
        .iter()
        .map(|addr| {
            let pool = MuxPool::dial(addr.as_str(), Some(FLEET_CONNECT_TIMEOUT))
                .map_err(|e| e.to_string())?;
            match pool.shards() {
                c if c >= 2 && c % 2 == 0 => Ok(pool),
                c => Err(format!(
                    "endpoint serves {c} shards; a fleet party serves an even count \
                     (S data + S MAC)"
                )),
            }
        })
        .collect();
    let data_shards = fleet_consensus(&mut probes, threshold)? / 2;
    let sspec = ShardSpec::new(data_shards);
    let pipes = (0..sspec.shards())
        .map(|k| {
            let legs = probes
                .iter()
                .enumerate()
                .map(|(j, probe)| match probe {
                    Ok(pool) => {
                        // The dialer revives the party's pooled socket for
                        // this shard (a no-op while it is healthy) within
                        // the budget it is handed, so a retry or
                        // re-admission probe re-dials at most one
                        // connection shared by every rider, and never
                        // blocks past the deadline.
                        let dial: Dialer<MuxTransport> = {
                            let pool = pool.clone();
                            Arc::new(move |budget| {
                                let mut t = pool.transport(k);
                                t.set_call_budget(budget);
                                t.revive()?;
                                Ok(t)
                            })
                        };
                        FleetLeg::up(j + 1, pool.transport(k))
                            .at(&addrs[j])
                            .with_dialer(dial)
                    }
                    Err(f) => FleetLeg::down(j + 1, f.clone()).at(&addrs[j]),
                })
                .collect();
            let mut pipe = FleetTransport::new(
                legs,
                threshold,
                sspec.shards(),
                k,
                ring.clone(),
                packer.clone(),
                alpha,
                true,
            );
            pipe.set_split_seed(seed.clone());
            pipe
        })
        .collect();
    Ok(ShardRouter::new(sspec, pipes, sspec.shards() > 1, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_document_fleet, split_fleet};
    use crate::engine::{EngineKind, MatchRule};
    use crate::facade::{EncryptedDb, FleetDb};
    use ssx_store::Row;

    const XML: &str = "<site><a><b/><b/></a><c><a><b/></a></c></site>";

    fn setup() -> (MapFile, Seed) {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(21);
        (map, seed)
    }

    fn fleet_db(n: usize, t: usize, shards: u32) -> FleetDb {
        let (map, seed) = setup();
        let spec = FleetSpec::new(n, t).unwrap();
        EncryptedDb::encode_fleet_sharded(XML, map, seed, spec, shards).unwrap()
    }

    #[test]
    fn fleet_results_match_single_party_bit_for_bit() {
        let (map, seed) = setup();
        let queries = [
            ("//b", EngineKind::Simple, MatchRule::Containment),
            ("/site/a/b", EngineKind::Advanced, MatchRule::Containment),
            ("//a/b", EngineKind::Advanced, MatchRule::Equality),
        ];
        for (n, t, shards) in [(1usize, 1usize, 1u32), (3, 1, 1), (3, 2, 1), (3, 2, 2)] {
            let mut single =
                EncryptedDb::encode_sharded(XML, map.clone(), seed.clone(), shards).unwrap();
            let mut fleet = fleet_db(n, t, shards);
            for (q, kind, rule) in queries {
                let a = single.query(q, kind, rule).unwrap();
                let b = fleet.query(q, kind, rule).unwrap();
                assert_eq!(a.result, b.result, "{q} n={n} t={t} S={shards}");
                assert_eq!(
                    a.stats.round_trips, b.stats.round_trips,
                    "waves differ for {q} n={n} t={t} S={shards}"
                );
            }
        }
    }

    #[test]
    fn fleet_speculation_counters_match_single_party() {
        let (map, seed) = setup();
        let mut single = EncryptedDb::encode(XML, map.clone(), seed.clone()).unwrap();
        let mut fleet = fleet_db(3, 2, 1);
        single.set_speculation(true);
        fleet.set_speculation(true);
        let q = ("//a/b", EngineKind::Advanced, MatchRule::Containment);
        let a = single.query(q.0, q.1, q.2).unwrap();
        let b = fleet.query(q.0, q.1, q.2).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a.stats.round_trips, b.stats.round_trips);
        assert_eq!(a.stats.speculative_hits, b.stats.speculative_hits);
        assert_eq!(a.stats.speculative_wasted, b.stats.speculative_wasted);
    }

    /// Flips one bit in every polynomial of a party's table.
    fn corrupt_table(table: Table) -> Table {
        let mut out = Table::new(table.poly_len());
        for row in table.into_rows() {
            let mut poly = row.poly.into_vec();
            poly[0] ^= 0x01;
            out.insert(Row {
                loc: row.loc,
                poly: poly.into_boxed_slice(),
            })
            .unwrap();
        }
        out
    }

    #[test]
    fn byzantine_party_is_detected_and_named() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 2).unwrap();
        let mut fleet = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        fleet.parties[1].data =
            corrupt_table(std::mem::replace(&mut fleet.parties[1].data, Table::new(0)));
        let mut db = FleetDb::from_fleet_output(fleet, map, seed, 1).unwrap();
        let err = db
            .query("//b", EngineKind::Simple, MatchRule::Containment)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("integrity") && msg.contains("party 2"),
            "expected an integrity error naming party 2, got: {msg}"
        );
        // The culprit is quarantined: the same query now succeeds on the
        // remaining quorum with correct results.
        let (map2, seed2) = setup();
        let mut single = EncryptedDb::encode(XML, map2, seed2).unwrap();
        let want = single
            .query("//b", EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        let got = db
            .query("//b", EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        assert_eq!(got.result, want.result);
    }

    #[test]
    fn byzantine_mac_plane_is_detected_too() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 2).unwrap();
        let mut fleet = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        fleet.parties[2].mac =
            corrupt_table(std::mem::replace(&mut fleet.parties[2].mac, Table::new(0)));
        let mut db = FleetDb::from_fleet_output(fleet, map, seed, 1).unwrap();
        let err = db
            .query("//b", EngineKind::Simple, MatchRule::Containment)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("integrity") && msg.contains("party 3"),
            "expected an integrity error naming party 3, got: {msg}"
        );
    }

    #[test]
    fn corruption_with_exactly_t_responders_is_detected_not_attributed() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(2, 2).unwrap();
        let mut fleet = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        fleet.parties[0].data =
            corrupt_table(std::mem::replace(&mut fleet.parties[0].data, Table::new(0)));
        let mut db = FleetDb::from_fleet_output(fleet, map, seed, 1).unwrap();
        let err = db
            .query("//b", EngineKind::Simple, MatchRule::Containment)
            .unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("attribute"), "{err}");
    }

    #[test]
    fn split_then_reconstruct_via_any_two_parties_serves_queries() {
        // Drop each party in turn from a 3-of-2 fleet at build time; every
        // 2-party remnant must answer correctly.
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 2).unwrap();
        let mut single = EncryptedDb::encode(XML, map.clone(), seed.clone()).unwrap();
        let want = single
            .query("//a/b", EngineKind::Advanced, MatchRule::Equality)
            .unwrap();
        for dead in 1..=3usize {
            let out = encode_document_fleet(XML, &map, &seed, spec).unwrap();
            let ring = out.ring.clone();
            let packer = out.packer.clone();
            let alpha = fleet_mac_key(&seed, &ring);
            let legs = out
                .parties
                .into_iter()
                .map(|p| {
                    if p.party == dead {
                        FleetLeg::down(p.party, "dead at connect (test)".into())
                    } else {
                        let host = party_server(p.data, p.mac, &ring, 1)
                            .map(Mutex::new)
                            .map(Arc::new)
                            .unwrap();
                        FleetLeg::up(p.party, LocalPartyTransport::new(host))
                    }
                })
                .collect();
            let pipe = FleetTransport::new(legs, 2, 1, 0, ring.clone(), packer, alpha, false);
            let router = ShardRouter::new(ShardSpec::new(1), vec![pipe], false, false);
            let mut client =
                crate::client::ClientFilter::new(router, map.clone(), seed.clone()).unwrap();
            let got = crate::engine::Engine::run(
                EngineKind::Advanced,
                MatchRule::Equality,
                &ssx_xpath::parse_query("//a/b").unwrap(),
                &mut client,
            )
            .unwrap();
            assert_eq!(got.result, want.result, "party {dead} dead");
        }
    }

    #[test]
    fn quorum_loss_is_a_transport_error() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 3).unwrap();
        let out = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        let ring = out.ring.clone();
        let packer = out.packer.clone();
        let alpha = fleet_mac_key(&seed, &ring);
        let legs = out
            .parties
            .into_iter()
            .map(|p| {
                if p.party == 1 {
                    FleetLeg::down(1, "dead (test)".into())
                } else {
                    let host = party_server(p.data, p.mac, &ring, 1)
                        .map(Mutex::new)
                        .map(Arc::new)
                        .unwrap();
                    FleetLeg::up(p.party, LocalPartyTransport::new(host))
                }
            })
            .collect();
        let mut pipe = FleetTransport::new(legs, 3, 1, 0, ring, packer, alpha, false);
        let err = pipe.call(&Request::Count).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("quorum") && msg.contains("party 1"),
            "expected a quorum error naming party 1, got: {msg}"
        );
    }

    #[test]
    fn t1_fleet_replicas_majority_vote() {
        // n = 3, t = 1: pure replication. All answers agree, queries work and
        // match the single-party deployment exactly.
        let (map, seed) = setup();
        let mut single = EncryptedDb::encode_sharded(XML, map, seed, 2).unwrap();
        let mut db = fleet_db(3, 1, 2);
        let q = ("//b", EngineKind::Simple, MatchRule::Containment);
        let out = db.query(q.0, q.1, q.2).unwrap();
        let reference = single.query(q.0, q.1, q.2).unwrap();
        assert_eq!(out.result, reference.result);
        assert!(!out.result.is_empty());
    }

    /// A pseudo-random but decodable packed polynomial, as a client
    /// would hand the write plane.
    fn poly_bytes(ring: &RingCtx, fill: u64) -> Vec<u8> {
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

    fn root_loc(pre: u32) -> ssx_store::Loc {
        ssx_store::Loc {
            pre,
            post: pre,
            parent: 0,
        }
    }

    fn count_of(resp: Response) -> u64 {
        match resp {
            Response::Count(c) => c,
            other => panic!("expected Count, got {other:?}"),
        }
    }

    #[test]
    fn fleet_insert_reconstructs_bit_identical_and_delete_removes() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 2).unwrap();
        let fleet = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        let ring = fleet.ring.clone();
        let mut router = local_fleet_router(fleet, &seed, 1).unwrap();
        let base = count_of(router.call(&Request::Count).unwrap());
        let poly = poly_bytes(&ring, 0xFEED);

        let applied = router
            .call(&Request::Insert {
                rows: vec![(root_loc(100), poly.clone())],
            })
            .unwrap();
        assert_eq!(count_of(applied), 1);
        assert_eq!(count_of(router.call(&Request::Count).unwrap()), base + 1);

        // The fleet re-split the row into per-party shares; reading it
        // back Lagrange-combines them under the MAC check and must
        // reproduce the client's exact bytes.
        match router.call(&Request::GetPolys { pres: vec![100] }).unwrap() {
            Response::Polys(polys) => assert_eq!(polys, vec![poly]),
            other => panic!("expected Polys, got {other:?}"),
        }

        // Delete is idempotent: the missing pre is skipped, the real one
        // removed from both planes of every party.
        let removed = router
            .call(&Request::Delete {
                pres: vec![100, 999],
            })
            .unwrap();
        assert_eq!(count_of(removed), 1);
        assert_eq!(count_of(router.call(&Request::Count).unwrap()), base);
    }

    #[test]
    fn fleet_write_retires_absent_party_permanently() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 2).unwrap();
        let out = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        let ring = out.ring.clone();
        let packer = out.packer.clone();
        let alpha = fleet_mac_key(&seed, &ring);
        let legs = out
            .parties
            .into_iter()
            .map(|p| {
                if p.party == 2 {
                    FleetLeg::down(2, "dead at connect (test)".into())
                } else {
                    let host = party_server(p.data, p.mac, &ring, 1)
                        .map(Mutex::new)
                        .map(Arc::new)
                        .unwrap();
                    FleetLeg::up(p.party, LocalPartyTransport::new(host))
                }
            })
            .collect();
        let mut pipe = FleetTransport::new(legs, 2, 1, 0, ring.clone(), packer, alpha, false);
        pipe.set_split_seed(seed.clone());

        let poly = poly_bytes(&ring, 0xBEEF);
        let applied = pipe
            .call(&Request::Insert {
                rows: vec![(root_loc(50), poly.clone())],
            })
            .unwrap();
        assert_eq!(count_of(applied), 1);

        // The absent party missed the write: its state has diverged, so it
        // is retired like a lying party — cooldown never expires.
        let status = pipe.party_status();
        let p2 = status.iter().find(|s| s.party == 2).unwrap();
        assert_eq!(p2.health, PartyHealth::Quarantined);
        assert!(
            p2.fault
                .as_deref()
                .is_some_and(|f| f.contains("missed a write") || f.contains("dead at connect")),
            "unexpected fault: {:?}",
            p2.fault
        );

        // The surviving 2-of-2 quorum still reconstructs the new row.
        match pipe.call(&Request::GetPolys { pres: vec![50] }).unwrap() {
            Response::Polys(polys) => assert_eq!(polys, vec![poly]),
            other => panic!("expected Polys, got {other:?}"),
        }
    }

    /// The in-process party host answers pairs like the TCP host: half by
    /// half, data first, and refuses a pair with a host-level half whole.
    #[test]
    fn local_party_answers_pairs_half_by_half() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 2).unwrap();
        let out = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        let ring = out.ring.clone();
        let p = out.parties.into_iter().next().unwrap();
        let host = party_server(p.data, p.mac, &ring, 1).unwrap();
        let mut t = LocalPartyTransport::new(Arc::new(Mutex::new(host)));
        let polys = |shard| Request::ToShard {
            shard,
            req: Box::new(Request::GetPolys { pres: vec![2] }),
        };
        let pair = Request::Pair {
            data: Box::new(polys(0)),
            mac: Box::new(polys(1)),
        };
        let (alone_data, alone_mac) = (t.call(&polys(0)).unwrap(), t.call(&polys(1)).unwrap());
        assert_ne!(alone_data, alone_mac, "the planes hold different shares");
        assert_eq!(
            t.call(&pair).unwrap(),
            Response::Pair {
                data: Box::new(alone_data),
                mac: Box::new(alone_mac),
            }
        );
        for bad in [
            Request::ShardCount,
            Request::Shutdown,
            Request::Reshard { shards: 2 },
            Request::Hello { version: 1 },
        ] {
            let refused = Request::Pair {
                data: Box::new(polys(0)),
                mac: Box::new(bad.clone()),
            };
            match t.call(&refused).unwrap() {
                Response::Err(e) => assert!(e.contains("pair refused"), "{bad:?}: {e}"),
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        assert_eq!(t.stats().round_trips, 7, "one round trip per pair");
    }

    #[test]
    fn party_store_split_is_deterministic() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(3, 2).unwrap();
        let a = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        let b = split_fleet(
            crate::encode::encode_document(XML, &map, &seed).unwrap(),
            &seed,
            spec,
        )
        .unwrap();
        for (pa, pb) in a.parties.iter().zip(&b.parties) {
            for row in pa.data.rows() {
                assert_eq!(pb.data.by_pre(row.loc.pre).unwrap().poly, row.poly);
            }
            for row in pa.mac.rows() {
                assert_eq!(pb.mac.by_pre(row.loc.pre).unwrap().poly, row.poly);
            }
        }
    }
}
