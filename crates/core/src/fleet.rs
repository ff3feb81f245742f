//! The multi-party fleet: one logical server realised as `n` independent
//! parties, any `t` of which suffice to answer a wave.
//!
//! # Topology
//!
//! [`FleetTransport`] implements [`Transport`] and sits *under* the
//! existing [`ShardRouter`]: the router still plans waves, batches, and
//! speculation against `S` logical data shards, and each of its `S`
//! per-shard pipes is a fleet pipe sending every frame to the parties over
//! independent connections. Wave structure, batching decisions and
//! speculation counters are therefore **bit-identical** between the `n = 1`
//! single-party deployment and any fleet — the trust boundary moves, the
//! waves do not.
//!
//! # Which parties a wave asks
//!
//! * A **read wave** asks `k = max(t, 2)` of the available parties (all of
//!   them if fewer are up). Parties on probation or suspicion go first; the
//!   rest rotate with the count of read waves of the same kind (share or
//!   structural), so every party keeps being asked. The wave is answered
//!   when all `k` answer and their combination verifies.
//! * It **widens** to every other available party on a transport fault or
//!   timeout of an asked leg, a MAC mismatch, or a structural
//!   disagreement, and is then settled exactly like a wave that asked
//!   everyone: strikes, the quorum-loss error, leave-one-out attribution
//!   and quarantine all run unchanged.
//! * A **hedged** read wave ([`ResilienceConfig::hedge`]) asks every
//!   available party and is answered by the first `max(t, 2)` that verify,
//!   so a hedged structural answer has a second witness too.
//! * A **write wave** goes to every party.
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
//!   are Lagrange-combined at zero over the responders and checked
//!   against the combined MAC: `α · s = m`. A mismatch widens the wave;
//!   with more than `t` responders it is then *attributed* by leave-one-out
//!   re-combination and the culprit is named and quarantined; with exactly
//!   `t` parties up the corruption is still detected (the query errors),
//!   it just cannot be pinned on one party.
//! * **Structural responses** (locations, counts) carry no
//!   shares; they must agree byte-for-byte on a `≥ t` quorum, and any
//!   deviant is named. Two asked parties that disagree widen the wave, so
//!   a lie is never believed on one party's word, even at `t = 1`.
//! * A party that fails at the transport level (a mid-wave disconnect, a
//!   timeout) is struck and, failing again, quarantined; as long as `≥ t`
//!   parties answer, the wave completes with the correct result —
//!   dropout degrades latency, never correctness. Each leg keeps its one
//!   transport for life: retries and re-admission probes go out on it, and
//!   a pooled leg reopens its own dead connection. A party dead at connect
//!   has no transport and never returns.
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
/// its first length (four waves), so a flapping party backs off but is
/// never written off for good.
pub const COOLDOWN_PENALTY_CAP: u64 = 64;

/// Waves a quarantined party sits out before its first re-admission probe.
const COOLDOWN_WAVES: u64 = 4;

/// First backoff step of a leg retry; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Ceiling of a leg retry's backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Seed of the deterministic backoff jitter, mixed with the party and the
/// wave.
const JITTER_SEED: u64 = 0x5f33_7d1e;

/// Resilience policy for a fleet pipe: bounded retry and hedged
/// reconstruction. Installed with [`FleetTransport::set_resilience`]; the
/// per-call deadline is the transports' own
/// ([`Transport::set_call_budget`]).
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Transient-failure retries per leg per wave (0 = fail fast), with
    /// exponential backoff and deterministic jitter between attempts.
    pub retries: u32,
    /// Ask every available party on each read wave and answer as soon as
    /// `max(t, 2)` verified responses arrive, draining stragglers in the
    /// background ([`TransportStats::hedged_wins`]). Off, a read wave asks only
    /// `max(t, 2)` parties and widens on a fault, which costs fewer party
    /// requests but waits on every party it asked; hedging spends the extra
    /// requests to hide one slow party.
    pub hedge: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retries: 1,
            hedge: false,
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
/// be back (a pooled leg reopens its dead connection) a backoff later.
/// Integrity and protocol errors are not.
fn is_transient(e: &CoreError) -> bool {
    matches!(e, CoreError::Timeout(_) | CoreError::Transport(_))
}

/// The cooldown after `penalty`: [`COOLDOWN_WAVES`] first, then doubling up
/// to [`COOLDOWN_PENALTY_CAP`]×.
fn next_penalty(penalty: u64) -> u64 {
    penalty
        .saturating_mul(2)
        .clamp(COOLDOWN_WAVES, COOLDOWN_WAVES * COOLDOWN_PENALTY_CAP)
}

/// One party's connection inside a fleet pipe.
pub struct FleetLeg<T> {
    party: usize,
    addr: String,
    /// The leg's one transport, kept for life; `None` for a party dead at
    /// connect, and while a wave has it out ([`FleetLeg::lend`]).
    transport: Option<T>,
    /// The transport's counters when a wave took it ([`FleetLeg::lend`]);
    /// they stand in for it in [`FleetTransport::stats`] until it comes
    /// home, so a hedged straggler never makes the pipe's byte counts dip.
    lent: Option<TransportStats>,
    health: PartyHealth,
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
            health: PartyHealth::Live,
            cooldown: 0,
            penalty: 0,
            waves_ok: 0,
            fault: None,
        }
    }

    /// A leg that was already down when the pipe was built (e.g. dead at
    /// connect); the pipe starts degraded but functional. It has no
    /// transport, so it is never probed back in.
    pub fn down(party: usize, fault: String) -> Self {
        FleetLeg {
            party,
            addr: "local".into(),
            transport: None,
            lent: None,
            health: PartyHealth::Quarantined,
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

    /// Records a successful wave: the leg is (back to) `Live`, penalties
    /// reset.
    fn note_success(&mut self) {
        self.waves_ok += 1;
        self.penalty = 0;
        self.health = PartyHealth::Live;
        self.fault = None;
    }
}

impl<T: Transport> FleetLeg<T> {
    /// Hands the leg's transport to a wave, noting its counters first.
    fn lend(&mut self) -> T {
        let t = self.transport.take().expect("leg checked available");
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

    /// Records a failed wave. A failure demotes a `Live` leg to `Suspect`
    /// but keeps it in rotation (it may answer the next wave over a
    /// reopened connection); a failure on `Suspect` or `Probation`
    /// quarantines it for a wave-counted cooldown.
    fn strike(&mut self, fault: String) {
        self.fault = Some(fault);
        if self.health == PartyHealth::Live {
            self.health = PartyHealth::Suspect;
        } else {
            self.health = PartyHealth::Quarantined;
            self.penalty = next_penalty(self.penalty);
            self.cooldown = self.penalty;
        }
    }

    /// Permanent quarantine for integrity faults — a party caught lying
    /// is never probed for re-admission.
    fn quarantine_integrity(&mut self, fault: String) {
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

/// What a leg worker reports back: the leg's transport (returned to its
/// slot), the exchange outcome, and when it finished.
struct LegReport<T> {
    transport: T,
    outcome: LegOutcome,
    finished: Instant,
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

impl Answers {
    /// Files legs whose workers never reported (they panicked) as failed.
    fn lost(&mut self, legs: Vec<usize>) {
        let lost = |idx| (idx, CoreError::Transport("fleet leg worker lost".into()));
        self.failed.extend(legs.into_iter().map(lost));
    }
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

/// One leg's wave: exchange, and on a transient failure retry on the same
/// transport up to `retries` times with exponential backoff and
/// deterministic jitter. Always hands the transport back.
fn exchange_with_retry<T: Transport>(
    mut transport: T,
    frame: &Request,
    retries: u32,
    jitter_seed: u64,
) -> LegReport<T> {
    let mut prg = Prg::from_u64(jitter_seed);
    let mut attempt = 0u32;
    let outcome = loop {
        match exchange(&mut transport, frame) {
            Err(e) if attempt < retries && is_transient(&e) => {
                attempt += 1;
                std::thread::sleep(backoff(attempt, prg.next_u64()));
            }
            done => break done,
        }
    };
    LegReport {
        transport,
        outcome,
        finished: Instant::now(),
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

/// Sends each wave of one data shard to a quorum of its parties (a read),
/// or to all of them (a write or a hedged read), reconstructs with MAC
/// verification, and tolerates up to `n − t` dead parties. See the module
/// docs for the full protocol.
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
    /// Plain read waves sent so far, structural and share apart; each
    /// kind's count rotates its quorum ([`FleetTransport::quorum`]).
    turns: [u64; 2],
}

impl<T: Transport> FleetTransport<T> {
    /// Assembles a fleet pipe for data shard `shard` of `data_shards`.
    /// `alpha` is the MAC key ([`fleet_mac_key`]); `concurrent` runs the
    /// legs of a wave on threads of their own (use for network legs).
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
            turns: [0; 2],
        }
    }

    /// Arms the pipe's write path. Incoming `Insert` rows are re-split
    /// per party with this seed ([`crate::encode::split_fleet_row`]),
    /// bit-identical to the build-time [`crate::encode::split_fleet`];
    /// without a seed, write frames error instead of fanning.
    pub fn set_split_seed(&mut self, seed: Seed) {
        self.write_seed = Some(seed);
    }

    /// Installs the resilience policy.
    pub fn set_resilience(&mut self, cfg: ResilienceConfig) {
        self.config = cfg;
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

    /// Indices of the legs a wave can ask, in party order: in rotation,
    /// with their transport home.
    fn available(&self) -> Vec<usize> {
        self.legs
            .iter()
            .enumerate()
            .filter(|(_, l)| l.health != PartyHealth::Quarantined && l.transport.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// The legs a plain read wave asks first, in party order: `max(t, 2)`
    /// of the available ones, or all of them if fewer are up. Two is the
    /// floor because a structural answer carries no MAC and needs a second
    /// witness. Legs on probation or suspicion go first, so a re-admitted
    /// or struck party is tried again by the next wave. The rest rotate
    /// with the count of waves of this one's kind, share or structural, so
    /// a query shape that repeats cannot keep a party off every share wave.
    fn quorum(&mut self, avail: &[usize], plan: &MirrorPlan) -> Vec<usize> {
        let k = self.threshold.max(2).min(avail.len());
        let (mut asked, mut rest): (Vec<usize>, Vec<usize>) = avail
            .iter()
            .partition(|&&i| self.legs[i].health != PartyHealth::Live);
        let turn = &mut self.turns[usize::from(!matches!(plan, MirrorPlan::None))];
        *turn += 1;
        if !rest.is_empty() {
            let by = *turn % rest.len() as u64;
            rest.rotate_left(by as usize);
        }
        asked.extend(rest);
        asked.truncate(k);
        asked.sort_unstable();
        asked
    }

    /// Lends leg `idx`'s transport to wave `wave`, with the leg's
    /// deterministic backoff-jitter seed for that wave.
    fn lend(&mut self, idx: usize, wave: u64) -> (T, u64) {
        let leg = &mut self.legs[idx];
        let seed = JITTER_SEED ^ ((leg.party as u64) << 32) ^ wave;
        (leg.lend(), seed)
    }

    /// Books a returning leg worker: the transport goes home. Returns the
    /// exchange outcome.
    fn land(&mut self, idx: usize, report: LegReport<T>) -> LegOutcome {
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
                            Err(e) => self.legs[idx].strike(e.to_string()),
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        // The workers are gone; a leg still listed lost its
                        // transport with its worker.
                        for idx in wave.outstanding.drain(..) {
                            self.legs[idx].strike("fleet leg worker lost".into());
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
    /// zero, probes the party on the leg's own transport (a `ShardCount`
    /// round trip that must report the fleet's own layout; a pooled leg
    /// first reopens its dead connection within its call budget). A passed
    /// probe re-admits the party on [`PartyHealth::Probation`]; a failed
    /// one doubles the cooldown. Integrity quarantines
    /// (`cooldown == u64::MAX`) and legs without a transport are skipped.
    fn tick_readmission(&mut self) {
        let expect = 2 * self.data_shards as u64;
        for leg in self.legs.iter_mut() {
            if leg.health != PartyHealth::Quarantined || leg.cooldown == u64::MAX {
                continue;
            }
            let Some(t) = leg.transport.as_mut() else {
                continue;
            };
            if leg.cooldown > 0 {
                leg.cooldown -= 1;
                continue;
            }
            match t.call(&Request::ShardCount) {
                // The fault stays on record until a successful wave.
                Ok(Response::Count(c)) if c == expect => leg.health = PartyHealth::Probation,
                outcome => {
                    let e = match outcome {
                        Err(e) => e.to_string(),
                        Ok(other) => format!("expected Count({expect}), got {other:?}"),
                    };
                    leg.penalty = next_penalty(leg.penalty);
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
    /// mirrors, in one pass over every shape. Each answer is flattened to
    /// field elements — values as they are, packed polynomials and
    /// aggregate partials as their coefficients — then Lagrange-combined
    /// and MAC-checked at once ([`FleetTransport::verified_vector`]) and
    /// repacked. Summation is linear, so the MAC plane's aggregate partials
    /// are `α ⊙` the data plane's and the `α · s = m` check carries over.
    fn combine_data_slot(
        &self,
        parts: &[(usize, &Response)],
        macs: &[(usize, &Response)],
    ) -> Result<Response, FleetError> {
        // What must agree across every answer of both planes before shares
        // combine: the shape, its length and an aggregate's `found` list,
        // which is structural (every honest party computes it from the same
        // table layout).
        fn shape(r: &Response) -> Option<(u8, usize, Option<&Vec<u32>>)> {
            match r {
                Response::Values(v) => Some((0, v.len(), None)),
                Response::Polys(p) => Some((1, p.len(), None)),
                Response::Agg { found, partials } => Some((2, partials.len(), Some(found))),
                _ => None,
            }
        }
        let first = shape(parts[0].1);
        if first.is_none() || parts.iter().chain(macs).any(|(_, r)| shape(r) != first) {
            // Mixed or unexpected shapes (an agreed per-slot error, a
            // deviant `found` list or count): structural agreement is the
            // only safe rule left, and it names the deviant.
            return self.structural_majority(parts);
        }
        let flatten = |&(party, r): &(usize, &Response)| {
            let packed = match r {
                Response::Values(v) => return Ok(v.clone()),
                Response::Polys(packed)
                | Response::Agg {
                    partials: packed, ..
                } => packed,
                _ => unreachable!("shape checked"),
            };
            let mut out = Vec::with_capacity(packed.len() * self.ring.len());
            for bytes in packed {
                let poly = self.packer.unpack_radix(&self.ring, bytes).map_err(|e| {
                    FleetError::Blamed {
                        parties: vec![party],
                        detail: format!(
                            "party {party} returned an undecodable share polynomial: {e}"
                        ),
                    }
                })?;
                out.extend_from_slice(poly.coeffs());
            }
            Ok(out)
        };
        let parties: Vec<usize> = parts.iter().map(|&(p, _)| p).collect();
        let data = parts.iter().map(flatten).collect::<Result<Vec<_>, _>>()?;
        let mac = macs.iter().map(flatten).collect::<Result<Vec<_>, _>>()?;
        let combined = self.verified_vector(&parties, &data, &mac)?;
        let repack = || {
            combined
                .chunks(self.ring.len())
                .map(|c| {
                    let poly = self
                        .ring
                        .poly_from_coeffs(c.to_vec())
                        .map_err(|e| FleetError::Fatal(format!("recombined polynomial: {e}")))?;
                    Ok(self.packer.pack_radix(&poly))
                })
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(match parts[0].1 {
            Response::Polys(_) => Response::Polys(repack()?),
            Response::Agg { found, .. } => Response::Agg {
                found: found.clone(),
                partials: repack()?,
            },
            _ => Response::Values(combined),
        })
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
    /// Lends each of `legs` to a detached worker that sends it `frame(leg)`
    /// and reports back, with the transport, on the returned channel.
    fn spawn_legs(
        &mut self,
        legs: &[usize],
        frame: impl Fn(usize) -> Arc<Request>,
    ) -> mpsc::Receiver<(usize, LegReport<T>)> {
        let (retries, wave) = (self.config.retries, self.stats.round_trips);
        let (tx, rx) = mpsc::channel();
        for &idx in legs {
            let (transport, seed) = self.lend(idx, wave);
            let (frame, tx) = (frame(idx), tx.clone());
            std::thread::spawn(move || {
                let _ = tx.send((idx, exchange_with_retry(transport, &frame, retries, seed)));
            });
        }
        rx
    }

    /// The one leg runner: sends `frame(leg)` on each of `legs` and files
    /// every outcome in `answers`.
    ///
    /// * Given a mirror plan (a hedged wave), every leg runs on a detached
    ///   worker, and the first `max(t, 2)` answers that combine and verify
    ///   answer the wave (one party's structural answer carries no MAC, so
    ///   it is never believed alone, even at `t = 1`): the combination is
    ///   returned and the stragglers are left to
    ///   [`FleetTransport::harvest_stragglers`]. A combination that does
    ///   not yet verify keeps waiting for more legs.
    /// * Otherwise the legs run on one detached thread each when the pipe
    ///   is concurrent and more than one leg runs, else one after the other
    ///   on the caller's thread, and every leg is waited for.
    ///
    /// Returns `None` once every leg is in: then every transport is home,
    /// and a leg whose worker was lost is filed as failed.
    fn run_legs(
        &mut self,
        legs: &[usize],
        frame: impl Fn(usize) -> Arc<Request>,
        hedge: Option<&MirrorPlan>,
        answers: &mut Answers,
    ) -> Option<Response> {
        if hedge.is_none() && (!self.concurrent || legs.len() < 2) {
            let (retries, wave) = (self.config.retries, self.stats.round_trips);
            for &idx in legs {
                let (transport, seed) = self.lend(idx, wave);
                let report = exchange_with_retry(transport, &frame(idx), retries, seed);
                self.land_in(idx, report, answers);
            }
            return None;
        }
        // Transports travel to the workers and come back through the
        // channel, so a hedged wave can return while stragglers are out.
        let rx = self.spawn_legs(legs, frame);
        let mut outstanding = legs.to_vec();
        while !outstanding.is_empty() {
            let Ok((idx, report)) = rx.recv() else { break };
            outstanding.retain(|&i| i != idx);
            self.land_in(idx, report, answers);
            let Some(plan) = hedge else { continue };
            if outstanding.is_empty() || answers.live.len() < self.threshold.max(2) {
                continue;
            }
            let Ok(resp) = self.combine_wave(&answers.live, plan) else {
                continue;
            };
            self.stats.hedged_wins += 1;
            self.pending.push(PendingWave {
                rx,
                outstanding,
                done: Instant::now(),
            });
            return Some(resp);
        }
        answers.lost(outstanding);
        None
    }

    /// Settles a wave's combination, read or write: a verified answer
    /// credits every leg that gave it; a failed one quarantines for good
    /// the parties it blames, if any, and surfaces as an integrity error.
    fn settle(
        &mut self,
        combined: Result<Response, FleetError>,
        ok_legs: &[usize],
    ) -> Result<Response, CoreError> {
        let detail = match combined {
            Ok(resp) => {
                for &idx in ok_legs {
                    if self.legs[idx].health != PartyHealth::Quarantined {
                        self.legs[idx].note_success();
                    }
                }
                return Ok(resp);
            }
            Err(FleetError::Blamed { parties, detail }) => {
                for leg in self.legs.iter_mut() {
                    if parties.contains(&leg.party) {
                        leg.quarantine_integrity(format!("quarantined: {detail}"));
                    }
                }
                detail
            }
            Err(FleetError::Fatal(detail)) => detail,
        };
        Err(CoreError::Corrupt(format!(
            "fleet integrity failure: {detail}"
        )))
    }

    /// The error of a wave that fewer than `t` parties completed: `got`
    /// of them did (`what`), and every party's last fault is listed.
    fn quorum_lost(&self, got: usize, what: &str) -> CoreError {
        let faults: Vec<String> = self
            .legs
            .iter()
            .filter_map(|l| {
                l.fault
                    .as_ref()
                    .map(|f| format!("party {} at {}: {f}", l.party, l.addr))
            })
            .collect();
        CoreError::Transport(format!(
            "fleet quorum lost: {got} of {} parties {what}, threshold {} ({})",
            self.legs.len(),
            self.threshold,
            faults.join("; ")
        ))
    }

    /// One write wave. Every leg gets one `(data, MAC)` [`Request::Pair`]:
    /// inserts are re-split per party, so each leg's pair carries its own
    /// shares; a delete sends every leg the same pair. Never hedged: the
    /// wave waits for every participating leg, requires both planes of a
    /// party to acknowledge identically, and answers from a `≥ t`
    /// structural quorum. Any party that misses the write — out of
    /// rotation, failed mid-application, or deviant — is quarantined
    /// permanently, because its state has diverged and a re-admission probe
    /// cannot detect that.
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
        let avail = self.available();
        for (idx, leg) in self.legs.iter_mut().enumerate() {
            if !avail.contains(&idx) && leg.cooldown != u64::MAX {
                leg.quarantine_integrity("missed a write; party state diverged".into());
            }
        }

        let mut answers = Answers::default();
        self.run_legs(&avail, |idx| Arc::clone(&frames[idx]), None, &mut answers);
        // A leg that failed a write frame may have applied half of it;
        // like an absent party, it is divergent and retired for good.
        for (idx, e) in answers.failed {
            self.legs[idx].quarantine_integrity(format!("write failed: {e}"));
        }
        // Both planes of one party must acknowledge identically.
        let mut parts: Vec<(usize, &Response)> = Vec::new();
        for (party, d, m) in &answers.live {
            if m.as_ref() == Some(d) {
                parts.push((*party, d));
                continue;
            }
            let detail = format!(
                "party {party} acknowledged a write differently on its data and MAC planes"
            );
            for leg in self.legs.iter_mut().filter(|l| l.party == *party) {
                leg.quarantine_integrity(format!("quarantined: {detail}"));
            }
        }
        if parts.len() < self.threshold {
            return Err(self.quorum_lost(parts.len(), "applied the write"));
        }
        let combined = self.structural_majority(&parts);
        self.settle(combined, &answers.ok_legs)
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
        let frame = Arc::new(match mirror {
            Some(m) => Request::Pair {
                data: Box::new(req.clone()),
                mac: Box::new(Request::ToShard {
                    shard: self.data_shards + dshard,
                    req: Box::new(m),
                }),
            },
            None => req.clone(),
        });

        // A hedged wave asks every available leg and may be answered by the
        // first `max(t, 2)`; a plain one asks a quorum, and is answered if every
        // asked leg answers and the combination verifies.
        let avail = self.available();
        let hedge = self.config.hedge && avail.len() > 1;
        let asked = if hedge {
            avail.clone()
        } else {
            self.quorum(&avail, &plan)
        };
        let mut answers = Answers::default();
        let wave_frame = |_: usize| Arc::clone(&frame);
        let mut answer = self.run_legs(&asked, wave_frame, hedge.then_some(&plan), &mut answers);
        if answer.is_none() && answers.failed.is_empty() && answers.live.len() >= self.threshold {
            answer = self.combine_wave(&answers.live, &plan).ok();
        }
        if answer.is_none() {
            // A fault, a MAC mismatch or a disagreement: widen to every
            // other available leg, then settle the wave as a full one.
            let rest: Vec<usize> = avail.into_iter().filter(|i| !asked.contains(i)).collect();
            self.run_legs(&rest, wave_frame, None, &mut answers);
        }
        for (idx, e) in std::mem::take(&mut answers.failed) {
            self.legs[idx].strike(e.to_string());
        }
        let combined = match answer {
            Some(resp) => Ok(resp),
            None if answers.live.len() < self.threshold => {
                return Err(self.quorum_lost(answers.live.len(), "answering"));
            }
            None => self.combine_wave(&answers.live, &plan),
        };
        self.settle(combined, &answers.ok_legs)
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
        for t in self.legs.iter_mut().filter_map(|l| l.transport.as_mut()) {
            t.set_call_budget(budget);
        }
    }
}

/// Builds the full in-process fleet stack from a fleet encoding: one
/// shared party host per party, `data_shards` fleet pipes, and the usual
/// [`ShardRouter`] on top. Every leg transport passes through
/// `wrap(party, transport)` first (`|_, t| t` for none) — the hook the
/// chaos plane and the degraded-mode bench use to interpose
/// [`crate::chaos::ChaosTransport`] on individual parties. The
/// `n = 1, t = 1` case routes the exact same waves as the single-party
/// [`ShardRouter::local`] deployment.
pub fn local_fleet_router<T, F>(
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

/// Resolves the host shard count of the fleet: the count the most
/// reachable parties report, which at least `threshold` of them must share.
/// Every party reporting another count is faulted in place, by name. Two
/// counts that each reach the threshold are refused: the fleet's layout is
/// then ambiguous, and neither side can be blamed.
fn fleet_consensus(probes: &mut [Probe], threshold: usize) -> Result<u32, CoreError> {
    // Reachable parties by the count they report, most-reported first.
    let mut tally: Vec<(u32, Vec<usize>)> = Vec::new();
    for (j, p) in probes.iter().enumerate() {
        let Ok(pool) = p else { continue };
        let c = pool.shards();
        match tally.iter_mut().find(|(k, _)| *k == c) {
            Some((_, parties)) => parties.push(j + 1),
            None => tally.push((c, vec![j + 1])),
        }
    }
    tally.sort_by_key(|(_, parties)| std::cmp::Reverse(parties.len()));
    if let [(a, pa), (b, pb), ..] = tally.as_slice() {
        if pb.len() >= threshold {
            return Err(CoreError::Transport(format!(
                "fleet layout ambiguous at connect: parties {pa:?} serve {a} shards, \
                 parties {pb:?} serve {b}, and each reaches threshold {threshold}"
            )));
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
    let Some(&(total, ref agreed)) = tally.first() else {
        return Err(CoreError::Transport(format!(
            "no fleet party reachable ({})",
            faults(probes)
        )));
    };
    for p in probes.iter_mut() {
        if let Ok(pool) = p {
            let c = pool.shards();
            if c != total {
                *p = Err(format!("shard count mismatch: {c} vs fleet's {total}"));
            }
        }
    }
    if agreed.len() < threshold {
        return Err(CoreError::Transport(format!(
            "fleet quorum unreachable at connect: {} live, threshold {threshold} ({})",
            agreed.len(),
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
/// Each leg keeps its pooled transport for life, reopening a dead
/// connection on its next call; the MAC-shard connections close when the
/// connect returns, since every MAC frame rides its data frame's
/// [`Request::Pair`].
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
                .map(|(j, probe)| {
                    match probe {
                        Ok(pool) => FleetLeg::up(j + 1, pool.transport(k)),
                        Err(f) => FleetLeg::down(j + 1, f.clone()),
                    }
                    .at(&addrs[j])
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
    use crate::facade::EncryptedDb;
    use ssx_store::Row;

    const XML: &str = "<site><a><b/><b/></a><c><a><b/></a></c></site>";

    fn setup() -> (MapFile, Seed) {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(21);
        (map, seed)
    }

    fn fleet_db(
        n: usize,
        t: usize,
        shards: u32,
    ) -> EncryptedDb<ShardRouter<FleetTransport<LocalPartyTransport>>> {
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
        let mut db = EncryptedDb::from_fleet_output(fleet, map, seed, 1).unwrap();
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
        let mut single = EncryptedDb::encode(XML, map.clone(), seed.clone()).unwrap();
        let mut db = EncryptedDb::from_fleet_output(fleet, map, seed, 1).unwrap();
        // A read wave asks two of the three parties, so the liar is caught
        // by the first share wave that asks it. Queries of different wave
        // counts shift the rotation; until then every answer is exact.
        let queries = ["//b", "/site/a/b", "//a", "/site/c/a/b"];
        let err = queries
            .iter()
            .cycle()
            .take(8)
            .find_map(|q| {
                let want = single.query(q, EngineKind::Simple, MatchRule::Containment);
                match db.query(q, EngineKind::Simple, MatchRule::Containment) {
                    Ok(got) => {
                        assert_eq!(got.result, want.unwrap().result, "{q}");
                        None
                    }
                    Err(e) => Some(e),
                }
            })
            .expect("no share wave asked party 3");
        let msg = err.to_string();
        assert!(
            msg.contains("integrity") && msg.contains("party 3"),
            "expected an integrity error naming party 3, got: {msg}"
        );
    }

    /// An in-process party leg that logs its party on every call and, while
    /// `down`, fails every call like an unreachable host.
    struct LoggedLeg {
        party: usize,
        inner: LocalPartyTransport,
        down: bool,
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl Transport for LoggedLeg {
        fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
            self.log.lock().unwrap().push(self.party);
            if self.down {
                return Err(CoreError::Transport("party host unreachable (test)".into()));
            }
            self.inner.call(req)
        }

        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    /// A 3-party t = 2 pipe without retries over logged legs, with party
    /// `down` unreachable and party `corrupt` serving flipped data shares
    /// (0 for neither); plus the single-party plane's answer to
    /// `GetPolys` of pres 1–3.
    fn logged_pipe(
        down: usize,
        corrupt: usize,
    ) -> (FleetTransport<LoggedLeg>, Arc<Mutex<Vec<usize>>>, Response) {
        let (map, seed) = setup();
        let single = crate::encode::encode_document(XML, &map, &seed).unwrap();
        let want = ServerFilter::new(single.table, single.ring).handle(&polys_1_to_3());
        let mut out =
            encode_document_fleet(XML, &map, &seed, FleetSpec::new(3, 2).unwrap()).unwrap();
        for p in out.parties.iter_mut().filter(|p| p.party == corrupt) {
            p.data = corrupt_table(std::mem::replace(&mut p.data, Table::new(0)));
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let legs = out
            .parties
            .into_iter()
            .map(|p| {
                let host = party_server(p.data, p.mac, &out.ring, 1).unwrap();
                let leg = LoggedLeg {
                    party: p.party,
                    inner: LocalPartyTransport::new(Arc::new(Mutex::new(host))),
                    down: p.party == down,
                    log: Arc::clone(&log),
                };
                FleetLeg::up(p.party, leg)
            })
            .collect();
        let alpha = fleet_mac_key(&seed, &out.ring);
        let mut pipe = FleetTransport::new(legs, 2, 1, 0, out.ring, out.packer, alpha, false);
        pipe.set_resilience(ResilienceConfig {
            retries: 0,
            ..Default::default()
        });
        (pipe, log, want)
    }

    fn polys_1_to_3() -> Request {
        Request::GetPolys {
            pres: vec![1, 2, 3],
        }
    }

    /// The first share wave asks parties 2 and 3. Party 2 is down: the wave
    /// widens to party 1, answers exactly, and strikes party 2 once, at
    /// three leg calls in all.
    #[test]
    fn a_failed_asked_leg_widens_the_wave_and_is_struck_once() {
        let (mut pipe, log, want) = logged_pipe(2, 0);
        assert_eq!(pipe.call(&polys_1_to_3()).unwrap(), want);
        assert_eq!(
            *log.lock().unwrap(),
            vec![2, 3, 1],
            "asked 2 and 3, widened to 1"
        );
        let p2 = pipe.party_status().remove(1);
        assert_eq!(p2.health, PartyHealth::Suspect, "one strike");
        assert!(p2.fault.is_some_and(|f| f.contains("unreachable")));
        let others = pipe.party_status();
        assert!(others
            .iter()
            .filter(|s| s.party != 2)
            .all(|s| s.health == PartyHealth::Live));
    }

    /// Party 2 serves corrupt data shares and is one of the exactly t
    /// parties the first share wave asks. The MAC check fails, the wave
    /// widens to party 1, leave-one-out attribution names party 2, and the
    /// quarantined fleet answers the retry exactly.
    #[test]
    fn a_corrupt_party_among_t_asked_is_attributed_after_widening() {
        let (mut pipe, log, want) = logged_pipe(0, 2);
        let err = pipe.call(&polys_1_to_3()).unwrap_err();
        assert!(matches!(err, CoreError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("attributed to party 2"), "{err}");
        assert_eq!(
            *log.lock().unwrap(),
            vec![2, 3, 1],
            "asked 2 and 3, widened to 1"
        );
        assert_eq!(pipe.party_status()[1].health, PartyHealth::Quarantined);
        assert_eq!(pipe.call(&polys_1_to_3()).unwrap(), want);
    }

    #[test]
    fn corruption_with_exactly_t_responders_is_detected_not_attributed() {
        let (map, seed) = setup();
        let spec = FleetSpec::new(2, 2).unwrap();
        let mut fleet = encode_document_fleet(XML, &map, &seed, spec).unwrap();
        fleet.parties[0].data =
            corrupt_table(std::mem::replace(&mut fleet.parties[0].data, Table::new(0)));
        let mut db = EncryptedDb::from_fleet_output(fleet, map, seed, 1).unwrap();
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
        let mut router = local_fleet_router(fleet, &seed, 1, |_, t| t).unwrap();
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
