//! Transports carrying the protocol frames.
//!
//! [`LocalTransport`] runs the server in-process but still encodes and
//! decodes every frame, so byte/round-trip counters mean the same thing they
//! would over a network. Over TCP there is one host and one client:
//! [`serve_tcp_mux`] and the pooled [`MuxPool`]/[`MuxTransport`], with
//! one connection per shard as the single-client case.
//!
//! # Multiplexed transport
//!
//! * a connection opens with a versioned [`Request::Hello`] handshake whose
//!   answer carries the host's shard count; after it every frame payload is
//!   prefixed with a `u64` correlation id
//!   ([`crate::protocol::encode_corr_payload`]), and a connection whose
//!   first frame is anything else is refused and closed;
//! * the host runs a *small fixed pool* of threads — one reader/dispatcher
//!   sweeping all connections' nonblocking sockets plus `workers`
//!   executors over the shared shard fleet, each writing its response the
//!   moment it completes under a per-connection send lock — so responses
//!   leave in **completion order**, not arrival order: a cheap request is
//!   never stuck behind an expensive one, whichever connection carried it;
//! * the client pool opens **one socket per shard** and hands out any
//!   number of [`MuxTransport`]s onto them: each in-flight wave parks on a
//!   per-correlation completion slot, so many concurrent
//!   [`crate::router::ShardRouter`]s overlap their waves on the same wire.
//!   Dialing, the handshake, every send and every wait are bounded by the
//!   call budget ([`Transport::set_call_budget`]).
//!
//! What the server observes per correlation id is exactly what a
//! one-request-at-a-time connection would show it (see DESIGN.md's
//! transport section for the leakage discussion). The reader sweeps
//! nonblocking sockets, so an idle host still spends a little CPU polling.

use crate::error::CoreError;
use crate::protocol::{
    decode_corr_payload, decode_request, decode_response, encode_corr_payload, encode_request,
    encode_response, Request, Response, ResponseView, MUX_PROTOCOL_VERSION,
};
use crate::server::ServerFilter;
use crate::shard::{ShardSpec, ShardedServer};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

/// The completion deadline of one call: an absolute instant, computed when
/// the call starts from the transport's configured budget
/// ([`Transport::set_call_budget`]). Threaded through every blocking step
/// of a [`MuxTransport`] call — dial and handshake, the frame send, the
/// completion-slot park — so a peer that *hangs* (accepts the connection,
/// then never answers or never reads) turns into a typed
/// [`CoreError::Timeout`] instead of a wedge. `Deadline::NONE` means "wait
/// forever".
#[derive(Clone, Copy, Debug, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: every wait blocks indefinitely.
    pub const NONE: Deadline = Deadline { at: None };

    /// A deadline `budget` from now, or [`Deadline::NONE`].
    pub fn of(budget: Option<Duration>) -> Self {
        Deadline {
            at: budget.map(|b| Instant::now() + b),
        }
    }

    /// Time left before the deadline (zero once passed); `None` when
    /// unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining() == Some(Duration::ZERO)
    }
}

/// Traffic counters shared by all transports.
///
/// `round_trips` counts *logical* request waves: a batch frame is one round
/// trip however many sub-requests it carries, and a
/// [`crate::router::ShardRouter`] counts one wave when it contacts several
/// shards concurrently (the per-shard sends show up in `shard_dispatches`
/// and in each per-shard transport's own counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Logical round trips (request waves).
    pub round_trips: u64,
    /// Request bytes (client → server).
    pub bytes_sent: u64,
    /// Response bytes (server → client).
    pub bytes_received: u64,
    /// Batch frames sent (each is one round trip carrying many requests).
    pub batches: u64,
    /// Sub-requests carried inside batch frames.
    pub batched_requests: u64,
    /// Physical per-shard sends made by a router on behalf of the logical
    /// waves (0 on direct transports).
    pub shard_dispatches: u64,
    /// Requests answered from a router's speculation cache instead of a
    /// round trip (0 unless a shard router speculated: pinned on, or
    /// measured on over a slow link).
    pub speculative_hits: u64,
    /// Speculative prefetches issued but (as of this snapshot) never
    /// consumed — the cost of mis-speculation. Not monotonic: an entry
    /// counted wasted now may still be consumed by a later wave of the
    /// same op.
    pub speculative_wasted: u64,
    /// Fleet waves answered from the first `max(t, 2)` verified responses
    /// while at least one slower party was still in flight (0 unless hedged
    /// reconstruction is enabled on a fleet transport).
    pub hedged_wins: u64,
    /// Milliseconds of straggler tail hidden by hedging: for every drained
    /// straggler, how long it kept running *after* its wave had already
    /// been answered.
    pub straggler_ms: u64,
}

/// A synchronous request/response channel to a `ServerFilter`.
pub trait Transport {
    /// Sends one request and waits for the response.
    fn call(&mut self, req: &Request) -> Result<Response, CoreError>;

    /// Sends many requests in one logical round trip, returning responses
    /// in request order. Failed sub-requests come back as inline
    /// [`Response::Err`] slots. The default implementation degrades to one
    /// round trip per request (the unbatched wire shape); every built-in
    /// transport overrides it with a single [`Request::Batch`] frame.
    fn call_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        reqs.iter().map(|r| self.call(r)).collect()
    }

    /// Sends one request and lends the decoded response to `sink`:
    /// [`Transport::call`] plus a borrow, so a wrapper can tell the sink's
    /// work apart from the call's. No built-in transport overrides it.
    fn call_with(
        &mut self,
        req: &Request,
        sink: &mut dyn FnMut(ResponseView<'_>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        sink(&self.call(req)?)
    }

    /// Whether this transport can park an in-flight call and overlap
    /// several of them without a thread each
    /// ([`Transport::call_pipelined`]/[`Transport::finish_pipelined`]).
    /// Routers use it to pick the cheapest wave-overlap strategy: pipelined
    /// sends on a multiplexed transport, scoped threads on a blocking one.
    fn pipelines(&self) -> bool {
        false
    }

    /// Sends `req` without waiting and parks the in-flight call. Only
    /// meaningful when [`Transport::pipelines`] is `true`; the default
    /// refuses.
    fn call_pipelined(&mut self, req: &Request) -> Result<PendingCall, CoreError> {
        let _ = req;
        Err(CoreError::Transport(
            "transport does not pipeline calls".into(),
        ))
    }

    /// Blocks until a call parked by [`Transport::call_pipelined`] **on
    /// this same transport** completes, and accounts it.
    fn finish_pipelined(&mut self, call: PendingCall) -> Result<Response, CoreError> {
        let _ = call;
        Err(CoreError::Transport(
            "transport does not pipeline calls".into(),
        ))
    }

    /// Counter snapshot.
    fn stats(&self) -> TransportStats;

    /// Sets the per-call completion budget: each subsequent call gets a
    /// fresh [`Deadline`] this far in the future and fails with
    /// [`CoreError::Timeout`] when it passes. `None` (the default) waits
    /// forever. Transports that cannot block — the in-process ones — ignore
    /// it, which is what the default does; composite transports (routers,
    /// fleets) forward it to every constituent.
    fn set_call_budget(&mut self, budget: Option<Duration>) {
        let _ = budget;
    }
}

/// An in-flight call parked by [`Transport::call_pipelined`]: the frame is
/// on the wire, the response will resolve the held completion slot. Only
/// multiplexed transports construct these.
pub struct PendingCall {
    rx: mpsc::Receiver<SlotResult>,
    /// Correlation id and connection of the in-flight wave, so a timed-out
    /// wait can unregister its completion slot (a late response then counts
    /// as stray instead of leaking the slot).
    corr: u64,
    conn: Arc<MuxClientConn>,
    /// Captured when the frame hit the wire: pipelined calls time out
    /// relative to their *send*, not to when the caller parks on them.
    deadline: Deadline,
}

/// The shared `call_batch` body of the concrete frame transports: empty and
/// singleton fast paths, batch counters, one [`Request::Batch`] envelope
/// (which `call` counts as the single round trip it is), unwrap.
fn framed_call_batch<T: Transport + HasStats>(
    transport: &mut T,
    reqs: &[Request],
) -> Result<Vec<Response>, CoreError> {
    if reqs.is_empty() {
        return Ok(Vec::new());
    }
    if reqs.len() == 1 {
        return Ok(vec![transport.call(&reqs[0])?]);
    }
    let stats = transport.stats_mut();
    stats.batches += 1;
    stats.batched_requests += reqs.len() as u64;
    let resp = transport.call(&Request::Batch(reqs.to_vec()))?;
    unwrap_batch(resp, reqs.len())
}

/// Mutable counter access for [`framed_call_batch`].
trait HasStats {
    fn stats_mut(&mut self) -> &mut TransportStats;
}

/// Shared by the concrete transports: wrap `reqs` in one batch frame and
/// unwrap the multi-response, validating the slot count.
pub(crate) fn unwrap_batch(resp: Response, expected: usize) -> Result<Vec<Response>, CoreError> {
    match resp {
        Response::Batch(subs) if subs.len() == expected => Ok(subs),
        Response::Batch(subs) => Err(CoreError::Transport(format!(
            "batch answered {} of {expected} slots",
            subs.len()
        ))),
        Response::Err(e) => Err(CoreError::Transport(e)),
        other => Err(CoreError::Transport(format!(
            "unexpected batch response {other:?}"
        ))),
    }
}

/// In-process transport: full encode/decode on both sides, zero I/O.
pub struct LocalTransport {
    server: ServerFilter,
    stats: TransportStats,
}

impl LocalTransport {
    /// Wraps a server filter.
    pub fn new(server: ServerFilter) -> Self {
        LocalTransport {
            server,
            stats: TransportStats::default(),
        }
    }

    /// Read access to the wrapped server (server-side stats, table sizes).
    pub fn server(&self) -> &ServerFilter {
        &self.server
    }
}

impl Transport for LocalTransport {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        // Encode/decode both directions so counted bytes match TCP exactly.
        let frame = encode_request(req);
        self.stats.bytes_sent += frame.len() as u64;
        let decoded = decode_request(&frame)?;
        let resp_frame = encode_response(&self.server.handle(&decoded));
        self.stats.bytes_received += resp_frame.len() as u64;
        self.stats.round_trips += 1;
        decode_response(&resp_frame)
    }

    fn call_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        framed_call_batch(self, reqs)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl HasStats for LocalTransport {
    fn stats_mut(&mut self) -> &mut TransportStats {
        &mut self.stats
    }
}

/// Largest frame any transport will read or buffer — a hostile length
/// prefix beyond it is refused before allocation.
pub(crate) const MAX_FRAME_BYTES: usize = 64 << 20;

/// Reads one length-prefixed frame: `Ok(None)` on a clean hang-up before
/// the prefix, `io` maps every other read failure.
fn read_frame_io(
    stream: &mut TcpStream,
    io: impl Fn(std::io::Error) -> CoreError,
) -> Result<Option<Vec<u8>>, CoreError> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(io(e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(CoreError::Transport(format!(
            "frame of {len} bytes refused"
        )));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(io)?;
    Ok(Some(payload))
}

/// Whether an I/O error is a socket timeout — `WouldBlock` on Unix,
/// `TimedOut` on other platforms (`set_read_timeout`'s contract).
fn is_timeout_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Arms the socket's read or write timeout with what remains of `deadline`
/// (clears it when unbounded); an already-expired deadline fails without
/// touching the socket.
fn arm_socket_timeout(
    stream: &TcpStream,
    deadline: &Deadline,
    read: bool,
    what: &str,
) -> Result<(), CoreError> {
    let limit = match deadline.remaining() {
        None => None,
        Some(rem) if rem.is_zero() => {
            return Err(CoreError::Timeout(format!("{what}: call budget exhausted")))
        }
        Some(rem) => Some(rem),
    };
    let armed = if read {
        stream.set_read_timeout(limit)
    } else {
        stream.set_write_timeout(limit)
    };
    armed.map_err(|e| CoreError::Transport(format!("{what}: arming timeout: {e}")))
}

/// Writes one length-prefixed frame, bounded by a [`Deadline`]: a send
/// that stalls past it (peer stopped reading, kernel buffer full) fails
/// with [`CoreError::Timeout`] instead of blocking forever.
fn write_frame_within(
    stream: &mut TcpStream,
    payload: &[u8],
    deadline: &Deadline,
) -> Result<(), CoreError> {
    arm_socket_timeout(stream, deadline, false, "write")?;
    write_frame(stream, payload)
}

/// Writes one length-prefixed frame under whatever write timeout the
/// socket has armed; a stall past it is a [`CoreError::Timeout`].
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> Result<(), CoreError> {
    let io = |e: std::io::Error| {
        if is_timeout_io(&e) {
            CoreError::Timeout("write stalled past the call budget".into())
        } else {
            CoreError::Transport(format!("write: {e}"))
        }
    };
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(io)?;
    stream.write_all(payload).map_err(io)?;
    Ok(())
}

/// Reads one length-prefixed frame, bounded by a [`Deadline`]: the socket
/// timeout is armed with what remains of it, so the *whole* frame must
/// arrive within the budget, and a stalled read maps to
/// [`CoreError::Timeout`].
fn read_frame_within(
    stream: &mut TcpStream,
    deadline: &Deadline,
) -> Result<Option<Vec<u8>>, CoreError> {
    arm_socket_timeout(stream, deadline, true, "read")?;
    read_frame_io(stream, |e| {
        if is_timeout_io(&e) {
            CoreError::Timeout("no response within the call budget".into())
        } else {
            CoreError::Transport(format!("read: {e}"))
        }
    })
}

/// Opens a TCP connection bounded by `deadline` (the OS default when
/// unbounded).
fn connect_within(addr: SocketAddr, deadline: &Deadline) -> Result<TcpStream, CoreError> {
    let stream = match deadline.remaining() {
        None => TcpStream::connect(addr),
        Some(rem) if rem.is_zero() => {
            return Err(CoreError::Timeout(format!(
                "connect to {addr}: call budget exhausted"
            )))
        }
        Some(rem) => TcpStream::connect_timeout(&addr, rem),
    }
    .map_err(|e| {
        if is_timeout_io(&e) {
            CoreError::Timeout(format!("connect to {addr} exceeded the call budget"))
        } else {
            CoreError::Transport(format!("connect: {e}"))
        }
    })?;
    stream
        .set_nodelay(true)
        .map_err(|e| CoreError::Transport(format!("nodelay: {e}")))?;
    Ok(stream)
}

/// The exact error a generation-fenced connection is answered with after an
/// online reshard changed the host's shard count: the connection routes by
/// the old partition, so its client must reconnect under the new count.
const RESHARD_FENCE: &str = "shard layout changed (reshard); reconnect";

/// Shared state of a concurrent sharded host: one independently lockable
/// filter per shard, so connections bound to different shards execute in
/// parallel. The fleet vector itself sits behind an `RwLock` so an online
/// [`Request::Reshard`] can swap it out from under live connections:
/// request handling holds the read lock (many at once, per-shard
/// parallelism intact); re-sharding takes the write lock, which by
/// construction waits until every in-flight request has finished and keeps
/// new ones out while rows move.
struct ShardHost {
    filters: RwLock<Vec<Mutex<ServerFilter>>>,
    /// Bumped under the write lock by every reshard that changes the shard
    /// count. Connections remember the generation they were accepted
    /// under; a mismatch means the client routes by a dead partition, and
    /// answering it would risk *silently incomplete* fan-outs (it would
    /// never ask the new shards) — so stale connections get an explicit
    /// "reconnect" error instead, for everything except the always-safe
    /// fleet-level frames.
    generation: AtomicU64,
    stop: AtomicBool,
}

impl ShardHost {
    fn shard_count(&self) -> usize {
        self.filters.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Online repartition: exclusive fleet access, rows move in memory,
    /// connections resume against the new placement. Existing connections
    /// are fenced off by the generation bump (see [`ShardHost::generation`]).
    /// The count the host already serves answers `Ok` and changes nothing:
    /// every row is already home, so no filter is rebuilt and no connection
    /// fenced. A refused repartition (see [`ShardedServer::reshard`]) puts
    /// the original fleet back untouched — no rows lost, no generation bump.
    fn reshard(&self, shards: u32) -> Response {
        let mut guard = self.filters.write().unwrap_or_else(|p| p.into_inner());
        if ShardSpec::new(shards).shards() as usize == guard.len() {
            return Response::Ok;
        }
        let old: Vec<Mutex<ServerFilter>> = std::mem::take(&mut *guard);
        let spec = ShardSpec::new(old.len() as u32);
        let filters = old
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect();
        match ShardedServer::from_filters(spec, filters).reshard(shards) {
            Ok(server) => {
                *guard = server.into_filters().into_iter().map(Mutex::new).collect();
                self.generation.fetch_add(1, Ordering::SeqCst);
                Response::Ok
            }
            Err((original, e)) => {
                *guard = original
                    .into_filters()
                    .into_iter()
                    .map(Mutex::new)
                    .collect();
                Response::Err(format!("reshard refused: {e}"))
            }
        }
    }
}

/// The shard a host-bound frame addresses and the request it carries:
/// [`Request::ToShard`] names its shard, an untagged frame goes to shard 0.
pub(crate) fn shard_target(req: &Request) -> (u32, &Request) {
    match req {
        Request::ToShard { shard, req } => (*shard, req),
        other => (0, other),
    }
}

/// Answers a [`Request::Pair`] on a party host: each half goes to
/// `answer(shard, request)`, exactly as that frame alone would, data half
/// first. A half addressed to the connection or the whole host (`Hello`,
/// `ShardCount`, `Reshard`, `Shutdown`) has no place in a fleet leg's wave,
/// so it refuses the whole pair with one typed [`Response::Err`] before
/// either half runs.
pub(crate) fn answer_pair(
    data: &Request,
    mac: &Request,
    mut answer: impl FnMut(u32, &Request) -> Response,
) -> Response {
    for half in [data, mac] {
        if matches!(
            shard_target(half).1,
            Request::Hello { .. }
                | Request::ShardCount
                | Request::Reshard { .. }
                | Request::Shutdown
        ) {
            return Response::Err(
                "pair refused: a half addresses the connection or the host \
                 (Hello, ShardCount, Reshard, Shutdown), not a shard"
                    .into(),
            );
        }
    }
    let (shard, req) = shard_target(data);
    let data = answer(shard, req);
    let (shard, req) = shard_target(mac);
    let mac = answer(shard, req);
    Response::Pair {
        data: Box::new(data),
        mac: Box::new(mac),
    }
}

/// Runs `req` on filter `shard` of a host's fleet.
fn handle_on(filters: &[Mutex<ServerFilter>], shard: u32, req: &Request) -> Response {
    match filters.get(shard as usize) {
        Some(m) => m.lock().unwrap_or_else(|p| p.into_inner()).handle(req),
        None => Response::Err(format!("no shard {shard} (server has {})", filters.len())),
    }
}

/// Handles one decoded request against the fleet (the mux host's worker
/// pool). `born` is the generation the connection was accepted under.
/// Returns the response plus whether the request was an honoured
/// [`Request::Shutdown`] (the caller stops the host after writing the
/// response).
fn host_handle_request(host: &ShardHost, born: u64, req: &Request) -> (Response, bool) {
    if let Request::Pair { data, mac } = req {
        // One generation fence for both halves: the read lock is held
        // across them, so no reshard lands between a frame and its mirror.
        // A fenced pair gets the one top-level fence error.
        let filters = host.filters.read().unwrap_or_else(|p| p.into_inner());
        if host.generation.load(Ordering::SeqCst) != born {
            return (Response::Err(RESHARD_FENCE.into()), false);
        }
        let resp = answer_pair(data, mac, |shard, half| handle_on(&filters, shard, half));
        return (resp, false);
    }
    let (shard, inner) = shard_target(req);
    // The handshake answers for the whole host, whatever shard it was
    // addressed to.
    if matches!(inner, Request::ShardCount) {
        return (Response::Count(host.shard_count() as u64), false);
    }
    // Re-sharding is likewise a fleet-level operation: it takes the write
    // lock, so it runs strictly between requests.
    if let Request::Reshard { shards } = inner {
        return (host.reshard(*shards), false);
    }
    // A handshake reaching this path is out of place: the reader upgrades
    // connections before any request is dispatched.
    if matches!(inner, Request::Hello { .. }) {
        return (
            Response::Err("mux handshake must be the first frame of a connection".into()),
            false,
        );
    }
    // Shutdown only counts when it was addressed to a shard that exists —
    // an erroneous frame must not stop the host.
    let mut shutdown = matches!(inner, Request::Shutdown);
    let resp = {
        let filters = host.filters.read().unwrap_or_else(|p| p.into_inner());
        // Generation fence (read under the same lock the reshard bumps it
        // under): a connection accepted before a reshard routes by a dead
        // partition. Answering it could be *silently incomplete* — a
        // fan-out would never reach the new shards — so it gets an explicit
        // error and must reconnect. Shutdown stays honoured (fleet-level,
        // partition-independent).
        if host.generation.load(Ordering::SeqCst) != born && !shutdown {
            return (Response::Err(RESHARD_FENCE.into()), false);
        }
        shutdown &= (shard as usize) < filters.len();
        handle_on(&filters, shard, inner)
    };
    (resp, shutdown)
}

// ---- multiplexed host -------------------------------------------------------

/// Executor threads [`serve_tcp_mux`] runs for `workers = 0` when the
/// machine's parallelism is unknown. Otherwise `workers = 0` sizes the pool
/// as `available_parallelism()` clamped to `2..=8`.
pub const DEFAULT_MUX_WORKERS: usize = 4;

/// Per-connection state of the mux host, shared between the reader (which
/// owns all receive buffers) and the executors (which write responses as
/// they complete, under the per-connection send lock).
struct MuxHostConn {
    /// Nonblocking socket; the reader reads it, responders write it.
    stream: TcpStream,
    /// Serialises response sends so frames never interleave mid-write;
    /// *which* response goes out next is completion order, not arrival
    /// order.
    send: Mutex<()>,
    /// Generation fence captured at accept time (see [`ShardHost`]).
    born: u64,
    /// A failed read or write poisons the connection; every pool thread
    /// skips it from then on — one broken client never stalls the pool.
    dead: AtomicBool,
    /// How long one response send may stall before the connection is
    /// declared dead ([`MuxHostOptions::write_stall`]).
    write_stall: Duration,
}

impl MuxHostConn {
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Frames and sends one response payload, whole, under the send lock.
    /// A failed send poisons only this connection.
    fn send_payload(&self, payload: &[u8]) {
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        let _guard = self.send.lock().unwrap_or_else(|p| p.into_inner());
        let len = (payload.len() as u32).to_le_bytes();
        if write_all_nonblocking(&self.stream, &len, self.write_stall).is_err()
            || write_all_nonblocking(&self.stream, payload, self.write_stall).is_err()
        {
            self.kill();
        }
    }
}

/// One decoded-frame unit of work for the executor pool.
struct MuxJob {
    conn: Arc<MuxHostConn>,
    /// Correlation id, echoed on the response.
    corr: u64,
    frame: Vec<u8>,
}

/// Default for [`MuxHostOptions::write_stall`]: how long one response send
/// may stall on a full kernel buffer before the connection is declared
/// dead. A client that stops *reading* would otherwise wedge the executor
/// spinning in `send_payload` while it holds the per-connection send lock —
/// with a fixed pool, a handful of such clients could halt the host. Past
/// the deadline the send fails, the connection is poisoned, and the
/// executor moves on.
pub const DEFAULT_MUX_WRITE_STALL: Duration = Duration::from_secs(5);

/// Tuning knobs of the multiplexed host ([`serve_tcp_mux_opts`]).
#[derive(Clone, Copy, Debug)]
pub struct MuxHostOptions {
    /// Executor threads; `0` sizes the pool to the machine (see
    /// [`DEFAULT_MUX_WORKERS`]).
    pub workers: usize,
    /// How long one response send may stall before the connection is
    /// poisoned (see [`DEFAULT_MUX_WRITE_STALL`]). Exposed on the CLI as
    /// `serve --write-stall-ms`.
    pub write_stall: Duration,
}

impl Default for MuxHostOptions {
    fn default() -> Self {
        MuxHostOptions {
            workers: 0,
            write_stall: DEFAULT_MUX_WRITE_STALL,
        }
    }
}

/// `write_all` against a nonblocking socket: retries `WouldBlock` with a
/// short sleep (sends must be atomic per frame) up to `stall` of
/// continuous stall, then gives up with `TimedOut` so the caller can
/// poison the connection instead of spinning forever.
fn write_all_nonblocking(
    mut stream: &TcpStream,
    bytes: &[u8],
    stall: Duration,
) -> std::io::Result<()> {
    let mut written = 0;
    let mut stalled_since: Option<std::time::Instant> = None;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                written += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let since = *stalled_since.get_or_insert_with(std::time::Instant::now);
                if since.elapsed() > stall {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serves a [`ShardedServer`] with a **fixed thread pool over multiplexed
/// connections**: one reader/dispatcher thread sweeps every connection's
/// nonblocking socket and feeds `workers` executor threads (0 = a pool
/// sized to the machine, see [`DEFAULT_MUX_WORKERS`]) that run requests
/// against the shared fleet and write each response as it completes, under
/// per-connection send locks — **completion order**, out-of-order with
/// respect to arrival, so waves from many clients overlap on the wire.
///
/// Every connection opens with [`Request::Hello`] and speaks
/// correlation-tagged frames after it; any other first frame is answered
/// with [`Response::Err`] and the connection closed. Clients address shards
/// with [`Request::ToShard`]; untagged requests go to shard 0. Fleet-level
/// frames ([`Request::ShardCount`], [`Request::Reshard`],
/// [`Request::Shutdown`]) answer for the whole host. A [`Request::Pair`] is
/// answered half by half under one reshard fence check, each half as it
/// would be answered alone; a fleet-level half refuses the pair.
/// [`Request::Reshard`] repartitions the fleet online to a new shard count
/// (see [`ShardedServer::reshard`]) and answers the count it already
/// serves with `Ok`, changing nothing; connections that predate a count
/// change are fenced off with an explicit "reconnect" error — their
/// partition is dead, and answering them could silently skip the new
/// shards. Returns
/// the sharded server (with its per-shard stats and final shard count)
/// once a client sends [`Request::Shutdown`].
pub fn serve_tcp_mux(
    listener: TcpListener,
    server: ShardedServer,
    workers: usize,
) -> Result<ShardedServer, CoreError> {
    serve_tcp_mux_opts(
        listener,
        server,
        MuxHostOptions {
            workers,
            ..MuxHostOptions::default()
        },
    )
}

/// [`serve_tcp_mux`] with every knob exposed (see [`MuxHostOptions`]).
pub fn serve_tcp_mux_opts(
    listener: TcpListener,
    server: ShardedServer,
    opts: MuxHostOptions,
) -> Result<ShardedServer, CoreError> {
    let MuxHostOptions {
        workers,
        write_stall,
    } = opts;
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(DEFAULT_MUX_WORKERS)
            .clamp(2, 8)
    } else {
        workers
    };
    let addr = listener
        .local_addr()
        .map_err(|e| CoreError::Transport(format!("local_addr: {e}")))?;
    let host = Arc::new(ShardHost {
        filters: RwLock::new(server.into_filters().into_iter().map(Mutex::new).collect()),
        generation: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    });
    let (conn_tx, conn_rx) = mpsc::channel::<Arc<MuxHostConn>>();
    let (job_tx, job_rx) = mpsc::channel::<MuxJob>();
    let job_rx = Mutex::new(job_rx);

    let result = std::thread::scope(|scope| -> Result<(), CoreError> {
        {
            let host = Arc::clone(&host);
            scope.spawn(move || mux_reader_loop(conn_rx, job_tx, &host));
        }
        for _ in 0..workers {
            let host = Arc::clone(&host);
            let job_rx = &job_rx;
            scope.spawn(move || mux_worker_loop(job_rx, &host, addr));
        }

        loop {
            let accepted = listener
                .accept()
                .map_err(|e| CoreError::Transport(format!("accept: {e}")));
            let (stream, _) = match accepted {
                Ok(pair) => pair,
                Err(e) => {
                    // Unwind the pool before surfacing the error, or the
                    // scope would join forever.
                    host.stop.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            };
            if host.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                continue;
            }
            let conn = Arc::new(MuxHostConn {
                stream,
                send: Mutex::new(()),
                born: host.generation.load(Ordering::SeqCst),
                dead: AtomicBool::new(false),
                write_stall,
            });
            if conn_tx.send(conn).is_err() {
                return Ok(());
            }
        }
    });
    result?;
    let host = Arc::into_inner(host).expect("mux pool threads joined");
    let filters: Vec<ServerFilter> = host
        .filters
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
        .collect();
    let spec = ShardSpec::new(filters.len() as u32);
    Ok(ShardedServer::from_filters(spec, filters))
}

/// How long the stopping mux host keeps sweeping for frames that are
/// already in flight. A [`Request::Shutdown`] fanned across `S` shard
/// sockets is `S` frames written back-to-back: the first one processed
/// stops the host, and without this grace the sweep would exit with the
/// others still unread in the kernel buffer — closing a socket with
/// unread data sends RST, which discards the buffered acks client-side
/// and fails waves that were answered perfectly well.
const MUX_SHUTDOWN_GRACE: Duration = Duration::from_millis(50);

/// The mux host's reader/dispatcher: sweeps every live connection's
/// nonblocking socket, reassembles length-prefixed frames, performs the
/// [`Request::Hello`] upgrade synchronously with the byte stream (so the
/// frame after it is never misparsed), and hands complete frames to the
/// executor pool. When the host stops it lingers for
/// [`MUX_SHUTDOWN_GRACE`], still sweeping — so sibling frames of a fanned
/// shutdown are answered, not RST — then exits, dropping the job sender,
/// which winds down the workers.
fn mux_reader_loop(
    conn_rx: mpsc::Receiver<Arc<MuxHostConn>>,
    job_tx: mpsc::Sender<MuxJob>,
    host: &ShardHost,
) {
    struct ReaderConn {
        conn: Arc<MuxHostConn>,
        buf: Vec<u8>,
        /// Set once the connection's [`Request::Hello`] is accepted.
        upgraded: bool,
    }
    let mut conns: Vec<ReaderConn> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    // Spin-then-park backoff: while traffic flows the sweep never sleeps
    // (a request-response wave must not pay a park/unpark latency), after a
    // run of empty sweeps it yields, and only a genuinely idle plane backs
    // off to a bounded sleep.
    let mut idle_sweeps = 0u32;
    let mut stop_at: Option<Instant> = None;
    loop {
        while let Ok(conn) = conn_rx.try_recv() {
            conns.push(ReaderConn {
                conn,
                buf: Vec::new(),
                upgraded: false,
            });
        }
        if host.stop.load(Ordering::SeqCst) {
            let deadline = *stop_at.get_or_insert_with(|| Instant::now() + MUX_SHUTDOWN_GRACE);
            if Instant::now() >= deadline {
                return;
            }
        }
        let mut progress = false;
        conns.retain_mut(|rc| {
            if rc.conn.dead.load(Ordering::SeqCst) {
                return false;
            }
            loop {
                match (&rc.conn.stream).read(&mut tmp) {
                    Ok(0) => {
                        rc.conn.kill();
                        return false;
                    }
                    Ok(n) => {
                        progress = true;
                        rc.buf.extend_from_slice(&tmp[..n]);
                        if !drain_host_frames(
                            &rc.conn,
                            &mut rc.buf,
                            &mut rc.upgraded,
                            &job_tx,
                            host,
                        ) {
                            rc.conn.kill();
                            return false;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        rc.conn.kill();
                        return false;
                    }
                }
            }
        });
        if progress {
            idle_sweeps = 0;
        } else {
            idle_sweeps += 1;
            if idle_sweeps < 256 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// Extracts every complete frame from `buf` and dispatches it. Returns
/// `false` when the connection must close: its framing is beyond recovery
/// (oversized length prefix, corr envelope shorter than its id), or its
/// first frame was not an accepted [`Request::Hello`] — that frame is
/// answered with a typed [`Response::Err`] first.
fn drain_host_frames(
    conn: &Arc<MuxHostConn>,
    buf: &mut Vec<u8>,
    upgraded: &mut bool,
    job_tx: &mpsc::Sender<MuxJob>,
    host: &ShardHost,
) -> bool {
    let mut offset = 0usize;
    let mut alive = true;
    while alive {
        let remaining = &buf[offset..];
        if remaining.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(remaining[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            alive = false;
            break;
        }
        if remaining.len() < 4 + len {
            break;
        }
        let payload = &remaining[4..4 + len];
        if *upgraded {
            match decode_corr_payload(payload) {
                Ok((corr, inner)) => {
                    let _ = job_tx.send(MuxJob {
                        conn: Arc::clone(conn),
                        corr,
                        frame: inner.to_vec(),
                    });
                }
                // Too short to carry a correlation id: there is no slot to
                // answer into, so the stream is unrecoverable.
                Err(_) => alive = false,
            }
        } else {
            // The upgrade is handled here, synchronously with the byte
            // stream: every later frame of this connection parses under the
            // negotiated framing even if it is already sitting in `buf`.
            let resp = match decode_request(payload) {
                Ok(Request::Hello { version }) if version >= MUX_PROTOCOL_VERSION => {
                    *upgraded = true;
                    Response::Hello {
                        version: MUX_PROTOCOL_VERSION,
                        shards: host.shard_count() as u32,
                    }
                }
                Ok(Request::Hello { version }) => Response::Err(format!(
                    "unsupported mux version {version}; this host speaks {MUX_PROTOCOL_VERSION}"
                )),
                Ok(_) => Response::Err(
                    "the first frame of a connection must be the mux handshake (Hello)".into(),
                ),
                Err(e) => Response::Err(e.to_string()),
            };
            conn.send_payload(&encode_response(&resp));
            alive = *upgraded;
        }
        offset += 4 + len;
    }
    buf.drain(..offset);
    alive
}

/// One executor of the mux host's pool: decodes a job's frame, runs it
/// against the fleet ([`host_handle_request`]), and sends the framed
/// response the moment it completes — out of order with respect to
/// arrival. An honoured
/// [`Request::Shutdown`] stops the host after its ack is sent.
fn mux_worker_loop(job_rx: &Mutex<mpsc::Receiver<MuxJob>>, host: &ShardHost, addr: SocketAddr) {
    loop {
        // Holding the lock across the blocking recv simply serializes
        // dequeues; execution below runs in parallel across workers.
        let job = match job_rx.lock().unwrap_or_else(|p| p.into_inner()).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let (resp, shutdown) = match decode_request(&job.frame) {
            Ok(req) => host_handle_request(host, job.conn.born, &req),
            Err(e) => (Response::Err(e.to_string()), false),
        };
        job.conn
            .send_payload(&encode_corr_payload(job.corr, &encode_response(&resp)));
        if shutdown {
            host.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(addr);
        }
    }
}

// ---- multiplexed client -----------------------------------------------------

/// What a completion slot receives: the decoded response plus the payload
/// length on the wire (byte accounting), or the error that killed the wave.
type SlotResult = Result<(Response, u64), CoreError>;

/// In-flight waves of one pooled connection, keyed by correlation id.
type PendingSlots = Mutex<HashMap<u64, mpsc::Sender<SlotResult>>>;

/// One pooled, multiplexed connection: the write half (shared by every
/// [`MuxTransport`] on this shard), the completion slots the reader thread
/// resolves, and the correlation counter.
struct MuxClientConn {
    write: Mutex<TcpStream>,
    pending: PendingSlots,
    next_corr: AtomicU64,
    dead: AtomicBool,
    /// Responses carrying a correlation id nobody waits for — dropped, and
    /// counted: a correct host never produces one.
    stray: AtomicU64,
}

impl Drop for MuxClientConn {
    /// Runs when the last pool clone / transport lets go (the reader holds
    /// only a `Weak`). The reader thread owns a dup of this socket and sits
    /// in a blocking read — dropping our write half alone would leave the
    /// TCP connection established (no FIN) and the thread parked forever,
    /// so shut the socket down both ways: the reader's read returns, it
    /// fails to upgrade its `Weak`, and it exits.
    fn drop(&mut self) {
        let stream = self.write.get_mut().unwrap_or_else(|p| p.into_inner());
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// One shard's pooled connection plus everything needed to open it again:
/// after a failed send or read kills it, the next transport to call on the
/// slot swaps in a fresh connection (same address, same shard count) and
/// every other rider picks it up on its next call.
struct MuxSlot {
    addr: SocketAddr,
    shards: u32,
    conn: RwLock<Arc<MuxClientConn>>,
}

/// A shared pool of multiplexed connections to a [`serve_tcp_mux`] host —
/// **one socket per shard**, however many clients ride it; a single client
/// is the degenerate case. Cloning the pool (or calling
/// [`MuxPool::transport`] repeatedly) hands out any number of
/// [`MuxTransport`]s onto the same sockets; their in-flight waves are told
/// apart by correlation id, so concurrent [`crate::router::ShardRouter`]s
/// (and the [`crate::client::ClientFilter`]s above them) overlap on the
/// wire instead of opening a connection each.
///
/// An online reshard to the count the host already serves changes nothing,
/// so the pool never notices it. A reshard that *changes* the count fences
/// every pooled socket: each call gets the host's explicit "reconnect"
/// error, because the pool's routing topology is wrong, and the caller
/// must dial a new pool.
#[derive(Clone)]
pub struct MuxPool {
    slots: Vec<Arc<MuxSlot>>,
    shards: u32,
}

impl MuxPool {
    /// Connects one multiplexed socket per shard and performs the versioned
    /// [`Request::Hello`] handshake on each. The Hello answer carries the
    /// host's shard count; a `shards` that disagrees with it is refused —
    /// routing by the wrong partition would silently drop every row on the
    /// unreached shards. [`MuxPool::dial`] adopts the host's count instead.
    pub fn connect<A: ToSocketAddrs + Copy>(addr: A, shards: u32) -> Result<Self, CoreError> {
        Self::open(resolve(addr)?, Some(ShardSpec::new(shards).shards()), None)
    }

    /// Connects to a host and adopts the shard count its Hello answer
    /// reports: one socket per shard, each connect and handshake bounded by
    /// `timeout` (`None` waits as long as the OS does).
    pub fn dial<A: ToSocketAddrs>(addr: A, timeout: Option<Duration>) -> Result<Self, CoreError> {
        Self::open(resolve(addr)?, None, timeout)
    }

    fn open(
        addr: SocketAddr,
        expect: Option<u32>,
        timeout: Option<Duration>,
    ) -> Result<Self, CoreError> {
        let (first, shards) = open_conn(addr, expect, &Deadline::of(timeout))?;
        let mut conns = vec![first];
        for _ in 1..shards {
            conns.push(open_conn(addr, Some(shards), &Deadline::of(timeout))?.0);
        }
        let slots = conns
            .into_iter()
            .map(|conn| {
                Arc::new(MuxSlot {
                    addr,
                    shards,
                    conn: RwLock::new(conn),
                })
            })
            .collect();
        Ok(MuxPool { slots, shards })
    }

    /// Number of shards the pool is connected to.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// A transport onto the pooled connection of `shard` (`< shards()`).
    /// Every call hands out an independent transport with its own counters;
    /// all of them share the shard's one socket.
    pub fn transport(&self, shard: u32) -> MuxTransport {
        MuxTransport {
            slot: Arc::clone(&self.slots[shard as usize]),
            stats: TransportStats::default(),
            budget: None,
        }
    }

    /// Responses that arrived with a correlation id no slot was waiting for,
    /// summed over the pool. Always 0 against a correct host — the
    /// slot-confusion integration tests pin it.
    pub fn stray_responses(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| {
                s.conn
                    .read()
                    .unwrap_or_else(|p| p.into_inner())
                    .stray
                    .load(Ordering::SeqCst)
            })
            .sum()
    }
}

/// Resolves once, so slots can reconnect without carrying the caller's
/// generic address type around.
fn resolve<A: ToSocketAddrs>(addr: A) -> Result<SocketAddr, CoreError> {
    addr.to_socket_addrs()
        .map_err(|e| CoreError::Transport(format!("resolve: {e}")))?
        .next()
        .ok_or_else(|| CoreError::Transport("address resolved to nothing".into()))
}

/// Opens one pooled connection: TCP connect and the [`Request::Hello`]
/// exchange, both bounded by `deadline`, then the reader thread. Returns
/// the connection and the host's shard count, refused when `expect` names
/// a different one.
fn open_conn(
    addr: SocketAddr,
    expect: Option<u32>,
    deadline: &Deadline,
) -> Result<(Arc<MuxClientConn>, u32), CoreError> {
    let mut stream = connect_within(addr, deadline)?;
    // The handshake is the one frame sent before correlation framing.
    let hello = encode_request(&Request::Hello {
        version: MUX_PROTOCOL_VERSION,
    });
    write_frame_within(&mut stream, &hello, deadline)?;
    let payload = read_frame_within(&mut stream, deadline)?.ok_or_else(|| {
        CoreError::Transport("server closed the connection during the mux handshake".into())
    })?;
    // The reader thread blocks on a dup of this socket, which shares its
    // timeouts: clear the handshake's bound before handing it over.
    stream
        .set_read_timeout(None)
        .map_err(|e| CoreError::Transport(format!("clearing timeout: {e}")))?;
    let shards = match decode_response(&payload)? {
        Response::Hello { version, .. } if version != MUX_PROTOCOL_VERSION => {
            return Err(CoreError::Transport(format!(
                "server negotiated unsupported mux version {version}"
            )))
        }
        Response::Hello { shards: n, .. } => match expect {
            Some(want) if want != n => {
                return Err(CoreError::Transport(format!(
                    "server partitions across {n} shard(s) but the client asked for {want}; \
                     reconnect with the server's shard count"
                )))
            }
            _ if n == 0 => {
                return Err(CoreError::Transport(
                    "server reported zero shards in its handshake".into(),
                ))
            }
            _ => n,
        },
        Response::Err(e) => {
            return Err(CoreError::Transport(format!("mux handshake refused: {e}")))
        }
        other => {
            return Err(CoreError::Transport(format!(
                "unexpected mux handshake response {other:?}"
            )))
        }
    };
    let write = stream
        .try_clone()
        .map_err(|e| CoreError::Transport(format!("clone: {e}")))?;
    let conn = Arc::new(MuxClientConn {
        write: Mutex::new(write),
        pending: Mutex::new(HashMap::new()),
        next_corr: AtomicU64::new(0),
        dead: AtomicBool::new(false),
        stray: AtomicU64::new(0),
    });
    // The reader holds only a weak handle: once every transport and pool
    // clone is gone, `MuxClientConn::drop` shuts the socket down both ways,
    // the reader's blocking read returns, and the thread exits — no leaked
    // fd, no parked thread.
    let weak = Arc::downgrade(&conn);
    std::thread::spawn(move || mux_client_reader(stream, weak));
    Ok((conn, shards))
}

/// The reader thread of one pooled connection: matches every incoming
/// response to the completion slot its correlation id names. A response
/// whose id nobody registered is dropped and counted ([`MuxPool::
/// stray_responses`]) — it can never complete a different wave's slot. On
/// any framing or socket error the connection is poisoned and every parked
/// wave gets an explicit error naming the cause.
fn mux_client_reader(mut stream: TcpStream, conn: Weak<MuxClientConn>) {
    let cause = loop {
        let payload =
            match read_frame_io(&mut stream, |e| CoreError::Transport(format!("read: {e}"))) {
                Ok(Some(payload)) => payload,
                Ok(None) => break "server closed the connection".to_string(),
                Err(CoreError::Transport(cause)) => break cause,
                Err(e) => break e.to_string(),
            };
        let Some(conn) = conn.upgrade() else { return };
        let Ok((corr, inner)) = decode_corr_payload(&payload) else {
            break "short mux frame".to_string();
        };
        let slot = conn
            .pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&corr);
        match slot {
            Some(tx) => {
                let result = decode_response(inner).map(|resp| (resp, payload.len() as u64));
                let _ = tx.send(result);
            }
            None => {
                conn.stray.fetch_add(1, Ordering::SeqCst);
            }
        }
    };
    if let Some(conn) = conn.upgrade() {
        conn.dead.store(true, Ordering::SeqCst);
        let mut pending = conn.pending.lock().unwrap_or_else(|p| p.into_inner());
        for (_, tx) in pending.drain() {
            let _ = tx.send(Err(CoreError::Transport(format!(
                "mux connection lost: {cause}"
            ))));
        }
    }
}

/// A client transport multiplexed onto one shard's pooled socket (see
/// [`MuxPool`]). Each call allocates a correlation id, parks on a
/// completion slot and returns when the reader resolves it — concurrent
/// transports on the same socket overlap freely, and responses may complete
/// in any order. Every blocking step of a call — re-dial, send, wait — is
/// bounded by the call budget ([`Transport::set_call_budget`]).
pub struct MuxTransport {
    slot: Arc<MuxSlot>,
    stats: TransportStats,
    /// Per-call budget ([`Transport::set_call_budget`]); `None` blocks.
    budget: Option<Duration>,
}

impl HasStats for MuxTransport {
    fn stats_mut(&mut self) -> &mut TransportStats {
        &mut self.stats
    }
}

impl MuxTransport {
    /// Registers a completion slot and puts the frame on the wire; the
    /// caller decides when to park on the returned receiver. Also returns
    /// the connection the frame went out on, so a timed-out wait can
    /// unregister its slot there. A dead connection is re-dialed first. A
    /// send that fails — including one that stalls past `deadline` — leaves
    /// a partial frame on the wire, so it kills the connection: the next
    /// call re-dials.
    fn begin(
        &mut self,
        req: &Request,
        deadline: &Deadline,
    ) -> Result<(mpsc::Receiver<SlotResult>, u64, Arc<MuxClientConn>), CoreError> {
        self.revive_within(deadline)?;
        let conn = Arc::clone(&self.slot.conn.read().unwrap_or_else(|p| p.into_inner()));
        let lost = || CoreError::Transport("mux connection lost".into());
        let corr = conn.next_corr.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        conn.pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(corr, tx);
        let unregister = || {
            conn.pending
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(&corr);
        };
        // The reader drains the slots *after* setting `dead`, so a slot
        // registered before this check is either drained (rx holds the
        // error) or removed here; either way the wave fails explicitly.
        if conn.dead.load(Ordering::SeqCst) {
            unregister();
            return Err(lost());
        }
        let payload = encode_corr_payload(corr, &encode_request(req));
        let mut write = conn.write.lock().unwrap_or_else(|p| p.into_inner());
        let sent = arm_socket_timeout(&write, deadline, false, "write").and_then(|()| {
            let sent = write_frame(&mut write, &payload);
            if sent.is_err() {
                // Part of the frame may be on the wire: the stream can no
                // longer be framed, so the connection dies with the call.
                conn.dead.store(true, Ordering::SeqCst);
                let _ = write.shutdown(std::net::Shutdown::Both);
            }
            sent
        });
        drop(write);
        if let Err(e) = sent {
            unregister();
            return Err(e);
        }
        self.stats.bytes_sent += payload.len() as u64;
        Ok((rx, corr, conn))
    }

    /// Reopens the slot's pooled connection if the current one is dead, so
    /// a host that came back is reached again through the same pool (a
    /// fleet leg's retries and re-admission probes). A live connection is
    /// left untouched — every rider keeps overlapping on it. The dead one
    /// is swapped out exactly once, however many transports see it: only
    /// a caller that still finds it in the slot under the write lock
    /// reconnects. A host that now serves a *different* count refuses the
    /// new handshake, so that error surfaces as it should.
    fn revive_within(&self, deadline: &Deadline) -> Result<(), CoreError> {
        let stale = {
            let conn = self.slot.conn.read().unwrap_or_else(|p| p.into_inner());
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(());
            }
            Arc::clone(&conn)
        };
        let mut conn = self.slot.conn.write().unwrap_or_else(|p| p.into_inner());
        if Arc::ptr_eq(&conn, &stale) {
            *conn = open_conn(self.slot.addr, Some(self.slot.shards), deadline)?.0;
        }
        Ok(())
    }

    /// Parks on a slot registered by [`MuxTransport::begin`] and accounts
    /// the completed round trip. A bounded wait that expires unregisters
    /// the completion slot (a late answer then counts as stray) and fails
    /// with [`CoreError::Timeout`]; the shared connection stays healthy —
    /// correlation ids keep every other rider's waves unambiguous, so
    /// nothing needs poisoning.
    fn wait(
        &mut self,
        rx: mpsc::Receiver<SlotResult>,
        corr: u64,
        conn: &Arc<MuxClientConn>,
        deadline: Deadline,
    ) -> Result<Response, CoreError> {
        let lost = || CoreError::Transport("mux connection lost".into());
        let slot = match deadline.remaining() {
            None => rx.recv().map_err(|_| lost())?,
            Some(rem) => match rx.recv_timeout(rem) {
                Ok(r) => r,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(lost()),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    conn.pending
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .remove(&corr);
                    // The reader may have resolved the slot between the
                    // timeout and the removal — take the answer if it made
                    // it under the wire.
                    match rx.try_recv() {
                        Ok(r) => r,
                        Err(_) => {
                            return Err(CoreError::Timeout(
                                "no mux response within the call budget".into(),
                            ))
                        }
                    }
                }
            },
        };
        let (resp, bytes) = slot?;
        self.stats.bytes_received += bytes;
        self.stats.round_trips += 1;
        Ok(resp)
    }
}

impl Transport for MuxTransport {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        let deadline = Deadline::of(self.budget);
        let (rx, corr, conn) = self.begin(req, &deadline)?;
        self.wait(rx, corr, &conn, deadline)
    }

    fn call_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        framed_call_batch(self, reqs)
    }

    fn pipelines(&self) -> bool {
        true
    }

    fn call_pipelined(&mut self, req: &Request) -> Result<PendingCall, CoreError> {
        let deadline = Deadline::of(self.budget);
        let (rx, corr, conn) = self.begin(req, &deadline)?;
        Ok(PendingCall {
            rx,
            corr,
            conn,
            deadline,
        })
    }

    fn finish_pipelined(&mut self, call: PendingCall) -> Result<Response, CoreError> {
        self.wait(call.rx, call.corr, &call.conn, call.deadline)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn set_call_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use crate::map::MapFile;
    use ssx_prg::Seed;

    fn demo_server() -> ServerFilter {
        let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
        let seed = Seed::from_test_key(9);
        let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
        ServerFilter::new(out.table, out.ring)
    }

    #[test]
    fn local_transport_counts_bytes() {
        let mut t = LocalTransport::new(demo_server());
        let resp = t.call(&Request::Count).unwrap();
        assert_eq!(resp, Response::Count(3));
        let s = t.stats();
        assert_eq!(s.round_trips, 1);
        assert!(s.bytes_sent >= 1);
        assert!(s.bytes_received >= 9, "count response = tag + u64");
    }

    /// A sharded host refusing a reshard (rows that cannot coexist in one
    /// partition) must keep serving from the original fleet — the refusal
    /// path restores it under the write lock instead of dropping it.
    #[test]
    fn sharded_host_survives_a_refused_reshard() {
        use crate::shard::ShardSpec;
        let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
        let seed = Seed::from_test_key(9);
        let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
        let f1 = ServerFilter::new(out.table.clone(), out.ring.clone());
        let f2 = ServerFilter::new(out.table, out.ring);
        let server = ShardedServer::from_filters(ShardSpec::new(2), vec![f1, f2]);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

        let pool = MuxPool::connect(addr, 2).unwrap();
        let mut t = pool.transport(0);
        match t.call(&Request::Reshard { shards: 1 }).unwrap() {
            Response::Err(e) => assert!(e.contains("reshard refused"), "{e}"),
            other => panic!("{other:?}"),
        }
        // No generation bump on refusal: the same connection keeps working
        // against the intact original fleet.
        assert_eq!(t.call(&Request::Count).unwrap(), Response::Count(3));
        assert_eq!(
            t.call(&Request::ShardCount).unwrap(),
            Response::Count(2),
            "fleet size unchanged"
        );
        t.call(&Request::Shutdown).unwrap();
        let server = handle.join().unwrap();
        assert_eq!(server.spec().shards(), 2);
        assert_eq!(server.total_rows(), 6, "no row lost to the refusal");
    }

    fn demo_sharded(shards: u32) -> ShardedServer {
        let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
        let seed = Seed::from_test_key(9);
        let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
        ShardedServer::from_table(out.table, out.ring, shards).unwrap()
    }

    #[test]
    fn mux_round_trip_single_shard() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(1), 0).unwrap());

        let pool = MuxPool::connect(addr, 1).unwrap();
        let mut t = pool.transport(0);
        assert_eq!(t.call(&Request::Count).unwrap(), Response::Count(3));
        match t.call(&Request::Roots).unwrap() {
            Response::Locs(ls) => assert_eq!(ls[0].pre, 1),
            other => panic!("{other:?}"),
        }
        let s = t.stats();
        assert_eq!(s.round_trips, 2);
        assert!(s.bytes_sent > 0 && s.bytes_received > 0);
        assert_eq!(t.call(&Request::Shutdown).unwrap(), Response::Ok);
        let server = handle.join().unwrap();
        assert!(server.filters()[0].stats().requests >= 3);
        assert_eq!(pool.stray_responses(), 0);
    }

    /// A data/MAC pair on a fenced connection gets exactly one top-level
    /// fence error — the generation is checked once for both halves. Over
    /// the wire, a reshard to the count the host already serves leaves the
    /// pooled pair's answer unchanged, and a reshard to a new count answers
    /// it with the one fence error.
    #[test]
    fn fenced_pair_gets_one_fence_error() {
        let pair = Request::Pair {
            data: Box::new(Request::GetLoc { pre: 1 }),
            mac: Box::new(Request::ToShard {
                shard: 1,
                req: Box::new(Request::GetLoc { pre: 2 }),
            }),
        };
        let host = ShardHost {
            filters: RwLock::new(
                demo_sharded(2)
                    .into_filters()
                    .into_iter()
                    .map(Mutex::new)
                    .collect(),
            ),
            generation: AtomicU64::new(1),
            stop: AtomicBool::new(false),
        };
        assert_eq!(
            host_handle_request(&host, 0, &pair),
            (Response::Err(RESHARD_FENCE.into()), false)
        );
        match host_handle_request(&host, 1, &pair).0 {
            Response::Pair { data, mac } => {
                assert!(matches!(*data, Response::MaybeLoc(Some(l)) if l.pre == 1));
                assert!(matches!(*mac, Response::MaybeLoc(Some(l)) if l.pre == 2));
            }
            other => panic!("{other:?}"),
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(2), 0).unwrap());
        let pool = MuxPool::connect(addr, 2).unwrap();
        let mut t = pool.transport(0);
        let before = t.call(&pair).unwrap();
        assert!(matches!(before, Response::Pair { .. }), "{before:?}");
        let mut admin = MuxPool::dial(addr, None).unwrap().transport(0);
        for (shards, want) in [(2, before), (3, Response::Err(RESHARD_FENCE.into()))] {
            assert_eq!(
                admin.call(&Request::Reshard { shards }).unwrap(),
                Response::Ok
            );
            assert_eq!(t.call(&pair).unwrap(), want, "after a reshard to {shards}");
        }
        admin.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// A reshard to the count a host already serves answers `Ok` and
    /// changes nothing: the pooled transport sees no fence, and the shard
    /// keeps its counters and its evaluation cache across it.
    #[test]
    fn a_same_count_reshard_keeps_every_filter() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(2), 0).unwrap());
        let pool = MuxPool::connect(addr, 2).unwrap();
        let mut t = pool.transport(0);
        let eval = Request::EvalMany {
            pres: vec![1],
            point: 5,
        };
        let before = t.call(&eval).unwrap();
        assert!(matches!(before, Response::Values(_)), "{before:?}");
        assert_eq!(
            t.call(&Request::Reshard { shards: 2 }).unwrap(),
            Response::Ok
        );
        assert_eq!(t.call(&eval).unwrap(), before, "no fence, same answer");
        t.call(&Request::Shutdown).unwrap();
        let server = handle.join().unwrap();
        let stats = server.filters()[0].stats();
        assert_eq!((stats.evaluations, stats.eval_cache_hits), (2, 1));
    }

    /// Two transports multiplexed on the *same* pooled socket, driven from
    /// two threads: every response lands in the slot of the request that
    /// caused it — distinct `GetLoc` answers prove the correlation ids keep
    /// the interleaved waves apart.
    #[test]
    fn concurrent_transports_share_one_socket_without_slot_confusion() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(1), 2).unwrap());

        let pool = MuxPool::connect(addr, 1).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    let mut t = pool.transport(0);
                    for round in 0..50u32 {
                        let pre = 1 + (round % 3);
                        match t.call(&Request::GetLoc { pre }).unwrap() {
                            Response::MaybeLoc(Some(l)) => assert_eq!(l.pre, pre),
                            other => panic!("{other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(pool.stray_responses(), 0, "no stray correlation ids");
        pool.transport(0).call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// Writes one raw length-prefixed frame.
    fn send_raw(stream: &mut TcpStream, payload: &[u8]) {
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(payload).unwrap();
    }

    /// A request sent before `Hello` — the framing no client speaks any
    /// more — gets a typed `Response::Err`, its connection is closed, and
    /// the host keeps serving every other connection.
    #[test]
    fn request_before_hello_is_refused_and_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(2), 0).unwrap());
        let pool = MuxPool::connect(addr, 2).unwrap();

        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        send_raw(&mut raw, &encode_request(&Request::Count));
        let reply = read_frame_io(&mut raw, |e| CoreError::Transport(e.to_string()))
            .unwrap()
            .expect("a typed refusal");
        match decode_response(&reply).unwrap() {
            Response::Err(e) => assert!(e.contains("Hello"), "{e}"),
            other => panic!("{other:?}"),
        }
        // Closed: the next read sees EOF (or a reset), never an answer.
        let _ = raw.write_all(&[0, 0, 0, 0]);
        let mut rest = Vec::new();
        assert!(raw.read_to_end(&mut rest).map_or(true, |_| rest.is_empty()));

        // The pooled connections opened before it keep working.
        let mut router = crate::router::ShardRouter::mux(&pool);
        assert_eq!(router.call(&Request::Count).unwrap(), Response::Count(3));
        router.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// A host that refuses the handshake yields a descriptive error instead
    /// of a hang or a panic.
    #[test]
    fn refused_handshake_is_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame_io(&mut s, |e| CoreError::Transport(e.to_string()));
            send_raw(&mut s, &encode_response(&Response::Err("go away".into())));
        });
        match MuxPool::connect(addr, 1) {
            Err(CoreError::Transport(msg)) => assert!(msg.contains("refused"), "{msg}"),
            other => panic!("expected a refusal, got {:?}", other.map(|_| "pool")),
        }
    }

    /// `dial` adopts whatever shard count the host reports.
    #[test]
    fn dial_adopts_the_host_shard_count() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(3), 0).unwrap());
        let pool = MuxPool::dial(addr, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(pool.shards(), 3);
        let mut router = crate::router::ShardRouter::mux(&pool);
        assert_eq!(router.call(&Request::Count).unwrap(), Response::Count(3));
        router.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// A host that accepts the connection and never answers `Hello` costs a
    /// dial its budget, not forever.
    #[test]
    fn silent_host_times_out_the_dial() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t0 = Instant::now();
        match MuxPool::dial(addr, Some(Duration::from_millis(200))) {
            Err(CoreError::Timeout(_)) => {}
            other => panic!("expected a timeout, got {:?}", other.map(|_| "pool")),
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        drop(listener);
    }

    /// The Hello answer carries the fleet size: a mismatched shard count is
    /// refused at connect, exactly like the router handshake.
    #[test]
    fn mux_shard_count_mismatch_refused_at_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(2), 0).unwrap());
        for wrong in [1u32, 4] {
            match MuxPool::connect(addr, wrong) {
                Err(CoreError::Transport(msg)) => assert!(msg.contains("2 shard"), "{msg}"),
                other => panic!("shard count {wrong} accepted: {:?}", other.map(|_| "pool")),
            }
        }
        let pool = MuxPool::connect(addr, 2).unwrap();
        assert_eq!(pool.shards(), 2);
        pool.transport(0).call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// Dropping every handle to a pool closes its sockets for real (the
    /// drop path shuts the stream down both ways so the reader thread's
    /// dup cannot hold the connection open): the host observes the close,
    /// keeps serving fresh pools, and shuts down cleanly afterwards.
    #[test]
    fn dropping_a_pool_releases_its_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(1), 0).unwrap());
        for _ in 0..5 {
            let pool = MuxPool::connect(addr, 1).unwrap();
            let mut t = pool.transport(0);
            assert_eq!(t.call(&Request::Count).unwrap(), Response::Count(3));
            drop(t);
            drop(pool); // shuts the socket; the host's sweep reaps it
        }
        let pool = MuxPool::connect(addr, 1).unwrap();
        pool.transport(0).call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// Killing the host mid-flight fails every parked wave with a typed
    /// error — no hang, no panic, and later calls fail fast.
    #[test]
    fn mux_pool_surfaces_connection_loss() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || serve_tcp_mux(listener, demo_sharded(1), 0).unwrap());
        let pool = MuxPool::connect(addr, 1).unwrap();
        let mut t = pool.transport(0);
        t.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
        // The sockets are gone; calls must error, not hang.
        let mut late = pool.transport(0);
        for _ in 0..3 {
            match late.call(&Request::Count) {
                Err(CoreError::Transport(_)) => {}
                Ok(other) => panic!("{other:?}"),
                Err(other) => panic!("{other:?}"),
            }
        }
    }
}
