//! The traced run's instrumentation: spans recorded from outside the
//! program, at its `Transport` seams.
//!
//! [`Traced`] wraps any [`Transport`] and records one span per call while
//! forwarding every trait method unchanged, so the traced program takes the
//! same code paths as the untraced one (the mux router still sees
//! `pipelines()`, `LocalTransport` still gets its zero-copy `call_with`).
//! The workloads insert it through public constructors: around the
//! client's `ShardRouter`, around each per-shard transport, and around each
//! fleet leg both outside and inside `ChaosTransport`. Op and encode spans
//! are opened by the workload code itself.
//!
//! Spans stay in memory; [`Tracer::spans`] hands them to the analysis in
//! `report.rs` and to the span dump written at the end of the run.

use ssx_core::protocol::{Request, Response, ResponseView};
use ssx_core::transport::TransportStats;
use ssx_core::{CoreError, PendingCall, Transport};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a span was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Seam {
    /// One benchmark op (query, aggregate, insert or delete), opened by the
    /// op loop around the program call.
    Op,
    /// One encode call (`encode_document*`).
    Encode,
    /// A call from the client into its `ShardRouter`.
    Router,
    /// A call from the router into one per-shard transport: a
    /// `LocalTransport`, a `MuxTransport` or a fleet pipe.
    Shard,
    /// A fleet leg call, outside `ChaosTransport` (includes the emulated
    /// link delay).
    Link,
    /// A fleet leg call, inside `ChaosTransport` (the party transport).
    Leg,
    /// The client's sink of a `call_with` response view — client work that
    /// runs inside the callee's span and is given back to the client.
    Sink,
}

impl Seam {
    /// Seams that run on the client's own thread. Spans opened on a fresh
    /// worker thread (fleet legs fanned out concurrently) take the client
    /// thread's innermost open span of these as their parent.
    fn on_client_thread(self) -> bool {
        matches!(self, Seam::Op | Seam::Encode | Seam::Router | Seam::Shard)
    }

    /// Stable name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Seam::Op => "op",
            Seam::Encode => "encode",
            Seam::Router => "router",
            Seam::Shard => "shard",
            Seam::Link => "link",
            Seam::Leg => "leg",
            Seam::Sink => "sink",
        }
    }
}

/// One recorded call. Times are nanoseconds since the tracer was built.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (0 = none).
    pub parent: u32,
    /// The op this span belongs to (0 = outside any op, e.g. set-up).
    pub op: u32,
    pub seam: Seam,
    pub start: u64,
    pub end: u64,
}

struct State {
    spans: Vec<Span>,
    /// Innermost open client-thread span: the parent of spans opened on
    /// threads that have no open span of this tracer.
    handoff: u32,
}

/// Collects the spans of one client (a client and everything under it).
pub struct Tracer {
    base: Instant,
    next_id: AtomicU32,
    op: AtomicU32,
    encoded_rows: AtomicU64,
    state: Mutex<State>,
}

thread_local! {
    /// Open spans on this thread, innermost last, tagged with their tracer.
    static STACK: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
}

/// A span that is open but not on any thread's stack (a pipelined call
/// between `call_pipelined` and `finish_pipelined`).
struct Detached {
    id: u32,
    parent: u32,
    op: u32,
    start: u64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            base: Instant::now(),
            next_id: AtomicU32::new(1),
            op: AtomicU32::new(0),
            encoded_rows: AtomicU64::new(0),
            state: Mutex::new(State {
                spans: Vec::with_capacity(1 << 16),
                handoff: 0,
            }),
        })
    }

    fn key(&self) -> usize {
        self as *const Tracer as usize
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn parent_here(&self) -> u32 {
        let key = self.key();
        let top = STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|&(_, id)| id)
        });
        top.unwrap_or_else(|| self.lock().handoff)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a span on this thread; it closes when the guard drops.
    pub fn enter(&self, seam: Seam) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.parent_here();
        let op = self.op.load(Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((self.key(), id)));
        let restore = seam.on_client_thread().then(|| {
            let mut st = self.lock();
            std::mem::replace(&mut st.handoff, id)
        });
        Guard {
            tracer: self,
            seam,
            id,
            parent,
            op,
            restore,
            start: self.now(),
        }
    }

    fn detach(&self) -> Detached {
        Detached {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent_here(),
            op: self.op.load(Ordering::Relaxed),
            start: self.now(),
        }
    }

    fn close_detached(&self, seam: Seam, d: Detached) {
        let end = self.now();
        self.lock().spans.push(Span {
            id: d.id,
            parent: d.parent,
            op: d.op,
            seam,
            start: d.start,
            end,
        });
    }

    /// Runs `f` as op `op`: every span opened meanwhile, on any thread,
    /// belongs to it.
    pub fn op<R>(&self, op: u32, f: impl FnOnce() -> R) -> R {
        self.op.store(op, Ordering::Relaxed);
        let out = {
            let _g = self.enter(Seam::Op);
            f()
        };
        self.op.store(0, Ordering::Relaxed);
        out
    }

    /// Records an encode call of `rows` rows.
    pub fn encode<R>(&self, rows_of: impl Fn(&R) -> usize, f: impl FnOnce() -> R) -> R {
        let out = {
            let _g = self.enter(Seam::Encode);
            f()
        };
        self.encoded_rows
            .fetch_add(rows_of(&out) as u64, Ordering::Relaxed);
        out
    }

    /// Rows encoded under [`Tracer::encode`] spans so far.
    pub fn encoded_rows(&self) -> u64 {
        self.encoded_rows.load(Ordering::Relaxed)
    }

    /// Snapshot of every closed span.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// An open span on the current thread.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    seam: Seam,
    id: u32,
    parent: u32,
    op: u32,
    restore: Option<u32>,
    start: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        let key = self.tracer.key();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(k, id)| k == key && id == self.id) {
                s.remove(pos);
            }
        });
        let mut st = self.tracer.lock();
        if let Some(prev) = self.restore {
            st.handoff = prev;
        }
        st.spans.push(Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            seam: self.seam,
            start: self.start,
            end,
        });
    }
}

/// A [`Transport`] that records a span per call and forwards every trait
/// method to the wrapped transport.
pub struct Traced<T> {
    inner: T,
    tracer: Arc<Tracer>,
    seam: Seam,
    /// Pipelined calls in flight, oldest first (a router finishes them in
    /// the order it started them).
    in_flight: VecDeque<Detached>,
}

impl<T> Traced<T> {
    pub fn new(inner: T, tracer: &Arc<Tracer>, seam: Seam) -> Self {
        Traced {
            inner,
            tracer: Arc::clone(tracer),
            seam,
            in_flight: VecDeque::new(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        let _g = self.tracer.enter(self.seam);
        self.inner.call(req)
    }

    fn call_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        let _g = self.tracer.enter(self.seam);
        self.inner.call_batch(reqs)
    }

    fn call_with(
        &mut self,
        req: &Request,
        sink: &mut dyn FnMut(ResponseView<'_>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let tracer = Arc::clone(&self.tracer);
        let mut client_sink = |view: ResponseView<'_>| {
            let _g = tracer.enter(Seam::Sink);
            sink(view)
        };
        let _g = self.tracer.enter(self.seam);
        self.inner.call_with(req, &mut client_sink)
    }

    fn pipelines(&self) -> bool {
        self.inner.pipelines()
    }

    fn call_pipelined(&mut self, req: &Request) -> Result<PendingCall, CoreError> {
        let span = self.tracer.detach();
        let out = self.inner.call_pipelined(req);
        if out.is_ok() {
            self.in_flight.push_back(span);
        } else {
            self.tracer.close_detached(self.seam, span);
        }
        out
    }

    fn finish_pipelined(&mut self, call: PendingCall) -> Result<Response, CoreError> {
        let out = self.inner.finish_pipelined(call);
        if let Some(span) = self.in_flight.pop_front() {
            self.tracer.close_detached(self.seam, span);
        }
        out
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn set_call_budget(&mut self, budget: Option<Duration>) {
        self.inner.set_call_budget(budget);
    }
}
