//! The op loop shared by every workload: timed ops with retries and oracle
//! checks, closed-loop phases, the document writer, the traced/untraced
//! parity pass, and the metric sets built from a finished run.

use crate::db::{run_read, with_retries, Answer, Conflict, Db, Failures, OpError, OpKind};
use crate::inputs::{Inputs, ReadOp};
use crate::report::{
    encode_ns, layer_times, median, percentile, windowed_percentile, Counts, Host, Layer, Metrics,
};
use crate::trace::{Span, Tracer};
use ssx_core::ServerStats;
use ssx_store::SizeReport;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Documents a writer keeps live before it starts deleting the oldest.
pub const WRITE_WINDOW: usize = 4;

/// How many times a run sets its deployment up before the timed phases,
/// and again after them; `setup_s` is the median of both groups, so it
/// samples the host at two times at least half a minute apart.
pub const SETUP_RUNS: usize = 9;

/// The timed phases of the closed-loop workloads run in this many rounds,
/// so every op type samples the whole run rather than one stretch of it
/// (a shared host's speed can drift within seconds).
pub const ROUNDS: usize = 10;

/// Consecutive writes that make one window of the write latencies (see
/// [`crate::report::windowed_percentile`]).
pub const WRITE_WINDOW_OPS: usize = 24;

/// Builds `n` deployments, timing each into `times`, tearing down all but
/// the last, which it returns.
pub fn timed_setups<D>(
    n: usize,
    times: &mut Vec<f64>,
    mut build: impl FnMut() -> D,
    mut teardown: impl FnMut(D),
) -> D {
    let mut last = None;
    for _ in 0..n {
        if let Some(d) = last.take() {
            teardown(d);
        }
        let began = Instant::now();
        let d = build();
        times.push(began.elapsed().as_secs_f64());
        last = Some(d);
    }
    last.expect("at least one set-up")
}

/// Absolute ends of a run's phases: `shares` of `seconds`, repeated for
/// [`ROUNDS`] rounds, from now.
pub fn phase_ends(seconds: f64, shares: &[f64]) -> Vec<Vec<Instant>> {
    let start = Instant::now();
    let round = seconds / ROUNDS as f64;
    (0..ROUNDS)
        .map(|r| {
            let mut at = round * r as f64;
            shares
                .iter()
                .map(|s| {
                    at += round * s;
                    start + Duration::from_secs_f64(at)
                })
                .collect()
        })
        .collect()
}

/// An answer check: the exact oracle, or the relaxed one while a writer
/// runs.
pub type Check<'a> = &'a (dyn Fn(&ReadOp, &Answer) -> Result<(), String> + Sync);

/// One client as the op loop sees it: the program, plus its tracer in the
/// traced run.
pub struct Client<'a> {
    pub db: &'a mut dyn Db,
    pub tracer: Option<Arc<Tracer>>,
}

impl<'a> Client<'a> {
    pub fn new(db: &'a mut dyn Db, tracer: Option<Arc<Tracer>>) -> Self {
        Client { db, tracer }
    }
}

/// One finished op.
pub struct OpRecord {
    pub kind: OpKind,
    pub op_id: u32,
    pub ms: f64,
    pub attempts: u64,
    pub failures: Failures,
    /// Counter deltas (traced run only).
    pub counts: Counts,
    pub closing_waves: u64,
    /// How late an open-loop op started against its schedule.
    pub late_ms: f64,
}

/// Everything a client's ops produced.
#[derive(Default)]
pub struct Log {
    pub records: Vec<OpRecord>,
    pub failed_ops: u64,
    /// Answers that disagreed with the oracle.
    pub wrong: Vec<String>,
    /// Errors outside the conflict contract; they stop the run.
    pub fatal: Option<String>,
    next_op: u32,
}

impl Log {
    pub fn ok(&self) -> bool {
        self.wrong.is_empty() && self.fatal.is_none()
    }

    fn next_id(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    fn fail(&mut self, what: &str, e: OpError) {
        self.failed_ops += 1;
        match e {
            OpError::Exhausted(f) => eprintln!(
                "perfbench: {what} gave up after {} conflicting attempts",
                f.total()
            ),
            OpError::Fatal(msg) => {
                self.fatal.get_or_insert_with(|| format!("{what}: {msg}"));
            }
        }
    }

    pub fn ms(&self, kind: OpKind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.ms)
            .collect()
    }

    pub fn merge(&mut self, other: Log) {
        self.records.extend(other.records);
        self.failed_ops += other.failed_ops;
        self.wrong.extend(other.wrong);
        if self.fatal.is_none() {
            self.fatal = other.fatal;
        }
    }
}

/// Runs `f` as one op: inside an op span when traced, with counter
/// snapshots around it.
fn timed<R>(log: &mut Log, c: &mut Client, f: impl FnOnce(&mut dyn Db) -> R) -> (R, u32, Counts) {
    let id = log.next_id();
    let before = c.tracer.is_some().then(|| c.db.counters());
    let out = match &c.tracer {
        Some(t) => {
            let db = &mut *c.db;
            t.op(id, || f(db))
        }
        None => f(&mut *c.db),
    };
    let counts = match before {
        Some(b) => Counts::between(&b, &c.db.counters()),
        None => Counts::default(),
    };
    (out, id, counts)
}

/// One read op, timed from `start`, checked with `check`.
pub fn read(log: &mut Log, c: &mut Client, op: &ReadOp, check: Check, start: Instant) {
    let (res, op_id, counts) = timed(log, c, |db| run_read(db, op, start));
    match res {
        Ok(done) => {
            if let Err(msg) = check(op, &done.value) {
                log.wrong.push(msg);
            }
            let closing_waves = match &done.value {
                Answer::Agg(o) => o.closing_waves,
                Answer::Pres(_) => 0,
            };
            log.records.push(OpRecord {
                kind: if op.is_agg() {
                    OpKind::Agg
                } else {
                    OpKind::Query
                },
                op_id,
                ms: done.ms,
                attempts: done.attempts,
                failures: done.failures,
                counts,
                closing_waves,
                late_ms: 0.0,
            });
        }
        Err(e) => log.fail(&op.label, e),
    }
}

/// Runs `ops` round-robin until `until`, resuming at `next`, so across the
/// rounds of a run every op runs equally often (to within one).
pub fn read_until(
    log: &mut Log,
    c: &mut Client,
    ops: &[ReadOp],
    next: &mut usize,
    until: Instant,
    check: Check,
) {
    while log.ok() && Instant::now() < until {
        read(log, c, &ops[*next % ops.len()], check, Instant::now());
        *next += 1;
    }
}

/// One untimed pass that checks every answer (warm-up and the final
/// verification).
pub fn verify_pass(c: &mut Client, ops: &[ReadOp], check: Check) -> Result<(), String> {
    for op in ops {
        match run_read(&mut *c.db, op, Instant::now()) {
            Ok(done) => check(op, &done.value)?,
            Err(OpError::Exhausted(_)) => return Err(format!("{}: out of attempts", op.label)),
            Err(OpError::Fatal(msg)) => return Err(format!("{}: {msg}", op.label)),
        }
    }
    Ok(())
}

/// The documents a writer inserts and deletes: up to [`WRITE_WINDOW`] live
/// at once, oldest deleted first, so the writes alternate insert/delete
/// once the window is full.
#[derive(Default)]
pub struct Writer {
    /// `(root pre, document index)`, oldest first.
    pub live: VecDeque<(u32, usize)>,
    pub inserted: usize,
}

#[derive(Clone, Copy, Debug)]
pub enum WriteAction {
    Insert(usize),
    Delete(u32),
}

impl Writer {
    pub fn next_action(&self) -> WriteAction {
        match self.live.front() {
            Some(&(root, _)) if self.live.len() >= WRITE_WINDOW => WriteAction::Delete(root),
            _ => WriteAction::Insert(self.inserted),
        }
    }

    /// How many of the first `writes` actions are inserts.
    pub fn planned_inserts(writes: usize) -> usize {
        let mut w = Writer::default();
        for _ in 0..writes {
            let a = w.next_action();
            w.applied(a, 0);
        }
        w.inserted
    }

    fn applied(&mut self, a: WriteAction, root: u32) {
        match a {
            WriteAction::Insert(k) => {
                self.live.push_back((root, k));
                self.inserted += 1;
            }
            WriteAction::Delete(_) => {
                self.live.pop_front();
            }
        }
    }

    /// Performs `a` (`xml` is the document of an insert), timed from
    /// `start`. Returns the insert's root `pre`.
    pub fn write(
        &mut self,
        log: &mut Log,
        c: &mut Client,
        a: WriteAction,
        xml: &str,
        start: Instant,
        late_ms: f64,
    ) -> Option<u32> {
        let (res, op_id, counts) = timed(log, c, |db| {
            with_retries(start, |_| match a {
                WriteAction::Insert(_) => db.insert(xml).map(|o| o.root_pre),
                WriteAction::Delete(root) => db.delete(root).map(|_| root),
            })
        });
        match res {
            Ok(done) => {
                self.applied(a, done.value);
                log.records.push(OpRecord {
                    kind: OpKind::Write,
                    op_id,
                    ms: done.ms,
                    attempts: done.attempts,
                    failures: done.failures,
                    counts,
                    closing_waves: 0,
                    late_ms,
                });
                Some(done.value)
            }
            Err(e) => {
                log.fail(&format!("{a:?}"), e);
                None
            }
        }
    }

    /// Closed-loop writes until `until` (at least one insert, so a slice
    /// that starts late still writes), then deletes until nothing this
    /// writer inserted is left, so the store is back at the base document.
    pub fn closed_loop(&mut self, log: &mut Log, c: &mut Client, inputs: &Inputs, until: Instant) {
        let mut first = true;
        while log.ok() && (first || Instant::now() < until || !self.live.is_empty()) {
            let a = if first || Instant::now() < until {
                self.next_action()
            } else {
                WriteAction::Delete(self.live[0].0)
            };
            let xml = match a {
                WriteAction::Insert(k) => inputs.insert_doc(k),
                WriteAction::Delete(_) => String::new(),
            };
            if self.write(log, c, a, &xml, Instant::now(), 0.0).is_none() {
                break;
            }
            first = false;
        }
    }
}

/// Traced run only: runs every op on an untraced client and on the traced
/// one, alternately, `rounds` times. Returns the tracing overhead (traced ÷
/// untraced time − 1) and the problems found: ops whose waves, bytes or
/// evaluation counts differed between the two, and wrong answers.
pub fn parity(
    untraced: &mut Client,
    traced: &mut Client,
    reads: &[&[ReadOp]],
    rounds: usize,
    check: Check,
) -> (f64, Vec<String>) {
    let mut time = [0.0f64; 2];
    let mut problems = Vec::new();
    for round in 0..rounds {
        for op in reads.iter().flat_map(|ops| ops.iter()) {
            let plain = parity_op(untraced, op, check, &mut problems);
            let traced = parity_op(traced, op, check, &mut problems);
            time[0] += plain.0;
            time[1] += traced.0;
            if round == 0 && plain.1 != traced.1 {
                problems.push(format!(
                    "traced path differs: {} (untraced {:?}, traced {:?})",
                    op.label, plain.1, traced.1
                ));
            }
        }
    }
    (time[1] / time[0].max(1e-9) - 1.0, problems)
}

/// One parity op: its time and path signature.
fn parity_op(
    c: &mut Client,
    op: &ReadOp,
    check: Check,
    problems: &mut Vec<String>,
) -> (f64, [u64; 6]) {
    let before = c.db.counters();
    let began = Instant::now();
    let res = run_read(&mut *c.db, op, began);
    let ms = began.elapsed().as_secs_f64() * 1e3;
    let sig = Counts::between(&before, &c.db.counters()).path_signature();
    match res {
        Ok(done) => {
            if let Err(msg) = check(op, &done.value) {
                problems.push(msg);
            }
        }
        Err(_) => problems.push(format!("{}: failed in the parity pass", op.label)),
    }
    (ms, sig)
}

/// Inputs of the end-to-end metric set.
pub struct EndToEnd<'a> {
    pub setup_s: &'a [f64],
    pub log: &'a Log,
    pub stored_bytes: u64,
    pub input_bytes: usize,
    /// Latency window per op kind, in [`OpKind::ALL`] order (see
    /// [`windows`]).
    pub windows: [usize; 3],
}

/// Latency windows for a workload whose read cycle is `cycle`: one pass of
/// the cycle's queries, one pass of its aggregates (so every window holds
/// the same op mix), and [`WRITE_WINDOW_OPS`] writes.
pub fn windows(cycle: &[&[ReadOp]]) -> [usize; 3] {
    let ops = || cycle.iter().flat_map(|ops| ops.iter());
    let aggs = ops().filter(|op| op.is_agg()).count();
    [ops().count() - aggs, aggs, WRITE_WINDOW_OPS]
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(e: &EndToEnd) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(e.setup_s), "s");
    m.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    m.put(
        "stored_bytes_per_input_byte",
        e.stored_bytes as f64 / e.input_bytes as f64,
        "B/B",
    );
    for (kind, window) in OpKind::ALL.into_iter().zip(e.windows) {
        let ms = e.log.ms(kind);
        for (q, name) in [(0.5, "p50"), (0.9, "p90")] {
            m.put(
                &format!("{}_{name}_ms", kind.name()),
                windowed_percentile(&ms, window, q),
                "ms",
            );
        }
    }
    m
}

pub fn stored_bytes(r: &SizeReport) -> u64 {
    (r.poly_bytes + r.structure_bytes + r.index_bytes) as u64
}

pub fn add_size(a: &mut SizeReport, b: &SizeReport) {
    a.poly_bytes += b.poly_bytes;
    a.structure_bytes += b.structure_bytes;
    a.index_bytes += b.index_bytes;
    a.rows += b.rows;
}

pub fn empty_size() -> SizeReport {
    SizeReport {
        poly_bytes: 0,
        structure_bytes: 0,
        index_bytes: 0,
        rows: 0,
    }
}

/// Inputs of the per-layer metric set.
pub struct Layers<'a> {
    pub log: &'a Log,
    /// Spans of the reading client(s), and of every client (for encode).
    pub read_spans: &'a [Span],
    pub all_spans: &'a [Span],
    pub encoded_rows: u64,
    pub fleet_parties: usize,
    /// Server counter totals over the run, when they cannot be read per op
    /// (the mux host); per-op deltas are used otherwise.
    pub server_totals: Option<ServerStats>,
    /// Server counters at the end of the run (rows inserted/removed).
    pub server_end: ServerStats,
    pub hedged_wins: u64,
    pub parties_not_live: usize,
    pub stray_responses: u64,
    pub store: SizeReport,
    pub host: &'a Host,
    pub client_threads: usize,
    pub sockets: usize,
    pub overhead_share: f64,
}

/// The per-layer metrics of a traced run. "Per op" means per read op
/// (query or aggregate); writes have their own metrics.
pub fn per_layer(l: &Layers) -> Metrics {
    let reads: Vec<&OpRecord> = l
        .log
        .records
        .iter()
        .filter(|r| r.kind != OpKind::Write)
        .collect();
    let aggs: Vec<&OpRecord> = reads
        .iter()
        .copied()
        .filter(|r| r.kind == OpKind::Agg)
        .collect();
    let ids: HashSet<u32> = reads.iter().map(|r| r.op_id).collect();
    let fleet = l.fleet_parties > 0;
    let times = layer_times(l.read_spans, &ids, fleet);
    let mut c = Counts::default();
    for r in &reads {
        c.add(&r.counts);
    }
    let n = reads.len().max(1) as f64;
    let per = |x: u64| x as f64 / n;
    let server = match l.server_totals {
        Some(t) => Counts {
            server_requests: t.requests,
            server_evaluations: t.evaluations,
            server_polys: t.polys_served,
            server_cursor_items: t.cursor_items,
            server_cache_hits: t.eval_cache_hits,
            ..Counts::default()
        },
        None => c,
    };
    let mut m = Metrics::default();
    let rows = l.encoded_rows.max(1) as f64;
    m.put(
        "encode.ns_per_row",
        encode_ns(l.all_spans) as f64 / rows,
        "ns",
    );
    m.put("client.self_ms_per_op", times.ms(Layer::Client) / n, "ms");
    m.put(
        "client.shares_regenerated_per_op",
        per(c.shares_regenerated),
        "count",
    );
    m.put("client.client_evals_per_op", per(c.client_evals), "count");
    m.put(
        "client.equality_tests_per_op",
        per(c.equality_tests),
        "count",
    );
    m.put(
        "client.reconstructions_per_op",
        per(c.reconstructions),
        "count",
    );
    m.put("client.polys_fetched_per_op", per(c.polys_fetched), "count");
    m.put("router.waves_per_op", per(c.waves), "count");
    m.put("router.self_ms_per_op", times.ms(Layer::Router) / n, "ms");
    m.put(
        "router.dispatches_per_wave",
        c.dispatches as f64 / c.waves.max(1) as f64,
        "count",
    );
    m.put("router.spec_hits_per_op", per(c.spec_hits), "count");
    m.put("router.spec_wasted_per_op", per(c.spec_wasted), "count");
    let fleet_waves = times.fleet_waves.max(1) as f64;
    m.put(
        "fleet.self_ms_per_wave",
        times.ms(Layer::Fleet) / fleet_waves,
        "ms",
    );
    m.put(
        "fleet.leg_calls_per_wave",
        if fleet {
            times.leg_calls as f64 / fleet_waves / l.fleet_parties as f64
        } else {
            0.0
        },
        "count",
    );
    m.put("fleet.hedged_wins", l.hedged_wins as f64, "count");
    m.put("fleet.parties_not_live", l.parties_not_live as f64, "count");
    m.put("chaos.wait_ms_per_op", times.ms(Layer::Chaos) / n, "ms");
    m.put(
        "transport.leg_ms_per_op",
        times.ms(Layer::Transport) / n,
        "ms",
    );
    m.put(
        "transport.bytes_per_op",
        per(c.bytes_sent + c.bytes_received),
        "B",
    );
    m.put(
        "transport.stray_responses",
        l.stray_responses as f64,
        "count",
    );
    m.put(
        "server.requests_per_op",
        per(server.server_requests),
        "count",
    );
    m.put(
        "server.evaluations_per_op",
        per(server.server_evaluations),
        "count",
    );
    m.put(
        "server.polys_served_per_op",
        per(server.server_polys),
        "count",
    );
    m.put(
        "server.cursor_items_per_op",
        per(server.server_cursor_items),
        "count",
    );
    m.put(
        "server.eval_cache_hit_ratio",
        server.server_cache_hits as f64 / server.server_evaluations.max(1) as f64,
        "ratio",
    );
    m.put(
        "server.rows_inserted",
        l.server_end.rows_inserted as f64,
        "count",
    );
    m.put(
        "server.rows_removed",
        l.server_end.rows_removed as f64,
        "count",
    );
    let n_agg = aggs.len().max(1) as f64;
    m.put(
        "aggregate.closing_waves_per_op",
        aggs.iter().map(|r| r.closing_waves).sum::<u64>() as f64 / n_agg,
        "count",
    );
    m.put(
        "aggregate.retries_per_op",
        aggs.iter().map(|r| r.failures.total()).sum::<u64>() as f64 / n_agg,
        "count",
    );
    m.put("store.rows", l.store.rows as f64, "count");
    m.put("store.poly_bytes", l.store.poly_bytes as f64, "B");
    m.put("store.structure_bytes", l.store.structure_bytes as f64, "B");
    m.put("store.index_bytes", l.store.index_bytes as f64, "B");
    for kind in OpKind::ALL {
        let recs = l.log.records.iter().filter(|r| r.kind == kind);
        let (attempts, failed) =
            recs.fold((0, 0), |(a, f), r| (a + r.attempts, f + r.failures.total()));
        m.put(
            &format!("retry.{}_failed_attempt_share", kind.name()),
            failed as f64 / attempts.max(1) as f64,
            "ratio",
        );
    }
    let late: Vec<f64> = l
        .log
        .records
        .iter()
        .filter(|r| r.kind == OpKind::Write)
        .map(|r| r.late_ms)
        .collect();
    m.put("loadgen.late_p90_ms", percentile(&late, 0.9), "ms");
    m.put("host.steal_share", l.host.steal_share(), "ratio");
    m.put("host.nproc", l.host.nproc as f64, "count");
    m.put("host.client_threads", l.client_threads as f64, "count");
    m.put("host.sockets", l.sockets as f64, "count");
    m.put(
        "trace.residual_share",
        times.residual_ns as f64 / times.wall_ns.max(1) as f64,
        "ratio",
    );
    m.put("trace.overhead_share", l.overhead_share, "ratio");
    m
}

/// A human-readable summary of the run on stderr: sample counts, failed
/// attempts by kind, host facts.
pub fn summary(workload: &str, seed: u64, log: &Log, host: &Host, threads: usize, sockets: usize) {
    let mut parts = Vec::new();
    for kind in OpKind::ALL {
        let recs: Vec<&OpRecord> = log.records.iter().filter(|r| r.kind == kind).collect();
        if recs.is_empty() {
            continue;
        }
        let attempts: u64 = recs.iter().map(|r| r.attempts).sum();
        let mut by = Vec::new();
        for c in Conflict::ALL {
            let n: u64 = recs.iter().map(|r| r.failures.counts[c as usize]).sum();
            by.push(format!("\"{}\": {n}", c.name()));
        }
        parts.push(format!(
            "\"{}\": {{\"ops\": {}, \"attempts\": {attempts}, \"failed_attempts\": {{{}}}}}",
            kind.name(),
            recs.len(),
            by.join(", ")
        ));
    }
    eprintln!(
        "perfbench: {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \
         \"client_threads\": {threads}, \"sockets\": {sockets}, \"steal_share\": {:.4}, \
         \"peak_rss_mb\": {:.1}, \"failed_ops\": {}, {}}}",
        host.nproc,
        host.steal_share(),
        crate::report::peak_rss_mb(),
        log.failed_ops,
        parts.join(", ")
    );
}

/// What `main` prints for a run.
pub struct Outcome {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Closes a run: reports every problem on stderr and folds them into
/// `correct`. `problems` are check failures found outside the op loop
/// (warm-up, final verification, traced/untraced parity).
pub fn finish(log: &Log, metrics: Metrics, problems: &[String]) -> Outcome {
    for p in log.wrong.iter().chain(problems).take(20) {
        eprintln!("perfbench: WRONG: {p}");
    }
    if let Some(f) = &log.fatal {
        eprintln!("perfbench: FATAL: {f}");
    }
    Outcome {
        metrics,
        correct: log.ok() && problems.is_empty() && log.failed_ops == 0,
        attempted: log.records.len() as u64 + log.failed_ops,
        failed: log.failed_ops,
    }
}

/// Where the traced run writes its spans.
pub fn span_dump_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"))
}
