//! `mux-rw`: reads beside writes on a live multiplexed host. A
//! `serve_tcp_mux` host at S = 2 on loopback holds a 256 KB document; one
//! reader thread runs strict queries and aggregates in a closed loop while
//! one writer thread inserts ~2 KB documents and deletes the oldest on an
//! open-loop schedule, both over one shared `MuxPool`. By the end the
//! writer has deleted everything it inserted.
//!
//! `BENCHMARK.json` does not list this workload: with the reader, writer,
//! pool and host threads sharing a 2-vCPU host, and reads that retry when
//! a write lands mid-op, its latencies varied by 0.14-0.62 of their median
//! between runs of the same code, too much to gate a change on.

use crate::db::{check_exact, Answer, Db, Session};
use crate::inputs::{Inputs, ReadKind, ReadOp, RING_LEN};
use crate::report::{sum_server, Host};
use crate::run::{
    add_size, empty_size, end_to_end, finish, parity, per_layer, read, span_dump_path,
    stored_bytes, summary, timed_setups, verify_pass, windows, Check, Client, EndToEnd, Layers,
    Log, Outcome, WriteAction, Writer, SETUP_RUNS, WRITE_WINDOW,
};
use crate::trace::{Seam, Traced, Tracer};
use ssx_core::protocol::Request;
use ssx_core::{
    encode_document, reference_aggregate, reference_eval, AggOp, ClientFilter, CoreError, MuxPool,
    MuxTransport, RefAggregate, RemoteMuxDb, ShardRouter, ShardSpec, ShardedServer, Transport,
};
use ssx_xml::Document;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const NAME: &str = "mux-rw";
const DOC_BYTES: usize = 256 * 1024;
const SHARDS: u32 = 2;
/// The writer's open-loop rate.
const WRITES_PER_S: f64 = 8.0;
/// Client threads (reader, writer) and sockets (one per shard, shared).
const THREADS: usize = 2;
const SOCKETS: usize = SHARDS as usize;

type Stack = Traced<ShardRouter<Traced<MuxTransport>>>;

/// A live host and the pool every client shares.
struct MuxHost {
    pool: MuxPool,
    thread: JoinHandle<Result<ShardedServer, CoreError>>,
}

impl MuxHost {
    fn start(inputs: &Inputs, tracer: Option<&Arc<Tracer>>) -> MuxHost {
        let encode = || encode_document(&inputs.xml, &inputs.map, &inputs.key);
        let out = match tracer {
            Some(t) => t.encode(crate::db::rows_of, encode),
            None => encode(),
        }
        .expect("encode");
        let server = ShardedServer::from_table(out.table, out.ring, SHARDS).expect("partition");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("local address");
        let thread = std::thread::spawn(move || ssx_core::serve_tcp_mux(listener, server, 0));
        let pool = MuxPool::connect(addr, SHARDS).expect("connect the pool");
        MuxHost { pool, thread }
    }

    /// Stops the host and hands back its fleet (counters, tables).
    fn stop(self) -> ShardedServer {
        let mut router = ShardRouter::mux(&self.pool);
        let _ = router.call(&Request::Shutdown);
        drop(router);
        drop(self.pool);
        self.thread
            .join()
            .expect("host thread")
            .expect("host stopped cleanly")
    }

    fn facade(&self, inputs: &Inputs) -> RemoteMuxDb {
        RemoteMuxDb::connect_mux(&self.pool, inputs.map.clone(), inputs.key.clone())
            .expect("connect a client")
    }

    fn traced(&self, inputs: &Inputs, tracer: &Arc<Tracer>) -> Session<Stack> {
        let spec = ShardSpec::new(self.pool.shards());
        let shards = (0..spec.shards())
            .map(|s| Traced::new(self.pool.transport(s), tracer, Seam::Shard))
            .collect();
        let router = ShardRouter::new(spec, shards, spec.shards() > 1, true);
        let router = Traced::new(router, tracer, Seam::Router);
        let mut s = Session::new(
            ClientFilter::new(router, inputs.map.clone(), inputs.key.clone()).expect("client"),
        );
        s.tracer = Some(tracer.clone());
        s
    }
}

const NOTHING: RefAggregate = RefAggregate {
    count: 0,
    contributing: 0,
    sum: 0,
};

/// What the writer's documents add to each read op's answer.
struct Inserted {
    /// Base document rows: inserted documents are numbered after them.
    offsets: Vec<u32>,
    elements: Vec<u32>,
    /// `[doc][op]`: absolute matching pres, or the aggregate contribution.
    pres: Vec<Vec<Vec<u32>>>,
    aggs: Vec<Vec<RefAggregate>>,
}

impl Inserted {
    /// The oracle answers of the first `n` inserted documents, numbered as
    /// the write plane numbers them (each at the store's high-water mark).
    fn plan(inputs: &Inputs, reads: &[ReadOp], docs: &[String]) -> Inserted {
        let mut at = inputs.doc.element_count() as u32;
        let mut out = Inserted {
            offsets: Vec::new(),
            elements: Vec::new(),
            pres: Vec::new(),
            aggs: Vec::new(),
        };
        for xml in docs {
            let doc = Document::parse(xml).expect("inserted document parses");
            let mut pres = Vec::new();
            let mut aggs = Vec::new();
            for op in reads {
                match &op.kind {
                    ReadKind::Query { query, .. } => {
                        let hit = reference_eval(&doc, query, op.rule).expect("oracle");
                        pres.push(hit.into_iter().map(|p| p + at).collect());
                        aggs.push(NOTHING);
                    }
                    ReadKind::Agg { spec, .. } => {
                        let r =
                            reference_aggregate(&doc, &spec.query, op.rule, RING_LEN, spec.range)
                                .expect("oracle");
                        pres.push(Vec::new());
                        aggs.push(r);
                    }
                }
            }
            out.offsets.push(at);
            out.elements.push(doc.element_count() as u32);
            out.pres.push(pres);
            out.aggs.push(aggs);
            at += doc.element_count() as u32;
        }
        out
    }

    /// The answer while the writer runs: every baseline match, plus only
    /// matches the oracle finds in documents the writer inserted.
    fn check(&self, reads: &[ReadOp], op: &ReadOp, answer: &Answer) -> Result<(), String> {
        let i = reads
            .iter()
            .position(|r| std::ptr::eq(r, op))
            .ok_or("unknown op")?;
        match (&op.kind, answer) {
            (ReadKind::Query { expect, .. }, Answer::Pres(got)) => {
                if let Some(p) = expect.iter().find(|p| got.binary_search(p).is_err()) {
                    return Err(format!("{}: baseline match pre={p} missing", op.label));
                }
                for p in got.iter().filter(|p| expect.binary_search(p).is_err()) {
                    let k = self.offsets.partition_point(|&o| o < *p);
                    let ok = k > 0
                        && *p <= self.offsets[k - 1] + self.elements[k - 1]
                        && self.pres[k - 1][i].binary_search(p).is_ok();
                    if !ok {
                        return Err(format!(
                            "{}: pre={p} matches no inserted document",
                            op.label
                        ));
                    }
                }
                Ok(())
            }
            (ReadKind::Agg { spec, expect }, Answer::Agg(got)) => {
                // At most WRITE_WINDOW documents are live, plus one being
                // inserted or deleted: the extra must fit in some run of
                // that many consecutive inserted documents.
                let w = (WRITE_WINDOW + 1).min(self.aggs.len().max(1));
                let mut cap = NOTHING;
                for win in self.aggs.windows(w) {
                    let f =
                        |g: fn(&RefAggregate) -> u128| win.iter().map(|d| g(&d[i])).sum::<u128>();
                    cap.count = cap.count.max(f(|a| a.count as u128) as u64);
                    cap.contributing = cap.contributing.max(f(|a| a.contributing as u128) as u64);
                    cap.sum = cap.sum.max(f(|a| a.sum));
                }
                let within = |g: u128, base: u128, cap: u128| g >= base && g - base <= cap;
                let ok = within(got.count as u128, expect.count as u128, cap.count as u128)
                    && match spec.op {
                        AggOp::Count => got.sum == 0,
                        _ => {
                            within(got.sum, expect.sum, cap.sum)
                                && within(
                                    got.contributing as u128,
                                    expect.contributing as u128,
                                    cap.contributing as u128,
                                )
                        }
                    };
                if ok {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: count {} sum {} is not the baseline ({} / {}) plus inserted documents",
                        op.label, got.count, got.sum, expect.count, expect.sum
                    ))
                }
            }
            _ => Err(format!("{}: answer of the wrong shape", op.label)),
        }
    }
}

/// The open-loop writer: `writes` writes at [`WRITES_PER_S`], then the
/// deletes that remove whatever is still live, on the same schedule.
/// Latency is timed from each write's scheduled send time.
fn write_schedule(
    log: &mut Log,
    c: &mut Client,
    docs: &[String],
    inserted: &Inserted,
    writes: usize,
) {
    let period = Duration::from_secs_f64(1.0 / WRITES_PER_S);
    let t0 = Instant::now();
    let mut writer = Writer::default();
    for w in 0.. {
        let a = if w < writes {
            writer.next_action()
        } else {
            match writer.live.front() {
                Some(&(root, _)) => WriteAction::Delete(root),
                None => break,
            }
        };
        let due = t0 + period * w as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        let xml = match a {
            WriteAction::Insert(k) => docs[k].as_str(),
            WriteAction::Delete(_) => "",
        };
        match writer.write(log, c, a, xml, due, late_ms) {
            Some(root) => {
                if let WriteAction::Insert(k) = a {
                    if root != inserted.offsets[k] + 1 {
                        log.fatal.get_or_insert(format!(
                            "document {k} landed at pre {root}, expected {}",
                            inserted.offsets[k] + 1
                        ));
                    }
                }
            }
            None => break,
        }
        if !log.ok() {
            break;
        }
    }
}

/// Reader and writer side by side until the writer's schedule is done.
fn read_beside_writes(
    reader: &mut Client,
    writer: &mut Client,
    reads: &[ReadOp],
    docs: &[String],
    inserted: &Inserted,
    writes: usize,
) -> Log {
    let relaxed = |op: &ReadOp, a: &Answer| inserted.check(reads, op, a);
    let writing = AtomicBool::new(true);
    let (mut rlog, wlog) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let mut log = Log::default();
            write_schedule(&mut log, writer, docs, inserted, writes);
            writing.store(false, Ordering::Release);
            log
        });
        let mut log = Log::default();
        while writing.load(Ordering::Acquire) && log.ok() {
            for op in reads {
                read(&mut log, reader, op, &relaxed, Instant::now());
            }
        }
        (log, w.join().expect("writer thread"))
    });
    rlog.merge(wlog);
    rlog
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let host = Host::start();
    let inputs = Inputs::generate(seed, DOC_BYTES);
    let reads = inputs.strict_and_aggregates();
    let writes = (seconds * WRITES_PER_S).round() as usize;
    let docs: Vec<String> = (0..Writer::planned_inserts(writes))
        .map(|k| inputs.insert_doc(k))
        .collect();
    let inserted = Inserted::plan(&inputs, &reads, &docs);
    let exact: Check = &check_exact;
    let mut problems = Vec::new();

    let (log, metrics) = if !trace {
        let build = || {
            let h = MuxHost::start(&inputs, None);
            let reader = h.facade(&inputs);
            let writer = h.facade(&inputs);
            (h, reader, writer)
        };
        let teardown = |(h, r, w): (MuxHost, RemoteMuxDb, RemoteMuxDb)| {
            drop((r, w));
            h.stop();
        };
        let mut setup_s = Vec::new();
        let (h, mut reader, mut writer) = timed_setups(SETUP_RUNS, &mut setup_s, &build, teardown);
        let mut rc = Client::new(&mut reader, None);
        if let Err(e) = verify_pass(&mut rc, &reads, exact) {
            problems.push(format!("warm-up: {e}"));
        }
        let log = read_beside_writes(
            &mut rc,
            &mut Client::new(&mut writer, None),
            &reads,
            &docs,
            &inserted,
            writes,
        );
        if let Err(e) = verify_pass(&mut rc, &reads, exact) {
            problems.push(format!("after the writes: {e}"));
        }
        drop((reader, writer));
        let stray = h.pool.stray_responses();
        if stray > 0 {
            problems.push(format!("{stray} stray responses on the pool"));
        }
        let fleet = h.stop();
        let mut store = empty_size();
        for f in fleet.filters() {
            add_size(&mut store, &f.table().size_report());
        }
        teardown(timed_setups(SETUP_RUNS, &mut setup_s, &build, teardown));
        let m = end_to_end(&EndToEnd {
            setup_s: &setup_s,
            log: &log,
            stored_bytes: stored_bytes(&store),
            input_bytes: inputs.xml.len(),
            windows: windows(&[&reads]),
        });
        (log, m)
    } else {
        let rt = Tracer::new();
        let wt = Tracer::new();
        let h = MuxHost::start(&inputs, Some(&wt));
        let mut reader = h.traced(&inputs, &rt);
        let mut writer = h.traced(&inputs, &wt);
        let mut rc = Client::new(&mut reader, Some(rt.clone()));
        if let Err(e) = verify_pass(&mut rc, &reads, exact) {
            problems.push(format!("warm-up: {e}"));
        }
        let log = read_beside_writes(
            &mut rc,
            &mut Client::new(&mut writer, Some(wt.clone())),
            &reads,
            &docs,
            &inserted,
            writes,
        );
        if let Err(e) = verify_pass(&mut rc, &reads, exact) {
            problems.push(format!("after the writes: {e}"));
        }
        let mut plain = h.facade(&inputs);
        let (overhead_share, differ) = parity(
            &mut Client::new(&mut plain, None),
            &mut rc,
            &[&reads],
            1,
            exact,
        );
        problems.extend(differ);
        drop(plain);
        let hedged_wins = reader.counters().transport.hedged_wins;
        drop((reader, writer));
        let stray_responses = h.pool.stray_responses();
        let fleet = h.stop();
        let server = sum_server(fleet.filters().iter().map(|f| f.stats()));
        let mut store = empty_size();
        for f in fleet.filters() {
            add_size(&mut store, &f.table().size_report());
        }
        let read_spans = rt.spans();
        let write_spans = wt.spans();
        crate::report::dump_spans(
            &span_dump_path(NAME, seed),
            &[("reader", &read_spans), ("writer", &write_spans)],
        );
        let all: Vec<_> = read_spans.iter().chain(&write_spans).copied().collect();
        let m = per_layer(&Layers {
            log: &log,
            read_spans: &read_spans,
            all_spans: &all,
            encoded_rows: wt.encoded_rows(),
            fleet_parties: 0,
            server_totals: Some(server),
            server_end: server,
            hedged_wins,
            parties_not_live: 0,
            stray_responses,
            store,
            host: &host,
            client_threads: THREADS,
            sockets: SOCKETS,
            overhead_share,
        });
        (log, m)
    };
    summary(NAME, seed, &log, &host, THREADS, SOCKETS);
    finish(&log, metrics, &problems)
}
