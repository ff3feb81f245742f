//! `local-1ms`: the paper's workload behind an emulated 1 ms link. A
//! 256 KB document is encoded at S = 1 and served in-process by
//! `LocalTransport`; every call to it goes through `ChaosTransport` with a
//! fixed 1 ms delay. One closed-loop client runs the Fig-6 queries plus the
//! Table-1 chain, strict and non-strict; aggregates and writes run in
//! slices of their own between the queries.
//!
//! The link and the document size are there to keep the workload steady.
//! In process, with no link, every op is pure client and server CPU work,
//! and a shared host's CPU speed drifts by ~20% from one minute to the next
//! with its other tenants' load: at the paper's 1 MB the run-to-run spread
//! of the latencies was 0.13-0.32 of their median over ten seeds on a
//! 2-vCPU VM, and 0.04-0.21 with the link added.

use crate::db::{check_exact, rows_of, Session};
use crate::inputs::{derive, Inputs, ReadOp};
use crate::report::{sum_server, Host};
use crate::run::{
    add_size, empty_size, end_to_end, finish, parity, per_layer, phase_ends, read_until,
    span_dump_path, stored_bytes, summary, timed_setups, verify_pass, windows, Check, Client,
    EndToEnd, Layers, Log, Outcome, Writer, SETUP_RUNS,
};
use crate::trace::{Seam, Traced, Tracer};
use ssx_core::{
    encode_document, ChaosConfig, ChaosTransport, ClientFilter, EncodeOutput, LocalTransport,
    ServerStats, ShardRouter, ShardedServer, Transport,
};
use ssx_store::SizeReport;
use std::sync::Arc;
use std::time::Duration;

pub const NAME: &str = "local-1ms";
const DOC_BYTES: usize = 256 * 1024;
const LINK_DELAY: Duration = Duration::from_millis(1);

/// Shares of the run's seconds given to the query, aggregate and write
/// phases.
const PHASES: [f64; 3] = [0.5, 0.35, 0.15];

type Plain = ShardRouter<ChaosTransport<LocalTransport>>;
type Stack = Traced<ShardRouter<Traced<ChaosTransport<Traced<LocalTransport>>>>>;

/// Warm-up, the three timed phases, and the final exact verification.
fn phases(
    log: &mut Log,
    c: &mut Client,
    inputs: &Inputs,
    reads: [&[ReadOp]; 2],
    seconds: f64,
    problems: &mut Vec<String>,
) {
    let exact: Check = &check_exact;
    for ops in reads {
        if let Err(e) = verify_pass(c, ops, exact) {
            problems.push(format!("warm-up: {e}"));
        }
    }
    let mut writer = Writer::default();
    let mut next = [0, 0];
    for ends in phase_ends(seconds, &PHASES) {
        read_until(log, c, reads[0], &mut next[0], ends[0], exact);
        read_until(log, c, reads[1], &mut next[1], ends[1], exact);
        writer.closed_loop(log, c, inputs, ends[2]);
    }
    for ops in reads {
        if let Err(e) = verify_pass(c, ops, exact) {
            problems.push(format!("after the writes: {e}"));
        }
    }
}

fn link(inputs: &Inputs) -> ChaosConfig {
    ChaosConfig::fixed_delay(derive(inputs.seed, 50), LINK_DELAY)
}

/// The encoded document as one in-process shard, `shard(transport)` around
/// it, a router over that, `wrap(router)` around the router, and the
/// client; `server` reads the shard's counters back out of the stack.
fn deploy<S: Transport + Send + 'static, R: Transport + 'static>(
    inputs: &Inputs,
    out: EncodeOutput,
    mut shard: impl FnMut(LocalTransport) -> S,
    wrap: impl FnOnce(ShardRouter<S>) -> R,
    server: fn(&R) -> &LocalTransport,
) -> Session<R> {
    let host = ShardedServer::from_table(out.table, out.ring, 1).expect("partition");
    let spec = host.spec();
    let shards = host
        .into_filters()
        .into_iter()
        .map(|f| shard(LocalTransport::new(f)))
        .collect();
    let router = wrap(ShardRouter::new(spec, shards, false, false));
    let mut session = Session::new(
        ClientFilter::new(router, inputs.map.clone(), inputs.key.clone()).expect("client"),
    );
    session.server = Some(Box::new(move |r: &R| server(r).server().stats()));
    session
}

fn plain(inputs: &Inputs) -> Session<Plain> {
    let out = encode_document(&inputs.xml, &inputs.map, &inputs.key).expect("encode");
    deploy(
        inputs,
        out,
        |t| ChaosTransport::new(t, link(inputs)),
        |r| r,
        |r: &Plain| r.transports()[0].inner(),
    )
}

fn traced(inputs: &Inputs, tracer: &Arc<Tracer>) -> Session<Stack> {
    let out = tracer
        .encode(rows_of, || {
            encode_document(&inputs.xml, &inputs.map, &inputs.key)
        })
        .expect("encode");
    let mut session = deploy(
        inputs,
        out,
        |t| {
            let inner = Traced::new(t, tracer, Seam::Shard);
            Traced::new(ChaosTransport::new(inner, link(inputs)), tracer, Seam::Link)
        },
        |r| Traced::new(r, tracer, Seam::Router),
        |t: &Stack| t.inner().transports()[0].inner().inner().inner(),
    );
    session.tracer = Some(tracer.clone());
    session
}

/// Counters and table size of the deployment's one shard.
fn shard_state<T: Transport>(
    s: &mut Session<T>,
    server: fn(&T) -> &LocalTransport,
) -> (ServerStats, SizeReport) {
    let shard = server(s.client.transport()).server();
    let mut store = empty_size();
    add_size(&mut store, &shard.table().size_report());
    (sum_server([shard.stats()]), store)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let host = Host::start();
    let inputs = Inputs::generate(seed, DOC_BYTES);
    let queries = inputs.paper_queries();
    let aggs = inputs.aggregates();
    let reads = [queries.as_slice(), aggs.as_slice()];
    let mut log = Log::default();
    let mut problems = Vec::new();

    let metrics = if !trace {
        let build = || plain(&inputs);
        let mut setup_s = Vec::new();
        let mut db = timed_setups(SETUP_RUNS, &mut setup_s, &build, drop);
        phases(
            &mut log,
            &mut Client::new(&mut db, None),
            &inputs,
            reads,
            seconds,
            &mut problems,
        );
        let (_, store) = shard_state(&mut db, |r: &Plain| r.transports()[0].inner());
        drop(db);
        drop(timed_setups(SETUP_RUNS, &mut setup_s, &build, drop));
        end_to_end(&EndToEnd {
            setup_s: &setup_s,
            log: &log,
            stored_bytes: stored_bytes(&store),
            input_bytes: inputs.xml.len(),
            windows: windows(&reads),
        })
    } else {
        let tracer = Tracer::new();
        let mut session = traced(&inputs, &tracer);
        let mut c = Client::new(&mut session, Some(tracer.clone()));
        phases(&mut log, &mut c, &inputs, reads, seconds, &mut problems);

        // The same ops on an untraced deployment: identical path, and the
        // cost of tracing.
        let mut other = plain(&inputs);
        let exact: Check = &check_exact;
        let mut pc = Client::new(&mut other, None);
        for ops in reads {
            if let Err(e) = verify_pass(&mut pc, ops, exact) {
                problems.push(format!("parity warm-up: {e}"));
            }
        }
        let (overhead_share, differ) = parity(&mut pc, &mut c, &reads, 2, exact);
        problems.extend(differ);
        drop(other);

        let (server_end, store) = shard_state(&mut session, |t: &Stack| {
            t.inner().transports()[0].inner().inner().inner()
        });
        let spans = tracer.spans();
        crate::report::dump_spans(&span_dump_path(NAME, seed), &[("client", &spans)]);
        per_layer(&Layers {
            log: &log,
            read_spans: &spans,
            all_spans: &spans,
            encoded_rows: tracer.encoded_rows(),
            fleet_parties: 0,
            server_totals: None,
            server_end,
            hedged_wins: session.client.transport_stats().hedged_wins,
            parties_not_live: 0,
            stray_responses: 0,
            store,
            host: &host,
            client_threads: 1,
            sockets: 0,
            overhead_share,
        })
    };
    summary(NAME, seed, &log, &host, 1, 0);
    finish(&log, metrics, &problems)
}
