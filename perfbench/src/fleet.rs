//! `fleet-1ms`: a 3-party, t = 2 fleet over an emulated 1 ms link. Party
//! hosts run in-process behind `LocalPartyTransport`; every leg call goes
//! through `ChaosTransport` with a fixed 1 ms delay. The legs of a wave run
//! one after the other on the client's thread (see [`CONCURRENT_LEGS`]).
//! One closed-loop client alternates strict queries with aggregates over a
//! 64 KB document; writes run in slices of their own between the reads.

use crate::db::{check_exact, Db, Session};
use crate::inputs::{derive, Inputs};
use crate::report::{sum_server, Host};
use crate::run::{
    add_size, empty_size, end_to_end, finish, parity, per_layer, phase_ends, read_until,
    span_dump_path, stored_bytes, summary, timed_setups, verify_pass, windows, Check, Client,
    EndToEnd, Layers, Log, Outcome, Writer, SETUP_RUNS,
};
use crate::trace::{Seam, Traced, Tracer};
use ssx_core::{
    encode_document_fleet, fleet_mac_key, party_server, ChaosConfig, ChaosTransport, ClientFilter,
    FleetEncodeOutput, FleetLeg, FleetSpec, FleetTransport, LocalPartyTransport, PartyHealth,
    ShardRouter, ShardSpec, ShardedServer, Transport,
};
use ssx_store::SizeReport;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub const NAME: &str = "fleet-1ms";
const DOC_BYTES: usize = 64 * 1024;
const PARTIES: usize = 3;
const THRESHOLD: usize = 2;
const LINK_DELAY: Duration = Duration::from_millis(1);

/// Shares of the run's seconds given to the read and write phases.
const PHASES: [f64; 2] = [0.8, 0.2];

/// Whether a wave fans its legs out on threads of their own, as the
/// networked fleet does. Off: on a host with fewer cores than parties, three
/// leg threads spawned per wave, each waking from a 1 ms sleep, measure the
/// host's scheduler more than the fleet (run-to-run spread of query p50 was
/// 0.18-0.37 of its median on a shared 2-vCPU VM). Sequential legs keep one
/// client thread; a wave then pays its parties' delays one after another.
const CONCURRENT_LEGS: bool = false;

type Hosts = Vec<Arc<Mutex<ShardedServer>>>;
type PlainLeg = ChaosTransport<LocalPartyTransport>;
type Plain = ShardRouter<FleetTransport<PlainLeg>>;
type TracedLeg = Traced<ChaosTransport<Traced<LocalPartyTransport>>>;
type Stack = Traced<ShardRouter<Traced<FleetTransport<TracedLeg>>>>;

/// A fleet client plus handles on its party hosts.
struct Deployment<T: Transport> {
    session: Session<T>,
    hosts: Hosts,
}

/// Encodes and splits the document, and builds one host per party.
fn encode(inputs: &Inputs, tracer: Option<&Arc<Tracer>>) -> FleetEncodeOutput {
    let spec = FleetSpec::new(PARTIES, THRESHOLD).expect("fleet spec");
    let run = || encode_document_fleet(&inputs.xml, &inputs.map, &inputs.key, spec);
    match tracer {
        Some(t) => t.encode(
            |r: &Result<FleetEncodeOutput, _>| r.as_ref().map_or(0, |o| o.parties[0].data.len()),
            run,
        ),
        None => run(),
    }
    .expect("fleet encode")
}

/// Party hosts, then one fleet pipe over `legs(party index, transport)`
/// under a single-shard router, then the client.
fn deploy<L, R>(
    inputs: &Inputs,
    out: FleetEncodeOutput,
    mut leg: impl FnMut(usize, LocalPartyTransport) -> L,
    wrap: impl FnOnce(FleetTransport<L>) -> R,
) -> Deployment<R>
where
    L: Transport + Send + 'static,
    R: Transport,
{
    let FleetEncodeOutput {
        parties,
        ring,
        packer,
        ..
    } = out;
    let hosts: Hosts = parties
        .into_iter()
        .map(|p| {
            let host = party_server(p.data, p.mac, &ring, 1).expect("party host");
            Arc::new(Mutex::new(host))
        })
        .collect();
    let legs = hosts
        .iter()
        .enumerate()
        .map(|(j, h)| FleetLeg::up(j + 1, leg(j, LocalPartyTransport::new(Arc::clone(h)))))
        .collect();
    let alpha = fleet_mac_key(&inputs.key, &ring);
    let mut pipe = FleetTransport::new(legs, THRESHOLD, 1, 0, ring, packer, alpha, CONCURRENT_LEGS);
    pipe.set_split_seed(inputs.key.clone());
    let client = ClientFilter::new(wrap(pipe), inputs.map.clone(), inputs.key.clone())
        .expect("fleet client");
    Deployment {
        session: Session::new(client),
        hosts,
    }
}

fn link(inputs: &Inputs, party: usize) -> ChaosConfig {
    ChaosConfig::fixed_delay(derive(inputs.seed, 50 + party as u64), LINK_DELAY)
}

fn plain(inputs: &Inputs) -> Deployment<Plain> {
    let mut d = deploy(
        inputs,
        encode(inputs, None),
        |j, t| ChaosTransport::new(t, link(inputs, j)),
        |pipe| ShardRouter::new(ShardSpec::new(1), vec![pipe], false, false),
    );
    d.session.server = Some(server_probe(&d.hosts));
    d
}

fn traced(inputs: &Inputs, tracer: &Arc<Tracer>) -> Deployment<Stack> {
    let mut d = deploy(
        inputs,
        encode(inputs, Some(tracer)),
        |j, t| {
            let inner = Traced::new(t, tracer, Seam::Leg);
            Traced::new(
                ChaosTransport::new(inner, link(inputs, j)),
                tracer,
                Seam::Link,
            )
        },
        |pipe| {
            let pipe = Traced::new(pipe, tracer, Seam::Shard);
            let router = ShardRouter::new(ShardSpec::new(1), vec![pipe], false, false);
            Traced::new(router, tracer, Seam::Router)
        },
    );
    d.session.server = Some(server_probe(&d.hosts));
    d.session.tracer = Some(tracer.clone());
    d
}

/// Counters of every filter of every party, both planes.
fn server_probe<T>(hosts: &Hosts) -> Box<dyn Fn(&T) -> ssx_core::ServerStats + Send> {
    let hosts = hosts.clone();
    Box::new(move |_| {
        sum_server(hosts.iter().flat_map(|h| {
            let h = h.lock().unwrap_or_else(|p| p.into_inner());
            h.filters().iter().map(|f| f.stats()).collect::<Vec<_>>()
        }))
    })
}

/// Table sizes summed over parties and both planes.
fn store(hosts: &Hosts) -> SizeReport {
    let mut total = empty_size();
    for h in hosts {
        let h = h.lock().unwrap_or_else(|p| p.into_inner());
        for f in h.filters() {
            add_size(&mut total, &f.table().size_report());
        }
    }
    total
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let host = Host::start();
    let inputs = Inputs::generate(seed, DOC_BYTES);
    let reads = inputs.strict_and_aggregates();
    let exact: Check = &check_exact;
    let mut log = Log::default();
    let mut problems = Vec::new();
    let phases = |c: &mut Client, log: &mut Log, problems: &mut Vec<String>| {
        if let Err(e) = verify_pass(c, &reads, exact) {
            problems.push(format!("warm-up: {e}"));
        }
        let mut writer = Writer::default();
        let mut next = 0;
        for ends in phase_ends(seconds, &PHASES) {
            read_until(log, c, &reads, &mut next, ends[0], exact);
            writer.closed_loop(log, c, &inputs, ends[1]);
        }
        if let Err(e) = verify_pass(c, &reads, exact) {
            problems.push(format!("after the writes: {e}"));
        }
    };

    let metrics = if !trace {
        let build = || plain(&inputs);
        let mut setup_s = Vec::new();
        let mut fleet = timed_setups(SETUP_RUNS, &mut setup_s, &build, drop);
        phases(
            &mut Client::new(&mut fleet.session, None),
            &mut log,
            &mut problems,
        );
        let stored = stored_bytes(&store(&fleet.hosts));
        drop(fleet);
        drop(timed_setups(SETUP_RUNS, &mut setup_s, &build, drop));
        end_to_end(&EndToEnd {
            setup_s: &setup_s,
            log: &log,
            stored_bytes: stored,
            input_bytes: inputs.xml.len(),
            windows: windows(&[&reads]),
        })
    } else {
        let tracer = Tracer::new();
        let mut fleet = traced(&inputs, &tracer);
        let mut c = Client::new(&mut fleet.session, Some(tracer.clone()));
        phases(&mut c, &mut log, &mut problems);

        let mut other = plain(&inputs);
        let mut pc = Client::new(&mut other.session, None);
        if let Err(e) = verify_pass(&mut pc, &reads, exact) {
            problems.push(format!("parity warm-up: {e}"));
        }
        let (overhead_share, differ) = parity(&mut pc, &mut c, &[&reads], 1, exact);
        problems.extend(differ);
        drop(other);

        let pipe = fleet.session.client.transport().inner().transports()[0].inner();
        let parties_not_live = pipe
            .party_status()
            .iter()
            .filter(|p| p.health != PartyHealth::Live)
            .count();
        let server_end = fleet.session.counters().server;
        let spans = tracer.spans();
        crate::report::dump_spans(&span_dump_path(NAME, seed), &[("client", &spans)]);
        per_layer(&Layers {
            log: &log,
            read_spans: &spans,
            all_spans: &spans,
            encoded_rows: tracer.encoded_rows(),
            fleet_parties: PARTIES,
            server_totals: None,
            server_end,
            hedged_wins: fleet.session.client.transport_stats().hedged_wins,
            parties_not_live,
            stray_responses: 0,
            store: store(&fleet.hosts),
            host: &host,
            client_threads: 1,
            sockets: 0,
            overhead_share,
        })
    };
    summary(NAME, seed, &log, &host, 1, 0);
    finish(&log, metrics, &problems)
}
