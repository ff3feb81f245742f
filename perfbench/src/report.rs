//! Turning a run into numbers: percentiles, host facts, per-op counter
//! deltas, span self times, and the result line.

use crate::trace::{Seam, Span};
use ssx_core::transport::TransportStats;
use ssx_core::{ClientStats, ServerStats};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Linear-interpolated percentile (`q` in 0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile `q` of latencies taken window by window: `values`, in the
/// order the ops finished, are cut into windows of `window` values (the
/// trailing partial window is left out), each window gets its own
/// percentile, and the result is the lower decile over the windows. The
/// speed of a shared host drifts over stretches of seconds with the load of
/// other tenants; the result then tracks the program in the run's faster
/// stretches, and moves only if nearly all of the run was slowed. A change
/// to the program moves every window. With less than one whole window, it
/// is the plain percentile of `values`.
pub fn windowed_percentile(values: &[f64], window: usize, q: f64) -> f64 {
    let per: Vec<f64> = values
        .chunks_exact(window.max(1))
        .map(|w| percentile(w, q))
        .collect();
    if per.is_empty() {
        percentile(values, q)
    } else {
        percentile(&per, 0.1)
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Host facts that explain a noisy number.
pub struct Host {
    pub nproc: usize,
    steal_start: Option<(u64, u64)>,
}

impl Host {
    pub fn start() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            steal_start: cpu_ticks(),
        }
    }

    /// Share of CPU ticks stolen by the hypervisor since [`Host::start`].
    pub fn steal_share(&self) -> f64 {
        match (self.steal_start, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// `(steal, total)` ticks of the aggregate CPU line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user/nice.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter snapshot around one op.
#[derive(Clone, Copy, Default)]
pub struct Snapshot {
    pub client: ClientStats,
    pub transport: TransportStats,
    pub server: ServerStats,
}

/// Exact per-op work, as deltas of the program's own counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub shares_regenerated: u64,
    pub client_evals: u64,
    pub server_evals: u64,
    pub equality_tests: u64,
    pub reconstructions: u64,
    pub polys_fetched: u64,
    pub waves: u64,
    pub dispatches: u64,
    pub spec_hits: u64,
    pub spec_wasted: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub server_requests: u64,
    pub server_evaluations: u64,
    pub server_polys: u64,
    pub server_cursor_items: u64,
    pub server_cache_hits: u64,
}

impl Counts {
    pub fn between(a: &Snapshot, b: &Snapshot) -> Counts {
        let (c0, c1) = (&a.client, &b.client);
        let (t0, t1) = (&a.transport, &b.transport);
        let (s0, s1) = (&a.server, &b.server);
        Counts {
            shares_regenerated: c1.shares_regenerated - c0.shares_regenerated,
            client_evals: c1.client_evals - c0.client_evals,
            server_evals: c1.server_evals - c0.server_evals,
            equality_tests: c1.equality_tests - c0.equality_tests,
            reconstructions: c1.reconstructions - c0.reconstructions,
            polys_fetched: c1.polys_fetched - c0.polys_fetched,
            waves: t1.round_trips - t0.round_trips,
            dispatches: t1.shard_dispatches - t0.shard_dispatches,
            spec_hits: t1.speculative_hits - t0.speculative_hits,
            // Not monotonic (a wasted prefetch can be consumed later).
            spec_wasted: t1.speculative_wasted.saturating_sub(t0.speculative_wasted),
            bytes_sent: t1.bytes_sent - t0.bytes_sent,
            bytes_received: t1.bytes_received - t0.bytes_received,
            server_requests: s1.requests - s0.requests,
            server_evaluations: s1.evaluations - s0.evaluations,
            server_polys: s1.polys_served - s0.polys_served,
            server_cursor_items: s1.cursor_items - s0.cursor_items,
            server_cache_hits: s1.eval_cache_hits - s0.eval_cache_hits,
        }
    }

    /// The fields the traced and untraced runs must agree on exactly:
    /// waves, bytes, and client/server evaluation counts.
    pub fn path_signature(&self) -> [u64; 6] {
        [
            self.waves,
            self.bytes_sent,
            self.bytes_received,
            self.client_evals,
            self.server_evals,
            self.server_evaluations,
        ]
    }

    pub fn add(&mut self, o: &Counts) {
        self.shares_regenerated += o.shares_regenerated;
        self.client_evals += o.client_evals;
        self.server_evals += o.server_evals;
        self.equality_tests += o.equality_tests;
        self.reconstructions += o.reconstructions;
        self.polys_fetched += o.polys_fetched;
        self.waves += o.waves;
        self.dispatches += o.dispatches;
        self.spec_hits += o.spec_hits;
        self.spec_wasted += o.spec_wasted;
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
        self.server_requests += o.server_requests;
        self.server_evaluations += o.server_evaluations;
        self.server_polys += o.server_polys;
        self.server_cursor_items += o.server_cursor_items;
        self.server_cache_hits += o.server_cache_hits;
    }
}

pub fn sum_server(stats: impl IntoIterator<Item = ServerStats>) -> ServerStats {
    let mut t = ServerStats::default();
    for s in stats {
        t.requests += s.requests;
        t.evaluations += s.evaluations;
        t.eval_cache_hits += s.eval_cache_hits;
        t.polys_served += s.polys_served;
        t.cursors_opened += s.cursors_opened;
        t.cursor_items += s.cursor_items;
        t.rows_inserted += s.rows_inserted;
        t.rows_removed += s.rows_removed;
    }
    t
}

/// Which layer a seam's self time belongs to. The client layer covers the
/// engine, the client filter and the client side of the aggregation plane;
/// the transport layer covers the protocol codec and, for in-process legs,
/// `ServerFilter::handle`.
fn layer_of(seam: Seam, fleet: bool) -> Layer {
    match seam {
        Seam::Op | Seam::Sink => Layer::Client,
        Seam::Encode => Layer::Encode,
        Seam::Router => Layer::Router,
        Seam::Shard if fleet => Layer::Fleet,
        Seam::Shard | Seam::Leg => Layer::Transport,
        Seam::Link => Layer::Chaos,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    Client,
    Encode,
    Router,
    Fleet,
    Chaos,
    Transport,
}

/// Self times summed over a set of ops, in nanoseconds.
#[derive(Default, Debug)]
pub struct LayerTimes {
    pub ops: u64,
    pub wall_ns: u64,
    pub residual_ns: u64,
    pub by_layer: HashMap<Layer, u64>,
    /// Fleet pipe calls (fleet waves) and fleet leg calls.
    pub fleet_waves: u64,
    pub leg_calls: u64,
}

impl LayerTimes {
    pub fn ms(&self, layer: Layer) -> f64 {
        self.by_layer.get(&layer).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// Merges intervals and returns their total length.
fn measure(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// `[start, end)` minus the union of `holes`.
fn subtract(start: u64, end: u64, mut holes: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    holes.sort_unstable();
    let mut out = Vec::new();
    let mut at = start;
    for (s, e) in holes {
        let (s, e) = (s.max(start), e.min(end));
        if e <= at {
            continue;
        }
        if s > at {
            out.push((at, s));
        }
        at = at.max(e);
    }
    if at < end {
        out.push((at, end));
    }
    out
}

/// Self times per layer over the ops in `ops`. A span's self time is its
/// interval minus the union of its children's; a layer's time in an op is
/// the union of its spans' self intervals, so concurrent fleet legs count
/// once as wall time. Whatever of an op's wall time no layer covers is the
/// residual.
pub fn layer_times(spans: &[Span], ops: &HashSet<u32>, fleet: bool) -> LayerTimes {
    let mut by_op: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| ops.contains(&s.op)) {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut out = LayerTimes::default();
    for spans in by_op.values() {
        let Some(op_span) = spans.iter().find(|s| s.seam == Seam::Op) else {
            continue;
        };
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut per_layer: HashMap<Layer, Vec<(u64, u64)>> = HashMap::new();
        let mut covered = Vec::new();
        for s in spans {
            let holes = children.get(&s.id).cloned().unwrap_or_default();
            let own = subtract(s.start, s.end, holes);
            covered.extend_from_slice(&own);
            per_layer
                .entry(layer_of(s.seam, fleet))
                .or_default()
                .extend(own);
            match s.seam {
                Seam::Shard if fleet => out.fleet_waves += 1,
                Seam::Link => out.leg_calls += 1,
                _ => {}
            }
        }
        for (layer, iv) in per_layer {
            *out.by_layer.entry(layer).or_default() += measure(iv);
        }
        let wall = op_span.end - op_span.start;
        let clipped: Vec<(u64, u64)> = covered
            .into_iter()
            .map(|(s, e)| (s.max(op_span.start), e.min(op_span.end)))
            .filter(|(s, e)| s < e)
            .collect();
        out.residual_ns += wall.saturating_sub(measure(clipped));
        out.wall_ns += wall;
        out.ops += 1;
    }
    out
}

/// Total duration of the encode spans, in nanoseconds.
pub fn encode_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.seam == Seam::Encode)
        .map(|s| s.end - s.start)
        .sum()
}

/// Writes the spans as JSON lines to `path` (best effort).
pub fn dump_spans(path: &std::path::Path, groups: &[(&str, &[Span])]) {
    let mut text = String::new();
    for (client, spans) in groups {
        for s in spans.iter() {
            let _ = writeln!(
                text,
                "{{\"client\":\"{client}\",\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.op,
                s.seam.name(),
                s.start,
                s.end
            );
        }
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, seam: Seam, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            seam,
            start,
            end,
        }
    }

    #[test]
    fn intervals_merge_and_subtract() {
        assert_eq!(measure(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(
            subtract(0, 100, vec![(10, 20), (15, 30), (90, 120)]),
            vec![(0, 10), (30, 90)]
        );
        assert_eq!(subtract(0, 10, vec![]), vec![(0, 10)]);
    }

    #[test]
    fn windowed_percentile_takes_the_lower_decile_of_windows() {
        // Six windows of two; their medians are 1.5, 10.5, 3.5, 5.5, 2.5
        // and 7.5, whose lower decile is 2.0.
        let v = [
            1.0, 2.0, 10.0, 11.0, 3.0, 4.0, 5.0, 6.0, 2.0, 3.0, 7.0, 8.0, 99.0,
        ];
        assert_eq!(windowed_percentile(&v, 2, 0.5), 2.0);
        assert_eq!(windowed_percentile(&v[..1], 2, 0.5), 1.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    /// An op over a fleet pipe whose two concurrent legs overlap: each layer
    /// gets its self time once, as wall time, and nothing is left over. One
    /// leg still on the link while the other is in its party makes the
    /// layer times add up to more than the wall time (105 of 100 here).
    #[test]
    fn concurrent_legs_count_once_and_layers_cover_the_op() {
        let spans = [
            span(1, 0, Seam::Op, 0, 100),
            span(2, 1, Seam::Router, 10, 90),
            span(3, 2, Seam::Shard, 20, 80),
            span(4, 3, Seam::Link, 25, 70),
            span(5, 3, Seam::Link, 30, 75),
            span(6, 4, Seam::Leg, 50, 70),
            span(7, 5, Seam::Leg, 55, 75),
        ];
        let t = layer_times(&spans, &HashSet::from([1]), true);
        assert_eq!(t.by_layer[&Layer::Client], 20);
        assert_eq!(t.by_layer[&Layer::Router], 20);
        assert_eq!(t.by_layer[&Layer::Fleet], 10);
        assert_eq!(t.by_layer[&Layer::Chaos], 30);
        assert_eq!(t.by_layer[&Layer::Transport], 25);
        assert_eq!((t.fleet_waves, t.leg_calls), (1, 2));
        assert_eq!((t.wall_ns, t.residual_ns), (100, 0));
    }
}
