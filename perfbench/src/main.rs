//! The repository benchmark: drives the secret-shared XML database through
//! its public API over three workloads and prints one JSON result line.
//! `BENCHMARK.json` lists `local-1ms` and `fleet-1ms`; `mux-rw` runs the
//! same way but is too noisy on a shared host to gate on.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload local-1ms|fleet-1ms|mux-rw --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` wraps the
//! program's transport seams and reports per-layer self times and counters
//! instead (see `BENCHMARK.json` for every metric and what it should move).

mod db;
mod fleet;
mod inputs;
mod local_1ms;
mod mux_rw;
mod report;
mod run;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        local_1ms::NAME => local_1ms::run(args.seed, args.seconds, args.trace),
        fleet::NAME => fleet::run(args.seed, args.seconds, args.trace),
        mux_rw::NAME => mux_rw::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other} (local-1ms, fleet-1ms, mux-rw)");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        outcome
            .metrics
            .result_line(outcome.correct, outcome.attempted, outcome.failed)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
