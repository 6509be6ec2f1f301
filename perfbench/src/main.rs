//! The Pitchfork benchmark: time to verdict on four seeded workloads,
//! and a traced run that splits the time by layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from the seed, sets up several times
//! (the median is `setup_s`), then measures verdicts for `S` seconds and
//! checks every verdict against [`oracle`]. With `--trace 0` the last
//! line of standard output is a JSON object with the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics instead. Earlier
//! lines describe the run and its provenance.

mod ci_gate;
mod corpus;
mod daemon;
mod explore;
mod host;
mod inputs;
mod oracle;
mod probe;
mod report;
mod stats;

use report::Outcome;
use std::process::ExitCode;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 4] = [
    "explore_concrete",
    "explore_symbolic",
    "ci_gate",
    "daemon_submit",
];

/// Parsed command line.
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
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // The arena and the solver memo are process-wide: start every run
    // from an empty epoch so nothing carries over between workloads.
    sct_symx::retire_arena();
    let outcome: Outcome = match args.workload.as_str() {
        "explore_concrete" => explore::run(&explore::CONCRETE, args.seed, args.seconds, args.trace),
        "explore_symbolic" => explore::run(&explore::SYMBOLIC, args.seed, args.seconds, args.trace),
        "ci_gate" => ci_gate::run(args.seed, args.seconds, args.trace),
        "daemon_submit" => daemon::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    report::print(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &outcome,
    );
    ExitCode::SUCCESS
}
