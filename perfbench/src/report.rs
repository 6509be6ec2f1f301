//! What a run produced, and how it is printed: a few human-readable
//! lines with the run's provenance, then one JSON object as the last
//! line of standard output.

use crate::host::{HostSpeed, Timed};
use crate::stats::{chunk_rates, median, peak_rss_mb, windowed_quantile};
use sct_bench::manifest::RunManifest;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("correct_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in the order they are printed. Times named
/// `*_ns` without a percentile are nanoseconds per call for the layer
/// probe (`machine`, `state`, `strategy`) and nanoseconds per verdict for
/// the calls a verdict makes into `asm`, `incremental` and `cache`.
/// Counts are totals over one counted pass of the workload.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("machine.step_ns", "ns"),
    ("state.fingerprint_ns", "ns"),
    ("state.clone_ns", "ns"),
    ("strategy.push_pop_ns", "ns"),
    ("explorer.states", "count"),
    ("explorer.steps", "count"),
    ("explorer.deduped", "count"),
    ("explorer.dedup_ratio", "ratio"),
    ("explorer.states_per_s", "1/s"),
    ("explorer.state_expand_p50_ns", "ns"),
    ("explorer.frontier_peak", "count"),
    ("symx.arena_nodes", "count"),
    ("solver.queries", "count"),
    ("solver.memo_hits", "count"),
    ("solver.memo_misses", "count"),
    ("solver.memo_hit_ratio", "ratio"),
    ("solver.check_hit_p50_ns", "ns"),
    ("solver.check_miss_p50_ns", "ns"),
    ("solver.check_miss_total_ns", "ns"),
    ("asm.assemble_ns", "ns"),
    ("asm.bytes_per_s", "B/s"),
    ("incremental.plan_ns", "ns"),
    ("incremental.manifest_ns", "ns"),
    ("incremental.reused", "count"),
    ("incremental.reanalyzed", "count"),
    ("incremental.skip_ratio", "ratio"),
    ("cache.load_ns", "ns"),
    ("cache.save_ns", "ns"),
    ("cache.snapshot_bytes", "B"),
    ("cache.nodes_loaded", "count"),
    ("service.queue_wait_p50_ns", "ns"),
    ("service.job_run_p50_ns", "ns"),
    ("protocol.roundtrip_p50_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Verdicts attempted.
    pub attempted: usize,
    /// Verdicts that were wrong, unknown, or errored.
    pub failed: usize,
    /// Timed verdicts behind the latency percentiles.
    pub samples: usize,
    /// Verdicts per window of the latency percentiles.
    pub window: usize,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Self-checks of the benchmark's own code that did not hold.
    pub broken_checks: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The end-to-end times as measured, before host-speed
    /// normalization, for the log.
    pub measured: BTreeMap<&'static str, f64>,
    /// Measured set-up times in seconds, for the log.
    pub setups: Vec<f64>,
    /// Host-speed kernel samples, and their median time in ns.
    pub speed_samples: usize,
    pub speed_median_ns: f64,
    /// Free-form description of the input size, for the log.
    pub size: String,
}

impl Outcome {
    /// Count one checked verdict.
    pub fn verdict(&mut self, check: Result<(), String>, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(format!("{}: {e}", what()));
            }
        }
    }

    /// Record a self-check of the benchmark; `false` marks the run
    /// incorrect.
    pub fn self_check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.broken_checks.push(what());
        }
    }

    /// Set a metric by name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Fill the end-to-end metrics from set-up times and verdict
    /// latencies in measurement order, each with the moment it ended.
    /// Times are normalized to the reference host speed by `speed`; the
    /// measured figures go to the log. Throughput is the median rate over
    /// chunks of `chunk` verdicts; each latency percentile is the median
    /// over windows of `window` verdicts (at least 100, so a window's p90
    /// has ten samples beyond it).
    pub fn end_to_end(
        &mut self,
        speed: &HostSpeed,
        setups: &[Timed],
        latencies: &[Timed],
        chunk: usize,
        window: usize,
    ) {
        debug_assert!(window >= 100);
        self.samples = latencies.len();
        self.window = window;
        self.speed_samples = speed.len();
        self.speed_median_ns = speed.median_kernel_ns();
        self.setups = setups.iter().map(|(_, d)| d.as_secs_f64()).collect();
        let normalized = |t: &[Timed]| -> Vec<Duration> {
            t.iter().map(|&(at, d)| speed.normalize(d, at)).collect()
        };
        let measured = |t: &[Timed]| -> Vec<Duration> { t.iter().map(|&(_, d)| d).collect() };
        for (figures, into_metrics) in [
            ([normalized(setups), normalized(latencies)], true),
            ([measured(setups), measured(latencies)], false),
        ] {
            let [setups, latencies] = figures;
            let secs: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
            let ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
            let values = [
                ("setup_s", median(&secs)),
                ("verdicts_per_s", median(&chunk_rates(&latencies, chunk))),
                ("verdict_p50_ms", windowed_quantile(&ms, window, 0.5)),
                ("verdict_p90_ms", windowed_quantile(&ms, window, 0.9)),
            ];
            for (name, value) in values {
                if into_metrics {
                    self.set(name, value);
                } else {
                    self.measured.insert(name, value);
                }
            }
        }
        let ok = self.attempted - self.failed;
        self.set("correct_frac", ok as f64 / self.attempted.max(1) as f64);
        self.set("peak_rss_mb", peak_rss_mb());
    }
}

/// Render a metric value as a JSON number (all digits as measured).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Print the run: provenance and a summary, then the JSON result line.
pub fn print(workload: &str, seed: u64, seconds: f64, trace: bool, outcome: &Outcome) {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let config = format!(
        "perfbench workload={workload} seconds={seconds} trace={}",
        u8::from(trace)
    );
    let manifest = RunManifest::capture(&format!("{config} inputs={}", outcome.size), seed, &[1]);
    let fields: Vec<String> = manifest
        .json_fields("")
        .lines()
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    println!("# {config} seed={seed} inputs: {}", outcome.size);
    println!("# manifest {{{}}}", fields.join(", "));
    println!(
        "# verdicts: {} attempted, {} failed; latency percentiles from {} timed samples in windows of {}",
        outcome.attempted, outcome.failed, outcome.samples, outcome.window
    );
    if outcome.speed_samples > 0 {
        println!(
            "# host speed: {} kernel samples, median {:.0} ns against {:.0} ns at the reference speed; times below are normalized to it",
            outcome.speed_samples,
            outcome.speed_median_ns,
            crate::host::REFERENCE_NS
        );
        println!("# measured set-ups: {:?} s", outcome.setups);
        for (name, value) in &outcome.measured {
            println!("# measured {name} = {value}");
        }
    }
    for f in &outcome.failures {
        println!("# FAILED {f}");
    }
    for c in &outcome.broken_checks {
        println!("# SELF-CHECK FAILED {c}");
    }
    let mut broken = outcome.broken_checks.len();
    let mut json = String::new();
    for (name, unit) in list {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            println!("# SELF-CHECK FAILED metric {name} was not measured");
            broken += 1;
        }
        println!("# {name} = {value} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    let correct = outcome.failed == 0 && broken == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
}
