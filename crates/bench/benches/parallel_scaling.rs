//! Bench: parallel-frontier scaling — corpus throughput (states/sec)
//! at 1/2/4/8 worker threads, cold (arena + memo retired before each
//! pass) and memo-warm, on the corpus_v4 workload the explorer
//! throughput bench established as the dedup stress case.
//!
//! Emits `BENCH_parallel_scaling.json` with the measured rates, the
//! host's CPU count (scaling above 1× requires real cores — a
//! single-core container measures lock overhead, not speedup), the
//! derived parallel-vs-serial ratios, per-configuration worker
//! utilization (busy/steal/parked nanoseconds from one extra
//! telemetry-instrumented pass, kept outside the timed reps so the
//! clock reads never skew the medians), and a provenance manifest
//! ([`sct_bench::manifest::RunManifest`]: git commit, config hash,
//! seed, host CPUs, thread counts); every run also appends a line to
//! `audit.jsonl` next to the artifact. On a host with fewer than 4
//! CPUs the 4-thread ratio is labeled `oversubscription`, never
//! `speedup` — 4 workers share fewer cores, so the ratio measures
//! scheduling overhead, not parallel scaling. Timing is
//! hand-rolled rather than criterion-driven because the cold
//! configuration must retire the process-wide arena *between* (not
//! inside) timed passes.

use pitchfork::{AnalysisSession, BatchItem, DetectorOptions};
use sct_bench::manifest::RunManifest;
use sct_litmus::{all_cases, harness};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const BOUND: usize = 20;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const COLD_REPS: usize = 7;
const WARM_REPS: usize = 21;

fn corpus_items() -> Vec<BatchItem> {
    let cases = all_cases();
    let mut items = harness::batch_items(&cases);
    for item in &mut items {
        item.bound = Some(BOUND);
    }
    items
}

fn options(threads: usize) -> DetectorOptions {
    let mut o = DetectorOptions::v4_mode(BOUND);
    o.explorer.threads = threads;
    o.explorer.max_states = 200_000;
    o
}

/// One timed corpus pass; returns (wall, states expanded).
fn pass(items: &[BatchItem], threads: usize) -> (Duration, usize) {
    let mut session = AnalysisSession::with_options(options(threads));
    let start = Instant::now();
    let report = session.run_batch(items.to_vec());
    (start.elapsed(), report.totals.states)
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

struct Sample {
    name: String,
    threads: usize,
    mode: &'static str,
    states: usize,
    median_ns: u128,
    per_second: f64,
    busy_ns: u64,
    steal_ns: u64,
    parked_ns: u64,
}

impl Sample {
    /// Fraction of worker wall time spent expanding states (vs
    /// hunting for work or parked). `0.0` when no worker counters
    /// moved — the 1-thread configurations run the serial engine.
    fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.steal_ns + self.parked_ns;
        if total == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / total as f64
    }
}

/// Cumulative (busy, steal, parked) nanoseconds summed across all
/// worker slots in the process-wide registry.
fn worker_totals() -> (u64, u64, u64) {
    let (mut busy, mut steal, mut parked) = (0u64, 0u64, 0u64);
    for m in sct_telemetry::global().snapshot() {
        if let Some(rest) = m.name.strip_prefix("worker_") {
            match rest.split('{').next() {
                Some("busy_ns") => busy += m.value,
                Some("steal_ns") => steal += m.value,
                Some("parked_ns") => parked += m.value,
                _ => {}
            }
        }
    }
    (busy, steal, parked)
}

fn measure(items: &[BatchItem], threads: usize, cold: bool) -> Sample {
    let reps = if cold { COLD_REPS } else { WARM_REPS };
    let mut walls = Vec::with_capacity(reps);
    let mut states = 0usize;
    if cold {
        for _ in 0..reps {
            // A fresh epoch before (outside) each timed pass: the pass
            // pays all interning and all solver misses.
            sct_symx::retire_arena();
            let (wall, s) = pass(items, threads);
            walls.push(wall);
            states = s;
        }
    } else {
        // Warm the process-wide memo once from a fresh epoch, then
        // time passes that answer almost everything from caches.
        sct_symx::retire_arena();
        let (_, _) = pass(items, threads);
        for _ in 0..reps {
            let (wall, s) = pass(items, threads);
            walls.push(wall);
            states = s;
        }
    }
    // One extra instrumented pass per configuration: telemetry on,
    // counter deltas captured, telemetry restored. Run after (never
    // between) the timed reps so per-state clock reads cannot leak
    // into the medians.
    if cold {
        sct_symx::retire_arena();
    }
    let was = sct_telemetry::set_enabled(true);
    let before = worker_totals();
    let _ = pass(items, threads);
    let after = worker_totals();
    sct_telemetry::set_enabled(was);
    let med = median(walls);
    let per_second = states as f64 / med.as_secs_f64();
    let mode = if cold { "cold" } else { "warm" };
    Sample {
        name: format!("corpus_v4_{mode}/threads={threads}"),
        threads,
        mode,
        states,
        median_ns: med.as_nanos(),
        per_second,
        busy_ns: after.0 - before.0,
        steal_ns: after.1 - before.1,
        parked_ns: after.2 - before.2,
    }
}

fn main() {
    // `cargo bench` passes harness flags; a plain main ignores them.
    let items = corpus_items();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut samples = Vec::new();
    for cold in [true, false] {
        for threads in THREAD_COUNTS {
            let s = measure(&items, threads, cold);
            println!(
                "{:<34} {:>9.0} states/s  (median {:>10} ns over {} states, \
                 utilization {:.2})",
                s.name,
                s.per_second,
                s.median_ns,
                s.states,
                s.utilization()
            );
            samples.push(s);
        }
    }

    let rate = |mode: &str, threads: usize| {
        samples
            .iter()
            .find(|s| s.mode == mode && s.threads == threads)
            .map(|s| s.per_second)
            .unwrap_or(f64::NAN)
    };
    let ratio_cold_4t = rate("cold", 4) / rate("cold", 1);
    let ratio_warm_4t = rate("warm", 4) / rate("warm", 1);
    // A "speedup" headline requires a real core per thread compared.
    // With fewer than 4 CPUs the 4-thread passes time-slice the cores
    // they have, so the ratio measures oversubscription overhead —
    // refusing the label keeps a small CI container from publishing a
    // bogus scaling claim (or a bogus regression).
    let ratio_kind = if host_cpus >= 4 {
        "speedup"
    } else {
        "oversubscription"
    };
    println!(
        "host cpus: {host_cpus}; 4-thread {ratio_kind}: cold {ratio_cold_4t:.2}x, warm {ratio_warm_4t:.2}x"
    );
    if host_cpus < 4 {
        println!(
            "note: {host_cpus} CPU(s) for 4 workers — this ratio is oversubscription \
             overhead, not a speedup; the ≥2x-at-4-threads target needs ≥4 real cores"
        );
    }

    let manifest = RunManifest::capture(
        &format!(
            "workload=corpus_v4 bound={BOUND} max_states=200000 \
             cold_reps={COLD_REPS} warm_reps={WARM_REPS} threads={THREAD_COUNTS:?}"
        ),
        0,
        &THREAD_COUNTS,
    );
    let mut json = String::from("{\n  \"group\": \"parallel_scaling\",\n");
    json.push_str(&manifest.json_fields("  "));
    let _ = writeln!(json, "  \"workload\": \"corpus_v4\",");
    let _ = writeln!(json, "  \"bound\": {BOUND},");
    let _ = writeln!(
        json,
        "  \"cold_reps\": {COLD_REPS},\n  \"warm_reps\": {WARM_REPS},"
    );
    let _ = writeln!(json, "  \"ratio_kind\": \"{ratio_kind}\",");
    let _ = writeln!(json, "  \"ratio_cold_4t\": {ratio_cold_4t:.3},");
    let _ = writeln!(json, "  \"ratio_warm_4t\": {ratio_warm_4t:.3},");
    json.push_str("  \"benchmarks\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"threads\": {}, \"mode\": \"{}\", \"states\": {}, \
             \"median_ns\": {}, \"per_second\": {:.1}, \"busy_ns\": {}, \"steal_ns\": {}, \
             \"parked_ns\": {}, \"utilization\": {:.3}}}{}",
            s.name,
            s.threads,
            s.mode,
            s.states,
            s.median_ns,
            s.per_second,
            s.busy_ns,
            s.steal_ns,
            s.parked_ns,
            s.utilization(),
            sep
        );
    }
    json.push_str("  ]\n}\n");
    let dir = criterion::Criterion::output_dir();
    let path = dir.join("BENCH_parallel_scaling.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    match manifest.append_audit(&dir, "BENCH_parallel_scaling.json") {
        Ok(()) => println!("appended {}", dir.join("audit.jsonl").display()),
        Err(e) => eprintln!("could not append audit.jsonl: {e}"),
    }
}
