//! Bench: worklist-engine throughput (states/sec) and explored-state
//! counts on fig1 and the whole litmus corpus at the paper's bounds
//! {20, 50, 250}, with deduplication on and off.
//!
//! Besides the criterion timings (`BENCH_explorer_throughput.json`),
//! this bench writes `BENCH_explorer_dedup.json` recording the state
//! counts both ways, quantifying exactly how much the fingerprint
//! visited-set prunes, and the dedup on/off wall-time ratio the CI
//! metrics-smoke job gates below 1.0 (dedup must pay for itself), and
//! `BENCH_telemetry_overhead.json` — an A/B of
//! the same serial corpus pass with the `sct-telemetry` registry
//! disabled and enabled, gating the instrumentation's overhead (the
//! CI metrics-smoke job asserts it stays under 3%).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pitchfork::{AnalysisSession, DetectorOptions, Report};
use sct_core::examples::fig1;
use sct_litmus::{all_cases, harness};
use std::fmt::Write as _;
use std::hint::black_box;

const BOUNDS: [usize; 3] = [20, 50, 250];

fn options(bound: usize, v4: bool, dedup: bool) -> DetectorOptions {
    let mut o = if v4 {
        DetectorOptions::v4_mode(bound)
    } else {
        DetectorOptions::v1_mode(bound)
    }
    .dedup(dedup);
    o.explorer.max_states = 200_000;
    o
}

/// Pre-parsed corpus items, so timed iterations measure exploration
/// only (cloning items is cheap; parsing `.sasm` fixtures is not).
fn corpus_items(bound: usize) -> Vec<pitchfork::BatchItem> {
    let cases = all_cases();
    let mut items = harness::batch_items(&cases);
    // One corpus-wide bound so the sweep actually exercises it.
    for item in &mut items {
        item.bound = Some(bound);
    }
    items
}

fn corpus_pass(items: &[pitchfork::BatchItem], bound: usize, v4: bool, dedup: bool) -> pitchfork::BatchReport {
    AnalysisSession::with_options(options(bound, v4, dedup)).run_batch(items.to_vec())
}

fn fig1_pass(bound: usize, v4: bool, dedup: bool) -> Report {
    let (p, cfg) = fig1();
    AnalysisSession::with_options(options(bound, v4, dedup)).analyze(&p, &cfg)
}

fn bench_explorer_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("explorer_throughput");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    for bound in BOUNDS {
        let items = corpus_items(bound);
        group.throughput(Throughput::Elements(fig1_pass(bound, false, true).stats.states as u64));
        group.bench_with_input(BenchmarkId::new("fig1_v1_dedup", bound), &bound, |b, &n| {
            b.iter(|| black_box(fig1_pass(n, false, true).stats.states))
        });

        // Throughput is set per benchmark from that configuration's own
        // state count (the group value applies to subsequent benches).
        group.throughput(Throughput::Elements(
            corpus_pass(&items, bound, false, true).totals.states as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("corpus_v1_dedup", bound),
            &bound,
            |b, &n| b.iter(|| black_box(corpus_pass(&items, n, false, true).totals.states)),
        );
        group.throughput(Throughput::Elements(
            corpus_pass(&items, bound, false, false).totals.states as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("corpus_v1_nodedup", bound),
            &bound,
            |b, &n| b.iter(|| black_box(corpus_pass(&items, n, false, false).totals.states)),
        );
    }
    // The v4 cliff, at the paper's v4 bound.
    let items = corpus_items(20);
    group.throughput(Throughput::Elements(
        corpus_pass(&items, 20, true, true).totals.states as u64,
    ));
    group.bench_with_input(BenchmarkId::new("corpus_v4_dedup", 20), &20, |b, &n| {
        b.iter(|| black_box(corpus_pass(&items, n, true, true).totals.states))
    });
    group.throughput(Throughput::Elements(
        corpus_pass(&items, 20, true, false).totals.states as u64,
    ));
    group.bench_with_input(BenchmarkId::new("corpus_v4_nodedup", 20), &20, |b, &n| {
        b.iter(|| black_box(corpus_pass(&items, n, true, false).totals.states))
    });
    group.finish();

    write_dedup_counts();
    write_telemetry_overhead();
}

/// One representative run per configuration, recording explored-state
/// counts with dedup on/off (the numbers the timings are explained by),
/// headed by the host-independent gate: the best-of-`REPS` wall time of
/// the `corpus_v1` pass at bound 20 with dedup on, over the same with
/// dedup off. Dedup pays when the ratio is below 1.0; the CI
/// metrics-smoke job fails otherwise.
fn write_dedup_counts() {
    const BOUND: usize = 20;
    // Each pass takes about half a millisecond: many cheap reps keep the
    // best-of estimate clear of the host's speed swings.
    const REPS: usize = 21;
    let items = corpus_items(BOUND);
    // One warm-up pass per arm so neither pays first-touch allocation;
    // then the arms alternate so host drift hits both alike.
    corpus_pass(&items, BOUND, false, true);
    corpus_pass(&items, BOUND, false, false);
    let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        for (dedup, best) in [(true, &mut best_on), (false, &mut best_off)] {
            let start = std::time::Instant::now();
            black_box(corpus_pass(&items, BOUND, false, dedup).totals.states);
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let ratio = best_on / best_off;
    let manifest = sct_bench::manifest::RunManifest::capture(
        &format!("explorer_dedup corpus_v1 bound={BOUND} reps={REPS} bounds={BOUNDS:?}"),
        0,
        &[1],
    );
    let mut json = String::from("{\n");
    json.push_str(&manifest.json_fields("  "));
    let _ = writeln!(
        json,
        "  \"wall_time\": {{\"workload\": \"corpus_v1\", \"bound\": {BOUND}, \"reps\": {REPS}, \
         \"best_dedup_s\": {best_on:.6}, \"best_nodedup_s\": {best_off:.6}, \
         \"ratio\": {ratio:.3}, \"ratio_base\": \"nodedup\", \"dedup_pays\": {}}},",
        ratio < 1.0
    );
    json.push_str("  \"workloads\": [\n");
    let mut first = true;
    let mut emit = |name: &str, bound: usize, on: (usize, usize, bool), off: (usize, bool)| {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            json,
            "{sep}    {{\"workload\": \"{name}\", \"bound\": {bound}, \
             \"states_dedup\": {}, \"pruned\": {}, \"truncated_dedup\": {}, \
             \"states_nodedup\": {}, \"truncated_nodedup\": {}}}",
            on.0, on.1, on.2, off.0, off.1
        );
    };
    for bound in BOUNDS {
        let items = corpus_items(bound);
        for v4 in [false, true] {
            let name = if v4 { "corpus_v4" } else { "corpus_v1" };
            let on = corpus_pass(&items, bound, v4, true);
            let off = corpus_pass(&items, bound, v4, false);
            emit(
                name,
                bound,
                (on.totals.states, on.totals.deduped, on.totals.truncated > 0),
                (off.totals.states, off.totals.truncated > 0),
            );
            let fig_on = fig1_pass(bound, v4, true);
            let fig_off = fig1_pass(bound, v4, false);
            emit(
                if v4 { "fig1_v4" } else { "fig1_v1" },
                bound,
                (
                    fig_on.stats.states,
                    fig_on.stats.deduped,
                    fig_on.stats.truncated,
                ),
                (fig_off.stats.states, fig_off.stats.truncated),
            );
        }
    }
    json.push_str("\n  ]\n}\n");
    let dir = criterion::Criterion::output_dir();
    let path = dir.join("BENCH_explorer_dedup.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
    let _ = manifest.append_audit(&dir, "BENCH_explorer_dedup.json");
    println!(
        "dedup wall-time ratio (on/off, corpus_v1 bound {BOUND}): {ratio:.3} \
         ({:.3} ms / {:.3} ms)",
        best_on * 1e3,
        best_off * 1e3
    );
}

/// A/B overhead gate for the telemetry instrumentation: the same
/// serial corpus pass (bound 20, dedup on) with the registry disabled
/// and enabled. Rates use the *minimum* pass time per arm — the
/// noise-robust estimator — so the <3% gate holds on shared runners.
fn write_telemetry_overhead() {
    const BOUND: usize = 20;
    const REPS: usize = 5;
    let items = corpus_items(BOUND);
    // One warm-up pass so neither arm pays first-touch allocation.
    corpus_pass(&items, BOUND, false, true);

    let time_arm = |enabled: bool| -> (usize, f64) {
        sct_telemetry::set_enabled(enabled);
        let mut states = 0usize;
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let start = std::time::Instant::now();
            states = corpus_pass(&items, BOUND, false, true).totals.states;
            best = best.min(start.elapsed().as_secs_f64());
        }
        (states, states as f64 / best)
    };
    let (states, rate_off) = time_arm(false);
    let (_, rate_on) = time_arm(true);
    sct_telemetry::set_enabled(true);
    let overhead_pct = (rate_off / rate_on - 1.0) * 100.0;

    // The instrumented arm's own histograms, as the registry saw them.
    let hist = |name: &str| -> (u64, u64, u64) {
        sct_telemetry::global()
            .snapshot()
            .into_iter()
            .find(|m| m.name == name)
            .map(|m| (m.value, m.percentile_ns(0.50), m.percentile_ns(0.99)))
            .unwrap_or((0, 0, 0))
    };
    let (hit_n, hit_p50, hit_p99) = hist(sct_telemetry::names::SOLVER_CHECK_HIT);
    let (miss_n, miss_p50, miss_p99) = hist(sct_telemetry::names::SOLVER_CHECK_MISS);
    let (exp_n, exp_p50, exp_p99) = hist(sct_telemetry::names::STATE_EXPAND);

    let manifest = sct_bench::manifest::RunManifest::capture(
        &format!("telemetry_overhead corpus_v1_dedup bound={BOUND} reps={REPS}"),
        0,
        &[1],
    );
    let mut json = String::from("{\n");
    json.push_str(&manifest.json_fields("  "));
    let _ = write!(
        json,
        "  \"workload\": \"corpus_v1_dedup\",\n  \"bound\": {BOUND},\n  \"reps\": {REPS},\n  \
         \"states\": {states},\n  \"rate_off\": {rate_off:.1},\n  \"rate_on\": {rate_on:.1},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \"within_3pct\": {},\n  \
         \"solver_check_hit\": {{\"count\": {hit_n}, \"p50_ns\": {hit_p50}, \"p99_ns\": {hit_p99}}},\n  \
         \"solver_check_miss\": {{\"count\": {miss_n}, \"p50_ns\": {miss_p50}, \"p99_ns\": {miss_p99}}},\n  \
         \"state_expand\": {{\"count\": {exp_n}, \"p50_ns\": {exp_p50}, \"p99_ns\": {exp_p99}}}\n}}\n",
        overhead_pct < 3.0
    );
    let dir = criterion::Criterion::output_dir();
    let path = dir.join("BENCH_telemetry_overhead.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
    let _ = manifest.append_audit(&dir, "BENCH_telemetry_overhead.json");
    println!(
        "telemetry overhead: {overhead_pct:.2}% (off {rate_off:.0} states/s, on {rate_on:.0} states/s)"
    );
}

criterion_group!(benches, bench_explorer_throughput);
criterion_main!(benches);
