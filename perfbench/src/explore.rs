//! `explore_concrete` and `explore_symbolic`: seeded `proggen` programs
//! analyzed one after another in one session, the way `pitchfork FILE…`
//! runs a list of files. A pass is one such invocation over the next
//! `pass_len` programs of the pool; every pass starts from an empty arena
//! and memo, as a fresh process would.
//!
//! Per-program cost is heavy-tailed (a few programs take hundreds of
//! times the median), so a run works through a large pool of distinct
//! programs rather than repeating a small set: the percentiles and the
//! throughput then depend on the generator's distribution, not on which
//! few slow programs a seed happened to draw.

use crate::host::HostSpeed;
use crate::inputs::{self, SourceFile};
use crate::oracle;
use crate::probe;
use crate::report::Outcome;
use crate::stats::{hist, hist_delta, hist_quantile_ns, median};
use pitchfork::{AnalysisSession, DetectorOptions, ExploreStats, Report, Verdict};
use sct_core::{Config, Program, Reg};
use sct_telemetry::names;
use std::time::{Duration, Instant};

/// One explore workload's shape.
pub struct Spec {
    /// Random-stream id for the generator.
    pub stream: u64,
    /// Distinct programs in the pool.
    pub programs: usize,
    /// Programs per pass (one session).
    pub pass_len: usize,
    /// Instructions per program.
    pub len: usize,
    /// v4 mode (forwarding hazards) when set, v1 mode otherwise.
    pub v4: bool,
    /// Speculation bound.
    pub bound: usize,
    /// Registers symbolized (`r0`, `r1`, …).
    pub symbolic: u16,
    /// Verdicts per throughput chunk.
    pub chunk: usize,
    /// Verdicts per latency-percentile window.
    pub window: usize,
    /// Programs in the traced run's counted pass (the first ones).
    pub traced: usize,
}

/// Concrete inputs in v4 mode: the solver is idle and time per state
/// (step, fingerprint, clone, frontier) is nearly all the work.
pub const CONCRETE: Spec = Spec {
    stream: 1,
    programs: 8000,
    pass_len: 500,
    len: 16,
    v4: true,
    bound: 20,
    symbolic: 0,
    chunk: 50,
    window: 500,
    traced: 400,
};

/// Two symbolized registers in v1 mode: solver misses dominate.
///
/// Programs are shorter than the concrete ones: at len 8 a seed could
/// draw a program that takes 20 s, a run's whole budget. The cost is
/// still heavy-tailed, so that a chunk of 50 verdicts often holds one
/// slow program and the median chunk rate would jump between chunks
/// with and without one from seed to seed; chunks of 10 rarely hold one.
/// The p90 sits where the distribution thins out, so each window holds
/// 1000 verdicts.
pub const SYMBOLIC: Spec = Spec {
    stream: 2,
    programs: 20000,
    pass_len: 500,
    len: 6,
    v4: false,
    bound: 20,
    symbolic: 2,
    chunk: 10,
    window: 1000,
    traced: 600,
};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Least time between host-speed samples.
const SPEED_EVERY: Duration = Duration::from_millis(10);

impl Spec {
    fn options(&self) -> DetectorOptions {
        if self.v4 {
            DetectorOptions::v4_mode(self.bound)
        } else {
            DetectorOptions::v1_mode(self.bound)
        }
    }

    fn regs(&self) -> Vec<Reg> {
        (0..self.symbolic).map(Reg::gpr).collect()
    }

    fn describe(&self) -> String {
        format!(
            "{} proggen programs, {} per pass, len {}, {} mode, bound {}, {} symbolized registers",
            self.programs,
            self.pass_len,
            self.len,
            if self.v4 { "v4" } else { "v1" },
            self.bound,
            self.symbolic
        )
    }
}

/// A generated program, as the analysis sees it (assembled from its
/// rendered source).
type Input = (String, Program, Config);

/// Generate, render and assemble the pool; returns it with the hash of
/// its sources.
fn setup(spec: &Spec, seed: u64) -> (Vec<Input>, u64) {
    let files: Vec<SourceFile> = inputs::proggen(seed, spec.stream, spec.programs, spec.len)
        .iter()
        .enumerate()
        .map(|(i, (p, c))| SourceFile {
            name: format!("prog_{i:05}.sasm"),
            source: inputs::render(p, c),
        })
        .collect();
    let hash = inputs::hash_sources(&files);
    let programs = files
        .iter()
        .map(|f| {
            let asm = inputs::assemble(f);
            (f.name.clone(), asm.program, asm.config)
        })
        .collect();
    (programs, hash)
}

/// Analyze `programs` in order in one fresh session, timing each
/// verdict, until done or past `deadline`. `visit` sees each report (by
/// index into `programs`) after its clock has stopped. Returns the wall
/// time of the verdicts.
fn pass(
    spec: &Spec,
    programs: &[Input],
    deadline: Option<Instant>,
    mut visit: impl FnMut(usize, &Report, Duration),
) -> Duration {
    sct_symx::retire_arena();
    let mut session = AnalysisSession::builder()
        .options(spec.options())
        .symbolize(spec.regs())
        .build()
        .expect("a session without a cache always builds");
    let mut wall = Duration::ZERO;
    for (i, (_, program, config)) in programs.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let start = Instant::now();
        let report = session.analyze(program, config);
        let latency = start.elapsed();
        wall += latency;
        visit(i, &report, latency);
    }
    wall
}

fn check(spec: &Spec, program: &Program, config: &Config, report: &Report) -> Result<(), String> {
    if spec.symbolic == 0 {
        oracle::check_concrete(program, config, report)
    } else {
        oracle::check_symbolic(report)
    }
}

/// Check one verdict against the oracle, and against the verdict and
/// state count an earlier pass had for the same program.
fn check_one(
    spec: &Spec,
    input: &Input,
    report: &Report,
    seen: &mut Option<(Verdict, usize)>,
) -> Result<(), String> {
    check(spec, &input.1, &input.2, report)?;
    let summary = (report.verdict(), report.stats.states);
    match seen {
        Some(earlier) if *earlier != summary => Err(format!(
            "pass disagrees with an earlier one: {summary:?} vs {earlier:?}"
        )),
        Some(_) => Ok(()),
        None => {
            *seen = Some(summary);
            Ok(())
        }
    }
}

/// The oracle must reject planted wrong verdicts for this program: an
/// unknown verdict, and, on concrete inputs, this insecure report with
/// its witness schedules emptied.
fn rejects_planted(spec: &Spec, input: &Input, insecure: &Report) -> bool {
    let mut wrong = vec![Report {
        violations: Vec::new(),
        stats: ExploreStats {
            truncated: true,
            ..Default::default()
        },
    }];
    if spec.symbolic == 0 {
        let mut emptied = insecure.clone();
        for v in &mut emptied.violations {
            v.schedule = sct_core::Schedule::new();
        }
        wrong.push(emptied);
    }
    wrong
        .iter()
        .all(|w| check(spec, &input.1, &input.2, w).is_err())
}

/// Run the workload for `seconds` and fill `Outcome`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        size: spec.describe(),
        ..Outcome::default()
    };
    let mut speed = HostSpeed::new(SPEED_EVERY);
    let mut setups = Vec::new();
    let mut hashes = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..if trace { 2 } else { SETUP_REPS } {
        let start = Instant::now();
        let (made, hash) = setup(spec, seed);
        setups.push((Instant::now(), start.elapsed()));
        speed.sample();
        hashes.push(hash);
        pool = made;
    }
    out.self_check(hashes.iter().all(|h| *h == hashes[0]), || {
        format!("inputs hash differently for one seed: {hashes:x?}")
    });
    let mut seen = vec![None; pool.len()];
    let mut planted = None;

    if !trace {
        let mut latencies = Vec::new();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut next = 0;
        while Instant::now() < deadline {
            let end = (next + spec.pass_len).min(pool.len());
            pass(
                spec,
                &pool[next..end],
                Some(deadline),
                |k, report, latency| {
                    let input = &pool[next + k];
                    latencies.push((Instant::now(), latency));
                    speed.tick();
                    let result = check_one(spec, input, report, &mut seen[next + k]);
                    out.verdict(result, || input.0.clone());
                    if planted.is_none() && report.verdict().is_insecure() {
                        planted = Some(rejects_planted(spec, input, report));
                    }
                },
            );
            next = if end == pool.len() { 0 } else { end };
        }
        out.self_check(planted == Some(true), || {
            format!("the oracle did not reject planted wrong verdicts ({planted:?})")
        });
        out.end_to_end(&speed, &setups, &latencies, spec.chunk, spec.window);
        return out;
    }

    // Traced: the layer probe, then alternating plain and traced passes
    // over the same programs. Counts must repeat exactly between passes.
    probe::measure(seed, &mut out);
    let counted = &pool[..spec.traced.min(pool.len())];
    let start = Instant::now();
    let mut overhead = Vec::new();
    let mut layers: Vec<Layer> = Vec::new();
    let mut counts: Option<Counts> = None;
    while overhead.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut walls = [Duration::ZERO; 2];
        for (traced, wall) in walls.iter_mut().enumerate() {
            let before = HISTS.map(hist);
            let mut c = Counts::default();
            *wall = pass(spec, counted, None, |i, report, _| {
                let result = check_one(spec, &counted[i], report, &mut seen[i]);
                out.verdict(result, || counted[i].0.clone());
                c.add(&report.stats);
            });
            if traced == 1 {
                sct_symx::flush_thread_telemetry();
                let after = HISTS.map(hist);
                let [expand, hit, miss] = [0, 1, 2].map(|k| hist_delta(&before[k], &after[k]));
                layers.push(Layer {
                    arena_nodes: sct_symx::arena_stats().nodes as f64,
                    states_per_s: c.states as f64 / wall.as_secs_f64(),
                    expand_p50_ns: hist_quantile_ns(&expand, 0.5),
                    hit_p50_ns: hist_quantile_ns(&hit, 0.5),
                    miss_p50_ns: hist_quantile_ns(&miss, 0.5),
                    miss_total_ns: miss.sum_ns as f64,
                });
            }
            out.self_check(counts.is_none_or(|k| k == c), || {
                format!("layer counts differ between passes: {c:?} vs {counts:?}")
            });
            counts.get_or_insert(c);
        }
        overhead.push(walls[1].as_secs_f64() / walls[0].as_secs_f64() - 1.0);
    }
    let c = counts.expect("at least one pass");
    out.set("explorer.states", c.states as f64);
    out.set("explorer.steps", c.steps as f64);
    out.set("explorer.deduped", c.deduped as f64);
    out.set(
        "explorer.dedup_ratio",
        c.deduped as f64 / (c.states + c.deduped).max(1) as f64,
    );
    out.set("explorer.frontier_peak", c.frontier_peak as f64);
    out.set("solver.queries", c.queries as f64);
    out.set("solver.memo_hits", c.memo_hits as f64);
    out.set("solver.memo_misses", c.memo_misses as f64);
    out.set(
        "solver.memo_hit_ratio",
        c.memo_hits as f64 / c.queries.max(1) as f64,
    );
    let med = |g: fn(&Layer) -> f64| median(&layers.iter().map(g).collect::<Vec<_>>());
    out.set("symx.arena_nodes", med(|l| l.arena_nodes));
    out.set("explorer.states_per_s", med(|l| l.states_per_s));
    out.set("explorer.state_expand_p50_ns", med(|l| l.expand_p50_ns));
    out.set("solver.check_hit_p50_ns", med(|l| l.hit_p50_ns));
    out.set("solver.check_miss_p50_ns", med(|l| l.miss_p50_ns));
    out.set("solver.check_miss_total_ns", med(|l| l.miss_total_ns));
    out.set("trace.overhead_frac", median(&overhead));
    for name in [
        "asm.assemble_ns",
        "asm.bytes_per_s",
        "incremental.plan_ns",
        "incremental.manifest_ns",
        "incremental.reused",
        "incremental.reanalyzed",
        "incremental.skip_ratio",
        "cache.load_ns",
        "cache.save_ns",
        "cache.snapshot_bytes",
        "cache.nodes_loaded",
        "service.queue_wait_p50_ns",
        "service.job_run_p50_ns",
        "protocol.roundtrip_p50_ns",
    ] {
        // Passes assemble nothing and touch no cache, baseline or daemon.
        out.set(name, 0.0);
    }
    out
}

/// The registry histograms a traced pass reads around itself.
const HISTS: [&str; 3] = [
    names::STATE_EXPAND,
    names::SOLVER_CHECK_HIT,
    names::SOLVER_CHECK_MISS,
];

/// The exact counts a counted pass must repeat.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    states: usize,
    steps: usize,
    deduped: usize,
    frontier_peak: usize,
    queries: usize,
    memo_hits: usize,
    memo_misses: usize,
}

impl Counts {
    fn add(&mut self, s: &ExploreStats) {
        self.states += s.states;
        self.steps += s.steps;
        self.deduped += s.deduped;
        self.frontier_peak = self.frontier_peak.max(s.frontier_peak);
        self.queries += s.solver_queries;
        self.memo_hits += s.solver_memo_hits;
        self.memo_misses += s.solver_memo_misses;
    }
}

/// Per-layer figures of one traced pass.
struct Layer {
    arena_nodes: f64,
    states_per_s: f64,
    expand_p50_ns: f64,
    hit_p50_ns: f64,
    miss_p50_ns: f64,
    miss_total_ns: f64,
}
