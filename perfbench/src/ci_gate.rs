//! `ci_gate`: the edit→re-gate loop of `pitchfork ci-gate`. Each round
//! toggles a seeded one-line edit in one generated entry, then re-gates
//! the corpus in v1 and in v4 mode the way the CLI does: load the
//! baseline manifest, warm-start from its pruned snapshot, reassemble
//! every file, run the diff planner and re-analyze what changed, and
//! promote the baseline when nothing regressed. A round whose edit
//! regresses is reverted by the next round, as a developer would.

use crate::corpus::{self, flip_verdict, Entry, Reference, Workdir, MODES};
use crate::host::HostSpeed;
use crate::inputs;
use crate::probe;
use crate::report::Outcome;
use crate::stats::{hist, hist_delta, hist_quantile_ns, median};
use pitchfork::incremental::{
    block_hashes, config_tag, entry_fingerprint, plan_entry, save_baseline,
};
use pitchfork::{BaselineManifest, BatchItem, IncrementalReport, SessionBuilder};
use rand::Rng;
use sct_telemetry::names;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds per counted sequence of the traced run.
const TRACED_ROUNDS: usize = 40;
/// Rounds per throughput chunk, and per latency-percentile window.
const CHUNK: usize = 10;
const WINDOW: usize = 100;
/// Least time between host-speed samples.
const SPEED_EVERY: Duration = Duration::from_millis(10);
/// The session's default bound (the CLI's); entries carry their own.
const DEFAULT_BOUND: usize = 20;
/// Random stream of the order of the edits.
const ROUND_STREAM: u64 = 5;

/// One mode's baseline directory and the entry versions it records.
struct Gate {
    dir: PathBuf,
    versions: Vec<usize>,
}

/// Time spent in each layer's calls, and the layer counts, over rounds.
#[derive(Default)]
struct Layers {
    asm_ns: u64,
    asm_bytes: usize,
    plan_ns: u64,
    manifest_ns: u64,
    load_ns: u64,
    save_ns: u64,
    snapshot_bytes: Vec<f64>,
    nodes_loaded: usize,
    explore_ns: u64,
    arena_nodes: usize,
}

/// The exact counts a sequence of rounds must repeat:
/// reanalyzed, reused, states explored, states skipped, solver queries,
/// memo misses.
type Counts = [u64; 6];

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The editable entries of a corpus, shuffled by the seed.
fn edit_order(entries: &[Entry], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..entries.len())
        .filter(|&i| entries[i].versions.len() > 1)
        .collect();
    let mut rng = inputs::rng(seed, ROUND_STREAM);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// The edit→re-gate loop over one corpus.
struct Loop<'a> {
    entries: &'a [Entry],
    reference: &'a Reference,
    gates: Vec<Gate>,
    current: Vec<usize>,
    /// The editable entries in a seeded order that rounds cycle through,
    /// so that every entry is edited equally often and a run's rounds
    /// follow the corpus, not the luck of the draw; and the next turn.
    order: Vec<usize>,
    turn: usize,
    revert: Option<usize>,
    counts: Counts,
}

/// Assemble every entry at its current version, as `ci-gate` reads its
/// files, into the batch items of one mode.
fn assemble(
    entries: &[Entry],
    current: &[usize],
    mode: usize,
    layers: Option<&mut Layers>,
) -> Result<Vec<BatchItem>, String> {
    let start = Instant::now();
    let mut bytes = 0;
    let mut items = Vec::with_capacity(entries.len());
    for (e, &v) in entries.iter().zip(current) {
        let source = &e.versions[v];
        bytes += source.len();
        let asm = sct_asm::assemble(source).map_err(|err| format!("{}: {err}", e.name))?;
        items.push(
            BatchItem::with_bound(e.name.clone(), asm.program, asm.config, e.bounds[mode])
                .symbolize(e.symbolic.iter().copied()),
        );
    }
    if let Some(l) = layers {
        l.asm_ns += ns(start.elapsed());
        l.asm_bytes += bytes;
    }
    Ok(items)
}

impl<'a> Loop<'a> {
    fn new(entries: &'a [Entry], reference: &'a Reference, work: &Path, seed: u64) -> Loop<'a> {
        Loop {
            entries,
            reference,
            gates: MODES
                .iter()
                .map(|m| Gate {
                    dir: work.join(m.name()),
                    versions: vec![0; entries.len()],
                })
                .collect(),
            current: vec![0; entries.len()],
            order: edit_order(entries, seed),
            turn: 0,
            revert: None,
            counts: Counts::default(),
        }
    }

    /// One `ci-gate` invocation in `mode`: returns its wall time and
    /// report, promoting the baseline when nothing regressed.
    fn gate(
        &mut self,
        mode: usize,
        mut layers: Option<&mut Layers>,
    ) -> Result<(Duration, IncrementalReport), String> {
        // A fresh process: nothing in the arena or memo but what the
        // baseline's snapshot brings.
        sct_symx::retire_arena();
        let memo_before = sct_symx::solver_memo_stats();
        let dir = self.gates[mode].dir.clone();
        let cache = dir.join(BaselineManifest::CACHE_NAME);
        let start = Instant::now();

        let t = Instant::now();
        let manifest =
            BaselineManifest::load_dir(&dir).map_err(|e| format!("baseline manifest: {e}"))?;
        let manifest_load = t.elapsed();
        let t = Instant::now();
        let mut session = SessionBuilder::new()
            .options(MODES[mode].options(DEFAULT_BOUND))
            .cache(&cache)
            .build()
            .map_err(|e| format!("baseline snapshot: {e}"))?;
        let load = t.elapsed();
        let items = assemble(self.entries, &self.current, mode, layers.as_deref_mut())?;
        // The planner runs inside `analyze_incremental`; the traced run
        // times a second call of its public pieces, and leaves that
        // probe out of the gate's wall time.
        let mut probe = Duration::ZERO;
        if let Some(l) = layers.as_deref_mut() {
            l.manifest_ns += ns(manifest_load);
            l.load_ns += ns(load);
            l.nodes_loaded += session.cache_load().map_or(0, |s| s.added);
            let t = Instant::now();
            for item in &items {
                let blocks = block_hashes(&item.program);
                let tag = config_tag(
                    session.options(),
                    item.bound.unwrap_or(DEFAULT_BOUND),
                    &item.symbolic,
                );
                let fingerprint = entry_fingerprint(&blocks, tag);
                black_box(plan_entry(&manifest, &item.name, fingerprint, &blocks));
            }
            probe = t.elapsed();
            l.plan_ns += ns(probe);
        }
        let t = Instant::now();
        let report = session.analyze_incremental(items, &manifest);
        let explore = t.elapsed();
        let memo_after = sct_symx::solver_memo_stats();
        let promote = report.regressions().is_empty();
        if promote {
            match layers.as_deref_mut() {
                None => {
                    save_baseline(&dir, &report.manifest)
                        .map_err(|e| format!("baseline save: {e}"))?;
                }
                Some(l) => {
                    // `save_baseline`, one layer at a time.
                    let t = Instant::now();
                    report
                        .manifest
                        .save_dir(&dir)
                        .map_err(|e| format!("manifest save: {e}"))?;
                    l.manifest_ns += ns(t.elapsed());
                    let t = Instant::now();
                    let saved = sct_cache::save_rooted(&cache, &[])
                        .map_err(|e| format!("snapshot save: {e}"))?;
                    l.save_ns += ns(t.elapsed());
                    l.snapshot_bytes.push(saved.bytes as f64);
                }
            }
        }
        let wall = start.elapsed() - probe;
        if let Some(l) = layers {
            l.explore_ns += ns(explore);
            l.arena_nodes = l.arena_nodes.max(sct_symx::arena_stats().nodes);
        }
        let c = &mut self.counts;
        c[0] += report.reanalyzed as u64;
        c[1] += report.reused as u64;
        c[2] += report.states_explored as u64;
        c[3] += report.states_skipped as u64;
        c[4] += memo_after.queries.saturating_sub(memo_before.queries);
        c[5] += memo_after.misses.saturating_sub(memo_before.misses);
        Ok((wall, report))
    }

    /// Check a gate's report against the reference, and record what the
    /// baseline now holds.
    fn check(&mut self, mode: usize, report: &IncrementalReport) -> Result<(), String> {
        if report.outcomes.len() != self.entries.len() {
            return Err(format!(
                "{} outcomes for {} entries",
                report.outcomes.len(),
                self.entries.len()
            ));
        }
        let gate = &self.gates[mode];
        let mut expected_regressions = BTreeSet::new();
        for (i, o) in report.outcomes.iter().enumerate() {
            let want = self.reference.get(i, self.current[i], mode);
            if o.line != want.line {
                return Err(format!(
                    "{} {}: got `{}`, expected `{}`",
                    MODES[mode], o.name, o.line, want.line
                ));
            }
            let old = self.reference.get(i, gate.versions[i], mode);
            if want.verdict.is_insecure() && !old.verdict.is_insecure() {
                expected_regressions.insert(o.name.as_str());
            }
        }
        let regressions: BTreeSet<&str> = report
            .regressions()
            .iter()
            .map(|o| o.name.as_str())
            .collect();
        if regressions != expected_regressions {
            return Err(format!(
                "{}: regressions {regressions:?}, expected {expected_regressions:?}",
                MODES[mode]
            ));
        }
        if regressions.is_empty() {
            self.gates[mode].versions.clone_from(&self.current);
        }
        Ok(())
    }

    /// One round: toggle an edit, re-gate in both modes. Returns the
    /// round's wall time (the two gates) and its check.
    fn round(&mut self, mut layers: Option<&mut Layers>) -> (Duration, Result<(), String>) {
        let j = self.revert.take().unwrap_or_else(|| {
            self.turn += 1;
            self.order[(self.turn - 1) % self.order.len()]
        });
        self.current[j] ^= 1;
        let mut wall = Duration::ZERO;
        for mode in 0..MODES.len() {
            let result = self
                .gate(mode, layers.as_deref_mut())
                .and_then(|(w, report)| {
                    wall += w;
                    self.check(mode, &report)?;
                    if !report.regressions().is_empty() {
                        self.revert = Some(j);
                    }
                    Ok(())
                });
            if result.is_err() {
                return (wall, result);
            }
        }
        (wall, Ok(()))
    }
}

/// Build the cold baselines of both modes from version 0 of every entry.
fn cold_baselines(entries: &[Entry], reference: &Reference, work: &Path) -> Result<(), String> {
    for (mode, m) in MODES.iter().enumerate() {
        let dir = work.join(m.name());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        sct_symx::retire_arena();
        let items = assemble(entries, &vec![0; entries.len()], mode, None)?;
        let mut session = SessionBuilder::new()
            .options(m.options(DEFAULT_BOUND))
            .cache(dir.join(BaselineManifest::CACHE_NAME))
            .build()
            .map_err(|e| e.to_string())?;
        let report = session.analyze_incremental(items, &BaselineManifest::empty());
        for (i, o) in report.outcomes.iter().enumerate() {
            let want = &reference.get(i, 0, mode).line;
            if &o.line != want {
                return Err(format!(
                    "cold {m} {}: got `{}`, expected `{want}`",
                    o.name, o.line
                ));
            }
        }
        save_baseline(&dir, &report.manifest).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Copy every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create a baseline copy");
    for f in std::fs::read_dir(from)
        .expect("read a baseline directory")
        .flatten()
    {
        std::fs::copy(f.path(), to.join(f.file_name())).expect("copy a baseline file");
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let work = Workdir::new("ci_gate");
    let entries = corpus::generate(seed, corpus::CI_GATE_GENERATED);
    let mut out = Outcome {
        size: format!(
            "{} entries ({} editable), gated in v1 and v4 mode",
            entries.len(),
            entries.iter().filter(|e| e.versions.len() > 1).count()
        ),
        ..Outcome::default()
    };
    let (reference, failures) = corpus::reference(&entries);
    for f in failures {
        out.verdict(Err(f), || "reference".into());
    }

    // Set-up: generate the corpus and build both cold baselines.
    let mut speed = HostSpeed::new(SPEED_EVERY);
    let mut setups = Vec::new();
    let mut hashes = Vec::new();
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        let start = Instant::now();
        let made = corpus::generate(seed, corpus::CI_GATE_GENERATED);
        let built = cold_baselines(&made, &reference, work.path());
        setups.push((Instant::now(), start.elapsed()));
        speed.sample();
        hashes.push(corpus::hash(&made));
        out.verdict(built, || "cold baseline".into());
    }
    hashes.push(corpus::hash(&entries));
    out.self_check(hashes.iter().all(|h| *h == hashes[0]), || {
        format!("inputs hash differently for one seed: {hashes:x?}")
    });
    out.self_check(
        planted_wrong_line_is_caught(&entries, &reference, work.path(), seed),
        || "the round check accepted a planted wrong verdict line".into(),
    );

    if !trace {
        let mut lp = Loop::new(&entries, &reference, work.path(), seed);
        let mut latencies = Vec::new();
        let start = Instant::now();
        while latencies.len() < WINDOW || start.elapsed().as_secs_f64() < seconds {
            let (wall, result) = lp.round(None);
            latencies.push((Instant::now(), wall));
            speed.tick();
            out.verdict(result, || format!("round {}", latencies.len()));
        }
        out.end_to_end(&speed, &setups, &latencies, CHUNK, WINDOW);
        return out;
    }

    probe::measure(seed, &mut out);
    let pristine = work.path().join("pristine");
    for m in MODES {
        copy_dir(&work.path().join(m.name()), &pristine.join(m.name()));
    }
    let sequence = |layers: Option<&mut Layers>, out: &mut Outcome| -> (Duration, Counts) {
        for m in MODES {
            copy_dir(&pristine.join(m.name()), &work.path().join(m.name()));
        }
        let mut lp = Loop::new(&entries, &reference, work.path(), seed);
        let mut layers = layers;
        let mut wall = Duration::ZERO;
        for r in 0..TRACED_ROUNDS {
            let (w, result) = lp.round(layers.as_deref_mut());
            wall += w;
            out.verdict(result, || format!("round {r}"));
        }
        (wall, lp.counts)
    };
    let start = Instant::now();
    let mut overhead = Vec::new();
    let mut traced_layers = Vec::new();
    let mut counts: Option<Counts> = None;
    let hists = [
        names::STATE_EXPAND,
        names::SOLVER_CHECK_HIT,
        names::SOLVER_CHECK_MISS,
    ];
    let mut deltas = Vec::new();
    while overhead.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (plain, c0) = sequence(None, &mut out);
        let mut layers = Layers::default();
        let before = hists.map(hist);
        let (traced, c1) = sequence(Some(&mut layers), &mut out);
        sct_symx::flush_thread_telemetry();
        let after = hists.map(hist);
        deltas.push([0, 1, 2].map(|i| hist_delta(&before[i], &after[i])));
        for c in [c0, c1] {
            out.self_check(counts.is_none_or(|k| k == c), || {
                format!("layer counts differ between sequences: {c:?} vs {counts:?}")
            });
            counts.get_or_insert(c);
        }
        overhead.push(traced.as_secs_f64() / plain.as_secs_f64() - 1.0);
        traced_layers.push(layers);
    }
    let c = counts.expect("at least one sequence");
    let rounds = TRACED_ROUNDS as f64;
    let med = |g: &dyn Fn(&Layers) -> f64| median(&traced_layers.iter().map(g).collect::<Vec<_>>());
    out.set("asm.assemble_ns", med(&|l| l.asm_ns as f64 / rounds));
    out.set(
        "asm.bytes_per_s",
        med(&|l| l.asm_bytes as f64 / (l.asm_ns as f64 * 1e-9)),
    );
    out.set("incremental.plan_ns", med(&|l| l.plan_ns as f64 / rounds));
    out.set(
        "incremental.manifest_ns",
        med(&|l| l.manifest_ns as f64 / rounds),
    );
    out.set("incremental.reanalyzed", c[0] as f64);
    out.set("incremental.reused", c[1] as f64);
    out.set(
        "incremental.skip_ratio",
        c[3] as f64 / (c[2] + c[3]).max(1) as f64,
    );
    out.set("cache.load_ns", med(&|l| l.load_ns as f64 / rounds));
    out.set("cache.save_ns", med(&|l| l.save_ns as f64 / rounds));
    out.set("cache.snapshot_bytes", med(&|l| median(&l.snapshot_bytes)));
    out.set("cache.nodes_loaded", traced_layers[0].nodes_loaded as f64);
    out.set("explorer.states", c[2] as f64);
    out.set(
        "explorer.states_per_s",
        med(&|l| c[2] as f64 / (l.explore_ns as f64 * 1e-9)),
    );
    out.set("symx.arena_nodes", traced_layers[0].arena_nodes as f64);
    out.set("solver.queries", c[4] as f64);
    out.set("solver.memo_misses", c[5] as f64);
    out.set("solver.memo_hits", c[4].saturating_sub(c[5]) as f64);
    out.set(
        "solver.memo_hit_ratio",
        c[4].saturating_sub(c[5]) as f64 / c[4].max(1) as f64,
    );
    let hq = |k: usize, q: f64| {
        median(
            &deltas
                .iter()
                .map(|d| hist_quantile_ns(&d[k], q))
                .collect::<Vec<_>>(),
        )
    };
    out.set("explorer.state_expand_p50_ns", hq(0, 0.5));
    out.set("solver.check_hit_p50_ns", hq(1, 0.5));
    out.set("solver.check_miss_p50_ns", hq(2, 0.5));
    out.set(
        "solver.check_miss_total_ns",
        median(
            &deltas
                .iter()
                .map(|d| d[2].sum_ns as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("trace.overhead_frac", median(&overhead));
    // The incremental report carries no step, dedup or frontier counts,
    // and no daemon is involved.
    for name in [
        "explorer.steps",
        "explorer.deduped",
        "explorer.dedup_ratio",
        "explorer.frontier_peak",
        "service.queue_wait_p50_ns",
        "service.job_run_p50_ns",
        "protocol.roundtrip_p50_ns",
    ] {
        out.set(name, 0.0);
    }
    out
}

/// The round check must reject a report whose verdict line is wrong.
fn planted_wrong_line_is_caught(
    entries: &[Entry],
    reference: &Reference,
    work: &Path,
    seed: u64,
) -> bool {
    let mut lp = Loop::new(entries, reference, work, seed);
    let outcomes = (0..entries.len())
        .map(|i| {
            let want = reference.get(i, 0, 0);
            let line = if i == 0 {
                flip_verdict(&want.line)
            } else {
                want.line.clone()
            };
            pitchfork::IncrementalOutcome {
                name: entries[i].name.clone(),
                plan: pitchfork::EntryPlan::Unchanged,
                verdict: want.verdict,
                line,
                states: 0,
                flip: None,
            }
        })
        .collect();
    let planted = IncrementalReport {
        outcomes,
        reused: entries.len(),
        reanalyzed: 0,
        states_explored: 0,
        states_skipped: 0,
        manifest: BaselineManifest::empty(),
        wall: Duration::ZERO,
    };
    lp.check(0, &planted).is_err()
}
