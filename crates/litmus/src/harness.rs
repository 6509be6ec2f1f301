//! The litmus harness: named cases with expected verdicts, and a runner
//! that checks them against the sequential semantics and both Pitchfork
//! modes.
//!
//! All corpus passes are driven through [`pitchfork::AnalysisSession`]
//! — the harness never wires solver, cache, or epoch state by hand.

use pitchfork::{AnalysisSession, BatchItem, BatchReport, DetectorOptions, StrategyKind};
use sct_core::sched::sequential::run_sequential;
use sct_core::{Config, Params, Program, Reg};
use std::fmt;

/// What a litmus case is expected to exhibit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Expectation {
    /// The canonical sequential execution leaks no secret observation
    /// (i.e. the case is sequentially constant-time). All our cases are,
    /// by construction — the violations are speculative-only.
    pub sequentially_clean: bool,
    /// Pitchfork flags the case in v1/v1.1 mode (no forwarding hazards).
    pub v1_violation: bool,
    /// Pitchfork flags the case in v4 mode (with forwarding hazards).
    pub v4_violation: bool,
}

impl Expectation {
    /// Speculatively safe everywhere.
    pub const SAFE: Expectation = Expectation {
        sequentially_clean: true,
        v1_violation: false,
        v4_violation: false,
    };

    /// Flagged in both modes (v1-style leak; v4 mode subsumes it).
    pub const V1: Expectation = Expectation {
        sequentially_clean: true,
        v1_violation: true,
        v4_violation: true,
    };

    /// Flagged only when forwarding-hazard detection is on (v4-style).
    pub const V4_ONLY: Expectation = Expectation {
        sequentially_clean: true,
        v1_violation: false,
        v4_violation: true,
    };
}

/// A named litmus case.
pub struct LitmusCase {
    /// Short identifier (e.g. `kocher_01`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The program.
    pub program: Program,
    /// The initial configuration.
    pub config: Config,
    /// Expected verdicts.
    pub expect: Expectation,
    /// Speculation bound sufficient to expose the case's behaviour.
    pub bound: usize,
}

/// The observed verdicts for a case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CaseResult {
    /// Sequential trace carried no secret observation.
    pub sequentially_clean: bool,
    /// v1-mode Pitchfork verdict.
    pub v1_violation: bool,
    /// v4-mode Pitchfork verdict.
    pub v4_violation: bool,
}

impl fmt::Display for CaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq-clean={} v1={} v4={}",
            self.sequentially_clean, self.v1_violation, self.v4_violation
        )
    }
}

/// Run a case through the sequential semantics and both detector modes
/// under the given frontier order.
pub fn run_case_with_strategy(case: &LitmusCase, strategy: StrategyKind) -> CaseResult {
    let seq = run_sequential(
        &case.program,
        case.config.clone(),
        Params::paper(),
        200_000,
    )
    .unwrap_or_else(|e| panic!("{}: sequential run failed: {e}", case.name));
    let mut session = AnalysisSession::builder()
        .v1_mode(case.bound)
        .strategy(strategy)
        .build()
        .expect("uncached session");
    let v1 = session.analyze(&case.program, &case.config);
    session.set_options(DetectorOptions::v4_mode(case.bound));
    let v4 = session.analyze(&case.program, &case.config);
    CaseResult {
        sequentially_clean: seq.outcome.trace.is_public(),
        v1_violation: v1.has_violations(),
        v4_violation: v4.has_violations(),
    }
}

/// [`run_case_with_strategy`] under the default (LIFO) order.
pub fn run_case(case: &LitmusCase) -> CaseResult {
    run_case_with_strategy(case, StrategyKind::Lifo)
}

/// The whole suite as batch items, preserving each case's speculation
/// bound.
pub fn batch_items(cases: &[LitmusCase]) -> Vec<BatchItem> {
    cases
        .iter()
        .map(|c| BatchItem::with_bound(c.name, c.program.clone(), c.config.clone(), c.bound))
        .collect()
}

/// [`batch_items`] with `regs` symbolized in every item: the analysis
/// covers all attacker-controlled values of those registers, which
/// makes branch conditions and addresses symbolic and therefore drives
/// the constraint solver (and its verdict memo) — concrete litmus runs
/// constant-fold every condition and never query it.
pub fn symbolic_batch_items(cases: &[LitmusCase], regs: &[Reg]) -> Vec<BatchItem> {
    batch_items(cases)
        .into_iter()
        .map(|item| item.symbolize(regs.iter().copied()))
        .collect()
}

/// The attacker-controlled input registers of one case: every register
/// the program *reads before writing* (in program-point order) whose
/// initial value is public — i.e. the registers an attacker calling the
/// gadget actually chooses. Secret-labeled registers are excluded:
/// symbolizing those would model a different threat, not a wider
/// attacker.
pub fn attacker_regs(case: &LitmusCase) -> Vec<Reg> {
    let mut written: std::collections::BTreeSet<Reg> = std::collections::BTreeSet::new();
    let mut inputs: Vec<Reg> = Vec::new();
    for (_, instr) in case.program.iter() {
        for r in instr.reads() {
            if !written.contains(&r) && !inputs.contains(&r) {
                inputs.push(r);
            }
        }
        if let Some(dst) = instr.writes() {
            written.insert(dst);
        }
    }
    inputs.retain(|&r| {
        r != Reg::RSP && r != Reg::RTMP && case.config.regs.read(r).label.is_public()
    });
    inputs
}

/// The suite as batch items with **per-case** attacker register sets
/// symbolized ([`attacker_regs`]) — the full symbolic-input coverage
/// pass, against which the historical `ra`-only pass is the baseline.
pub fn sweep_batch_items(cases: &[LitmusCase]) -> Vec<BatchItem> {
    cases
        .iter()
        .zip(batch_items(cases))
        .map(|(case, item)| item.symbolize(attacker_regs(case)))
        .collect()
}

/// Batch verdicts for a suite: one shared-arena pass per detector mode.
pub struct CorpusVerdicts {
    /// The v1-mode (no forwarding hazards) batch.
    pub v1: BatchReport,
    /// The v4-mode (forwarding hazards) batch.
    pub v4: BatchReport,
}

impl CorpusVerdicts {
    /// The observed verdicts for one named case (sequential cleanliness
    /// is not covered by the batches; see [`run_case`]).
    pub fn violations(&self, name: &str) -> Option<(bool, bool)> {
        let v1 = self.v1.outcome(name)?.report.has_violations();
        let v4 = self.v4.outcome(name)?.report.has_violations();
        Some((v1, v4))
    }
}

/// Run a whole suite through one [`AnalysisSession`] — one batch per
/// mode, every case sharing the expression arena, the frontier ordered
/// by `strategy`. Equivalent, case for case, to [`run_case`]'s
/// per-case detector verdicts (the batch suite test checks exactly
/// that), but reports corpus-wide statistics.
pub fn run_corpus_with_strategy(cases: &[LitmusCase], strategy: StrategyKind) -> CorpusVerdicts {
    let items = batch_items(cases);
    // The 16 is a placeholder: every item carries `Some(case.bound)`,
    // which overrides the batch-wide bound per program.
    let mut session = AnalysisSession::builder()
        .v1_mode(16)
        .strategy(strategy)
        .build()
        .expect("uncached session");
    let v1 = session.run_batch(items.clone());
    session.set_options(DetectorOptions::v4_mode(16));
    let v4 = session.run_batch(items);
    CorpusVerdicts { v1, v4 }
}

/// [`run_corpus_with_strategy`] under the default (LIFO) order.
pub fn run_corpus(cases: &[LitmusCase]) -> CorpusVerdicts {
    run_corpus_with_strategy(cases, StrategyKind::Lifo)
}

/// The symbolic-input coverage comparison: the historical `ra`-only
/// pass against the per-case [`attacker_regs`] sweep, both in v1 mode
/// through the same session (so the sweep reuses arena structure and
/// memoized verdicts the baseline just built).
pub struct SymbolicSweep {
    /// The baseline pass (only `ra` symbolized, every case).
    pub ra_only: BatchReport,
    /// The sweep pass (per-case attacker register sets).
    pub per_case: BatchReport,
}

impl SymbolicSweep {
    /// Cases whose violation verdict differs between baseline and
    /// sweep: `(name, baseline flagged, sweep flagged)`. A wider
    /// attacker can only add behaviours, so entries here are leaks the
    /// `ra`-only pass missed (or cases where `ra` is not even an input
    /// and the baseline over-symbolized).
    pub fn verdict_flips(&self) -> Vec<(&str, bool, bool)> {
        self.per_case
            .outcomes
            .iter()
            .filter_map(|sweep| {
                let base = self.ra_only.outcome(&sweep.name)?;
                let (b, s) = (
                    base.report.has_violations(),
                    sweep.report.has_violations(),
                );
                (b != s).then_some((sweep.name.as_str(), b, s))
            })
            .collect()
    }

    /// Solver-memo hit rates `(baseline, sweep)` — how much of the
    /// sweep's extra constraint traffic was answered from verdicts the
    /// baseline (and earlier epochs, with a cache) already memoized.
    pub fn memo_hit_rates(&self) -> (f64, f64) {
        (
            self.ra_only.totals.solver_memo_hit_rate(),
            self.per_case.totals.solver_memo_hit_rate(),
        )
    }
}

impl fmt::Display for SymbolicSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (base_rate, sweep_rate) = self.memo_hit_rates();
        writeln!(
            f,
            "symbolic sweep: ra-only {} flagged ({} queries, {:.1}% memo), \
             per-case {} flagged ({} queries, {:.1}% memo)",
            self.ra_only.totals.flagged,
            self.ra_only.totals.solver_queries,
            100.0 * base_rate,
            self.per_case.totals.flagged,
            self.per_case.totals.solver_queries,
            100.0 * sweep_rate,
        )?;
        for (name, base, sweep) in self.verdict_flips() {
            writeln!(f, "  verdict flip: {name}: ra-only={base} per-case={sweep}")?;
        }
        Ok(())
    }
}

/// A warm-started corpus run: the concrete per-mode verdicts plus the
/// symbolic passes (the passes that exercise the constraint solver and
/// its persisted verdict memo).
pub struct CachedCorpusRun {
    /// The concrete v1/v4 batch verdicts, as in [`run_corpus`].
    pub verdicts: CorpusVerdicts,
    /// The per-case attacker-register sweep and its deltas against the
    /// `ra`-only baseline.
    pub sweep: SymbolicSweep,
}

impl CachedCorpusRun {
    /// The v1-mode pass with the attacker index register (`ra`)
    /// symbolized in every case — the sweep's baseline.
    pub fn v1_symbolic(&self) -> &BatchReport {
        &self.sweep.ra_only
    }
}

/// [`run_corpus`], warm-started from (and saved back to) a `sct-cache`
/// snapshot file through **one** [`AnalysisSession`]: the expression
/// arena and the solver-verdict memo are hydrated from `cache` before
/// the first batch, and the state after all passes — the concrete
/// v1/v4 batches, the symbolic-`ra` v1 batch, and the per-case
/// attacker-register sweep — is persisted for the next invocation. The
/// reports' [`pitchfork::BatchReport::cache_load`] says what the warm
/// start transferred.
pub fn run_corpus_cached(
    cases: &[LitmusCase],
    cache: &std::path::Path,
) -> Result<CachedCorpusRun, sct_cache::CacheError> {
    let items = batch_items(cases);
    let mut session = AnalysisSession::builder()
        .v1_mode(16)
        .cache(cache)
        .build()?;
    let v1 = session.run_batch(items.clone());
    session.set_options(DetectorOptions::v4_mode(16));
    let v4 = session.run_batch(items);
    session.set_options(DetectorOptions::v1_mode(16));
    let ra_only = session.run_batch(symbolic_batch_items(
        cases,
        &[sct_core::reg::names::RA],
    ));
    let per_case = session.run_batch(sweep_batch_items(cases));
    // Saving goes through the session so every pass's state (the arena
    // and memo are process-wide) lands in the snapshot.
    session.save()?;
    Ok(CachedCorpusRun {
        verdicts: CorpusVerdicts { v1, v4 },
        sweep: SymbolicSweep { ra_only, per_case },
    })
}

/// One corpus entry's daemon-served result: the entry's name and the
/// job view the client got back (status, typed verdict, exploration
/// stats, rendered witnesses).
pub struct ServedOutcome {
    /// The corpus entry name.
    pub name: String,
    /// The daemon's answer.
    pub view: pitchfork::client::JobView,
}

impl ServedOutcome {
    /// `true` when the daemon flagged the entry.
    pub fn flagged(&self) -> bool {
        self.view.verdict.is_some_and(|v| v.is_insecure())
    }
}

/// Run corpus entries through a **live daemon**: submit every entry's
/// `.sasm` source over `client` (FIFO — the daemon preserves order),
/// then collect the verdicts. Each entry runs in `mode` at its own
/// speculation bound.
///
/// This is the served twin of [`run_corpus`]: same programs, same
/// bounds, but analyzed by a resident `pitchfork --serve` process whose
/// arena and solver memo persist across submissions (and clients) —
/// the serve-mode tests pin verdict equivalence between the two paths.
pub fn run_corpus_served(
    entries: &[crate::corpus::CorpusEntry],
    client: &mut pitchfork::client::Client,
    mode: pitchfork::service::JobMode,
) -> Result<Vec<ServedOutcome>, pitchfork::client::ClientError> {
    let mut pending = Vec::new();
    for entry in entries {
        let spec = pitchfork::service::JobSpec {
            mode,
            bound: Some(entry.bound),
            strategy: None,
            symbolic: Vec::new(),
            max_states: None,
            deadline_ms: None,
        };
        let id = client.submit_source(entry.name, entry.source, spec)?;
        pending.push((entry.name.to_string(), id));
    }
    pending
        .into_iter()
        .map(|(name, id)| {
            client
                .wait(id, std::time::Duration::from_secs(120))
                .map(|view| ServedOutcome { name, view })
        })
        .collect()
}

/// Check a case against its expectation, panicking with context on
/// mismatch (used by the test suites).
pub fn assert_case(case: &LitmusCase) {
    let got = run_case(case);
    let want = case.expect;
    assert_eq!(
        got.sequentially_clean, want.sequentially_clean,
        "{}: sequential cleanliness mismatch ({})",
        case.name, case.description
    );
    assert_eq!(
        got.v1_violation, want.v1_violation,
        "{}: v1-mode verdict mismatch ({}): got {got}",
        case.name, case.description
    );
    assert_eq!(
        got.v4_violation, want.v4_violation,
        "{}: v4-mode verdict mismatch ({}): got {got}",
        case.name, case.description
    );
}
