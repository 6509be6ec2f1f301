//! Violation reports.

use sct_core::{Observation, Pc, Schedule};
use std::collections::BTreeSet;
use std::fmt;

/// One speculative constant-time violation found by the explorer.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The secret-labeled observation that witnessed the leak.
    pub observation: Observation,
    /// The schedule prefix (worst-case attacker directives) leading to it.
    pub schedule: Schedule,
    /// The full observation trace up to and including the witness.
    pub trace: Vec<Observation>,
    /// The program point of the most recently fetched instruction when
    /// the leak occurred (best-effort source attribution).
    pub pc: Pc,
    /// Path constraints active when the leak occurred (rendered).
    pub constraints: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation: {}", self.observation)?;
        writeln!(f, "  near program point {}", self.pc)?;
        writeln!(f, "  schedule: {}", self.schedule)?;
        write!(f, "  trace:")?;
        for o in &self.trace {
            write!(f, " {o};")?;
        }
        writeln!(f)?;
        if !self.constraints.is_empty() {
            writeln!(f, "  path constraints:")?;
            for c in &self.constraints {
                writeln!(f, "    {c}")?;
            }
        }
        Ok(())
    }
}

/// The typed analysis verdict: what the exploration established, with
/// the caveat that makes it meaningful. Replaces the old stringly
/// verdict; [`fmt::Display`] renders the historical strings, so text
/// output is unchanged for the secure/insecure cases.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every worst-case schedule within the speculation bound was
    /// explored and none produced a secret-labeled observation.
    Secure,
    /// At least one witness schedule leaks; the witnesses (path,
    /// schedule, trace) are in [`Report::violations`].
    Insecure {
        /// Number of witnesses found.
        witnesses: usize,
    },
    /// Exploration hit the state budget before finding a witness or
    /// exhausting the schedule space: no conclusion either way.
    Unknown {
        /// States expanded before the budget truncated the search.
        explored: usize,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Insecure`].
    pub fn is_insecure(&self) -> bool {
        matches!(self, Verdict::Insecure { .. })
    }

    /// `true` for [`Verdict::Secure`] (exhaustive within the bound).
    pub fn is_secure(&self) -> bool {
        matches!(self, Verdict::Secure)
    }

    /// Two verdicts agree when both flag, or both do not flag, a
    /// violation ([`Verdict::Unknown`] agrees with nothing — an
    /// inconclusive search is not evidence of security).
    pub fn agrees_with(&self, other: &Verdict) -> bool {
        match (self, other) {
            (Verdict::Unknown { .. }, _) | (_, Verdict::Unknown { .. }) => false,
            _ => self.is_insecure() == other.is_insecure(),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Secure => f.pad("secure (within bound)"),
            Verdict::Insecure { .. } => f.pad("VIOLATION"),
            Verdict::Unknown { .. } => f.pad("unknown (budget exhausted)"),
        }
    }
}

/// Exploration statistics (used by the tractability benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreStats {
    /// The frontier order the exploration ran under (see
    /// [`crate::StrategyKind::name`]).
    pub strategy: &'static str,
    /// States expanded when the first violation was witnessed (`None`
    /// when no violation was found) — the strategy-comparison metric.
    pub first_witness_states: Option<usize>,
    /// Schedule length (directive count) of the first witness found.
    pub first_witness_depth: Option<usize>,
    /// Symbolic states expanded (after deduplication).
    pub states: usize,
    /// Frontier states pruned because an identical state (same
    /// fingerprint: ROB, registers, memory, path condition) was already
    /// expanded along another schedule.
    pub deduped: usize,
    /// Largest worklist size observed.
    pub frontier_peak: usize,
    /// Complete schedules (paths run to completion or violation).
    pub schedules: usize,
    /// Machine steps taken.
    pub steps: usize,
    /// Solver feasibility queries issued while exploring (delta of the
    /// process-wide counter; approximate when explorations run
    /// concurrently in one process).
    pub solver_queries: usize,
    /// Queries answered from the process-wide verdict memo (same
    /// delta-of-global caveat as [`ExploreStats::solver_queries`]).
    pub solver_memo_hits: usize,
    /// Queries that ran the full solver pipeline.
    pub solver_memo_misses: usize,
    /// Memoized verdicts evicted by the capacity guard while this
    /// exploration ran (LRU by last hit; same delta-of-global caveat as
    /// [`ExploreStats::solver_queries`]).
    pub solver_memo_evicted: usize,
    /// Contended expression-interner lock acquisitions by the
    /// exploring thread (an exact thread-local count, not a delta of a
    /// process-wide counter). Nonzero only when other threads use the
    /// arena at the same time, such as daemon `--jobs K` workers.
    pub arena_lock_waits: usize,
    /// Contended solver-memo lock acquisitions by the exploring thread
    /// (exact, like [`ExploreStats::arena_lock_waits`]).
    pub memo_lock_waits: usize,
    /// Intern constructions and solver queries answered by the
    /// exploring thread's L1 cache, touching no shared lock (exact,
    /// like [`ExploreStats::arena_lock_waits`]).
    pub local_cache_hits: usize,
    /// `true` when exploration hit the state budget and stopped early.
    pub truncated: bool,
    /// `true` when exploration stopped because the wall-clock deadline
    /// ([`crate::ExplorerOptions::deadline_ms`]) expired. Implies
    /// [`ExploreStats::truncated`]: an expired deadline truncates the
    /// search, so a clean (violation-free) run still reports
    /// [`Verdict::Unknown`], never a false `Secure`.
    pub deadline_exceeded: bool,
}

impl Default for ExploreStats {
    fn default() -> Self {
        ExploreStats {
            strategy: "lifo",
            first_witness_states: None,
            first_witness_depth: None,
            states: 0,
            deduped: 0,
            frontier_peak: 0,
            schedules: 0,
            steps: 0,
            solver_queries: 0,
            solver_memo_hits: 0,
            solver_memo_misses: 0,
            solver_memo_evicted: 0,
            arena_lock_waits: 0,
            memo_lock_waits: 0,
            local_cache_hits: 0,
            truncated: false,
            deadline_exceeded: false,
        }
    }
}

/// The analysis report for one program.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations found (possibly several per instruction).
    pub violations: Vec<Violation>,
    /// Exploration statistics.
    pub stats: ExploreStats,
}

impl Report {
    /// `true` when at least one violation was found.
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// The distinct program points flagged.
    pub fn flagged_pcs(&self) -> BTreeSet<Pc> {
        self.violations.iter().map(|v| v.pc).collect()
    }

    /// The typed verdict: [`Verdict::Insecure`] when witnesses exist,
    /// [`Verdict::Unknown`] when the search truncated without one,
    /// [`Verdict::Secure`] when the bounded space was exhausted clean.
    pub fn verdict(&self) -> Verdict {
        if self.has_violations() {
            Verdict::Insecure {
                witnesses: self.violations.len(),
            }
        } else if self.stats.truncated {
            Verdict::Unknown {
                explored: self.stats.states,
            }
        } else {
            Verdict::Secure
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} violation(s); {} states ({} deduped), {} schedules, {} steps{}",
            self.verdict(),
            self.violations.len(),
            self.stats.states,
            self.stats.deduped,
            self.stats.schedules,
            self.stats.steps,
            if self.stats.truncated {
                " (truncated)"
            } else {
                ""
            }
        )?;
        for v in &self.violations {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::Label;

    #[test]
    fn report_verdicts() {
        let mut r = Report::default();
        assert!(!r.has_violations());
        assert_eq!(r.verdict(), Verdict::Secure);
        assert_eq!(r.verdict().to_string(), "secure (within bound)");
        r.stats.truncated = true;
        r.stats.states = 7;
        assert_eq!(r.verdict(), Verdict::Unknown { explored: 7 });
        assert!(!r.verdict().agrees_with(&Verdict::Secure));
        r.stats.truncated = false;
        r.violations.push(Violation {
            observation: Observation::Read {
                addr: 0x66,
                label: Label::Secret,
            },
            schedule: Schedule::new(),
            trace: vec![],
            pc: 3,
            constraints: vec![],
        });
        assert!(r.has_violations());
        assert_eq!(r.verdict(), Verdict::Insecure { witnesses: 1 });
        assert!(r.verdict().is_insecure());
        assert!(r.verdict().agrees_with(&Verdict::Insecure { witnesses: 9 }));
        assert!(!r.verdict().agrees_with(&Verdict::Secure));
        assert!(r.flagged_pcs().contains(&3));
        let text = r.to_string();
        assert!(text.contains("VIOLATION"));
        assert!(text.contains("read 0x66sec"));
    }
}
