//! The reference every verdict is checked against. It never asks the
//! explorer: witnesses replay on `sct_core`'s reference machine, litmus
//! entries carry their expected verdicts, and the Table 2 cells are the
//! paper's.

use pitchfork::{Report, Verdict};
use sct_core::{Config, Machine, Program};

/// Check an analysis of a fully concrete input. An insecure verdict
/// holds only if every witness schedule runs on the reference machine
/// and its trace carries a secret-labelled observation; an unknown
/// verdict is a failure. A secure verdict has no witness to replay and
/// is accepted.
pub fn check_concrete(program: &Program, config: &Config, report: &Report) -> Result<(), String> {
    match report.verdict() {
        Verdict::Unknown { explored } => Err(format!("unknown after {explored} states")),
        Verdict::Secure => Ok(()),
        Verdict::Insecure { .. } => {
            for (i, v) in report.violations.iter().enumerate() {
                let mut machine = Machine::new(program, config.clone());
                let run = machine
                    .run(&v.schedule)
                    .map_err(|e| format!("witness {i} does not replay: {e}"))?;
                if run.trace.first_secret().is_none() {
                    return Err(format!("witness {i} replays without a secret observation"));
                }
            }
            Ok(())
        }
    }
}

/// Check an analysis whose input had symbolized registers. Witnesses
/// were found for some value of those registers, not for the concrete
/// configuration, so only the verdict's form is checked: it must not be
/// unknown, and an insecure verdict must carry secret-labelled
/// witnesses.
pub fn check_symbolic(report: &Report) -> Result<(), String> {
    match report.verdict() {
        Verdict::Unknown { explored } => Err(format!("unknown after {explored} states")),
        Verdict::Secure => Ok(()),
        Verdict::Insecure { .. } => {
            if report.violations.iter().all(|v| v.observation.is_secret()) {
                Ok(())
            } else {
                Err("witness observation is not secret".to_string())
            }
        }
    }
}

/// Table 2 of the paper, as `(study, variant, cell)`: `✗` = flagged
/// without forwarding hazards, `f` = flagged only with them, `✓` = no
/// violation.
pub const TABLE2: [(&str, &str, &str); 8] = [
    ("curve25519-donna", "C", "✓"),
    ("curve25519-donna", "FaCT", "✓"),
    ("libsodium secretbox", "C", "✗"),
    ("libsodium secretbox", "FaCT", "✓"),
    ("OpenSSL ssl3 record validate", "C", "✗"),
    ("OpenSSL ssl3 record validate", "FaCT", "f"),
    ("OpenSSL MEE-CBC", "C", "✗"),
    ("OpenSSL MEE-CBC", "FaCT", "f"),
];

/// The paper's cell for a case study, by its name and variant label.
pub fn table2_cell(study: &str, variant: &str) -> Option<&'static str> {
    TABLE2
        .iter()
        .find(|(s, v, _)| *s == study && *v == variant)
        .map(|(_, _, cell)| *cell)
}

/// The Table 2 symbol for a pair of verdicts (v1 mode, v4 mode).
pub fn cell_symbol(v1_insecure: bool, v4_insecure: bool) -> &'static str {
    match (v1_insecure, v4_insecure) {
        (true, _) => "✗",
        (false, true) => "f",
        (false, false) => "✓",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_follow_the_paper_notation() {
        assert_eq!(cell_symbol(true, true), "✗");
        assert_eq!(cell_symbol(false, true), "f");
        assert_eq!(cell_symbol(false, false), "✓");
        assert_eq!(table2_cell("OpenSSL MEE-CBC", "FaCT"), Some("f"));
    }
}
