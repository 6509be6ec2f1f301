//! Table 2: run Pitchfork over every case study in both modes and
//! render the paper's detection matrix.

use crate::common::{CaseStudy, Variant};
use crate::{donna, meecbc, secretbox, ssl3};
use pitchfork::{AnalysisSession, BatchItem, BatchReport, DetectorOptions, StrategyKind};
use std::fmt;

/// The verdicts for one build of one case study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Flagged in v1/v1.1 mode (no forwarding hazards).
    pub v1: bool,
    /// Flagged in v4 mode (with forwarding hazards).
    pub v4: bool,
}

impl Cell {
    /// The paper's notation: `✗` = violation found in v1 mode, `f` =
    /// found only with forwarding-hazard detection, `✓` = no violation.
    pub fn symbol(&self) -> &'static str {
        match (self.v1, self.v4) {
            (true, _) => "✗",
            (false, true) => "f",
            (false, false) => "✓",
        }
    }
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Row {
    /// Case-study name.
    pub name: &'static str,
    /// The C build's verdicts.
    pub c: Cell,
    /// The FaCT build's verdicts.
    pub fact: Cell,
}

/// The whole table, with the bounds used.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Rows in paper order.
    pub rows: Vec<Row>,
    /// Speculation bound used in v1 mode.
    pub v1_bound: usize,
    /// Speculation bound used in v4 mode.
    pub v4_bound: usize,
}

/// All eight case-study builds (four studies × two variants).
pub fn all_studies() -> Vec<CaseStudy> {
    vec![
        donna::c_variant(),
        donna::fact_variant(),
        secretbox::c_variant(),
        secretbox::fact_variant(),
        ssl3::c_variant(),
        ssl3::fact_variant(),
        meecbc::c_variant(),
        meecbc::fact_variant(),
    ]
}

/// Analyze one build in one mode.
pub fn analyze(study: &CaseStudy, forwarding_hazards: bool, bound: usize) -> pitchfork::Report {
    let options = if forwarding_hazards {
        DetectorOptions::v4_mode(bound)
    } else {
        DetectorOptions::v1_mode(bound)
    };
    AnalysisSession::with_options(options).analyze(&study.program, &study.config)
}

/// The key a study gets inside the Table 2 batches.
fn item_name(study: &CaseStudy) -> String {
    format!(
        "{}/{}",
        study.name,
        match study.variant {
            Variant::C => "c",
            Variant::Fact => "fact",
        }
    )
}

/// All eight builds as batch items.
pub fn batch_items() -> Vec<BatchItem> {
    all_studies()
        .into_iter()
        .map(|s| BatchItem::new(item_name(&s), s.program, s.config))
        .collect()
}

/// Run the full Table 2 experiment under the given frontier order,
/// mirroring §4.2.1's procedure: v1 mode with a deep bound first; v4
/// mode with a reduced bound. Both passes run through one
/// [`AnalysisSession`], so all eight builds share the expression arena
/// and the aggregate statistics cover the whole matrix.
pub fn run_with_strategy(v1_bound: usize, v4_bound: usize, strategy: StrategyKind) -> Table2 {
    let mut session = AnalysisSession::builder()
        .v1_mode(v1_bound)
        .strategy(strategy)
        .build()
        .expect("uncached session");
    let v1 = session.run_batch(batch_items());
    session.set_options(DetectorOptions::v4_mode(v4_bound));
    let v4 = session.run_batch(batch_items());
    from_batches(&v1, &v4, v1_bound, v4_bound)
}

/// [`run_with_strategy`] under the default (LIFO) order.
pub fn run(v1_bound: usize, v4_bound: usize) -> Table2 {
    run_with_strategy(v1_bound, v4_bound, StrategyKind::Lifo)
}

/// [`run`], warm-started from (and saved back to) a `sct-cache`
/// snapshot through one [`AnalysisSession`]: the v1 batch hydrates the
/// arena and verdict memo from `cache`, both batch reports carry
/// solver-memo statistics, and the state after both passes is
/// persisted for the next invocation. Returns the per-mode batch
/// reports alongside the rendered table.
pub fn run_cached(
    v1_bound: usize,
    v4_bound: usize,
    cache: &std::path::Path,
) -> Result<(Table2, BatchReport, BatchReport), sct_cache::CacheError> {
    let mut session = AnalysisSession::builder()
        .v1_mode(v1_bound)
        .cache(cache)
        .build()?;
    let v1 = session.run_batch(batch_items());
    session.set_options(DetectorOptions::v4_mode(v4_bound));
    let v4 = session.run_batch(batch_items());
    session.save()?;
    Ok((from_batches(&v1, &v4, v1_bound, v4_bound), v1, v4))
}

/// Assemble the detection matrix from one batch per mode (exposed so
/// callers holding their own batch reports — the bench, the example —
/// can render the paper's table without re-running).
pub fn from_batches(v1: &BatchReport, v4: &BatchReport, v1_bound: usize, v4_bound: usize) -> Table2 {
    let names = [
        "curve25519-donna",
        "libsodium secretbox",
        "OpenSSL ssl3 record validate",
        "OpenSSL MEE-CBC",
    ];
    let flagged = |batch: &BatchReport, key: &str| {
        batch
            .outcome(key)
            .is_some_and(|o| o.report.has_violations())
    };
    let rows = names
        .into_iter()
        .map(|name| {
            let cell = |variant: &str| Cell {
                v1: flagged(v1, &format!("{name}/{variant}")),
                v4: flagged(v4, &format!("{name}/{variant}")),
            };
            Row {
                name,
                c: cell("c"),
                fact: cell("fact"),
            }
        })
        .collect();
    Table2 {
        rows,
        v1_bound,
        v4_bound,
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: ✗ = SCT violation; f = violation only with forwarding"
        )?;
        writeln!(
            f,
            "hazard detection; ✓ = no violation (bounds: v1 {}, v4 {})",
            self.v1_bound, self.v4_bound
        )?;
        writeln!(f)?;
        writeln!(f, "{:<32} {:>4} {:>5}", "Case Study", "C", "FaCT")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<32} {:>4} {:>5}",
                row.name,
                row.c.symbol(),
                row.fact.symbol()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_symbols() {
        assert_eq!(Cell { v1: true, v4: true }.symbol(), "✗");
        assert_eq!(Cell { v1: false, v4: true }.symbol(), "f");
        assert_eq!(Cell { v1: false, v4: false }.symbol(), "✓");
    }
}
