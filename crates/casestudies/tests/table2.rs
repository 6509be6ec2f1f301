//! The Table 2 reproduction: the detection matrix must match the
//! paper's prose —
//!
//! * curve25519-donna: no violations in either build;
//! * libsodium secretbox: violation in the C build only (v1 mode);
//! * OpenSSL ssl3 record validate: C flagged in v1 mode, FaCT only
//!   with forwarding-hazard detection;
//! * OpenSSL MEE-CBC: C flagged in v1 mode, FaCT only with
//!   forwarding-hazard detection.


// Legacy-API coverage: this file deliberately exercises the deprecated
// `Detector`/`BatchAnalyzer` wrappers to pin their delegation behaviour.
#![allow(deprecated)]

use sct_casestudies::table2::{self, Cell};
use sct_core::sched::sequential::run_sequential;
use sct_core::Params;

/// Reduced bounds keep the test quick; the bench sweeps the paper's
/// 250/20 configuration.
const V1_BOUND: usize = 40;
const V4_BOUND: usize = 20;

#[test]
fn table2_matrix_matches_paper() {
    let table = table2::run(V1_BOUND, V4_BOUND);
    let expect = [
        ("curve25519-donna", Cell { v1: false, v4: false }, Cell { v1: false, v4: false }),
        ("libsodium secretbox", Cell { v1: true, v4: true }, Cell { v1: false, v4: false }),
        (
            "OpenSSL ssl3 record validate",
            Cell { v1: true, v4: true },
            Cell { v1: false, v4: true },
        ),
        (
            "OpenSSL MEE-CBC",
            Cell { v1: true, v4: true },
            Cell { v1: false, v4: true },
        ),
    ];
    assert_eq!(table.rows.len(), expect.len());
    for (row, (name, c, fact)) in table.rows.iter().zip(expect) {
        assert_eq!(row.name, name);
        assert_eq!(row.c, c, "{name} (C): got {:?}", row.c);
        assert_eq!(row.fact, fact, "{name} (FaCT): got {:?}", row.fact);
    }
    // The rendered table shows the paper's symbols.
    let text = table.to_string();
    assert!(text.contains("curve25519-donna"), "{text}");
    assert!(text.contains('✗'));
    assert!(text.contains('f'));
}

/// Every case study is sequentially constant-time — the violations the
/// detector finds are speculative-only, as in the paper (the case
/// studies were verified sequentially CT by FaCT's authors).
#[test]
fn case_studies_are_sequentially_constant_time() {
    for study in table2::all_studies() {
        let out = run_sequential(
            &study.program,
            study.config.clone(),
            Params::paper(),
            500_000,
        )
        .unwrap_or_else(|e| panic!("{} ({}): {e}", study.name, study.variant.name()));
        assert!(
            out.terminal,
            "{} ({}) did not run to completion",
            study.name,
            study.variant.name()
        );
        assert!(
            out.outcome.trace.is_public(),
            "{} ({}) leaks sequentially",
            study.name,
            study.variant.name()
        );
    }
}

/// Strategy equivalence on Table 2: the full detection matrix is
/// identical under every frontier order — the search strategy may
/// change how fast a witness is found, never whether one is found.
#[test]
fn every_strategy_reproduces_the_table2_matrix() {
    use pitchfork::StrategyKind;
    let baseline = table2::run(V1_BOUND, V4_BOUND);
    for strategy in StrategyKind::ALL {
        let table = table2::run_with_strategy(V1_BOUND, V4_BOUND, strategy);
        for (row, base) in table.rows.iter().zip(baseline.rows.iter()) {
            assert_eq!(
                (row.c, row.fact),
                (base.c, base.fact),
                "{} matrix cell differs under `{}`",
                row.name,
                strategy.name()
            );
        }
    }
}

/// Deduplication must not change any Table 2 verdict, only shrink the
/// exploration (drastically, in v4 mode — the seed's duplicate-blind
/// engine hit its state budget on half the builds).
#[test]
fn dedup_preserves_every_table2_verdict() {
    use pitchfork::{Detector, DetectorOptions};
    for study in table2::all_studies() {
        for (v4, bound) in [(false, V1_BOUND), (true, V4_BOUND)] {
            let mk = |dedup: bool| {
                if v4 {
                    DetectorOptions::v4_mode(bound)
                } else {
                    DetectorOptions::v1_mode(bound)
                }
                .dedup(dedup)
            };
            let on = Detector::new(mk(true)).analyze(&study.program, &study.config);
            let off = Detector::new(mk(false)).analyze(&study.program, &study.config);
            // A truncated run's verdict is budget-dependent (the
            // duplicate-blind engine exceeds its budget on some v4
            // builds); only complete explorations are comparable.
            if on.stats.truncated || off.stats.truncated {
                continue;
            }
            assert_eq!(
                on.has_violations(),
                off.has_violations(),
                "{} ({}) v4={v4}: dedup changed the verdict",
                study.name,
                study.variant.name()
            );
            assert!(
                on.stats.states <= off.stats.states,
                "{} ({}) v4={v4}: dedup explored more states",
                study.name,
                study.variant.name()
            );
        }
    }
}
