//! The corpus through a live daemon: `harness::run_corpus_served`
//! against an in-process `pitchfork::server::Server`, pinned to the
//! batch-mode verdicts, plus the two-sequential-clients memo-warm
//! property on a single corpus entry, and the full corpus through
//! concurrent job workers pinned witness for witness to a serial
//! batch.

use pitchfork::client::Client;
use pitchfork::fleet::report_line;
use pitchfork::server::Server;
use pitchfork::service::{Job, JobMode, JobSpec, SessionService};
use pitchfork::{AnalysisSession, DetectorOptions, Report, SessionBuilder};
use sct_litmus::corpus;
use sct_litmus::harness::{self, run_corpus_served};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Solver statistics are deltas of process-wide counters, so a test
/// that asserts on them must not overlap another test that queries
/// the solver. Both such tests in this file hold this lock.
static SOLVER_COUNTERS: Mutex<()> = Mutex::new(());

fn start_server(label: &str) -> (Server, std::path::PathBuf) {
    let sock = std::env::temp_dir().join(format!(
        "sct_litmus_{label}_{}.sock",
        std::process::id()
    ));
    let session = SessionBuilder::new()
        .v1_mode(16)
        .build()
        .expect("uncached session");
    let server = Server::bind(&sock, SessionService::new(session)).expect("bind");
    (server, sock)
}

/// A corpus slice that covers flagged and safe entries in both modes
/// (kept under the full 23 so the served pass stays quick).
fn subset() -> Vec<corpus::CorpusEntry> {
    corpus::entries()
        .into_iter()
        .filter(|e| {
            matches!(
                e.name,
                "spectre_v1"
                    | "spectre_v1_fenced"
                    | "spectre_v4"
                    | "kocher_03"
                    | "kocher_08"
                    | "ct_select"
            )
        })
        .collect()
}

#[test]
fn served_corpus_matches_batch_verdicts() {
    let entries = subset();
    assert!(entries.len() >= 5, "subset names drifted from the corpus");
    let cases: Vec<_> = entries
        .iter()
        .map(|entry| {
            let asm = corpus::assemble_entry(entry);
            harness::LitmusCase {
                name: entry.name,
                description: "served corpus entry",
                program: asm.program,
                config: asm.config,
                expect: entry.expect,
                bound: entry.bound,
            }
        })
        .collect();
    let batch = harness::run_corpus(&cases);

    let (server, sock) = start_server("corpus");
    let mut client = Client::connect(&sock).expect("connect");
    for (mode, report) in [(JobMode::V1, &batch.v1), (JobMode::V4, &batch.v4)] {
        let served = run_corpus_served(&entries, &mut client, mode).expect("served corpus");
        assert_eq!(served.len(), entries.len());
        for outcome in &served {
            let batch_outcome = report
                .outcome(&outcome.name)
                .unwrap_or_else(|| panic!("{}: missing from batch report", outcome.name));
            // Verdict display strings are the contract ("byte-identical
            // to batch mode"), states pin the exploration itself.
            let view_verdict = outcome.view.verdict.expect("done");
            assert_eq!(
                view_verdict.to_string(),
                batch_outcome.report.verdict().to_string(),
                "{} under {mode:?}",
                outcome.name
            );
            assert_eq!(
                outcome.view.stats.expect("stats").states,
                batch_outcome.report.stats.states,
                "{} under {mode:?}",
                outcome.name
            );
        }
    }
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn second_client_gets_a_memo_warm_answer() {
    let _solver = SOLVER_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let entry = corpus::entries()
        .into_iter()
        .find(|e| e.name == "spectre_v1")
        .expect("corpus carries spectre_v1");
    // Symbolize the attacker index so the analysis actually queries the
    // solver (fully concrete corpus runs constant-fold every branch).
    let spec = JobSpec {
        bound: Some(entry.bound),
        symbolic: vec![sct_core::reg::names::RA],
        ..JobSpec::default()
    };
    let (server, sock) = start_server("memo");

    let mut first = Client::connect(&sock).expect("first client");
    let id1 = first
        .submit_source(entry.name, entry.source, spec.clone())
        .expect("submit");
    let cold = first
        .wait(id1, Duration::from_secs(60))
        .expect("cold run")
        .stats
        .expect("stats");
    assert!(cold.solver_queries > 0, "symbolic run queries the solver");
    drop(first);

    let mut second = Client::connect(&sock).expect("second client");
    let id2 = second
        .submit_source(entry.name, entry.source, spec)
        .expect("submit again");
    let warm = second
        .wait(id2, Duration::from_secs(60))
        .expect("warm run")
        .stats
        .expect("stats");
    assert_eq!(warm.states, cold.states, "same exploration either way");
    assert!(
        warm.solver_memo_hits > 0,
        "the second client is answered from the first client's memo: {warm:?}"
    );
    assert_eq!(
        warm.solver_memo_misses, 0,
        "nothing left to solve on the repeat submission: {warm:?}"
    );
    second.shutdown().expect("shutdown");
    server.wait();
}

/// What must not depend on timing: the verdict line (verdict, states,
/// schedules, strategy, truncation), the remaining exploration counts,
/// and every witness in order as `(pc, schedule, observation)`.
type Fingerprint = (String, [usize; 2], Option<usize>, Vec<(u64, String, String)>);

fn fingerprint(name: &str, report: &Report) -> Fingerprint {
    let s = &report.stats;
    (
        report_line(
            name,
            report.verdict(),
            s.states,
            s.schedules,
            s.strategy,
            s.truncated,
        ),
        [s.steps, s.deduped],
        s.first_witness_states,
        report
            .violations
            .iter()
            .map(|v| (v.pc, v.schedule.to_string(), v.observation.to_string()))
            .collect(),
    )
}

/// Concurrency exists only across programs: two daemon job workers
/// racing over the whole corpus must report exactly what one serial
/// batch reports, for every entry, in v1 and v4, concrete and with
/// `ra` symbolic. `kocher_15` is the entry whose leak is reachable
/// along two schedule prefixes, so a timing-dependent engine would
/// name different witnesses for it.
#[test]
fn concurrent_jobs_match_serial_batch_witness_for_witness() {
    let _solver = SOLVER_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let entries = corpus::entries();
    assert_eq!(entries.len(), 23, "the corpus changed size");
    let cases = corpus::cases();
    let ra = [sct_core::reg::names::RA];
    for (mode, options) in [
        (JobMode::V1, DetectorOptions::v1_mode(16)),
        (JobMode::V4, DetectorOptions::v4_mode(16)),
    ] {
        for symbolic in [&[][..], &ra[..]] {
            let mut session = AnalysisSession::builder()
                .options(options)
                .build()
                .expect("uncached session");
            let serial = session.run_batch(harness::symbolic_batch_items(&cases, symbolic));

            let mut svc = SessionService::new(
                SessionBuilder::new()
                    .v1_mode(16)
                    .build()
                    .expect("uncached session"),
            );
            let ids: Vec<_> = cases
                .iter()
                .map(|case| {
                    let spec = JobSpec {
                        mode,
                        bound: Some(case.bound),
                        symbolic: symbolic.to_vec(),
                        ..JobSpec::default()
                    };
                    let job =
                        Job::with_spec(case.name, case.program.clone(), case.config.clone(), spec);
                    (case.name, svc.submit(job))
                })
                .collect();
            assert_eq!(svc.run_concurrent(2), cases.len());

            for (name, id) in ids {
                let report = svc
                    .record(id)
                    .and_then(|r| r.report)
                    .unwrap_or_else(|| panic!("{name}: no report"));
                let batch = serial
                    .outcome(name)
                    .unwrap_or_else(|| panic!("{name}: missing from the serial batch"));
                assert_eq!(
                    fingerprint(name, &report),
                    fingerprint(name, &batch.report),
                    "{name} under {mode:?} (symbolic {symbolic:?}) differs between concurrent \
                     jobs and the serial batch; kocher_15 is the entry with two schedule \
                     prefixes to one leak"
                );
            }
        }
    }
}
