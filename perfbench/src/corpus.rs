//! The corpus `ci_gate` re-gates and `daemon_submit` submits: the litmus
//! corpus, the Table 2 case studies and seeded `proggen` programs, all
//! as `.sasm` text, each gated in v1 and v4 mode. Every generated
//! program also has an edited version, one line different, that the
//! edit→re-gate loop toggles to.
//!
//! [`Reference`] holds the verdict line every (entry, version, mode)
//! must produce, computed by a fresh one-shot analysis and checked
//! against [`crate::oracle`] before any measurement uses it.

use crate::inputs::{self, SourceFile};
use crate::oracle;
use crate::stats::Fnv;
use pitchfork::fleet::report_line;
use pitchfork::service::JobMode;
use pitchfork::{AnalysisSession, Verdict};
use rand::Rng;
use sct_core::{Instr, Reg};
use sct_litmus::harness::Expectation;
use std::path::{Path, PathBuf};

/// The two gates: v1 mode (no forwarding hazards) and v4 mode.
pub const MODES: [JobMode; 2] = [JobMode::V1, JobMode::V4];

/// Generated programs in the corpus `ci_gate` re-gates, and in the one
/// `daemon_submit` submits, and their length. Many small programs:
/// per-program cost is heavy-tailed, and with a few large ones the
/// latency percentiles would follow whichever slow programs a seed drew.
/// The daemon's corpus is larger because its latency percentiles are
/// taken over single submissions, which a `ci_gate` round batches.
pub const CI_GATE_GENERATED: usize = 256;
pub const DAEMON_GENERATED: usize = 1024;
const GENERATED_LEN: usize = 6;
/// Speculation bounds of the generated programs and of Table 2 in
/// (v1, v4) mode; Table 2 uses the paper's.
const GENERATED_BOUNDS: [usize; 2] = [20, 20];
const TABLE2_BOUNDS: [usize; 2] = [250, 20];
/// Random streams of the generated programs and of their edits.
const PROGRAM_STREAM: u64 = 3;
const EDIT_STREAM: u64 = 4;

/// What an entry's verdicts are checked against.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A litmus entry's expected verdict per mode.
    Litmus(Expectation),
    /// A Table 2 build and the paper's cell for it.
    Table2(&'static str),
    /// A generated program analyzed with `ra` symbolic: the verdict must
    /// not be unknown and its witnesses must be secret observations.
    Generated,
}

/// One corpus file with its versions and analysis settings.
#[derive(Clone, Debug)]
pub struct Entry {
    pub name: String,
    /// Version 0 is the original; a generated entry has an edited
    /// version 1 that differs in exactly one line.
    pub versions: Vec<String>,
    /// Speculation bound per mode, in [`MODES`] order.
    pub bounds: [usize; 2],
    /// Registers symbolized when analyzing this entry.
    pub symbolic: Vec<Reg>,
    pub expect: Expect,
}

impl Entry {
    /// The file of one version.
    pub fn file(&self, version: usize) -> SourceFile {
        SourceFile {
            name: self.name.clone(),
            source: self.versions[version].clone(),
        }
    }
}

/// Generate the corpus for a seed, with `generated` seeded programs.
pub fn generate(seed: u64, generated: usize) -> Vec<Entry> {
    let mut entries = Vec::new();
    for e in sct_litmus::corpus::entries() {
        entries.push(Entry {
            name: format!("litmus/{}.sasm", e.name),
            versions: vec![e.source.to_string()],
            bounds: [e.bound, e.bound],
            symbolic: Vec::new(),
            expect: Expect::Litmus(e.expect),
        });
    }
    for study in sct_casestudies::table2::all_studies() {
        let variant = study.variant.name();
        let cell = oracle::table2_cell(study.name, variant).expect("every study is in Table 2");
        entries.push(Entry {
            name: format!("table2/{}-{}.sasm", study.name.replace(' ', "_"), variant),
            versions: vec![inputs::render(&study.program, &study.config)],
            bounds: TABLE2_BOUNDS,
            symbolic: Vec::new(),
            expect: Expect::Table2(cell),
        });
    }
    let mut edits = inputs::rng(seed, EDIT_STREAM);
    for (i, (program, config)) in inputs::proggen(seed, PROGRAM_STREAM, generated, GENERATED_LEN)
        .into_iter()
        .enumerate()
    {
        let original = inputs::render(&program, &config);
        // The edit replaces one straight-line instruction with a fence,
        // which changes that line and no label.
        let candidates: Vec<_> = program
            .iter()
            .filter(|(_, i)| {
                matches!(
                    i,
                    Instr::Op { .. } | Instr::Load { .. } | Instr::Store { .. }
                )
            })
            .map(|(pc, _)| pc)
            .collect();
        let mut versions = vec![original];
        if !candidates.is_empty() {
            let pc = candidates[edits.gen_range(0..candidates.len())];
            let mut edited = program.clone();
            edited.insert(pc, Instr::Fence { next: pc + 1 });
            versions.push(inputs::render(&edited, &config));
        }
        // `ra` is symbolic, as `ci-gate --symbolic ra` runs a corpus, so
        // the solver runs and the baseline snapshot carries memoized
        // verdicts. The litmus and Table 2 entries stay concrete: their
        // expected verdicts are stated for their concrete configurations.
        entries.push(Entry {
            name: format!("gen/prog_{i:04}.sasm"),
            versions,
            bounds: GENERATED_BOUNDS,
            symbolic: vec![sct_core::reg::names::RA],
            expect: Expect::Generated,
        });
    }
    entries
}

/// Hash every version of every entry.
pub fn hash(entries: &[Entry]) -> u64 {
    let mut h = Fnv::default();
    for e in entries {
        for v in &e.versions {
            h.write(e.name.as_bytes());
            h.write(v.as_bytes());
            h.write(&[0]);
        }
    }
    h.finish()
}

/// Lines that differ between two texts of equal line count (`usize::MAX`
/// when the counts differ).
pub fn changed_lines(a: &str, b: &str) -> usize {
    if a.lines().count() != b.lines().count() {
        return usize::MAX;
    }
    a.lines().zip(b.lines()).filter(|(x, y)| x != y).count()
}

/// A checked verdict: the report line and the typed verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub line: String,
    pub verdict: Verdict,
}

/// The expected verdict of every (entry, version, mode).
pub struct Reference {
    /// Indexed `[entry][version][mode]`.
    pub expected: Vec<Vec<[Expected; 2]>>,
}

impl Reference {
    /// The expected verdict of an entry's version in a mode.
    pub fn get(&self, entry: usize, version: usize, mode: usize) -> &Expected {
        &self.expected[entry][version][mode]
    }
}

/// Analyze every (entry, version, mode) one-shot and check the verdicts
/// against the oracle. Returns the reference and the failures found.
pub fn reference(entries: &[Entry]) -> (Reference, Vec<String>) {
    let mut failures = Vec::new();
    let mut sessions = MODES.map(|m| {
        AnalysisSession::builder()
            .options(m.options(20))
            .build()
            .expect("a session without a cache always builds")
    });
    let mut expected = Vec::new();
    for e in entries {
        let mut per_version = Vec::new();
        for (v, source) in e.versions.iter().enumerate() {
            if v > 0 && changed_lines(&e.versions[0], source) != 1 {
                failures.push(format!(
                    "{}: the edit does not change exactly one line",
                    e.name
                ));
            }
            let asm = inputs::assemble(&e.file(v));
            let per_mode: [Expected; 2] = std::array::from_fn(|m| {
                let session = &mut sessions[m];
                session.set_options(MODES[m].options(e.bounds[m]));
                let report = session.analyze_symbolic(&asm.program, &asm.config, &e.symbolic);
                let verdict = report.verdict();
                let check = match e.expect {
                    Expect::Generated => oracle::check_symbolic(&report),
                    _ if matches!(verdict, Verdict::Unknown { .. }) => Err("unknown".to_string()),
                    Expect::Litmus(x) => {
                        let want = if m == 0 {
                            x.v1_violation
                        } else {
                            x.v4_violation
                        };
                        if verdict.is_insecure() == want {
                            Ok(())
                        } else {
                            Err(format!("expected insecure={want}, got {verdict}"))
                        }
                    }
                    Expect::Table2(_) => Ok(()),
                };
                if let Err(err) = check {
                    failures.push(format!("{} v{v} {}: {err}", e.name, MODES[m]));
                }
                Expected {
                    line: report_line(
                        &e.name,
                        verdict,
                        report.stats.states,
                        report.stats.schedules,
                        report.stats.strategy,
                        report.stats.truncated,
                    ),
                    verdict,
                }
            });
            if let Expect::Table2(cell) = e.expect {
                let got = oracle::cell_symbol(
                    per_mode[0].verdict.is_insecure(),
                    per_mode[1].verdict.is_insecure(),
                );
                if got != cell {
                    failures.push(format!(
                        "{}: Table 2 cell {got}, the paper has {cell}",
                        e.name
                    ));
                }
            }
            per_version.push(per_mode);
        }
        expected.push(per_version);
    }
    (Reference { expected }, failures)
}

/// A verdict line with its verdict turned around.
pub fn flip_verdict(line: &str) -> String {
    const INSECURE: &str = "VIOLATION";
    const SECURE: &str = "secure (within bound)";
    if line.contains(INSECURE) {
        line.replace(INSECURE, SECURE)
    } else {
        line.replace(SECURE, INSECURE)
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Workdir(PathBuf);

impl Workdir {
    pub fn new(tag: &str) -> Workdir {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Workdir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
