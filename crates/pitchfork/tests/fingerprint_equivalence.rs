//! Fingerprint equivalence: two expanded states have equal
//! [`SymState::fingerprint`]s if and only if their
//! `(pc, rob, rsb, regs, mem, constraints)` are structurally equal.
//!
//! A coarser fingerprint would let the visited set prune a live state —
//! a possible false Secure. A finer one would lose dedup. The states are
//! every state the explorer expands, with deduplication off so that
//! reconvergent (structurally equal) states are expanded repeatedly,
//! over the litmus corpus, the Table 2 case studies and seeded
//! `proggen` programs, in v1, v4 and alias modes. One checker spans each
//! test, so states of different programs are compared with each other
//! too.

use pitchfork::observe::{Event, Observer};
use pitchfork::state::SymTransient;
use pitchfork::{DetectorOptions, Explorer, SymState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::rob::Rob;
use sct_core::rsb::Rsb;
use sct_core::{Config, Pc, Program, Reg};
use sct_symx::{Expr, SymMemory, SymRegFile};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Everything the fingerprint covers, compared structurally.
type Key = (Pc, Rob<SymTransient>, Rsb, SymRegFile, SymMemory, Vec<Expr>);

fn key(state: &SymState) -> Key {
    (
        state.pc,
        state.rob.clone(),
        state.rsb.clone(),
        state.regs.clone(),
        state.mem.clone(),
        state.constraints.clone(),
    )
}

/// Fingerprints seen per structural key, and every fingerprint seen.
#[derive(Default)]
struct Checker {
    by_key: HashMap<Key, u128>,
    fingerprints: HashSet<u128>,
    expanded: usize,
}

impl Checker {
    fn check(&mut self, state: &SymState) {
        self.expanded += 1;
        let fp = state.fingerprint();
        let k = key(state);
        match self.by_key.get(&k) {
            Some(&seen) => assert_eq!(
                seen, fp,
                "structurally equal states fingerprint differently at pc {}",
                state.pc
            ),
            None => {
                assert!(
                    self.fingerprints.insert(fp),
                    "fingerprint {fp:#034x} collides between structurally different states \
                     (pc {})",
                    state.pc
                );
                self.by_key.insert(k, fp);
            }
        }
    }
}

struct Collect(Arc<Mutex<Checker>>);

impl Observer for Collect {
    fn on_event(&mut self, event: &Event<'_>) {
        if let Event::StateExpanded { state, .. } = event {
            self.0.lock().expect("checker lock").check(state);
        }
    }
}

/// The three exploration modes, deduplication off, with a state budget
/// that keeps the debug-build test fast.
fn modes(bound: usize, max_states: usize) -> [DetectorOptions; 3] {
    [
        DetectorOptions::v1_mode(bound),
        DetectorOptions::v4_mode(bound),
        DetectorOptions::alias_mode(bound),
    ]
    .map(|mut o| {
        o.explorer.dedup_states = false;
        o.explorer.max_states = max_states;
        o.explorer.max_violations = usize::MAX;
        o.explorer.stop_path_on_violation = false;
        o
    })
}

/// Explore `program` in every mode, feeding each expanded state to the
/// checker.
fn explore_all(
    checker: &Arc<Mutex<Checker>>,
    program: &Program,
    config: &Config,
    symbolic: &[Reg],
    bound: usize,
    max_states: usize,
) {
    for options in modes(bound, max_states) {
        let explorer = Explorer::with_params(program, options.params, options.explorer);
        let mut observers: Vec<pitchfork::observe::BoxObserver> =
            vec![Box::new(Collect(Arc::clone(checker)))];
        explorer.explore_observed(
            SymState::from_config_symbolizing(config, symbolic),
            &mut observers,
        );
    }
}

/// Distinct structural states and expansions the checker saw.
fn counts(checker: &Arc<Mutex<Checker>>) -> (usize, usize) {
    let c = checker.lock().expect("checker lock");
    (c.by_key.len(), c.expanded)
}

#[test]
fn litmus_corpus_fingerprints_match_structure() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../litmus/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("litmus corpus dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sasm"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 23, "corpus shrank to {}", paths.len());
    let ra = Reg::parse("ra").expect("ra parses");
    let checker = Arc::new(Mutex::new(Checker::default()));
    for path in &paths {
        let source = std::fs::read_to_string(path).expect("corpus entry reads");
        let asm = sct_asm::assemble(&source).expect("corpus entry assembles");
        for symbolic in [&[][..], &[ra][..]] {
            explore_all(&checker, &asm.program, &asm.config, symbolic, 20, 5_000);
        }
    }
    let (distinct, expanded) = counts(&checker);
    assert!(
        expanded > distinct,
        "dedup off must re-expand reconvergent states"
    );
}

#[test]
fn table2_fingerprints_match_structure() {
    let checker = Arc::new(Mutex::new(Checker::default()));
    for study in sct_casestudies::table2::all_studies() {
        explore_all(&checker, &study.program, &study.config, &[], 20, 3_000);
    }
    let (distinct, expanded) = counts(&checker);
    assert!(
        expanded > distinct,
        "dedup off must re-expand reconvergent states"
    );
}

#[test]
fn proggen_fingerprints_match_structure() {
    let opts = ProgGenOptions::default();
    let symbolic = [Reg::gpr(0)];
    let checker = Arc::new(Mutex::new(Checker::default()));
    for seed in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = random_program(&mut rng, &opts);
        let config = random_config(&mut rng, &opts);
        // Even seeds concrete, odd seeds with a symbolic register.
        let sym = if seed % 2 == 0 {
            &[][..]
        } else {
            &symbolic[..]
        };
        explore_all(&checker, &program, &config, sym, 10, 200);
    }
    let (distinct, expanded) = counts(&checker);
    assert!(
        expanded > distinct,
        "dedup off must re-expand reconvergent states"
    );
}
