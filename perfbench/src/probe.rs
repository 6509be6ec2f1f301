//! The layer probe of the traced run: the cost per call of
//! `SymMachine::step`, `SymState::fingerprint`, `SymState::clone` and a
//! frontier `push` + `pop`, on states collected along seeded walks over
//! `explore_concrete`'s programs. Each walk follows the reference
//! machine's applicable directives, as the differential test does, so
//! every collected (state, directive) pair is one the symbolic machine
//! accepts.

use crate::explore;
use crate::inputs;
use crate::report::Outcome;
use crate::stats::median;
use pitchfork::{StrategyKind, SymMachine, SymState};
use rand::Rng;
use sct_core::sched::enumerate::applicable_directives;
use sct_core::{Directive, Machine, Program};
use std::hint::black_box;
use std::time::Instant;

/// Programs walked, steps per walk at most, and timed repetitions.
const PROGRAMS: usize = 64;
const STEPS: usize = 120;
const REPS: usize = 7;

/// Random-stream id of the walks' directive choices.
const WALK_STREAM: u64 = 101;

/// One program's walk: the states met and the directive taken from each.
struct Walk {
    program: Program,
    states: Vec<(SymState, Directive)>,
}

fn walks(seed: u64) -> Vec<Walk> {
    let spec = &explore::CONCRETE;
    let mut rng = inputs::rng(seed, WALK_STREAM);
    inputs::proggen(seed, spec.stream, PROGRAMS, spec.len)
        .into_iter()
        .map(|(program, config)| {
            let mut states = Vec::new();
            {
                let mut reference = Machine::new(&program, config.clone());
                let machine = SymMachine::new(&program);
                let mut state = SymState::from_config(&config);
                for _ in 0..STEPS {
                    let candidates = applicable_directives(&reference);
                    if candidates.is_empty() {
                        break;
                    }
                    let d = candidates[rng.gen_range(0..candidates.len())];
                    if reference.step(d).is_err() {
                        break;
                    }
                    let Ok(succs) = machine.step(&state, d) else {
                        break;
                    };
                    let Some(next) = succs.into_iter().next() else {
                        break;
                    };
                    states.push((state, d));
                    state = next;
                }
            }
            Walk { program, states }
        })
        .collect()
}

/// Nanoseconds per call of `f` over every collected state, the median
/// of `REPS` timed sweeps.
fn per_call(walks: &[Walk], mut sweep: impl FnMut(&Walk)) -> f64 {
    let calls: usize = walks.iter().map(|w| w.states.len()).sum();
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        for w in walks {
            sweep(w);
        }
        samples.push(start.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&samples)
}

/// Measure the four per-call costs into `out`.
pub fn measure(seed: u64, out: &mut Outcome) {
    let walks = walks(seed);
    let step = per_call(&walks, |w| {
        let machine = SymMachine::new(&w.program);
        for (s, d) in &w.states {
            let _ = black_box(machine.step(black_box(s), *d));
        }
    });
    let fingerprint = per_call(&walks, |w| {
        for (s, _) in &w.states {
            black_box(black_box(s).fingerprint());
        }
    });
    let clone = per_call(&walks, |w| {
        for (s, _) in &w.states {
            drop(black_box(black_box(s).clone()));
        }
    });
    // push + pop of the session's default frontier order; the clones that
    // feed `push` are made before the clock starts.
    let calls: usize = walks.iter().map(|w| w.states.len()).sum();
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let batch: Vec<SymState> = walks
            .iter()
            .flat_map(|w| w.states.iter().map(|(s, _)| s.clone()))
            .collect();
        let mut frontier = StrategyKind::default().frontier();
        let start = Instant::now();
        for s in batch {
            frontier.push(s);
        }
        let mut popped = Vec::with_capacity(calls);
        while let Some(s) = frontier.pop() {
            popped.push(s);
        }
        samples.push(start.elapsed().as_nanos() as f64 / calls.max(1) as f64);
        black_box(popped);
    }
    out.set("machine.step_ns", step);
    out.set("state.fingerprint_ns", fingerprint);
    out.set("state.clone_ns", clone);
    out.set("strategy.push_pop_ns", median(&samples));
}
