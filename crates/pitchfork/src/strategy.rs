//! Pluggable frontier orders for the worklist explorer.
//!
//! The explorer of [`crate::explorer`] is agnostic to the order in
//! which frontier states are expanded: any order visits the same set of
//! distinct states (the visited set is order-insensitive), so every
//! strategy reaches the same *verdict* — but the number of states
//! expanded before the **first witness** differs wildly. Under a tight
//! state budget the right order is the difference between finding a
//! violation and truncating without one; the strategy-equivalence test
//! suite pins the former invariant, the `strategy_sweep` bench measures
//! the latter.
//!
//! Four orders ship:
//!
//! * [`Lifo`] — depth-first (the historical default): follows one
//!   schedule to completion before backtracking, cheap and
//!   cache-friendly;
//! * [`Fifo`] — breadth-first: finds *shortest* witness schedules,
//!   at the cost of a wide frontier;
//! * [`DeepestRob`] — priority on reorder-buffer occupancy: states
//!   speculating most deeply expand first, on the theory that Spectre
//!   witnesses live at maximal transient depth;
//! * [`ViolationLikely`] — priority on a leak-proximity score:
//!   unresolved branches in flight (mis-speculation in progress) and
//!   pending loads (the instructions that produce observations) weigh
//!   a state up.
//!
//! Strategies are selected by [`StrategyKind`] (builder- and
//! CLI-facing) or injected as custom [`SearchStrategy`] trait objects
//! via [`crate::SessionBuilder`].

use crate::state::{SymState, SymTransient};
use std::collections::{BinaryHeap, VecDeque};

/// A frontier order: the mutable worklist the explorer pushes successor
/// states into and pops the next state to expand from.
///
/// One strategy instance lives for exactly one exploration; the
/// explorer constructs a fresh frontier per [`crate::Explorer::explore`]
/// call through [`StrategyKind::frontier`] (or the session's custom
/// factory). Implementations must be deterministic: two explorations of
/// the same program with the same options must pop states in the same
/// order, or reports stop being reproducible.
pub trait SearchStrategy {
    /// The strategy's stable display name (appears in
    /// [`crate::ExploreStats::strategy`], JSON reports, and `--strategy`).
    fn name(&self) -> &'static str;

    /// Enqueue a successor state.
    fn push(&mut self, state: SymState);

    /// Dequeue the next state to expand; `None` ends the exploration.
    fn pop(&mut self) -> Option<SymState>;

    /// States currently enqueued (drives `frontier_peak`).
    fn len(&self) -> usize;

    /// `true` when no state is enqueued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The built-in strategies, as a `Copy` selector for options structs,
/// builders, and CLI flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StrategyKind {
    /// Depth-first stack order (the default).
    #[default]
    Lifo,
    /// Breadth-first queue order.
    Fifo,
    /// Deepest reorder-buffer occupancy first.
    DeepestRob,
    /// Highest leak-proximity score first.
    ViolationLikely,
}

impl StrategyKind {
    /// Every built-in strategy, in canonical order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Lifo,
        StrategyKind::Fifo,
        StrategyKind::DeepestRob,
        StrategyKind::ViolationLikely,
    ];

    /// The stable name (`lifo`, `fifo`, `deepest-rob`,
    /// `violation-likely`).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Lifo => "lifo",
            StrategyKind::Fifo => "fifo",
            StrategyKind::DeepestRob => "deepest-rob",
            StrategyKind::ViolationLikely => "violation-likely",
        }
    }

    /// Parse a CLI/JSON strategy name (the inverse of
    /// [`StrategyKind::name`]).
    pub fn parse(name: &str) -> Option<StrategyKind> {
        StrategyKind::ALL
            .into_iter()
            .find(|k| k.name() == name.trim())
    }

    /// A fresh frontier implementing this order.
    pub fn frontier(self) -> Box<dyn SearchStrategy> {
        match self {
            StrategyKind::Lifo => Box::new(Lifo::default()),
            StrategyKind::Fifo => Box::new(Fifo::default()),
            StrategyKind::DeepestRob => Box::new(DeepestRob::default()),
            StrategyKind::ViolationLikely => Box::new(ViolationLikely::default()),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// Depth-first: successors are expanded before their siblings.
#[derive(Default)]
pub struct Lifo {
    stack: Vec<SymState>,
}

impl SearchStrategy for Lifo {
    fn name(&self) -> &'static str {
        "lifo"
    }

    fn push(&mut self, state: SymState) {
        self.stack.push(state);
    }

    fn pop(&mut self) -> Option<SymState> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }
}

/// Breadth-first: states are expanded in discovery order, so the first
/// witness found has a minimal-length schedule among all witnesses.
#[derive(Default)]
pub struct Fifo {
    queue: VecDeque<SymState>,
}

impl SearchStrategy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn push(&mut self, state: SymState) {
        self.queue.push_back(state);
    }

    fn pop(&mut self) -> Option<SymState> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// A heap entry: priority score, then LIFO on insertion sequence so
/// ties behave depth-first (and the order is fully deterministic).
struct Scored {
    score: u64,
    seq: u64,
    state: SymState,
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.seq == other.seq
    }
}

impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .cmp(&other.score)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A max-heap frontier over a scoring function.
struct Priority {
    heap: BinaryHeap<Scored>,
    seq: u64,
    score: fn(&SymState) -> u64,
}

impl Priority {
    fn new(score: fn(&SymState) -> u64) -> Self {
        Priority {
            heap: BinaryHeap::new(),
            seq: 0,
            score,
        }
    }

    fn push(&mut self, state: SymState) {
        self.seq += 1;
        self.heap.push(Scored {
            score: (self.score)(&state),
            seq: self.seq,
            state,
        });
    }

    fn pop(&mut self) -> Option<SymState> {
        self.heap.pop().map(|s| s.state)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Deepest reorder buffer first: expand the state speculating furthest
/// ahead. Spectre witnesses need transient instructions in flight, so
/// states with a fuller buffer are closer to a leak than states that
/// just retired everything.
pub struct DeepestRob {
    inner: Priority,
}

impl Default for DeepestRob {
    fn default() -> Self {
        DeepestRob {
            inner: Priority::new(|state| state.rob.len() as u64),
        }
    }
}

impl SearchStrategy for DeepestRob {
    fn name(&self) -> &'static str {
        "deepest-rob"
    }

    fn push(&mut self, state: SymState) {
        self.inner.push(state);
    }

    fn pop(&mut self) -> Option<SymState> {
        self.inner.pop()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Leak-proximity score for [`ViolationLikely`]: a violation is a
/// secret-labeled observation, i.e. a load or store executing at a
/// secret-tainted address while mis-speculation is in flight. States
/// are weighted by the ingredients of that recipe —
///
/// * unresolved branches or indirect jumps in the buffer (weight 4):
///   speculation past an undecided guard is what makes an access
///   transient in the first place;
/// * unresolved loads (weight 2): the instructions that will produce
///   the next memory observations;
/// * path-condition size (weight 1): constraints accumulate exactly
///   when symbolic guards were crossed, a proxy for attacker influence.
fn leak_proximity(state: &SymState) -> u64 {
    let mut score = state.constraints.len() as u64;
    for (_, t) in state.rob.iter() {
        match t {
            SymTransient::Br { .. } | SymTransient::Jmpi { .. } => score += 4,
            SymTransient::Load { .. } | SymTransient::LoadGuessed { .. } => score += 2,
            _ => {}
        }
    }
    score
}

/// Highest [`leak_proximity`] score first: chase states that look one
/// step from a secret observation.
pub struct ViolationLikely {
    inner: Priority,
}

impl Default for ViolationLikely {
    fn default() -> Self {
        ViolationLikely {
            inner: Priority::new(leak_proximity),
        }
    }
}

impl SearchStrategy for ViolationLikely {
    fn name(&self) -> &'static str {
        "violation-likely"
    }

    fn push(&mut self, state: SymState) {
        self.inner.push(state);
    }

    fn pop(&mut self) -> Option<SymState> {
        self.inner.pop()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::examples::fig1;

    fn states(n: usize) -> Vec<SymState> {
        let (_, cfg) = fig1();
        (0..n)
            .map(|i| {
                let mut st = SymState::from_config(&cfg);
                st.pc = i as u64;
                st
            })
            .collect()
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.frontier().name(), kind.name());
        }
        assert_eq!(StrategyKind::parse("nope"), None);
        assert_eq!(StrategyKind::parse(" fifo "), Some(StrategyKind::Fifo));
    }

    #[test]
    fn lifo_pops_last_fifo_pops_first() {
        for (kind, want) in [(StrategyKind::Lifo, 2u64), (StrategyKind::Fifo, 0u64)] {
            let mut f = kind.frontier();
            for st in states(3) {
                f.push(st);
            }
            assert_eq!(f.len(), 3);
            assert_eq!(f.pop().unwrap().pc, want, "{}", kind.name());
        }
    }

    #[test]
    fn priority_ties_break_lifo() {
        // Equal scores everywhere (empty ROB, no constraints): both
        // priority strategies degrade to deterministic LIFO.
        for kind in [StrategyKind::DeepestRob, StrategyKind::ViolationLikely] {
            let mut f = kind.frontier();
            for st in states(3) {
                f.push(st);
            }
            assert_eq!(f.pop().unwrap().pc, 2, "{}", kind.name());
            assert_eq!(f.pop().unwrap().pc, 1, "{}", kind.name());
        }
    }

    #[test]
    fn frontier_drains_empty() {
        for kind in StrategyKind::ALL {
            let mut f = kind.frontier();
            assert!(f.is_empty());
            for st in states(2) {
                f.push(st);
            }
            assert!(f.pop().is_some());
            assert!(f.pop().is_some());
            assert!(f.pop().is_none(), "{}", kind.name());
        }
    }
}
