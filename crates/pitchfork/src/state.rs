//! Symbolic machine state: the symbolic analogue of a configuration.

use sct_core::instr::Operand;
use sct_core::rob::Rob;
use sct_core::rsb::Rsb;
use sct_core::{Config, Directive, Label, Observation, OpCode, Pc, Reg, Schedule};
use sct_symx::{Expr, Fingerprinter, SymMemory, SymRegFile, SymVal, VarPool};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// Provenance of a resolved symbolic load (`{j, a}` with a concretized
/// address).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymProvenance {
    /// Forwarding source: `Some(j)` for a store at buffer index `j`,
    /// `None` for memory (`⊥`).
    pub dep: Option<usize>,
    /// The (concretized) address the load is bound to.
    pub addr: u64,
}

impl SymProvenance {
    /// `⊥ < i` convention of the store hazard check.
    pub fn dep_lt(&self, i: usize) -> bool {
        self.dep.is_none_or(|j| j < i)
    }
}

/// Resolution state of a symbolic store's data operand.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymStoreData {
    /// Unresolved operand.
    Pending(Operand),
    /// Resolved symbolic value.
    Resolved(SymVal),
}

impl SymStoreData {
    /// The resolved value, if any.
    pub fn resolved(&self) -> Option<&SymVal> {
        match self {
            SymStoreData::Resolved(v) => Some(v),
            SymStoreData::Pending(_) => None,
        }
    }
}

/// Resolution state of a symbolic store's address.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymStoreAddr {
    /// Unresolved operands.
    Pending(Vec<Operand>),
    /// Concretized address with the label of its computation.
    Resolved(u64, Label),
}

impl SymStoreAddr {
    /// The resolved address and label, if any.
    pub fn resolved(&self) -> Option<(u64, Label)> {
        match self {
            SymStoreAddr::Resolved(a, l) => Some((*a, *l)),
            SymStoreAddr::Pending(_) => None,
        }
    }
}

/// A symbolic transient instruction (Table 1, symbolic values).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymTransient {
    /// Unresolved arithmetic operation.
    Op {
        /// Destination register.
        dst: Reg,
        /// Opcode.
        op: OpCode,
        /// Operands.
        args: Vec<Operand>,
    },
    /// Resolved value.
    Value {
        /// Destination register.
        dst: Reg,
        /// Value.
        val: SymVal,
    },
    /// Unresolved conditional branch with recorded guess.
    Br {
        /// Boolean opcode.
        op: OpCode,
        /// Condition operands.
        args: Vec<Operand>,
        /// Speculatively taken target.
        guess: Pc,
        /// True target.
        tru: Pc,
        /// False target.
        fls: Pc,
    },
    /// Resolved jump.
    Jump {
        /// Target.
        target: Pc,
    },
    /// Unresolved load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operands.
        addr: Vec<Operand>,
        /// Originating program point.
        pp: Pc,
    },
    /// Resolved load with provenance.
    LoadedValue {
        /// Destination register.
        dst: Reg,
        /// Value.
        val: SymVal,
        /// Provenance.
        prov: SymProvenance,
        /// Originating program point.
        pp: Pc,
    },
    /// Alias-predicted partially-resolved load (§3.5).
    LoadGuessed {
        /// Destination register.
        dst: Reg,
        /// Address operands.
        addr: Vec<Operand>,
        /// Forwarded value.
        fwd: SymVal,
        /// Originating store index.
        from: usize,
        /// Originating program point.
        pp: Pc,
    },
    /// Store with independently resolving data and address.
    Store {
        /// Data state.
        data: SymStoreData,
        /// Address state.
        addr: SymStoreAddr,
    },
    /// Unresolved indirect jump with predicted target.
    Jmpi {
        /// Target operands.
        args: Vec<Operand>,
        /// Predicted target.
        guess: Pc,
    },
    /// `call` marker.
    Call,
    /// `ret` marker.
    Ret,
    /// Speculation barrier.
    Fence,
}

impl SymTransient {
    /// Assignment view for the register-resolve function (mirrors
    /// [`sct_core::transient::Transient::assignment`]).
    pub fn assignment(&self) -> Option<(Reg, Option<&SymVal>)> {
        match self {
            SymTransient::Op { dst, .. } | SymTransient::Load { dst, .. } => Some((*dst, None)),
            SymTransient::Value { dst, val } => Some((*dst, Some(val))),
            SymTransient::LoadedValue { dst, val, .. } => Some((*dst, Some(val))),
            SymTransient::LoadGuessed { dst, fwd, .. } => Some((*dst, Some(fwd))),
            _ => None,
        }
    }

    /// `true` for the fence marker.
    pub fn is_fence(&self) -> bool {
        matches!(self, SymTransient::Fence)
    }

    /// `true` when fully resolved (ready to retire on its own).
    pub fn is_resolved(&self) -> bool {
        match self {
            SymTransient::Value { .. }
            | SymTransient::Jump { .. }
            | SymTransient::LoadedValue { .. }
            | SymTransient::Fence
            | SymTransient::Call
            | SymTransient::Ret => true,
            SymTransient::Store { data, addr } => {
                data.resolved().is_some() && addr.resolved().is_some()
            }
            _ => false,
        }
    }

    /// Resolved store address, if this is such a store.
    pub fn store_resolved_addr(&self) -> Option<(u64, Label)> {
        match self {
            SymTransient::Store { addr, .. } => addr.resolved(),
            _ => None,
        }
    }

    /// Resolved store data, if this is such a store.
    pub fn store_resolved_data(&self) -> Option<&SymVal> {
        match self {
            SymTransient::Store { data, .. } => data.resolved(),
            _ => None,
        }
    }

    /// Diagnostic kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SymTransient::Op { .. } => "op",
            SymTransient::Value { .. } => "value",
            SymTransient::Br { .. } => "br",
            SymTransient::Jump { .. } => "jump",
            SymTransient::Load { .. } => "load",
            SymTransient::LoadedValue { .. } => "loaded-value",
            SymTransient::LoadGuessed { .. } => "load-guessed",
            SymTransient::Store { .. } => "store",
            SymTransient::Jmpi { .. } => "jmpi",
            SymTransient::Call => "call",
            SymTransient::Ret => "ret",
            SymTransient::Fence => "fence",
        }
    }
}

impl fmt::Display for SymTransient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymTransient::Value { dst, val } => write!(f, "({dst} = {val})"),
            SymTransient::Jump { target } => write!(f, "jump {target}"),
            SymTransient::LoadedValue { dst, val, prov, .. } => match prov.dep {
                Some(j) => write!(f, "({dst} = {val}{{{j}, {:#x}}})", prov.addr),
                None => write!(f, "({dst} = {val}{{⊥, {:#x}}})", prov.addr),
            },
            other => write!(f, "{}", other.kind()),
        }
    }
}

/// A symbolic execution state: configuration + path condition + the
/// path history (schedule and trace) that reached it.
///
/// Successors share structure with their parent: registers and memory
/// are copy-on-write maps, and the history is a persistent list, so a
/// clone copies the reorder buffer, RSB, path condition and variable
/// pool and bumps three reference counts.
#[derive(Clone, Debug)]
pub struct SymState {
    /// Symbolic register file.
    pub regs: SymRegFile,
    /// Symbolic memory (concrete addresses).
    pub mem: SymMemory,
    /// Current (concrete) program point.
    pub pc: Pc,
    /// Reorder buffer of symbolic transients.
    pub rob: Rob<SymTransient>,
    /// Return stack buffer.
    pub rsb: Rsb,
    /// Path condition: all constraints must be non-zero.
    pub constraints: Vec<Expr>,
    /// Variable pool (symbolic inputs minted so far).
    pub pool: VarPool,
    /// The directives taken along this path and their observations.
    history: History,
}

impl SymState {
    /// Lift a concrete initial configuration.
    pub fn from_config(config: &Config) -> Self {
        SymState {
            regs: SymRegFile::from_concrete(&config.regs),
            mem: SymMemory::from_concrete(&config.mem),
            pc: config.pc,
            rob: Rob::new(),
            rsb: config.rsb.clone(),
            constraints: Vec::new(),
            pool: VarPool::new(),
            history: History::default(),
        }
    }

    /// Lift a concrete configuration, replacing the values of the given
    /// registers with fresh symbolic variables (labels preserved from the
    /// concrete values). This is how public inputs become symbolic.
    pub fn from_config_symbolizing(config: &Config, symbolic_regs: &[Reg]) -> Self {
        let mut st = SymState::from_config(config);
        for &r in symbolic_regs {
            let label = config.regs.read(r).label;
            let (v, _) = SymVal::fresh(&mut st.pool, r.name(), label);
            st.regs.write(r, v);
        }
        st
    }

    /// Record one executed directive and its observations.
    pub fn record(&mut self, d: Directive, obs: &[Observation]) {
        self.history = History(Some(Arc::new(Step {
            directive: d,
            observations: obs.into(),
            parent: std::mem::take(&mut self.history),
        })));
    }

    /// The observations of the most recently recorded directive (empty
    /// for an initial state).
    pub fn last_observations(&self) -> &[Observation] {
        self.history.0.as_ref().map_or(&[], |s| &s.observations)
    }

    /// The schedule of directives taken along this path, rebuilt from
    /// the shared history in O(path length).
    pub fn schedule(&self) -> Schedule {
        let mut directives: Vec<Directive> = self.history.steps().map(|s| s.directive).collect();
        directives.reverse();
        Schedule(directives)
    }

    /// The observation trace along this path, rebuilt from the shared
    /// history in O(path length).
    pub fn trace(&self) -> Vec<Observation> {
        let mut trace: Vec<Observation> = self
            .history
            .steps()
            .flat_map(|s| s.observations.iter().rev().copied())
            .collect();
        trace.reverse();
        trace
    }

    /// Add a path constraint. The constraint vector is kept sorted by
    /// interned id and deduplicated — a canonical set representation,
    /// so [`SymState::fingerprint`] can hash it directly and logically
    /// equal path conditions fingerprint identically.
    pub fn assume(&mut self, e: Expr) {
        if e.as_const() != Some(1) {
            if let Err(pos) = self.constraints.binary_search(&e) {
                self.constraints.insert(pos, e);
            }
        }
    }

    /// A 128-bit fingerprint of everything that determines this state's
    /// *future* behaviour: program point, reorder buffer (with its base
    /// index — provenance `{j, a}` is absolute), RSB, interned register
    /// and memory expressions, and the path condition as a canonical
    /// (sorted, deduplicated) set of interned constraint ids.
    ///
    /// The history taken to reach the state is deliberately excluded:
    /// two states that agree on the fingerprint explore identical
    /// futures, so the worklist engine keeps only one.
    ///
    /// Construction: the fields' derived `Hash` impls turn the state
    /// into a stream of integer words, fed once through a
    /// [`Fingerprinter`] (two 64-bit lanes, each closed by a
    /// full-avalanche finalizer; its module docs give the collision
    /// argument). The stream is prefix-free (every variable-length
    /// part — buffer, RSB, path condition — is preceded by its length,
    /// every enum by its discriminant), so structurally distinct states
    /// give distinct streams. Registers and memory enter as the 128-bit
    /// digests their copy-on-write maps cache: a map is hashed once per
    /// version, not once per state that shares it, and distinct maps
    /// have equal digests with probability about 2⁻¹²⁸. A fingerprint
    /// collision therefore needs a 128-bit coincidence, for inputs not
    /// crafted against the hasher's public constants — the same footing
    /// as the keyed hash this replaced, whose keys were fixed too. The
    /// constants are fixed, so a fingerprint does not depend on the run
    /// or the host.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fingerprinter::new();
        self.pc.hash(&mut h);
        self.rob.hash(&mut h);
        self.rsb.hash(&mut h);
        self.regs.hash(&mut h);
        self.mem.hash(&mut h);
        // Canonical (sorted, deduplicated) by `assume`'s invariant.
        self.constraints.hash(&mut h);
        h.finish128()
    }
}

/// The path that reached a state, newest step first: an `Arc`-linked
/// list whose nodes successors share with their parent.
#[derive(Clone, Default)]
struct History(Option<Arc<Step>>);

/// One recorded directive with the observations it produced.
struct Step {
    directive: Directive,
    observations: Box<[Observation]>,
    parent: History,
}

impl History {
    /// The steps from the newest back to the first.
    fn steps(&self) -> impl Iterator<Item = &Step> + '_ {
        std::iter::successors(self.0.as_deref(), |s| s.parent.0.as_deref())
    }
}

impl fmt::Debug for History {
    /// Newest step first, walked iteratively like [`Drop`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.steps().map(|s| (s.directive, &s.observations)))
            .finish()
    }
}

impl Drop for History {
    /// Unlink iteratively: a recursive drop of a long path would
    /// overflow the stack of a worker thread.
    fn drop(&mut self) {
        let mut next = self.0.take();
        while let Some(step) = next {
            next = Arc::into_inner(step).and_then(|mut s| s.parent.0.take());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::reg::names::*;
    use sct_core::Val;

    #[test]
    fn lifting_preserves_architectural_state() {
        let (_, cfg) = sct_core::examples::fig1();
        let st = SymState::from_config(&cfg);
        assert_eq!(st.pc, cfg.pc);
        assert_eq!(
            st.regs.read(RA).as_const(),
            Some(cfg.regs.read(RA))
        );
        assert_eq!(
            st.mem.read(0x49).as_const(),
            Some(cfg.mem.read(0x49))
        );
        assert!(st.constraints.is_empty());
    }

    #[test]
    fn symbolizing_replaces_values_keeps_labels() {
        let (_, mut cfg) = sct_core::examples::fig1();
        cfg.regs.write(RB, Val::secret(3));
        let st = SymState::from_config_symbolizing(&cfg, &[RA, RB]);
        assert!(st.regs.read(RA).as_const().is_none());
        assert!(st.regs.read(RA).label.is_public());
        assert!(st.regs.read(RB).label.is_secret());
        assert_eq!(st.pool.len(), 2);
    }

    #[test]
    fn history_rebuilds_schedule_and_trace_in_order() {
        let (_, cfg) = sct_core::examples::fig1();
        let mut st = SymState::from_config(&cfg);
        assert!(st.schedule().is_empty() && st.trace().is_empty());
        let read = Observation::Read {
            addr: 0x40,
            label: Label::Public,
        };
        st.record(Directive::Fetch, &[]);
        st.record(Directive::Execute(1), &[Observation::Rollback, read]);
        let parent = st.clone();
        st.record(Directive::Retire, &[read]);
        assert_eq!(
            st.schedule().0,
            vec![Directive::Fetch, Directive::Execute(1), Directive::Retire]
        );
        assert_eq!(st.trace(), vec![Observation::Rollback, read, read]);
        assert_eq!(st.last_observations(), &[read]);
        // The parent's view is unaffected by its successor's step.
        assert_eq!(parent.schedule().len(), 2);
        assert_eq!(parent.last_observations(), &[Observation::Rollback, read]);
    }

    #[test]
    fn long_history_prints_and_drops_without_deep_recursion() {
        let (_, cfg) = sct_core::examples::fig1();
        std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || {
                let mut st = SymState::from_config(&cfg);
                for _ in 0..100_000 {
                    st.record(Directive::Retire, &[]);
                }
                assert!(format!("{st:?}").contains("Retire"));
                drop(st);
            })
            .expect("spawn")
            .join()
            .expect("printing or dropping a long history must not overflow the stack");
    }

    #[test]
    fn fingerprint_covers_state_not_history() {
        let (_, cfg) = sct_core::examples::fig1();
        let base = SymState::from_config(&cfg);
        let mut other_path = base.clone();
        other_path.record(Directive::Fetch, &[Observation::Rollback]);
        assert_eq!(base.fingerprint(), other_path.fingerprint());
        let mut written = base.clone();
        written.mem.write(0x40, SymVal::secret(1));
        assert_ne!(base.fingerprint(), written.fingerprint());
        // Copy-on-write: the clone's write left the original intact.
        assert_eq!(base.mem, SymState::from_config(&cfg).mem);
    }

    #[test]
    fn assume_skips_trivially_true() {
        let (_, cfg) = sct_core::examples::fig1();
        let mut st = SymState::from_config(&cfg);
        st.assume(Expr::constant(1));
        assert!(st.constraints.is_empty());
        st.assume(Expr::constant(0));
        assert_eq!(st.constraints.len(), 1);
    }
}
