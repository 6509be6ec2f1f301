//! Symbolic machine state: labeled symbolic values, register files, and
//! memories.
//!
//! Pitchfork's machine concretizes addresses before touching memory
//! (as angr does, §4.2 of the paper), so the memory is keyed by concrete
//! addresses while *contents* stay symbolic.

use crate::expr::{Expr, Model, VarId, VarPool};
use crate::fingerprint::Fingerprinter;
use sct_core::{Label, Lattice, Reg, Val};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A labeled symbolic value — the symbolic analogue of [`sct_core::Val`].
///
/// With the hash-consed expression arena this is two words and `Copy`:
/// a register file or memory that a write unshares copies its map by
/// `memcpy`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymVal {
    /// The symbolic word.
    pub expr: Expr,
    /// Its security label.
    pub label: Label,
}

impl SymVal {
    /// A labeled symbolic value.
    pub fn new(expr: Expr, label: Label) -> Self {
        SymVal { expr, label }
    }

    /// A concrete public value.
    pub fn public(bits: u64) -> Self {
        SymVal::new(Expr::constant(bits), Label::Public)
    }

    /// A concrete secret value.
    pub fn secret(bits: u64) -> Self {
        SymVal::new(Expr::constant(bits), Label::Secret)
    }

    /// A fresh symbolic variable with the given label.
    pub fn fresh(pool: &mut VarPool, name: impl Into<String>, label: Label) -> (Self, VarId) {
        let v = pool.fresh(name);
        (SymVal::new(Expr::var(v), label), v)
    }

    /// Lift a concrete labeled value.
    pub fn from_val(v: Val) -> Self {
        SymVal::new(Expr::constant(v.bits), v.label)
    }

    /// The concrete value, if the expression is constant.
    pub fn as_const(&self) -> Option<Val> {
        self.expr.as_const().map(|b| Val::new(b, self.label))
    }

    /// Join the label (`v_{ℓ ⊔ ℓ'}`).
    pub fn join_label(mut self, l: Label) -> Self {
        self.label = self.label.join(l);
        self
    }

    /// Evaluate under a model to a concrete labeled value.
    pub fn eval(&self, model: &Model) -> Val {
        Val::new(self.expr.eval(model), self.label)
    }
}

impl std::fmt::Display for SymVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.expr, self.label)
    }
}

/// The shared, copy-on-write map behind [`SymRegFile`] and
/// [`SymMemory`], with its digest cached.
///
/// `Hash` writes the 128-bit [`Fingerprinter`] digest of the map, which
/// is computed on first use and kept until the next write, so a state
/// fingerprint pays for hashing a map once per version of it rather
/// than once per state sharing it. Equal maps have equal digests, so
/// `Hash` agrees with `Eq`.
#[derive(Clone, Debug)]
struct Cells<K> {
    map: BTreeMap<K, SymVal>,
    digest: OnceLock<u128>,
}

impl<K> Default for Cells<K> {
    fn default() -> Self {
        Cells {
            map: BTreeMap::new(),
            digest: OnceLock::new(),
        }
    }
}

impl<K: Ord + Hash + Clone> Cells<K> {
    fn from_map(map: BTreeMap<K, SymVal>) -> Arc<Self> {
        Arc::new(Cells {
            map,
            ..Cells::default()
        })
    }

    /// Write through `cells`, copying the map only while it is shared;
    /// the write invalidates the cached digest.
    fn insert(cells: &mut Arc<Self>, k: K, v: SymVal) {
        let owned = Arc::make_mut(cells);
        owned.map.insert(k, v);
        owned.digest = OnceLock::new();
    }

    fn digest(&self) -> u128 {
        *self.digest.get_or_init(|| {
            let mut h = Fingerprinter::new();
            self.map.hash(&mut h);
            h.finish128()
        })
    }
}

impl<K: PartialEq> PartialEq for Cells<K> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<K: Eq> Eq for Cells<K> {}

impl<K: Ord + Hash + Clone> Hash for Cells<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.digest());
    }
}

/// Symbolic register file (`ρ` with symbolic values).
///
/// Copy-on-write: clones share one map, and a [`SymRegFile::write`]
/// copies it only while it is still shared, so the successors of a
/// state own a private register map only once one of them retires an
/// assignment.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SymRegFile {
    cells: Arc<Cells<Reg>>,
}

impl SymRegFile {
    /// An empty register file.
    pub fn new() -> Self {
        SymRegFile::default()
    }

    /// Read a register; unmapped registers read as concrete public zero.
    pub fn read(&self, r: Reg) -> SymVal {
        self.cells
            .map
            .get(&r)
            .copied()
            .unwrap_or_else(|| SymVal::public(0))
    }

    /// Write a register.
    pub fn write(&mut self, r: Reg, v: SymVal) {
        Cells::insert(&mut self.cells, r, v);
    }

    /// Iterate over explicitly-set registers.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &SymVal)> + '_ {
        self.cells.map.iter().map(|(&r, v)| (r, v))
    }

    /// Lift a concrete register file.
    pub fn from_concrete(regs: &sct_core::RegFile) -> Self {
        SymRegFile {
            cells: Cells::from_map(regs.iter().map(|(r, v)| (r, SymVal::from_val(v))).collect()),
        }
    }

    /// Concretize under a model.
    pub fn eval(&self, model: &Model) -> sct_core::RegFile {
        self.cells
            .map
            .iter()
            .map(|(&r, v)| (r, v.eval(model)))
            .collect()
    }
}

/// Symbolic memory: concrete addresses, symbolic labeled contents.
///
/// Copy-on-write like [`SymRegFile`]: only a retiring store copies a
/// shared map.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SymMemory {
    cells: Arc<Cells<u64>>,
}

impl SymMemory {
    /// An empty (all zero, public) memory.
    pub fn new() -> Self {
        SymMemory::default()
    }

    /// Read an address; unmapped addresses read as concrete public zero.
    pub fn read(&self, addr: u64) -> SymVal {
        self.cells
            .map
            .get(&addr)
            .copied()
            .unwrap_or_else(|| SymVal::public(0))
    }

    /// Write an address.
    pub fn write(&mut self, addr: u64, v: SymVal) {
        Cells::insert(&mut self.cells, addr, v);
    }

    /// Iterate over explicitly-written cells.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SymVal)> + '_ {
        self.cells.map.iter().map(|(&a, v)| (a, v))
    }

    /// Lift a concrete memory.
    pub fn from_concrete(mem: &sct_core::Memory) -> Self {
        SymMemory {
            cells: Cells::from_map(mem.iter().map(|(a, v)| (a, SymVal::from_val(v))).collect()),
        }
    }

    /// Concretize under a model.
    pub fn eval(&self, model: &Model) -> sct_core::Memory {
        self.cells
            .map
            .iter()
            .map(|(&a, v)| (a, v.eval(model)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::reg::names::*;

    #[test]
    fn symval_lifting_round_trips() {
        let v = Val::secret(9);
        let s = SymVal::from_val(v);
        assert_eq!(s.as_const(), Some(v));
        assert_eq!(s.eval(&Model::new()), v);
    }

    #[test]
    fn fresh_values_are_symbolic() {
        let mut pool = VarPool::new();
        let (s, id) = SymVal::fresh(&mut pool, "ra", Label::Secret);
        assert!(s.as_const().is_none());
        let mut m = Model::new();
        m.set(id, 42);
        assert_eq!(s.eval(&m), Val::secret(42));
    }

    #[test]
    fn regfile_defaults_and_lifting() {
        let rf = SymRegFile::new();
        assert_eq!(rf.read(RA).as_const(), Some(Val::public(0)));
        let concrete: sct_core::RegFile =
            [(RA, Val::public(7)), (RB, Val::secret(3))].into_iter().collect();
        let lifted = SymRegFile::from_concrete(&concrete);
        assert_eq!(lifted.eval(&Model::new()), concrete);
    }

    #[test]
    fn memory_defaults_and_lifting() {
        let mut mem = sct_core::Memory::new();
        mem.write(0x40, Val::secret(5));
        let lifted = SymMemory::from_concrete(&mem);
        assert_eq!(lifted.read(0x40).as_const(), Some(Val::secret(5)));
        assert_eq!(lifted.read(0x99).as_const(), Some(Val::public(0)));
        assert_eq!(lifted.eval(&Model::new()), mem);
    }

    #[test]
    fn cached_digest_follows_writes() {
        let digest = |m: &SymMemory| {
            let mut h = Fingerprinter::new();
            m.hash(&mut h);
            h.finish128()
        };
        let mut a = SymMemory::new();
        let empty = digest(&a);
        let shared = a.clone();
        a.write(0x40, SymVal::secret(1));
        let one = digest(&a);
        assert_ne!(one, empty, "a write to a shared map starts a fresh digest");
        assert_eq!(digest(&shared), empty, "the other sharer keeps its own");
        a.write(0x41, SymVal::public(2));
        assert_ne!(digest(&a), one, "a write to an owned map clears its digest");
        let mut b = SymMemory::new();
        b.write(0x41, SymVal::public(2));
        b.write(0x40, SymVal::secret(1));
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b), "equal maps, equal digests");
    }

    #[test]
    fn join_label_raises() {
        let s = SymVal::public(1).join_label(Label::Secret);
        assert!(s.label.is_secret());
    }
}
