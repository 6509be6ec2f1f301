//! # sct-symx
//!
//! The symbolic-execution substrate for Pitchfork, built around a
//! **hash-consed expression arena**:
//!
//! * [`ExprRef`] (alias [`Expr`]) — a `Copy` 32-bit id into a
//!   process-wide interner. Structural equality is id equality (O(1)),
//!   every distinct expression is stored once, and the simplifying
//!   constructor [`ExprRef::app`] is memoized, so re-deriving the same
//!   value along different schedules costs a hash lookup;
//! * [`simplify`](crate::simplify) — conservative algebraic rewrites
//!   applied at construction (each distinct application simplifies once
//!   per process, then lives in the cache);
//! * [`interval`](crate::interval) — unsigned interval analysis for
//!   cheap unsatisfiability proofs;
//! * [`solver`](crate::solver) — a heuristic model finder (interval
//!   refutation + candidate/model search) that answers
//!   [`Verdict::Unknown`] rather than missing models, sound for
//!   violation *detection*. Verdicts are memoized process-wide per
//!   canonical constraint set ([`solver_memo_stats`]) — the same path
//!   conditions recur constantly across schedules and programs;
//! * [`symmem`](crate::symmem) — labeled symbolic values ([`SymVal`] is
//!   two words and `Copy`), register files, and memories; the latter
//!   two are copy-on-write maps, so a clone is a reference-count bump,
//!   and each caches its [`fingerprint`](crate::fingerprint) digest
//!   until the next write.
//! * [`fingerprint`](crate::fingerprint) — [`Fingerprinter`], the
//!   fixed-seed two-lane 128-bit word hasher behind state fingerprints.
//!
//! The arena is shared by every analysis in the process — batch runs
//! over a corpus, and worker threads of one parallel exploration,
//! reuse each other's expressions; [`arena_stats`] reports the
//! sharing. Both the interner and the verdict memo are **lock-striped**
//! ([`NUM_SHARDS`] / [`MEMO_SHARDS`] shards keyed by structural hash),
//! so concurrent interning and memo probes from many threads contend
//! only within a stripe; contended acquisitions are counted
//! ([`arena_lock_waits`], [`solver_memo_lock_waits`]) so regressions
//! show up in stats, not just profiles. In front of the stripes each
//! thread keeps small direct-mapped **L1 caches** — interned constants
//! and applications, and memoized solver verdicts — so the dominant
//! hit path touches no shared lock at all; the caches are flushed on
//! epoch retirement, and [`thread_stats`] reports the calling thread's
//! exact hit and lock-wait counts for per-worker attribution. The arena also outlives the
//! process: [`export_all`] / [`import_arena`] flatten and re-intern it
//! with id remapping (the `sct-cache` crate persists both the arena
//! and the verdict memo to disk), and [`retire_arena`] gives
//! long-lived processes an epoch lifecycle — the whole arena is
//! dropped, and any `ExprRef` that outlives the reset is detectably
//! stale (its packed epoch tag no longer matches, so use panics
//! instead of aliasing a new node).
//!
//! The paper builds its tool on angr's symbolic
//! execution (citation 30); this crate is the from-scratch substitute.
//! Like angr, it concretizes memory addresses and over-approximates
//! path feasibility, which is sound for violation detection.
//!
//! # Example
//!
//! ```
//! use sct_symx::expr::{Expr, VarPool};
//! use sct_symx::solver::{Solver, Verdict};
//! use sct_core::OpCode;
//!
//! let mut pool = VarPool::new();
//! let idx = pool.fresh("idx");
//! // The Figure 1 bounds check: 4 > idx.
//! let in_bounds = Expr::app(OpCode::Gt, vec![Expr::constant(4), Expr::var(idx)]);
//! // Interning is structural: rebuilding yields the same id.
//! assert_eq!(
//!     in_bounds,
//!     Expr::app(OpCode::Gt, vec![Expr::constant(4), Expr::var(idx)]),
//! );
//! // Is the out-of-bounds (mispredicted) path feasible? ¬(4 > idx).
//! let oob = Expr::app(OpCode::Eq, vec![in_bounds, Expr::constant(0)]);
//! let verdict = Solver::new().check(&[oob]);
//! assert!(matches!(verdict, Verdict::Sat(_)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expr;
pub mod fingerprint;
pub mod interval;
pub mod simplify;
pub mod solver;
pub mod symmem;

pub use expr::{
    arena_epoch, arena_lock_waits, arena_stats, export_all, export_all_rooted, export_arena,
    import_arena,
    retire_arena, ArenaExport, ArenaImportError, ArenaImportStats, ArenaStats, ExportedNode, Expr,
    ExprKind, ExprRef, Model, VarId, VarPool, NUM_SHARDS,
};
pub use fingerprint::Fingerprinter;
pub use interval::{interval_of, Interval};
pub use solver::{
    import_solver_memo, set_solver_memo_capacity, solver_memo_capacity, solver_memo_lock_waits,
    solver_memo_stats, MemoExport, MemoImportStats, Solver, SolverMemoStats, SolverOptions,
    Verdict, DEFAULT_MEMO_CAPACITY, MEMO_SHARDS,
};
pub use symmem::{SymMemory, SymRegFile, SymVal};

/// Cumulative counters private to the **calling thread**: its share of
/// the process-wide contention counters plus its thread-cache hits.
///
/// The process-wide counters ([`arena_lock_waits`],
/// [`solver_memo_lock_waits`]) can only be sampled as deltas around a
/// whole exploration, which mis-attributes contention when several
/// explorations run concurrently in one process. These counters are
/// exact per thread: a worker snapshots [`thread_stats`] before and
/// after its work and reports the difference.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ThreadStats {
    /// Contended interner-shard lock acquisitions by this thread.
    pub arena_lock_waits: u64,
    /// Contended verdict-memo lock acquisitions by this thread.
    pub memo_lock_waits: u64,
    /// Constructions answered by this thread's L1 intern caches
    /// (constants + applications) without touching a shared lock.
    pub intern_cache_hits: u64,
    /// `Solver::check` queries answered by this thread's L1 verdict
    /// cache without touching a shared lock.
    pub memo_cache_hits: u64,
}

impl ThreadStats {
    /// All thread-cache hits (intern + verdict).
    pub fn local_cache_hits(&self) -> u64 {
        self.intern_cache_hits + self.memo_cache_hits
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &ThreadStats) -> ThreadStats {
        ThreadStats {
            arena_lock_waits: self.arena_lock_waits.saturating_sub(earlier.arena_lock_waits),
            memo_lock_waits: self.memo_lock_waits.saturating_sub(earlier.memo_lock_waits),
            intern_cache_hits: self
                .intern_cache_hits
                .saturating_sub(earlier.intern_cache_hits),
            memo_cache_hits: self.memo_cache_hits.saturating_sub(earlier.memo_cache_hits),
        }
    }
}

/// Drop the calling thread's L1 caches (intern + verdict). The shared
/// arena and memo are untouched; subsequent hits simply go back through
/// the stripes. For tests that pin shared-level behavior (LRU
/// eviction, shard hit counters) and benchmarks measuring cold paths.
pub fn flush_thread_caches() {
    expr::flush_local_caches();
    solver::flush_local_memo();
    flush_thread_telemetry();
}

/// Publish the calling thread's buffered telemetry (check-latency
/// spans) to the process-wide `sct-telemetry` histograms. Buffers also
/// publish on their auto-flush threshold and when the thread exits;
/// this makes a just-finished job's spans visible to a concurrent
/// metrics scrape immediately.
pub fn flush_thread_telemetry() {
    solver::flush_check_spans();
}

/// Snapshot the calling thread's private counters (see [`ThreadStats`]).
pub fn thread_stats() -> ThreadStats {
    ThreadStats {
        arena_lock_waits: expr::tls_lock_waits(),
        memo_lock_waits: solver::tls_memo_waits(),
        intern_cache_hits: expr::tls_local_hits(),
        memo_cache_hits: solver::tls_memo_hits(),
    }
}
