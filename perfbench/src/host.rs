//! Steadying measurements on a shared host: host-speed normalization,
//! and pinning a multi-threaded workload to one CPU and one allocator
//! arena.
//!
//! The benchmark runs on a few virtual CPUs of a shared host whose speed
//! swings by a fifth to a third over seconds to minutes as other tenants
//! come and go. The swing is not steal time (thread CPU time swings as
//! much as wall time); it is contention for the cores and the shared
//! caches and memory, so no clock hides it. [`HostSpeed`] times a fixed
//! reference kernel, built on the standard library only, every few
//! milliseconds through a run, between verdicts. Each measured time is
//! then scaled by how fast the host ran the kernel around that moment,
//! against the kernel's [`REFERENCE_NS`]:
//!
//! ```text
//! normalized = measured × REFERENCE_NS / kernel time near the measurement
//! ```
//!
//! The kernel shares no code with the program under test. It allocates
//! on the process's heap and starts with the caches the program left, as
//! the program's own next verdict does, which is what makes it follow
//! the host's load as the program does; a kernel kept warm in a core's
//! private caches tracked it far worse. The price is that a change to the
//! program's heap or cache footprint can move the kernel a little too.
//! The measured figures are printed beside the normalized ones.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's typical time between a workload's verdicts on the host
/// the benchmark was sized on (a 2-vCPU Xeon guest). Only a scale:
/// normalized figures read as the time the measured work would take at
/// that speed.
pub const REFERENCE_NS: f64 = 400_000.0;

/// A measured time and the moment it ended.
pub type Timed = (Instant, Duration);

/// Kernel samples on either side of a moment that set its speed.
const NEAREST: usize = 4;

/// States the kernel expands, and words per state.
const EXPAND: usize = 400;
const WIDTH: usize = 24;

/// The reference kernel: a small breadth-first search over vectors, with
/// the allocation, cloning, hashing, dedup and queue traffic of a
/// state-space explorer. It allocates afresh on every run and starts
/// with cold caches, as the program's own work does, so its time follows
/// the host's load on the core, the shared cache and memory as the
/// program's does.
fn kernel() -> u64 {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut frontier: VecDeque<Vec<u64>> = VecDeque::new();
    frontier.push_back((0..WIDTH as u64).collect());
    let mut acc = 0u64;
    let mut expanded = 0;
    while let Some(state) = frontier.pop_front() {
        expanded += 1;
        if expanded > EXPAND {
            break;
        }
        for k in 0..3u64 {
            let mut next = state.clone();
            let i = (next[0].wrapping_add(k) % WIDTH as u64) as usize;
            next[i] = next[i]
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(k + 1);
            next.rotate_left(1 + k as usize);
            let mut h = DefaultHasher::new();
            next.hash(&mut h);
            let fp = h.finish();
            if seen.insert(fp) {
                acc ^= fp;
                frontier.push_back(next);
            }
        }
    }
    acc ^ seen.len() as u64
}

/// Timed kernel samples taken through a run.
pub struct HostSpeed {
    every: Duration,
    last: Instant,
    /// (when the sample ended, its time in ns), in time order.
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// Start sampling at most once per `every`; takes a first sample
    /// after a short warm-up.
    pub fn new(every: Duration) -> HostSpeed {
        for _ in 0..10 {
            black_box(kernel());
        }
        let mut s = HostSpeed {
            every,
            last: Instant::now(),
            samples: Vec::new(),
        };
        s.sample();
        s
    }

    /// Time the kernel once.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(kernel());
        let end = Instant::now();
        self.samples.push((end, (end - start).as_nanos() as f64));
        self.last = end;
    }

    /// Time the kernel if `every` has passed since the last sample. Call
    /// it between measurements, outside any timed region.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= self.every {
            self.sample();
        }
    }

    /// The median kernel time of the samples nearest `at`: up to
    /// [`NEAREST`] on either side.
    fn kernel_ns_at(&self, at: Instant) -> f64 {
        let split = self.samples.partition_point(|(t, _)| *t <= at);
        let lo = split.saturating_sub(NEAREST);
        let hi = (split + NEAREST).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|(_, ns)| *ns).collect();
        median(&near)
    }

    /// Scale a time measured around `at` to the reference speed.
    pub fn normalize(&self, measured: Duration, at: Instant) -> Duration {
        measured.mul_f64(REFERENCE_NS / self.kernel_ns_at(at))
    }

    /// The median kernel time over the whole run, in ns.
    pub fn median_kernel_ns(&self) -> f64 {
        median(&self.samples.iter().map(|(_, ns)| *ns).collect::<Vec<_>>())
    }

    /// Kernel samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// Pin the calling thread, and every thread it starts from now on, to
/// the CPU it runs on. The client, the connection thread and the job
/// worker then hand each request to one another by same-CPU context
/// switches; across CPUs every hand-off waits for a wake-up of an idle
/// virtual CPU, whose latency swings with the host's load and would
/// drown the service and protocol costs. Returns whether it pinned.
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both calls only read their arguments; the mask is a
    // 1024-bit `cpu_set_t` that outlives the call.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return false;
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

/// Make the C allocator keep one arena for all threads. By default it
/// opens another arena whenever a thread finds the first one locked, so
/// how many arenas a multi-threaded run grows, and its peak RSS, depend
/// on which threads happened to contend. Call before starting threads.
pub fn one_malloc_arena() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator parameter.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn normalize_uses_the_samples_near_the_moment() {
        let t0 = Instant::now();
        let s = HostSpeed {
            every: Duration::ZERO,
            last: t0,
            samples: (0..20)
                .map(|i| {
                    let ns = if i < 10 {
                        REFERENCE_NS
                    } else {
                        2.0 * REFERENCE_NS
                    };
                    (t0 + Duration::from_millis(10 * i), ns)
                })
                .collect(),
        };
        let d = Duration::from_millis(8);
        assert_eq!(s.normalize(d, t0 + Duration::from_millis(15)), d);
        assert_eq!(s.normalize(d, t0 + Duration::from_millis(175)), d / 2);
    }
}
