//! Small statistics helpers: quantiles, medians, chunked rates, the
//! process's peak RSS, and percentiles of `sct-telemetry` histogram
//! deltas.

use sct_telemetry::{bucket_upper_ns, MetricSnapshot};
use std::time::Duration;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the "linear" method of numpy). `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over consecutive windows of `window` values of each
/// window's `q`-quantile (the plain quantile when there is less than one
/// full window). A burst of host noise that slows a minority of windows
/// then leaves the figure alone, where it would shift a pooled tail
/// percentile.
pub fn windowed_quantile(values: &[f64], window: usize, q: f64) -> f64 {
    if values.len() < window.max(1) {
        return quantile(values, q);
    }
    let per_window: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| quantile(w, q))
        .collect();
    median(&per_window)
}

/// Verdict latencies in measurement order, split into consecutive chunks
/// of `chunk` verdicts; each full chunk yields verdicts per second of the
/// wall time its verdicts took. The median of these rates is the
/// throughput figure: it is robust to the rare program that takes
/// hundreds of times the typical one, and to a burst of host noise.
pub fn chunk_rates(latencies: &[Duration], chunk: usize) -> Vec<f64> {
    latencies
        .chunks_exact(chunk.max(1))
        .map(|c| c.len() as f64 / c.iter().map(Duration::as_secs_f64).sum::<f64>())
        .collect()
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Snapshot one registered histogram.
pub fn hist(name: &str) -> MetricSnapshot {
    sct_telemetry::histogram(name).snapshot(name)
}

/// The observations recorded between two snapshots of one histogram.
pub fn hist_delta(before: &MetricSnapshot, after: &MetricSnapshot) -> MetricSnapshot {
    let buckets = after
        .buckets
        .iter()
        .zip(before.buckets.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    MetricSnapshot {
        value: after.value.saturating_sub(before.value),
        sum_ns: after.sum_ns.saturating_sub(before.sum_ns),
        buckets,
        ..after.clone()
    }
}

/// The `q`-quantile of a histogram in nanoseconds, interpolated linearly
/// inside the power-of-two bucket that holds it (the registry keeps only
/// bucket counts). `0` for an empty histogram.
pub fn hist_quantile_ns(h: &MetricSnapshot, q: f64) -> f64 {
    let total: u64 = h.buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let next = seen + n as f64;
        if next >= rank {
            let hi = bucket_upper_ns(i).min(h.max_ns.max(1)) as f64;
            let lo = if i == 0 {
                0.0
            } else {
                (bucket_upper_ns(i) / 2) as f64
            };
            let lo = lo.min(hi);
            return lo + (hi - lo) * ((rank - seen) / n as f64);
        }
        seen = next;
    }
    h.max_ns as f64
}

/// 64-bit FNV-1a, for hashing generated inputs.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_slow_window() {
        let mut v = vec![1.0; 300];
        v[200..].iter_mut().for_each(|x| *x = 10.0);
        assert_eq!(windowed_quantile(&v, 100, 0.9), 1.0);
        assert_eq!(windowed_quantile(&v[..50], 100, 0.5), 1.0);
    }

    #[test]
    fn chunk_rates_ignore_partial_chunks() {
        let l = vec![Duration::from_millis(10); 5];
        let r = chunk_rates(&l, 2);
        assert_eq!(r.len(), 2);
        assert!((r[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_stays_in_its_bucket() {
        let h = MetricSnapshot {
            name: "h".into(),
            kind: sct_telemetry::MetricKind::Histogram,
            value: 4,
            sum_ns: 0,
            max_ns: 1000,
            max_job: 0,
            buckets: {
                let mut b = vec![0; sct_telemetry::BUCKETS];
                b[sct_telemetry::bucket_of(300)] = 4;
                b
            },
        };
        let p50 = hist_quantile_ns(&h, 0.5);
        assert!((256.0..=512.0).contains(&p50), "{p50}");
    }
}
