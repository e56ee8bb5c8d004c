//! Lock-free metric primitives: counters, gauges, log₂-bucketed
//! histograms, and their plain-data snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i ∈ 1..=64` holds values with bit length `i`, i.e.
/// `2^(i-1) <= v < 2^i`.
pub const HIST_BUCKETS: usize = 65;

/// A monotone lock-free event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Fresh zeroed counter (const so it can live in a `static`).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and report epochs).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins lock-free gauge (e.g. the active model generation).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Fresh zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Replaces the gauge value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A lock-free histogram over `u64` values (typically nanoseconds) with
/// fixed log₂ bucket boundaries, so snapshots of a fixed value sequence
/// are deterministic. Concurrent recording is safe; cross-field
/// atomicity is not promised (monitoring-grade, like `StreamStats`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: 0 for `v == 0`, otherwise the bit length of
/// `v` (1..=64).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper edge of bucket `i`: the largest value that lands in
/// it. Quantiles report this edge, so they upper-bound the true
/// quantile by construction.
#[inline]
pub(crate) fn bucket_upper_edge(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Fresh empty histogram (const so it can live in a `static`).
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`,
    /// ~584 years).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Copies the histogram into a plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, slot) in buckets.iter_mut().zip(&self.buckets) {
            *b = slot.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Resets every bucket and aggregate to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Plain-data copy of a [`Histogram`]: diffable, mergeable, and the unit
/// of quantile queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (same unit as recorded, typically ns).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts; bucket `i` covers `[2^(i-1), 2^i)` (bucket 0
    /// holds exactly the value 0).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean recorded value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper-bound quantile: the inclusive upper edge of the bucket in
    /// which the `ceil(p·count)`-th smallest value falls, clamped to the
    /// recorded [`HistogramSnapshot::max`] (no value lies above it, while
    /// the top bucket's edge can). `None` when empty; `p` is clamped to
    /// `[0, 1]`. Monotone in `p` by construction (the cumulative walk
    /// never moves backwards).
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return Some(bucket_upper_edge(i).min(self.max));
            }
        }
        // Unreachable when count == Σ buckets; tolerate torn concurrent
        // snapshots by falling back to the last non-empty bucket edge.
        Some(
            bucket_upper_edge(self.buckets.iter().rposition(|&b| b > 0).unwrap_or(0)).min(self.max),
        )
    }

    /// Convenience: `quantile(p)` as a [`Duration`] for nanosecond
    /// histograms.
    pub fn quantile_duration(&self, p: f64) -> Option<Duration> {
        self.quantile(p).map(Duration::from_nanos)
    }

    /// Pointwise sum of two snapshots (counts conserve: the merged
    /// `count`/`buckets` are the saturating element-wise sums).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&other.buckets))
        {
            *out = a.saturating_add(*b);
        }
        HistogramSnapshot {
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
            buckets,
        }
    }

    /// What happened since `earlier`: saturating element-wise
    /// subtraction (the `max` keeps the later value — maxima are not
    /// decomposable).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *out = a.saturating_sub(*b);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_edges_are_strictly_monotone() {
        for i in 1..HIST_BUCKETS {
            assert!(bucket_upper_edge(i - 1) < bucket_upper_edge(i), "edge {i}");
        }
        assert_eq!(bucket_upper_edge(64), u64::MAX);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1012);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        assert_eq!(s.mean(), Some(1012.0 / 5.0));
        // 1000 has bit length 10 → bucket 10, upper edge 1023, clamped
        // to the recorded max.
        assert_eq!(s.quantile(1.0), Some(1000));
        assert_eq!(s.quantile(0.0), Some(0));
        // 8 falls in bucket 4 (edge 15), below the max: unclamped.
        assert_eq!(s.quantile(0.8), Some(15));
    }

    #[test]
    fn quantile_never_exceeds_the_max() {
        // One sample at 42_700 sits in the bucket with edge 65_535: the
        // report used to print a p50 above the max.
        let h = Histogram::new();
        h.record(42_700);
        let s = h.snapshot();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(p), Some(42_700), "p = {p}");
        }
        for v in [3u64, 90, 2_500, 2_600, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            assert!(s.quantile(p).unwrap() <= s.max, "p = {p}");
        }
    }

    #[test]
    fn quantile_is_upper_bound_and_monotone() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let mut last = 0;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let q = s.quantile(p).unwrap();
            assert!(q >= last, "q({p}) = {q} < {last}");
            last = q;
        }
        // True p50 of 1..=100 is 50 → bucket 6 edge 63.
        assert_eq!(s.quantile(0.5), Some(63));
        assert!(s.quantile(0.5).unwrap() >= 50);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn merge_conserves_counts() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 5, 9] {
            a.record(v);
        }
        for v in [2u64, 1 << 40] {
            b.record(v);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 5);
        assert_eq!(m.buckets.iter().sum::<u64>(), 5);
        assert_eq!(m.max, 1 << 40);
        assert_eq!(m.sum, 1 + 5 + 9 + 2 + (1 << 40));
    }

    #[test]
    fn diff_inverts_accumulation() {
        let h = Histogram::new();
        h.record(7);
        let early = h.snapshot();
        h.record(70);
        h.record(700);
        let late = h.snapshot();
        let d = late.diff(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 770);
        assert_eq!(d.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.max, 3999);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(41);
        g.set(42);
        assert_eq!(g.get(), 42);
    }
}
