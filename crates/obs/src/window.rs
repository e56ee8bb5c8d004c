//! Windowed telemetry: fixed-slot rotating time windows over counters
//! and histograms, yielding event rates and rolling quantiles over the
//! last [`WINDOW_SLOTS`]×[`WINDOW_SLOT_MILLIS`] (60×1s by default)
//! instead of process-lifetime aggregates.
//!
//! Each window is a fixed array of slots tagged with the slot id they
//! belong to (`epoch_nanos / slot_length`). A recorder claims the
//! current slot by CAS-ing the tag forward and zeroing the slot before
//! writing into it; readers sum only slots whose tag is inside the
//! live window, so stale slots age out without a background thread.
//! Like the rest of the crate the structures are monitoring-grade: a
//! record racing a slot rotation may land in the retiring slot (and be
//! zeroed) or the fresh one, but a slot's tag and contents always
//! describe the same window to within that race, and no event is ever
//! counted twice.
//!
//! Deterministic tests inject explicit slot ids through the `*_at`
//! entry points instead of the epoch clock.

use crate::journal::epoch_nanos;
use crate::metrics::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Slots per rotating window.
pub const WINDOW_SLOTS: usize = 60;
/// Wall-clock length of one slot in milliseconds.
pub const WINDOW_SLOT_MILLIS: u64 = 1_000;

/// The current slot id on the shared epoch clock.
#[inline]
pub fn now_slot_id() -> u64 {
    epoch_nanos() / (WINDOW_SLOT_MILLIS * 1_000_000)
}

/// Seconds of wall clock the live window covers at `now_id`: every rate
/// divides by it. It is smaller than the full window during the first
/// [`WINDOW_SLOTS`] slots after process start, so early rates are not
/// diluted by slots that never existed (and read high: one event in the
/// first slot is 60 per minute).
pub fn covered_secs(now_id: u64) -> f64 {
    let slots = (now_id + 1).min(WINDOW_SLOTS as u64);
    slots as f64 * (WINDOW_SLOT_MILLIS as f64 / 1_000.0)
}

/// Whether a slot tagged `slot_id` is inside the live window at
/// `now_id`.
#[inline]
fn live(slot_id: u64, now_id: u64) -> bool {
    slot_id <= now_id && slot_id + WINDOW_SLOTS as u64 > now_id
}

/// A rotating-window event counter: `add` lands in the current slot,
/// [`WindowedCounter::rate_per_sec`] reads the last
/// [`WINDOW_SLOTS`]-slot sum as a rate.
#[derive(Debug)]
pub struct WindowedCounter {
    slots: [CounterSlot; WINDOW_SLOTS],
}

#[derive(Debug)]
struct CounterSlot {
    id: AtomicU64,
    value: AtomicU64,
}

impl Default for WindowedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedCounter {
    /// Fresh window (const so it can live in the static bundle).
    pub const fn new() -> Self {
        WindowedCounter {
            slots: [const {
                CounterSlot {
                    id: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                }
            }; WINDOW_SLOTS],
        }
    }

    /// Adds `n` to the current wall-clock slot.
    #[inline]
    pub fn add(&self, n: u64) {
        self.add_at(now_slot_id(), n);
    }

    /// Adds `n` to the slot for an explicit `slot_id` (deterministic
    /// tests; production code uses [`WindowedCounter::add`]).
    pub fn add_at(&self, slot_id: u64, n: u64) {
        let slot = &self.slots[(slot_id % WINDOW_SLOTS as u64) as usize];
        if claim(&slot.id, slot_id) {
            slot.value.store(0, Ordering::Relaxed);
        }
        if slot.id.load(Ordering::Relaxed) == slot_id {
            slot.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sum over the live window at `now_id`.
    pub fn sum_live(&self, now_id: u64) -> u64 {
        self.slots
            .iter()
            .filter(|s| live(s.id.load(Ordering::Relaxed), now_id))
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }

    /// Events per second over the live window at `now_id`.
    pub fn rate_per_sec(&self, now_id: u64) -> f64 {
        self.sum_live(now_id) as f64 / covered_secs(now_id)
    }

    /// Zeroes every slot (test epochs).
    pub fn reset(&self) {
        for s in &self.slots {
            s.id.store(0, Ordering::Relaxed);
            s.value.store(0, Ordering::Relaxed);
        }
    }
}

/// A rotating-window histogram: rolling p50/p95/p99 over the last
/// [`WINDOW_SLOTS`] slots via [`WindowedHistogram::snapshot_live`].
#[derive(Debug)]
pub struct WindowedHistogram {
    slots: [HistSlot; WINDOW_SLOTS],
}

#[derive(Debug)]
struct HistSlot {
    id: AtomicU64,
    hist: Histogram,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedHistogram {
    /// Fresh window (const; ~33 KiB of zeroed atomics per instance).
    pub const fn new() -> Self {
        WindowedHistogram {
            slots: [const {
                HistSlot {
                    id: AtomicU64::new(0),
                    hist: Histogram::new(),
                }
            }; WINDOW_SLOTS],
        }
    }

    /// Records `v` into the current wall-clock slot.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_at(now_slot_id(), v);
    }

    /// Records a duration in nanoseconds (saturating), mirroring
    /// [`Histogram::record_duration`].
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records `v` into the slot for an explicit `slot_id`
    /// (deterministic tests).
    pub fn record_at(&self, slot_id: u64, v: u64) {
        let slot = &self.slots[(slot_id % WINDOW_SLOTS as u64) as usize];
        if claim(&slot.id, slot_id) {
            slot.hist.reset();
        }
        if slot.id.load(Ordering::Relaxed) == slot_id {
            slot.hist.record(v);
        }
    }

    /// Merged snapshot of the live window at `now_id` — the rolling
    /// distribution the p50/p95/p99 report lines come from.
    pub fn snapshot_live(&self, now_id: u64) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for s in &self.slots {
            if live(s.id.load(Ordering::Relaxed), now_id) {
                out = out.merge(&s.hist.snapshot());
            }
        }
        out
    }

    /// Zeroes every slot (test epochs).
    pub fn reset(&self) {
        for s in &self.slots {
            s.id.store(0, Ordering::Relaxed);
            s.hist.reset();
        }
    }
}

/// Rotates `tag` forward to `slot_id` if it is behind. Returns `true`
/// for the one caller that won the rotation and must zero the slot
/// before writing. Tags never move backwards, so a racer holding a
/// stale id simply drops its sample.
fn claim(tag: &AtomicU64, slot_id: u64) -> bool {
    let mut cur = tag.load(Ordering::Acquire);
    while cur < slot_id {
        match tag.compare_exchange_weak(cur, slot_id, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// Quantizes a non-negative outlier score for the windowed score
/// distribution sketch: nanoscore units (`score × 10⁹`) bucketed by the
/// shared log₂ histogram, i.e. ~2× relative resolution. Negative, NaN
/// and infinite scores clamp to the edge buckets.
#[inline]
pub fn quantize_score(score: f64) -> u64 {
    if score.is_nan() || score <= 0.0 {
        return 0;
    }
    let q = score * 1e9;
    if q >= u64::MAX as f64 {
        u64::MAX
    } else {
        q as u64
    }
}

/// Inverse of [`quantize_score`] for display (bucket edges back to
/// score units).
#[inline]
pub fn dequantize_score(q: u64) -> f64 {
    q as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rotation_never_double_counts() {
        let w = Box::new(WindowedCounter::new());
        // Fill slot ids 0..3×WINDOW_SLOTS: each id gets exactly one
        // event; wrapping over the same physical slot must discard the
        // old window's count, not add to it.
        let last = 3 * WINDOW_SLOTS as u64 - 1;
        for id in 0..=last {
            w.add_at(id, 1);
        }
        assert_eq!(w.sum_live(last), WINDOW_SLOTS as u64);
        assert_eq!(w.rate_per_sec(last), 1.0);
    }

    #[test]
    fn stale_slots_age_out_without_writes() {
        let w = Box::new(WindowedCounter::new());
        w.add_at(5, 10);
        assert_eq!(w.sum_live(5), 10);
        // Window moves past slot 5 with no further writes: count gone.
        assert_eq!(w.sum_live(5 + WINDOW_SLOTS as u64), 0);
    }

    #[test]
    fn late_sample_for_retired_slot_is_dropped() {
        let w = Box::new(WindowedCounter::new());
        let far = 2 * WINDOW_SLOTS as u64; // claims physical slot 0
        w.add_at(far, 3);
        w.add_at(0, 99); // stale id for the same physical slot
        assert_eq!(w.sum_live(far), 3);
    }

    #[test]
    fn early_window_rate_uses_covered_span() {
        let w = Box::new(WindowedCounter::new());
        w.add_at(0, 4);
        w.add_at(1, 4);
        // Two 1s slots elapsed → 8 events / 2s.
        assert_eq!(w.rate_per_sec(1), 4.0);
    }

    #[test]
    fn histogram_window_rolls_quantiles() {
        let w = Box::new(WindowedHistogram::new());
        for i in 0..WINDOW_SLOTS as u64 {
            w.record_at(i, 100);
        }
        let s = w.snapshot_live(WINDOW_SLOTS as u64 - 1);
        assert_eq!(s.count, WINDOW_SLOTS as u64);
        // Rotate far forward: one fresh slot only.
        let far = 10 * WINDOW_SLOTS as u64;
        w.record_at(far, 1_000_000);
        let s = w.snapshot_live(far);
        // Slots tagged 0..WINDOW_SLOTS are all stale at `far` except
        // the reclaimed one, which was zeroed.
        assert_eq!(s.count, 1);
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn score_quantization_clamps_and_inverts() {
        assert_eq!(quantize_score(-1.0), 0);
        assert_eq!(quantize_score(f64::NAN), 0);
        assert_eq!(quantize_score(0.0), 0);
        assert_eq!(quantize_score(f64::INFINITY), u64::MAX);
        let q = quantize_score(0.25);
        assert_eq!(q, 250_000_000);
        assert!((dequantize_score(q) - 0.25).abs() < 1e-12);
    }
}
