//! Property-based tests for the log-bucket histogram invariants (edge
//! monotonicity, count conservation under merge, quantile ordering,
//! snapshot determinism), the event journal (bounded memory, drop
//! conservation, paired span export) and the rotating windows (no
//! double-counting across slot boundaries).

use mfod_obs::{journal, Histogram, HistogramSnapshot, Recorder, HIST_BUCKETS};
use mfod_obs::{WindowedCounter, WindowedHistogram, WINDOW_SLOTS};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises proptest cases that touch the process-global journal and
/// recorder gate (cases from different `#[test]` fns interleave).
static GLOBAL: Mutex<()> = Mutex::new(());

fn global_locked() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    // Mix tiny, mid-range and huge magnitudes so all bucket regions are
    // exercised (plain uniform u64 would almost never land below 2^32).
    prop::collection::vec(
        (0u32..64u32, 0u64..1024u64).prop_map(|(shift, off)| (1u64 << shift).wrapping_add(off)),
        0..200,
    )
}

fn snapshot_of(vals: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn count_equals_bucket_sum(vals in values()) {
        let s = snapshot_of(&vals);
        prop_assert_eq!(s.count, vals.len() as u64);
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn max_and_sum_match_inputs(vals in values()) {
        let s = snapshot_of(&vals);
        prop_assert_eq!(s.max, vals.iter().copied().max().unwrap_or(0));
        let sum: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(s.sum, sum);
    }

    #[test]
    fn merge_conserves_counts(a in values(), b in values()) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let m = sa.merge(&sb);
        prop_assert_eq!(m.count, sa.count + sb.count);
        prop_assert_eq!(m.buckets.iter().sum::<u64>(), m.count);
        for i in 0..HIST_BUCKETS {
            prop_assert_eq!(m.buckets[i], sa.buckets[i] + sb.buckets[i]);
        }
        prop_assert_eq!(m.max, sa.max.max(sb.max));
        // Merge is commutative.
        prop_assert_eq!(&m, &sb.merge(&sa));
    }

    #[test]
    fn quantiles_are_monotone_in_p(vals in values(), ps in prop::collection::vec(0.0f64..=1.0, 2..12)) {
        let s = snapshot_of(&vals);
        prop_assume!(s.count > 0);
        let mut sorted = ps.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = None;
        for p in sorted {
            let q = s.quantile(p).unwrap();
            if let Some(prev) = last {
                prop_assert!(q >= prev, "q({p}) = {q} < {prev}");
            }
            last = Some(q);
        }
    }

    #[test]
    fn quantile_upper_bounds_true_quantile(vals in values()) {
        prop_assume!(!vals.is_empty());
        let s = snapshot_of(&vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for &(p, _) in &[(0.5, ()), (0.95, ()), (0.99, ()), (1.0, ())] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let q = s.quantile(p).unwrap();
            prop_assert!(q >= truth, "q({p}) = {q} below true quantile {truth}");
            prop_assert!(q <= s.max, "q({p}) = {q} above the max {}", s.max);
            // The bucket edge over-estimates by at most 2x (log2 buckets).
            prop_assert!(q == 0 || q / 2 <= truth, "q({p}) = {q} more than 2x {truth}");
        }
    }

    #[test]
    fn snapshots_are_deterministic(vals in values()) {
        let a = snapshot_of(&vals);
        let b = snapshot_of(&vals);
        prop_assert_eq!(&a, &b);
        // Order-independence: bucket counts are a multiset property.
        let mut rev = vals.clone();
        rev.reverse();
        let c = snapshot_of(&rev);
        prop_assert_eq!(&a.buckets[..], &c.buckets[..]);
        prop_assert_eq!(a.count, c.count);
        prop_assert_eq!(a.max, c.max);
    }

    #[test]
    fn diff_of_prefix_recovers_suffix(vals in values(), split in 0usize..200) {
        let cut = split.min(vals.len());
        let early = snapshot_of(&vals[..cut]);
        let all = snapshot_of(&vals);
        let d = all.diff(&early);
        let suffix = snapshot_of(&vals[cut..]);
        prop_assert_eq!(d.count, suffix.count);
        prop_assert_eq!(&d.buckets[..], &suffix.buckets[..]);
    }
}

// ---------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------

/// A random journal operation: span begin/end over a small fixed name
/// set, or an instant event.
#[derive(Debug, Clone, Copy)]
enum Op {
    Begin(u32),
    End(u32),
    Instant,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..3, 0u32..4).prop_map(|(kind, name)| match kind {
            0 => Op::Begin(name),
            1 => Op::End(name),
            _ => Op::Instant,
        }),
        0..120,
    )
}

proptest! {
    #[test]
    fn journal_memory_is_bounded_and_counts_conserve(extra in 0u64..600) {
        let _g = global_locked();
        Recorder::install(true);
        journal::reset();
        let emitted = journal::RING_CAPACITY as u64 + extra;
        for _ in 0..emitted {
            journal::instant_id(journal::NAME_POOL_CHUNK);
        }
        let s = journal::stats();
        prop_assert_eq!(s.recorded, journal::RING_CAPACITY as u64);
        prop_assert_eq!(s.dropped, extra);
        prop_assert_eq!(s.recorded + s.dropped, s.emitted);
        prop_assert_eq!(s.emitted, emitted);
        journal::reset();
        Recorder::install(false);
    }

    #[test]
    fn exported_trace_has_only_paired_spans(seq in ops()) {
        let _g = global_locked();
        Recorder::install(true);
        journal::reset();
        for &op in &seq {
            match op {
                Op::Begin(n) => journal::span_begin(n),
                Op::End(n) => journal::span_end(n),
                Op::Instant => journal::instant_id(journal::NAME_POOL_CHUNK),
            }
        }
        let json = journal::chrome_trace_json();
        journal::reset();
        Recorder::install(false);

        // Replay the LIFO pairing the exporter promises: an End pairs
        // with the most recent open Begin iff the names match.
        let mut stack: Vec<u32> = Vec::new();
        let mut pairs = 0usize;
        let mut instants = 0usize;
        for &op in &seq {
            match op {
                Op::Begin(n) => stack.push(n),
                Op::End(n) => {
                    if let Some(top) = stack.pop() {
                        if top == n {
                            pairs += 1;
                        }
                    }
                }
                Op::Instant => instants += 1,
            }
        }
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        prop_assert_eq!(begins, ends, "unbalanced spans in {}", json);
        prop_assert_eq!(begins, pairs);
        prop_assert_eq!(json.matches("\"ph\":\"i\"").count(), instants);
    }
}

// ---------------------------------------------------------------------
// Rotating windows
// ---------------------------------------------------------------------

/// Monotone non-decreasing slot ids (wall clocks only move forward).
fn slot_ids() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..8, 0..300).prop_map(|increments| {
        let mut id = 0u64;
        increments
            .into_iter()
            .map(|d| {
                id += d;
                id
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn window_counter_never_double_counts_across_rotation(ids in slot_ids()) {
        prop_assume!(!ids.is_empty());
        let w = Box::new(WindowedCounter::new());
        for &id in &ids {
            w.add_at(id, 1);
        }
        let now = *ids.last().unwrap();
        let expected = ids
            .iter()
            .filter(|&&id| id + WINDOW_SLOTS as u64 > now)
            .count() as u64;
        prop_assert_eq!(w.sum_live(now), expected);
    }

    #[test]
    fn window_histogram_conserves_live_counts(ids in slot_ids(), v in 1u64..1_000_000) {
        prop_assume!(!ids.is_empty());
        let w = Box::new(WindowedHistogram::new());
        for &id in &ids {
            w.record_at(id, v);
        }
        let now = *ids.last().unwrap();
        let expected = ids
            .iter()
            .filter(|&&id| id + WINDOW_SLOTS as u64 > now)
            .count() as u64;
        let s = w.snapshot_live(now);
        prop_assert_eq!(s.count, expected);
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), expected);
        if expected > 0 {
            prop_assert_eq!(s.max, v);
        }
    }
}
