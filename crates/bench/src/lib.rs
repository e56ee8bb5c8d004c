//! Experiment binaries and Criterion benches live in this crate. The
//! library holds the one timing method the overhead benches share.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A bare workload timed against the same workload behind hooks.
#[derive(Debug, Clone, Copy)]
pub struct PairedTiming {
    /// Median wall time of the bare runs.
    pub bare: Duration,
    /// Median wall time of the hooked runs.
    pub hooked: Duration,
    /// Median over the rounds of `100 · (hooked / bare − 1)`, in percent.
    pub overhead_pct: f64,
}

/// Times `bare` and `hooked` once each per round, for `rounds` rounds
/// after one warm-up run of each, and returns the medians.
///
/// The side that runs first alternates from round to round, and the
/// overhead is the median of the per-round ratios: a slow spell of the
/// machine lands on both runs of a round and cancels in its ratio, where
/// a minimum over separate blocks of bare and hooked runs would charge
/// it to one side.
pub fn paired_overhead(
    rounds: usize,
    bare: &dyn Fn() -> u64,
    hooked: &dyn Fn() -> u64,
) -> PairedTiming {
    let time = |work: &dyn Fn() -> u64| {
        let t0 = Instant::now();
        black_box(work());
        t0.elapsed()
    };
    black_box((bare(), hooked()));
    let rounds = rounds.max(1);
    let (mut bares, mut hookeds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (b, h) = if round % 2 == 0 {
            let b = time(bare);
            (b, time(hooked))
        } else {
            let h = time(hooked);
            (time(bare), h)
        };
        ratios.push(h.as_secs_f64() / b.as_secs_f64());
        bares.push(b);
        hookeds.push(h);
    }
    // the medians (the upper middle of an even count)
    bares.sort();
    hookeds.sort();
    ratios.sort_by(f64::total_cmp);
    let mid = rounds / 2;
    PairedTiming {
        bare: bares[mid],
        hooked: hookeds[mid],
        overhead_pct: 100.0 * (ratios[mid] - 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_overhead_runs_each_side_once_per_round() {
        use std::cell::Cell;
        let (b, h) = (Cell::new(0), Cell::new(0));
        paired_overhead(
            3,
            &|| {
                b.set(b.get() + 1);
                1
            },
            &|| {
                h.set(h.get() + 1);
                2
            },
        );
        // one warm-up run each, then one run each per round
        assert_eq!((b.get(), h.get()), (4, 4));
    }
}
