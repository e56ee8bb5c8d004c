//! Worker-pool scheduling throughput: the fine-grained **work-stealing**
//! scheduler against the **contiguous** one-chunk-per-thread schedule (a
//! split-1 pool, `Pool::with_config(threads, 1)`), on a balanced and on
//! a deliberately unbalanced ("straggler") workload.
//!
//! The straggler workload gives item `i` an exponentially ramped cost,
//! so the top eighth of the index range carries roughly half of the
//! total work — the shape of variable-depth isolation-forest fits, CV
//! folds of unequal cost and mixed-grid selection fan-outs. A contiguous
//! partition hands that whole expensive tail to one thread while the
//! rest idle; the stealing scheduler splits it into fine index-ordered
//! sub-chunks that idle threads pull from the shared deque.
//!
//! Outputs are asserted **bit-for-bit identical** across both schedules
//! and pool sizes 1/2/8/global before anything is timed — scheduling is
//! a wall-clock decision, never an output decision. The speedup report
//! is written to `BENCH_pool.json` (override with `MFOD_BENCH_JSON`) as
//! the baseline artifact `bench_ratchet` gates in CI.
//!
//! Wall-clock asserts need real hardware parallelism: the straggler
//! speedup contract (≥ 1.3× in full mode) is enforced only on machines
//! with at least [`MIN_HW_THREADS`] hardware threads; single-core boxes
//! still run the full parity gate.

use criterion::{criterion_group, criterion_main, is_test_mode, Criterion};
use mfod::linalg::par::{max_threads, Pool};
use std::time::{Duration, Instant};

/// Pool size the acceptance contract is stated for.
const POOL_THREADS: usize = 8;

/// Hardware-thread floor below which wall-clock speedup asserts are
/// meaningless (the schedulers time-slice one core identically).
const MIN_HW_THREADS: usize = 4;

/// Exponent range of the straggler ramp: item cost spans `2^0 .. 2^RAMP`
/// across the index range, putting ~half the total work into the top
/// eighth of the indices.
const RAMP: u32 = 8;

/// Deterministic floating-point churn whose result depends on every
/// iteration — a dropped, duplicated or reordered item changes the bits.
fn churn(seed: f64, iters: u32) -> u64 {
    let mut acc = seed;
    for k in 0..iters {
        acc = (acc * 1.000_000_3 + k as f64 * 1e-9)
            .sin()
            .mul_add(0.5, acc * 0.5);
    }
    acc.to_bits()
}

/// Balanced workload: every item costs the same.
fn balanced_item(i: usize, unit: u32) -> u64 {
    churn(i as f64 + 0.5, unit * (1 << (RAMP / 2)))
}

/// Straggler workload: exponentially ramped cost, most of the work in
/// the highest indices (the "one deep tree" / "one expensive fold"
/// shape).
fn straggler_item(i: usize, n: usize, unit: u32) -> u64 {
    let exp = (RAMP as usize * i / n.max(1)) as u32;
    churn(i as f64 - 0.25, unit * (1 << exp))
}

fn assert_bits_eq(a: &[u64], b: &[u64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: item {i} diverged");
    }
}

fn bench_schedulers(c: &mut Criterion) {
    let (n, unit) = if is_test_mode() { (48, 4) } else { (256, 48) };
    let pool = Pool::with_threads(POOL_THREADS);
    let contiguous = Pool::with_config(POOL_THREADS, 1);
    let mut g = c.benchmark_group("pool");
    if !is_test_mode() {
        g.sample_size(10);
    }
    g.throughput(criterion::Throughput::Elements(n as u64));
    g.bench_function("balanced_contiguous", |b| {
        b.iter(|| contiguous.map(n, |i| balanced_item(i, unit)))
    });
    g.bench_function("balanced_stealing", |b| {
        b.iter(|| pool.map(n, |i| balanced_item(i, unit)))
    });
    g.bench_function("straggler_contiguous", |b| {
        b.iter(|| contiguous.map(n, |i| straggler_item(i, n, unit)))
    });
    g.bench_function("straggler_stealing", |b| {
        b.iter(|| pool.map(n, |i| straggler_item(i, n, unit)))
    });
    g.finish();
}

/// Explicit contiguous-vs-stealing report (best of 3) with the parity
/// gate across pool sizes, the full-mode straggler-speedup contract, and
/// the `BENCH_pool.json` artifact for the CI ratchet.
fn report_speedup(_c: &mut Criterion) {
    let smoke = is_test_mode();
    let (n, unit) = if smoke { (48, 4) } else { (256, 48) };
    let hw = max_threads();
    let pool = Pool::with_threads(POOL_THREADS);
    let contiguous = Pool::with_config(POOL_THREADS, 1);

    // ---- parity before timing: both schedules, pool sizes 1/2/8 and
    // the global pool, on the workload stealing exists for -------------
    let straggler = |i: usize| straggler_item(i, n, unit);
    let balanced = |i: usize| balanced_item(i, unit);
    let reference: Vec<u64> = (0..n).map(straggler).collect();
    for threads in [1usize, 2, POOL_THREADS] {
        let p = Pool::with_threads(threads);
        assert_bits_eq(&p.map(n, straggler), &reference, "stealing");
        let c = Pool::with_config(threads, 1);
        assert_bits_eq(&c.map(n, straggler), &reference, "contiguous");
    }
    assert_bits_eq(
        &mfod::linalg::par::par_map(n, straggler),
        &reference,
        "global pool",
    );
    let balanced_reference: Vec<u64> = (0..n).map(balanced).collect();
    assert_bits_eq(&pool.map(n, balanced), &balanced_reference, "balanced");

    let reps = if smoke { 1 } else { 3 };
    let time = |work: &dyn Fn() -> Vec<u64>| -> Duration {
        work(); // warm-up
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(work().len(), n);
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let t_bal_contig = time(&|| contiguous.map(n, balanced));
    let t_bal_steal = time(&|| pool.map(n, balanced));
    let t_str_contig = time(&|| contiguous.map(n, straggler));
    let t_str_steal = time(&|| pool.map(n, straggler));

    let straggler_speedup = t_str_contig.as_secs_f64() / t_str_steal.as_secs_f64();
    let balanced_ratio = t_bal_contig.as_secs_f64() / t_bal_steal.as_secs_f64();
    println!(
        "pool/speedup: items={n} threads={POOL_THREADS} split={} hw={hw} · \
         straggler contiguous {:.2} ms vs stealing {:.2} ms ({straggler_speedup:.2}x) · \
         balanced contiguous {:.2} ms vs stealing {:.2} ms ({balanced_ratio:.2}x) · \
         outputs bit-identical",
        pool.split(),
        t_str_contig.as_secs_f64() * 1e3,
        t_str_steal.as_secs_f64() * 1e3,
        t_bal_contig.as_secs_f64() * 1e3,
        t_bal_steal.as_secs_f64() * 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"pool_throughput\",\n  \"items\": {n},\n  \
         \"threads\": {POOL_THREADS},\n  \"split\": {},\n  \
         \"hw_threads\": {hw},\n  \
         \"balanced_contiguous_ms\": {:.4},\n  \"balanced_stealing_ms\": {:.4},\n  \
         \"straggler_contiguous_ms\": {:.4},\n  \"straggler_stealing_ms\": {:.4},\n  \
         \"straggler_speedup\": {:.3},\n  \"balanced_ratio\": {:.3},\n  \
         \"parity\": \"bit-identical\",\n  \"smoke\": {smoke}\n}}\n",
        pool.split(),
        t_bal_contig.as_secs_f64() * 1e3,
        t_bal_steal.as_secs_f64() * 1e3,
        t_str_contig.as_secs_f64() * 1e3,
        t_str_steal.as_secs_f64() * 1e3,
        straggler_speedup,
        balanced_ratio,
    );
    let path = std::env::var("MFOD_BENCH_JSON").unwrap_or_else(|_| "BENCH_pool.json".to_string());
    // A failed write must fail the bench: the CI smoke step writes a
    // smoke-mode report to the same default path first, and a silent
    // write failure here would hand the ratchet that stale smoke file —
    // which it (correctly) waves through, disabling the gate.
    std::fs::write(&path, json)
        .unwrap_or_else(|e| panic!("pool_throughput: could not write {path}: {e}"));
    println!("pool/speedup: baseline written to {path}");

    // The acceptance contract: on real hardware parallelism, stealing
    // must beat the contiguous schedule by ≥ 1.3× on the straggler
    // workload. Wall-clock asserts are skipped in smoke mode and on
    // machines without enough cores (the schedulers then time-slice one
    // core identically and the ratio is noise around 1.0).
    if !smoke && hw >= MIN_HW_THREADS {
        assert!(
            straggler_speedup >= 1.3,
            "work stealing must be >= 1.3x the contiguous schedule on the straggler \
             workload, measured {straggler_speedup:.2}x on {hw} hardware threads"
        );
    }
}

criterion_group!(benches, bench_schedulers, report_speedup);
criterion_main!(benches);
