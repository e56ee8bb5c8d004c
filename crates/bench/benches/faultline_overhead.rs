//! The zero-cost-when-disarmed contract of `mfod-faultline`: hot paths
//! (pool chunks, stream flushes, persist reads) carry their injection
//! points permanently, so the *disarmed* hooks must be unmeasurable —
//! one relaxed atomic load and a predictable branch per point, and no
//! lock, clock or RNG is ever touched.
//!
//! The micro gate times a representative per-item workload twice: once
//! bare, once wrapped in the exact hook pattern the workspace's pool
//! uses (`mfod_faultline::stall(POOL_STRAGGLE)` followed by
//! `should_fire(POOL_PANIC)`) with no plan armed. In full mode the
//! measured overhead must stay ≤ [`OVERHEAD_CEILING_PCT`]%. The
//! armed-but-idle path — a plan installed whose rules never fire — is
//! timed too, but only reported: consulting a live plan is allowed to
//! cost something.
//!
//! Injection must also never touch data: the pool parity check maps the
//! same workload through the instrumented work-stealing pool disarmed
//! and armed-with-never-firing-rules and asserts **bit-identical**
//! outputs before anything is timed.
//!
//! The report is written to `BENCH_faultline.json` (override with
//! `MFOD_BENCH_JSON`) for the `bench_ratchet` gate in CI.

use criterion::{criterion_group, criterion_main, is_test_mode, Criterion};
use mfod::linalg::par::{max_threads, Pool};
use mfod_bench::paired_overhead;
use mfod_faultline::{points, FaultPlan, FaultRule};

/// Upper bound on the disarmed-path overhead, in percent (full mode).
const OVERHEAD_CEILING_PCT: f64 = 2.0;

/// A plan that is armed but can never fire: zero-probability rules on
/// both pool points. This is the realistic "chaos rig attached, quiet"
/// state — every hit consults the plan and draws from the per-point RNG.
fn idle_plan() -> FaultPlan {
    FaultPlan::new(7)
        .rule(points::POOL_STRAGGLE, FaultRule::with_probability(0.0))
        .rule(points::POOL_PANIC, FaultRule::with_probability(0.0))
}

/// Deterministic floating-point churn standing in for one unit of real
/// per-item work (a smoothing row, a tree traversal).
fn churn(seed: f64, iters: u32) -> u64 {
    let mut acc = seed;
    for k in 0..iters {
        acc = (acc * 1.000_000_3 + k as f64 * 1e-9)
            .sin()
            .mul_add(0.5, acc * 0.5);
    }
    acc.to_bits()
}

/// The workload item behind the workspace's exact injection pattern —
/// the two hooks every pool chunk executes (`crates/linalg/src/par.rs`).
#[inline]
fn hooked_item(i: usize, unit: u32) -> u64 {
    mfod_faultline::stall(points::POOL_STRAGGLE);
    if mfod_faultline::should_fire(points::POOL_PANIC) {
        panic!("faultline_overhead: the idle plan must never fire");
    }
    churn(i as f64 + 0.5, unit)
}

fn bench_hooks(c: &mut Criterion) {
    let (n, unit) = if is_test_mode() {
        (256, 8)
    } else {
        (4_096, 64)
    };
    mfod_faultline::disarm();
    let mut g = c.benchmark_group("faultline");
    if !is_test_mode() {
        g.sample_size(10);
    }
    g.bench_function("bare", |b| {
        b.iter(|| (0..n).map(|i| churn(i as f64 + 0.5, unit)).sum::<u64>())
    });
    g.bench_function("hooked_disarmed", |b| {
        b.iter(|| (0..n).map(|i| hooked_item(i, unit)).sum::<u64>())
    });
    g.finish();
}

/// Explicit overhead report (median of paired rounds, see
/// [`paired_overhead`]) with the pool parity gate, the full-mode ≤2%
/// contract and the `BENCH_faultline.json` artifact for CI.
fn report_overhead(_c: &mut Criterion) {
    let smoke = is_test_mode();
    // Short runs, many rounds: a run of 8,192 items takes about 10 ms,
    // so the machine's slow spells last across both runs of a round.
    let (n, unit, rounds) = if smoke {
        (2_048usize, 8u32, 1usize)
    } else {
        (8_192, 64, 168)
    };
    let hw = max_threads();

    // ---- parity before timing: the hooked pool produces the same bits
    // whether the chaos rig is detached or attached-but-quiet ----------
    let pool = Pool::with_threads(4);
    let pn = if smoke { 512 } else { 4_096 };
    mfod_faultline::disarm();
    let off = pool.map(pn, |i| churn(i as f64 - 0.25, unit));
    mfod_faultline::install(idle_plan());
    let on = pool.map(pn, |i| churn(i as f64 - 0.25, unit));
    mfod_faultline::disarm();
    assert_eq!(off, on, "fault hooks changed pool outputs");

    let bare = &|| (0..n).map(|i| churn(i as f64 + 0.5, unit)).sum::<u64>();
    let hooked = &|| (0..n).map(|i| hooked_item(i, unit)).sum::<u64>();

    mfod_faultline::disarm();
    let disarmed = paired_overhead(rounds, bare, hooked);
    mfod_faultline::install(idle_plan());
    let armed = paired_overhead(rounds, bare, hooked);
    mfod_faultline::disarm();

    // Each percentage is the median of its own rounds' ratios, so it need
    // not equal the ratio of the median times printed beside it.
    let t_bare = disarmed.bare;
    let (t_disarmed, overhead_pct) = (disarmed.hooked, disarmed.overhead_pct);
    let (t_armed, armed_pct) = (armed.hooked, armed.overhead_pct);
    println!(
        "faultline/overhead: items={n} rounds={rounds} unit={unit} hw={hw} · bare {:.3} ms · hooks disarmed \
         {:.3} ms ({overhead_pct:+.2}%) · armed idle {:.3} ms ({armed_pct:+.2}%) · \
         pool outputs bit-identical",
        t_bare.as_secs_f64() * 1e3,
        t_disarmed.as_secs_f64() * 1e3,
        t_armed.as_secs_f64() * 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"faultline_overhead\",\n  \"items\": {n},\n  \"rounds\": {rounds},\n  \"unit\": {unit},\n  \
         \"hw_threads\": {hw},\n  \
         \"bare_ms\": {:.4},\n  \"hooked_disarmed_ms\": {:.4},\n  \
         \"armed_idle_ms\": {:.4},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"armed_pct\": {armed_pct:.3},\n  \
         \"parity\": \"bit-identical\",\n  \"smoke\": {smoke}\n}}\n",
        t_bare.as_secs_f64() * 1e3,
        t_disarmed.as_secs_f64() * 1e3,
        t_armed.as_secs_f64() * 1e3,
    );
    let path =
        std::env::var("MFOD_BENCH_JSON").unwrap_or_else(|_| "BENCH_faultline.json".to_string());
    std::fs::write(&path, json)
        .unwrap_or_else(|e| panic!("faultline_overhead: could not write {path}: {e}"));
    println!("faultline/overhead: report written to {path}");

    // The contract: with no plan armed, the injection points must cost
    // less than OVERHEAD_CEILING_PCT of the bare workload. Smoke mode
    // is a single tiny round — correctness only, no wall-clock gate.
    if !smoke {
        assert!(
            overhead_pct <= OVERHEAD_CEILING_PCT,
            "disarmed-path injection overhead {overhead_pct:.2}% exceeds the \
             {OVERHEAD_CEILING_PCT}% ceiling (bare {:.3} ms vs hooked {:.3} ms)",
            t_bare.as_secs_f64() * 1e3,
            t_disarmed.as_secs_f64() * 1e3,
        );
    }
}

criterion_group!(benches, bench_hooks, report_overhead);
criterion_main!(benches);
