//! The zero-cost-when-disabled contract of `mfod-obs`: hot paths carry
//! their instrumentation hooks permanently, so the *disabled* recorder
//! must be unmeasurable — one relaxed atomic load and a predictable
//! branch per hook, and no `Instant` is ever constructed.
//!
//! The micro gate times a representative per-item workload twice: once
//! bare, once wrapped in the exact hook pattern the workspace uses
//! (`mfod_obs::active()` + `obs.map(|_| Instant::now())` + a histogram
//! record inside the enabled branch) with the recorder **disabled**. In
//! full mode the measured overhead must stay ≤
//! [`OVERHEAD_CEILING_PCT`]%. The enabled path is timed too — plain
//! hooks and hooks plus a per-item journal span — but only reported;
//! recording is allowed to cost something.
//!
//! Instrumentation must also never touch data: the pool parity check
//! maps the same workload through the instrumented work-stealing pool
//! with the recorder off and on and asserts **bit-identical** outputs
//! before anything is timed.
//!
//! The report is written to `BENCH_obs.json` (override with
//! `MFOD_BENCH_JSON`) for the `bench_ratchet` gate in CI.

use criterion::{criterion_group, criterion_main, is_test_mode, Criterion};
use mfod::linalg::par::{max_threads, Pool};
use mfod_bench::paired_overhead;
use mfod_obs::Recorder;
use std::time::Instant;

/// Upper bound on the disabled-path overhead, in percent (full mode).
const OVERHEAD_CEILING_PCT: f64 = 2.0;

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

/// The workload item with the workspace's exact hook pattern around it.
#[inline]
fn hooked_item(i: usize, unit: u32) -> u64 {
    let obs = mfod_obs::active();
    let started = obs.map(|_| Instant::now());
    let out = churn(i as f64 + 0.5, unit);
    if let (Some(m), Some(t0)) = (obs, started) {
        m.pool_chunk_run.record_duration(t0.elapsed());
    }
    out
}

/// The hook pattern plus a journal span per item — the heaviest
/// instrumentation any hot path carries (pool chunks journal exactly
/// like this). Past [`mfod_obs::journal::RING_CAPACITY`] events the
/// ring is full and pushes degrade to counted drops, so this arm times
/// the blended record/drop cost a long-running process would see.
#[inline]
fn journaled_item(i: usize, unit: u32) -> u64 {
    let obs = mfod_obs::active();
    let started = obs.map(|_| {
        mfod_obs::journal::span_begin(mfod_obs::journal::NAME_POOL_CHUNK);
        Instant::now()
    });
    let out = churn(i as f64 + 0.5, unit);
    if let (Some(m), Some(t0)) = (obs, started) {
        mfod_obs::journal::span_end(mfod_obs::journal::NAME_POOL_CHUNK);
        m.pool_chunk_run.record_duration(t0.elapsed());
    }
    out
}

fn bench_hooks(c: &mut Criterion) {
    let (n, unit) = if is_test_mode() {
        (256, 8)
    } else {
        (4_096, 64)
    };
    Recorder::install(false);
    let mut g = c.benchmark_group("obs");
    if !is_test_mode() {
        g.sample_size(10);
    }
    g.bench_function("bare", |b| {
        b.iter(|| (0..n).map(|i| churn(i as f64 + 0.5, unit)).sum::<u64>())
    });
    g.bench_function("hooked_disabled", |b| {
        b.iter(|| (0..n).map(|i| hooked_item(i, unit)).sum::<u64>())
    });
    g.finish();
}

/// Explicit overhead report (median of paired rounds, see
/// [`paired_overhead`]) with the pool parity gate, the full-mode ≤2%
/// contract and the `BENCH_obs.json` artifact for CI.
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

    // ---- parity before timing: the instrumented pool produces the
    // same bits whether the recorder observes it or not ----------------
    let pool = Pool::with_threads(4);
    let pn = if smoke { 512 } else { 4_096 };
    Recorder::install(false);
    let off = pool.map(pn, |i| churn(i as f64 - 0.25, unit));
    Recorder::install(true);
    let on = pool.map(pn, |i| churn(i as f64 - 0.25, unit));
    Recorder::install(false);
    assert_eq!(off, on, "instrumentation changed pool outputs");

    let bare = &|| (0..n).map(|i| churn(i as f64 + 0.5, unit)).sum::<u64>();
    let hooked = &|| (0..n).map(|i| hooked_item(i, unit)).sum::<u64>();
    let journaled = &|| (0..n).map(|i| journaled_item(i, unit)).sum::<u64>();

    Recorder::install(false);
    let disabled = paired_overhead(rounds, bare, hooked);
    // The journal arm with the recorder disabled must degenerate to the
    // plain hook pattern (span_begin/span_end bail on the same gate), so
    // it shares the ≤2% contract implicitly; timed enabled below.
    Recorder::install(true);
    let enabled = paired_overhead(rounds, bare, hooked);
    mfod_obs::journal::reset();
    let journal = paired_overhead(rounds, bare, journaled);
    mfod_obs::journal::reset();
    Recorder::install(false);

    // Each percentage is the median of its own rounds' ratios, so it need
    // not equal the ratio of the median times printed beside it.
    let t_bare = disabled.bare;
    let (t_disabled, overhead_pct) = (disabled.hooked, disabled.overhead_pct);
    let (t_enabled, enabled_pct) = (enabled.hooked, enabled.overhead_pct);
    let (t_journal, journal_pct) = (journal.hooked, journal.overhead_pct);
    println!(
        "obs/overhead: items={n} rounds={rounds} unit={unit} hw={hw} · bare {:.3} ms · hooks disabled \
         {:.3} ms ({overhead_pct:+.2}%) · hooks enabled {:.3} ms ({enabled_pct:+.2}%) · \
         journal enabled {:.3} ms ({journal_pct:+.2}%) · pool outputs bit-identical",
        t_bare.as_secs_f64() * 1e3,
        t_disabled.as_secs_f64() * 1e3,
        t_enabled.as_secs_f64() * 1e3,
        t_journal.as_secs_f64() * 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"items\": {n},\n  \"rounds\": {rounds},\n  \"unit\": {unit},\n  \
         \"hw_threads\": {hw},\n  \
         \"bare_ms\": {:.4},\n  \"hooked_disabled_ms\": {:.4},\n  \
         \"hooked_enabled_ms\": {:.4},\n  \"hooked_journal_ms\": {:.4},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"enabled_pct\": {enabled_pct:.3},\n  \
         \"journal_pct\": {journal_pct:.3},\n  \
         \"parity\": \"bit-identical\",\n  \"smoke\": {smoke}\n}}\n",
        t_bare.as_secs_f64() * 1e3,
        t_disabled.as_secs_f64() * 1e3,
        t_enabled.as_secs_f64() * 1e3,
        t_journal.as_secs_f64() * 1e3,
    );
    let path = std::env::var("MFOD_BENCH_JSON").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    std::fs::write(&path, json)
        .unwrap_or_else(|e| panic!("obs_overhead: could not write {path}: {e}"));
    println!("obs/overhead: report written to {path}");

    // The contract: with the recorder disabled, the hooks must cost
    // less than OVERHEAD_CEILING_PCT of the bare workload. Smoke mode
    // is a single tiny round — correctness only, no wall-clock gate.
    if !smoke {
        assert!(
            overhead_pct <= OVERHEAD_CEILING_PCT,
            "disabled-path instrumentation overhead {overhead_pct:.2}% exceeds the \
             {OVERHEAD_CEILING_PCT}% ceiling (bare {:.3} ms vs hooked {:.3} ms)",
            t_bare.as_secs_f64() * 1e3,
            t_disabled.as_secs_f64() * 1e3,
        );
    }
}

criterion_group!(benches, bench_hooks, report_overhead);
criterion_main!(benches);
