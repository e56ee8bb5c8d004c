//! Throughput of the online scoring subsystem: windows/sec through the
//! `MicroBatcher` at batch sizes 1 / 16 / 128.
//!
//! Batch size 1 scores each window the moment it arrives (no intra-batch
//! parallelism — the sequential baseline); larger batches trade bounded
//! latency for parallel scoring across all cores. Before anything is
//! timed, every batch size must return seqs `0..128` with scores bit-equal
//! to `FittedPipeline::score` on the same windows. The `speedup` report at
//! the end prints the measured parallel-vs-sequential ratio explicitly.
//!
//! `cargo bench -p mfod-bench --bench streaming -- --test` runs the smoke
//! mode: the parity gate plus a short pass over every arm.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mfod::prelude::*;
use mfod_stream::{BatchConfig, MicroBatcher, ScoredWindow, StreamStats};
use std::sync::Arc;
use std::time::Instant;

const N_WINDOWS: usize = 128;

const BATCH_SIZES: [usize; 3] = [1, 16, 128];

fn fixture() -> (Arc<FittedPipeline>, Vec<mfod::fda::RawSample>) {
    let data = EcgSimulator::new(EcgConfig {
        m: 40,
        ..Default::default()
    })
    .unwrap()
    .generate(32, 8, 99)
    .unwrap()
    .augment_with(0, |y| y * y)
    .unwrap();
    let fitted = GeomOutlierPipeline::new(
        PipelineConfig::fast(),
        Arc::new(Curvature),
        Arc::new(IsolationForest {
            n_trees: 50,
            ..Default::default()
        }),
    )
    .fit(data.samples())
    .unwrap()
    .into_shared();
    // Recycle the dataset into a 128-window stream.
    let windows: Vec<mfod::fda::RawSample> = (0..N_WINDOWS)
        .map(|i| data.samples()[i % data.len()].clone())
        .collect();
    (fitted, windows)
}

fn drain(
    fitted: &Arc<FittedPipeline>,
    windows: &[mfod::fda::RawSample],
    batch_size: usize,
) -> Vec<ScoredWindow> {
    let mut mb = MicroBatcher::new(
        Arc::clone(fitted),
        BatchConfig {
            batch_size,
            ..Default::default()
        },
        Arc::new(StreamStats::new()),
    )
    .unwrap();
    let mut scored = Vec::with_capacity(windows.len());
    for w in windows {
        scored.extend(mb.submit(w.clone()).unwrap());
    }
    scored.extend(mb.flush().unwrap());
    scored
}

/// The parity gate: at every batch size the drained stream is seqs
/// `0..N_WINDOWS`, each scored bit-equal to the offline batch score.
fn assert_parity(fitted: &Arc<FittedPipeline>, windows: &[mfod::fda::RawSample]) {
    let offline = fitted.score(windows).unwrap();
    for batch_size in BATCH_SIZES {
        let scored = drain(fitted, windows, batch_size);
        assert_eq!(scored.len(), N_WINDOWS, "batch {batch_size}: window count");
        for (i, (s, want)) in scored.iter().zip(&offline).enumerate() {
            assert_eq!(s.seq, i as u64, "batch {batch_size}: seq");
            assert_eq!(
                s.score.to_bits(),
                want.to_bits(),
                "batch {batch_size}: score of window {i}"
            );
        }
    }
}

fn bench_micro_batching(c: &mut Criterion) {
    let (fitted, windows) = fixture();
    assert_parity(&fitted, &windows);
    let mut g = c.benchmark_group("streaming");
    g.sample_size(10)
        .throughput(Throughput::Elements(N_WINDOWS as u64));
    for batch_size in BATCH_SIZES {
        g.bench_function(format!("exact/batch_{batch_size}"), |b| {
            b.iter(|| drain(&fitted, &windows, batch_size))
        });
    }
    g.finish();
}

/// Per-call overhead of the persistent worker pool: a cheap map whose cost
/// under the previous scoped-thread implementation was dominated by the
/// per-call thread spawn and join. With long-lived workers this measures
/// only queueing and chunk bookkeeping.
fn bench_pool_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("par");
    g.sample_size(10);
    g.bench_function("par_map/4096_cheap", |b| {
        b.iter(|| mfod::linalg::par::par_map(4096, |i| (i as f64).sqrt()))
    });
    g.bench_function("par_map/64_cheap", |b| {
        b.iter(|| mfod::linalg::par::par_map(64, |i| (i as f64).sqrt()))
    });
    g.finish();
}

/// Explicit parallel-vs-sequential report: micro-batching at 128 must beat
/// the batch-size-1 sequential baseline on any multicore box.
fn report_speedup(_c: &mut Criterion) {
    let (fitted, windows) = fixture();
    let time = |batch_size: usize| {
        // warm-up, then best-of-3
        drain(&fitted, &windows, batch_size);
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let scored = drain(&fitted, &windows, batch_size);
                assert_eq!(scored.len(), N_WINDOWS);
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let sequential = time(1);
    let parallel = time(128);
    let ratio = sequential.as_secs_f64() / parallel.as_secs_f64();
    println!(
        "streaming/speedup: {N_WINDOWS} windows · sequential(batch=1) {:.1} ms · \
         parallel(batch=128) {:.1} ms · speedup {ratio:.2}x on {} threads",
        sequential.as_secs_f64() * 1e3,
        parallel.as_secs_f64() * 1e3,
        mfod::linalg::par::max_threads(),
    );
}

criterion_group!(
    benches,
    bench_micro_batching,
    bench_pool_overhead,
    report_speedup
);
criterion_main!(benches);
