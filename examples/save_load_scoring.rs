//! Fit-once / serve-many demo: fit the paper's pipeline on simulated ECG
//! beats, promote its snapshot into a [`ModelStore`], restore it in a
//! fresh [`ModelRegistry`] (a restarted serving box), then let a watcher
//! thread follow the store's deployment log through a second promotion
//! and a rollback while a stream is in flight, and report how much
//! restart time the snapshot saves over re-paying the LOOCV fit.
//!
//! Run with: `cargo run --release --example save_load_scoring`

use mfod::persist::{ModelRegistry, ModelStore, WatchConfig};
use mfod::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i} diverged");
    }
}

fn main() {
    // ---- fit once -----------------------------------------------------
    let data = EcgSimulator::new(EcgConfig {
        m: 40,
        ..Default::default()
    })
    .unwrap()
    .generate(48, 16, 2020)
    .unwrap()
    .augment_with(0, |y| y * y)
    .unwrap();
    let split = SplitConfig {
        train_size: 32,
        contamination: 0.1,
    };
    let (train, test) = split.split_datasets(&data, 1).unwrap();

    let pipeline = GeomOutlierPipeline::new(
        PipelineConfig::fast(),
        Arc::new(Curvature),
        Arc::new(IsolationForest {
            n_trees: 60,
            ..Default::default()
        }),
    );
    let t_fit = Instant::now();
    let fitted = pipeline.fit(train.samples()).unwrap().into_shared();
    let fit_time = t_fit.elapsed();
    let reference = fitted.score(test.samples()).unwrap();
    println!(
        "fitted {} on {} beats in {:.1} ms",
        fitted.label(),
        train.len(),
        fit_time.as_secs_f64() * 1e3
    );

    // ---- promote into a model store ----------------------------------
    let dir = std::env::temp_dir().join(format!("mfod-save-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    let t_save = Instant::now();
    let e1 = store
        .promote(&fitted.snapshot().unwrap(), 1, "baseline")
        .unwrap();
    let save_time = t_save.elapsed();
    println!(
        "promoted: generation {}, {} bytes written to {} in {:.2} ms",
        e1.generation,
        e1.len,
        store.generation_path(e1.generation).unwrap().display(),
        save_time.as_secs_f64() * 1e3
    );

    // ---- restore in a fresh registry (a "restarted serving box") -----
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    let t_load = Instant::now();
    let installed = store.install_active(&registry).unwrap();
    let load_time = t_load.elapsed();
    assert_eq!(installed, Some(e1.generation));
    println!(
        "registry: store generation {} installed in {:.2} ms \
         (refit would cost {:.1} ms → {:.0}x restart speedup)",
        e1.generation,
        load_time.as_secs_f64() * 1e3,
        fit_time.as_secs_f64() * 1e3,
        fit_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9)
    );
    assert_bits_eq(
        &reference,
        &registry.active().unwrap().score(test.samples()).unwrap(),
        "restored generation",
    );

    // ---- a watcher follows the deployment log ------------------------
    // Every poll stats deploy.log; only a changed log is replayed, and
    // only a committed active generation that differs from the one it
    // served is installed. Its first poll installs the committed active
    // generation once more.
    let registry = Arc::new(registry);
    let watcher = registry.watch_store(&dir, WatchConfig::new(Duration::from_millis(10)));
    let wait_for_install = |after: u64, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while registry.generation() <= after {
            assert!(Instant::now() < deadline, "watcher never {what} within 30s");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    wait_for_install(1, "served generation 1");
    let polls_before = watcher.polls();
    let deadline = Instant::now() + Duration::from_secs(30);
    while watcher.polls() < polls_before + 2 {
        assert!(
            Instant::now() < deadline,
            "watcher stopped polling within 30s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(registry.generation(), 2);
    println!(
        "watcher: {} polls, log unchanged → nothing new installed",
        watcher.polls()
    );

    // ---- serve across a promotion and a rollback ---------------------
    // First half of the "stream" scores against the served generation;
    // the handle is held for the whole stream, as a scoring thread would.
    let half = test.len() / 2;
    let in_flight = registry.active().unwrap();
    let first_half = in_flight.score(&test.samples()[..half]).unwrap();

    // An operator promotes a genuinely new generation (a refit with a
    // smaller forest); the *watcher* notices and swaps it atomically —
    // the in-flight handle is untouched and nobody called the registry.
    let gen2 = GeomOutlierPipeline::new(
        PipelineConfig::fast(),
        Arc::new(Curvature),
        Arc::new(IsolationForest {
            n_trees: 30,
            ..Default::default()
        }),
    )
    .fit(train.samples())
    .unwrap();
    let e2 = store
        .promote(&gen2.snapshot().unwrap(), 2, "smaller-forest")
        .unwrap();
    wait_for_install(2, "served the promotion");
    assert_bits_eq(
        &gen2.score(test.samples()).unwrap(),
        &registry.active().unwrap().score(test.samples()).unwrap(),
        "promoted generation",
    );
    println!(
        "promotion: store generation {} served by the watcher (poll #{}) \
         with no operator call",
        e2.generation,
        watcher.polls()
    );

    // The operator rolls back; the watcher serves generation 1 again.
    store.rollback(e1.generation).unwrap();
    wait_for_install(3, "served the rollback");
    let fresh = registry.active().unwrap().score(test.samples()).unwrap();
    assert_bits_eq(&reference, &fresh, "rolled-back generation");
    println!(
        "rollback: store generation {} served again (poll #{})",
        e1.generation,
        watcher.polls()
    );
    watcher.stop();

    // The in-flight stream finishes on the generation it started with…
    let second_half = in_flight.score(&test.samples()[half..]).unwrap();
    let auc_gen2 = mfod::eval::auc(&gen2.score(test.samples()).unwrap(), test.labels()).unwrap();

    // ---- verify bit-exactness end to end -----------------------------
    let mut streamed = first_half;
    streamed.extend(second_half);
    assert_bits_eq(
        &reference,
        &streamed,
        "in-flight stream across the hot-swaps",
    );
    let auc = mfod::eval::auc(&streamed, test.labels()).unwrap();
    println!(
        "verified: {} test scores bit-identical to the in-memory fit across \
         promote → restore → promotion → rollback (in-flight AUC {auc:.3}, \
         generation 2 AUC {auc_gen2:.3})",
        streamed.len()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
