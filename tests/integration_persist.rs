//! End-to-end acceptance tests for the persistence subsystem: a fitted
//! pipeline saved to disk and reloaded must score the ECG test split
//! **bit-identically** to the in-memory original — sequentially and in
//! parallel — and malformed snapshot bytes must fail with typed errors,
//! never a panic.

use mfod::persist::{ModelRegistry, PersistError};
use mfod::prelude::*;
use mfod_fixtures::{ecg_fitted, ecg_split};
use std::path::PathBuf;
use std::sync::Arc;

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} row {i}: {x} != {y}");
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfod-it-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn saved_and_reloaded_pipeline_scores_ecg_bit_identically() {
    let dir = tmpdir("exact");
    let (train, test) = ecg_split();
    let fitted = ecg_fitted(&train);
    let in_memory = fitted.score(test.samples()).unwrap();

    let path = dir.join("ecg-pipeline.mfod");
    fitted.save(&path).unwrap();
    let reloaded = FittedPipeline::load(&path).unwrap();

    // exact path, sequential and parallel
    let from_disk = reloaded.score(test.samples()).unwrap();
    assert_bits_eq(&in_memory, &from_disk, "exact path after reload");
    let par_from_disk = reloaded.par_score(test.samples()).unwrap();
    assert_bits_eq(
        &in_memory,
        &par_from_disk,
        "parallel exact path after reload",
    );

    // the reloaded model is still a healthy detector (sanity beyond bits)
    let auc_disk = mfod::eval::auc(&from_disk, test.labels()).unwrap();
    assert!(auc_disk > 0.6, "reloaded AUC {auc_disk}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn registry_hot_swaps_pipelines_under_scoring_traffic() {
    let dir = tmpdir("registry");
    let (train, test) = ecg_split();
    let gen1 = ecg_fitted(&train);
    // a second generation fitted with a different forest size
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
    gen1.save(&dir.join("model-001.mfod")).unwrap();
    gen2.save(&dir.join("model-002.mfod")).unwrap();

    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    let report = registry.load_dir(&dir).unwrap();
    assert_eq!(report.considered, 2);
    assert!(report.rejected.is_empty(), "{:?}", report.rejected);
    let (winner, _) = report.installed.as_ref().unwrap();
    assert!(winner.ends_with("model-002.mfod"), "newest must win");

    // live traffic: a batch in flight keeps its generation while a swap
    // lands, and the next batch sees the new one
    let active = registry.active().unwrap();
    let before = active.score(test.samples()).unwrap();
    assert_bits_eq(
        &before,
        &gen2.score(test.samples()).unwrap(),
        "active generation",
    );
    registry
        .install_mapped(&dir.join("model-001.mfod"))
        .unwrap();
    let in_flight = active.score(test.samples()).unwrap();
    assert_bits_eq(&before, &in_flight, "in-flight batch after swap");
    let after = registry.active().unwrap().score(test.samples()).unwrap();
    assert_bits_eq(
        &after,
        &gen1.score(test.samples()).unwrap(),
        "post-swap generation",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mapped_install_hot_swaps_bit_identically_across_paths() {
    let dir = tmpdir("mapped");
    let (train, test) = ecg_split();
    let gen1 = ecg_fitted(&train);
    gen1.save(&dir.join("model-001.mfod")).unwrap();
    let eager = FittedPipeline::load(&dir.join("model-001.mfod")).unwrap();

    // mmap-install into the registry (zero-copy decode tier)
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    registry
        .install_mapped(&dir.join("model-001.mfod"))
        .unwrap();
    let mapped = registry.active().unwrap();

    // exact path, sequential and parallel: the mapped generation matches
    // both the never-persisted original and the eager reload, bit for bit
    let want = gen1.score(test.samples()).unwrap();
    assert_bits_eq(
        &want,
        &eager.score(test.samples()).unwrap(),
        "eager reload (exact)",
    );
    assert_bits_eq(
        &want,
        &mapped.score(test.samples()).unwrap(),
        "mapped install (exact)",
    );
    assert_bits_eq(
        &want,
        &mapped.par_score(test.samples()).unwrap(),
        "mapped install (parallel exact)",
    );

    // hot-swap mid-stream: an in-flight batch keeps the mapped gen1
    // while a mapped gen2 install lands; the next batch sees gen2
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
    gen2.save(&dir.join("model-002.mfod")).unwrap();
    registry
        .install_mapped(&dir.join("model-002.mfod"))
        .unwrap();
    let in_flight = mapped.score(test.samples()).unwrap();
    assert_bits_eq(&want, &in_flight, "in-flight batch after mapped swap");
    assert_bits_eq(
        &registry.active().unwrap().score(test.samples()).unwrap(),
        &gen2.score(test.samples()).unwrap(),
        "post-swap mapped generation",
    );

    // the decoded generations own their mappings: deleting every file
    // must not disturb models already serving
    std::fs::remove_dir_all(&dir).unwrap();
    assert_bits_eq(
        &want,
        &mapped.score(test.samples()).unwrap(),
        "mapped generation after file deletion",
    );
}

#[test]
fn malformed_snapshots_yield_typed_errors_never_panics() {
    let dir = tmpdir("malformed");
    let (train, _) = ecg_split();
    let fitted = ecg_fitted(&train);
    let path = dir.join("good.mfod");
    fitted.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();

    // wrong magic
    let mut bad = good.clone();
    bad[..4].copy_from_slice(b"ELF\x7f");
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    assert!(matches!(
        registry.install_bytes(&bad),
        Err(PersistError::BadMagic { .. })
    ));

    // future format version (CRC repaired so the version check fires)
    let mut bad = good.clone();
    bad[4..8].copy_from_slice(&777u32.to_le_bytes());
    let n = bad.len();
    let crc = mfod::persist::crc32(&bad[..n - 4]);
    bad[n - 4..].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        registry.install_bytes(&bad),
        Err(PersistError::UnsupportedVersion { got: 777, .. })
    ));

    // flipped payload byte → checksum mismatch
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x10;
    assert!(matches!(
        registry.install_bytes(&bad),
        Err(PersistError::ChecksumMismatch { .. })
    ));

    // truncation at every 97th prefix (cheap but dense coverage)
    for n in (0..good.len()).step_by(97) {
        assert!(
            registry.install_bytes(&good[..n]).is_err(),
            "truncation to {n} bytes was accepted"
        );
    }

    // nothing installed along the way
    assert!(registry.active().is_none());
    assert_eq!(registry.generation(), 0);

    // and the pristine file still loads
    registry.install_bytes(&good).unwrap();
    assert_eq!(registry.generation(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn calibrator_snapshots_ride_the_same_format() {
    use mfod_stream::ThresholdCalibrator;
    let (train, test) = ecg_split();
    let fitted = ecg_fitted(&train);
    let calibrator = ThresholdCalibrator::fit(&fitted, train.samples(), 0.1).unwrap();
    let bytes = mfod::persist::to_bytes(&calibrator);
    let back: ThresholdCalibrator = mfod::persist::from_bytes(&bytes).unwrap();
    assert_eq!(calibrator.threshold().to_bits(), back.threshold().to_bits());
    // alarms agree on every test score
    let scores = fitted.score(test.samples()).unwrap();
    for &s in &scores {
        assert_eq!(calibrator.is_alarm(s), back.is_alarm(s));
    }
    // a pipeline snapshot fed to the calibrator type is rejected by kind
    let wrong = mfod::persist::to_bytes(&fitted.snapshot().unwrap());
    assert!(matches!(
        mfod::persist::from_bytes::<ThresholdCalibrator>(&wrong),
        Err(PersistError::WrongKind { .. })
    ));
}

#[test]
fn store_rollback_re_points_serving_under_in_flight_traffic() {
    use mfod::persist::{FsckIssue, ModelStore};
    let dir = tmpdir("store-rollback");
    let (train, test) = ecg_split();
    let gen1 = ecg_fitted(&train);
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
    let want1 = gen1.score(test.samples()).unwrap();
    let want2 = gen2.score(test.samples()).unwrap();

    let (mut store, _) = ModelStore::open(&dir).unwrap();
    let e1 = store
        .promote(&gen1.snapshot().unwrap(), 1, "baseline")
        .unwrap();
    let e2 = store
        .promote(&gen2.snapshot().unwrap(), 2, "wider-forest")
        .unwrap();
    assert_eq!(e2.parent, Some(e1.generation), "lineage records the parent");

    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    assert_eq!(
        store.install_active(&registry).unwrap(),
        Some(e2.generation)
    );
    let serving = registry.active().unwrap();
    assert_bits_eq(
        &serving.score(test.samples()).unwrap(),
        &want2,
        "active generation before rollback",
    );

    // a batch in flight keeps its generation while the rollback lands
    let in_flight = Arc::clone(&serving);
    store.rollback(e1.generation).unwrap();
    assert_eq!(
        store.install_active(&registry).unwrap(),
        Some(e1.generation)
    );
    assert_bits_eq(
        &in_flight.score(test.samples()).unwrap(),
        &want2,
        "in-flight batch across the rollback",
    );
    assert_bits_eq(
        &registry.active().unwrap().score(test.samples()).unwrap(),
        &want1,
        "post-rollback generation",
    );

    // the rollback is durable: a reopen re-serves generation 1 with no
    // quarantine traffic, and the rolled-back-from snapshot is retained
    drop(store);
    let (store, recovery) = ModelStore::open(&dir).unwrap();
    assert_eq!(store.active_generation(), Some(e1.generation));
    assert!(
        recovery.quarantined.is_empty(),
        "{:?}",
        recovery.quarantined
    );
    assert!(store.generation_path(e2.generation).unwrap().exists());
    assert!(store.fsck().unwrap().is_clean());

    // tampering with a retained snapshot surfaces as a typed fsck issue
    // (never a panic), while the active generation stays clean
    let path2 = store.generation_path(e2.generation).unwrap();
    let mut bytes = std::fs::read(&path2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path2, &bytes).unwrap();
    let report = store.fsck().unwrap();
    assert!(!report.is_clean());
    assert!(
        report.issues.iter().any(|i| matches!(
            i,
            FsckIssue::HashMismatch { generation, .. } if *generation == e2.generation
        )),
        "{:?}",
        report.issues
    );
    assert_eq!(report.clean, vec![e1.generation]);
    std::fs::remove_dir_all(&dir).unwrap();
}
