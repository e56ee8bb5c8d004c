//! End-to-end acceptance tests for the persistence subsystem: a fitted
//! pipeline saved to disk and reloaded must score the ECG test split
//! **bit-identically** to the in-memory original — sequentially and in
//! parallel — and malformed snapshot bytes must fail with typed errors,
//! never a panic. The deployment contracts close the file: what a
//! registry serves, through `install_active` or a running
//! `watch_store` watcher, is what the store's deployment log commits.

use mfod::persist::{
    Decode, Decoder, Encode, Encoder, LogRecord, ModelRegistry, ModelStore, PersistError,
    Restorable, Snapshot, WatchConfig, WatchHandle,
};
use mfod::prelude::*;
use mfod_fixtures::{ecg_fitted, ecg_split};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The container bytes of the ECG acceptance pipeline, pinned by their
/// length, kind and CRC-32 trailer: a change to the container writer or
/// to any codec that moves one byte fails here. Regenerate the pin only
/// for a change meant to move the format.
#[test]
fn ecg_pipeline_snapshot_bytes_are_pinned() {
    let (train, _) = ecg_split();
    let bytes = mfod::persist::to_bytes(&ecg_fitted(&train).snapshot().unwrap());
    let id = mfod::persist::ContentId::claimed(&bytes);
    assert_eq!(
        (id.len, id.kind, id.crc),
        (21_585, mfod::snapshot::KIND_FITTED_PIPELINE, 0x824D_17A7),
        "{id}"
    );
}

#[test]
fn registry_hot_swaps_pipelines_under_scoring_traffic() {
    use mfod::persist::ModelStore;
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

    let (mut store, _) = ModelStore::open(&dir).unwrap();
    let e1 = store
        .promote(&gen1.snapshot().unwrap(), 1, "baseline")
        .unwrap();
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    assert_eq!(
        store.install_active(&registry).unwrap(),
        Some(e1.generation)
    );

    // live traffic: a batch in flight keeps its generation while the
    // next promotion lands, and the next batch sees the new one
    let active = registry.active().unwrap();
    let before = active.score(test.samples()).unwrap();
    assert_bits_eq(
        &before,
        &gen1.score(test.samples()).unwrap(),
        "active generation",
    );
    let e2 = store
        .promote(&gen2.snapshot().unwrap(), 2, "wider-forest")
        .unwrap();
    assert_eq!(
        store.install_active(&registry).unwrap(),
        Some(e2.generation)
    );
    let in_flight = active.score(test.samples()).unwrap();
    assert_bits_eq(&before, &in_flight, "in-flight batch after swap");
    let after = registry.active().unwrap().score(test.samples()).unwrap();
    assert_bits_eq(
        &after,
        &gen2.score(test.samples()).unwrap(),
        "post-swap generation",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn installed_generations_hot_swap_bit_identically_and_outlive_their_files() {
    let dir = tmpdir("installed");
    let (train, test) = ecg_split();
    let gen1 = ecg_fitted(&train);
    gen1.save(&dir.join("model-001.mfod")).unwrap();
    let eager = FittedPipeline::load(&dir.join("model-001.mfod")).unwrap();

    // a caller that holds a path reads the file and installs its bytes
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    let install = |file: &str| {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        registry.install_bytes(&bytes).unwrap()
    };
    install("model-001.mfod");
    let installed = registry.active().unwrap();

    // exact path, sequential and parallel: the installed generation
    // matches both the never-persisted original and the eager reload,
    // bit for bit
    let want = gen1.score(test.samples()).unwrap();
    assert_bits_eq(
        &want,
        &eager.score(test.samples()).unwrap(),
        "eager reload (exact)",
    );
    assert_bits_eq(
        &want,
        &installed.score(test.samples()).unwrap(),
        "install (exact)",
    );
    assert_bits_eq(
        &want,
        &installed.par_score(test.samples()).unwrap(),
        "install (parallel exact)",
    );

    // hot-swap mid-stream: an in-flight batch keeps gen1 while the gen2
    // install lands; the next batch sees gen2
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
    install("model-002.mfod");
    let in_flight = installed.score(test.samples()).unwrap();
    assert_bits_eq(&want, &in_flight, "in-flight batch after swap");
    assert_bits_eq(
        &registry.active().unwrap().score(test.samples()).unwrap(),
        &gen2.score(test.samples()).unwrap(),
        "post-swap generation",
    );

    // an install reads the whole file: deleting every file must not
    // disturb models already serving
    std::fs::remove_dir_all(&dir).unwrap();
    assert_bits_eq(
        &want,
        &installed.score(test.samples()).unwrap(),
        "generation after file deletion",
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

/// A minimal servable artifact for the deployment contracts: one number,
/// its own snapshot form.
#[derive(Debug, Clone, PartialEq)]
struct Version(f64);

impl Encode for Version {
    fn encode(&self, w: &mut Encoder) {
        w.put_f64(self.0);
    }
}

impl Decode for Version {
    fn decode(r: &mut Decoder<'_>) -> mfod::persist::Result<Self> {
        Ok(Version(r.take_f64()?))
    }
}

impl Snapshot for Version {
    const KIND: u32 = 0x5645;
    const NAME: &'static str = "version";
}

impl Restorable for Version {
    type Snapshot = Version;
    fn restore(snapshot: Version) -> Result<Self, String> {
        Ok(snapshot)
    }
}

fn served(registry: &ModelRegistry<Version>) -> Option<f64> {
    registry.active().map(|v| v.0)
}

/// Spins until `done` holds, failing the test after 10 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits for two more completed polls, so at least one whole poll ran
/// after the call.
fn wait_one_full_poll(handle: &WatchHandle) {
    let polls = handle.polls();
    wait_until("two more polls", || handle.polls() >= polls + 2);
}

/// Rewrites a generation's snapshot with one payload byte flipped (same
/// length), through a rename so pages a served model maps stay intact.
fn damage(store: &ModelStore, generation: u64) {
    let path = store.generation_path(generation).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    let scratch = path.with_extension("damaged");
    std::fs::write(&scratch, &bytes).unwrap();
    std::fs::rename(&scratch, &path).unwrap();
}

fn watch(registry: &Arc<ModelRegistry<Version>>, dir: &Path) -> WatchHandle {
    registry.watch_store(dir, WatchConfig::new(Duration::from_millis(2)))
}

/// A rollback made while a watcher runs is served within one poll and is
/// still served after the next.
#[test]
fn store_rollback_is_served_by_a_running_watcher_within_one_poll() {
    let dir = tmpdir("watch-rollback");
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    store.promote(&Version(1.0), 0, "v1").unwrap();
    store.promote(&Version(2.0), 0, "v2").unwrap();
    let registry = Arc::new(ModelRegistry::<Version>::new());
    let handle = watch(&registry, &dir);
    wait_until("generation 2 served", || served(&registry) == Some(2.0));
    store.rollback(1).unwrap();
    wait_one_full_poll(&handle);
    assert_eq!(served(&registry), Some(1.0), "rollback served");
    wait_one_full_poll(&handle);
    assert_eq!(served(&registry), Some(1.0), "rollback still served");
    assert_eq!(registry.generation(), 2, "one install per change");
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reopen that falls back past a damaged active generation is served by
/// a running watcher, and the store fscks clean.
#[test]
fn store_recovery_past_a_damaged_active_generation_is_served_by_a_running_watcher() {
    let dir = tmpdir("watch-fallback");
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    store.promote(&Version(1.0), 0, "v1").unwrap();
    store.promote(&Version(2.0), 0, "v2").unwrap();
    let registry = Arc::new(ModelRegistry::<Version>::new());
    let handle = watch(&registry, &dir);
    wait_until("generation 2 served", || served(&registry) == Some(2.0));
    damage(&store, 2);
    drop(store);
    let (store, report) = ModelStore::open(&dir).unwrap();
    assert!(report.fell_back);
    assert_eq!(report.active, Some(1));
    wait_until("fallback served", || served(&registry) == Some(1.0));
    assert!(store.fsck().unwrap().is_clean());
    assert!(handle.health().healthy);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A generation number names one model: after recovery quarantined
/// generation 2, the next promotion is generation 3.
#[test]
fn generation_numbers_are_never_reused_after_a_fallback() {
    let dir = tmpdir("no-reuse");
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    store.promote(&Version(1.0), 0, "a").unwrap();
    let e2 = store.promote(&Version(2.0), 0, "b").unwrap();
    damage(&store, 2);
    drop(store);
    let (mut store, report) = ModelStore::open(&dir).unwrap();
    assert_eq!(report.active, Some(1));
    let e3 = store.promote(&Version(3.0), 0, "c").unwrap();
    assert_eq!((e3.generation, e3.parent), (3, Some(1)));
    assert_ne!(e3.content_hash, e2.content_hash);
    // every commit in the log names a distinct generation, also after
    // another reopen
    drop(store);
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    assert_eq!(store.promote(&Version(4.0), 0, "d").unwrap().generation, 4);
    let commits: Vec<u64> = mfod::persist::replay(&dir.join(mfod::persist::DEPLOY_LOG_FILE))
        .unwrap()
        .records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit(e) => Some(e.generation),
            _ => None,
        })
        .collect();
    assert_eq!(commits, vec![1, 2, 3, 4]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `install_active` serves only the bytes the catalog names: another
/// valid container written over the active generation's file is a typed
/// error, the registry keeps the model it serves, and fsck agrees.
#[test]
fn install_active_refuses_bytes_the_catalog_does_not_name() {
    use mfod::persist::FsckIssue;
    let dir = tmpdir("overwritten");
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    store.promote(&Version(1.0), 0, "v1").unwrap();
    let registry = ModelRegistry::<Version>::new();
    assert_eq!(store.install_active(&registry).unwrap(), Some(1));
    mfod::persist::save(&Version(9.0), &store.generation_path(1).unwrap()).unwrap();
    let err = store.install_active(&registry).unwrap_err();
    assert!(matches!(err, PersistError::ContentMismatch { .. }), "{err}");
    assert_eq!(served(&registry), Some(1.0));
    assert_eq!(registry.generation(), 1);
    let report = store.fsck().unwrap();
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, FsckIssue::HashMismatch { generation: 1, .. })));
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, FsckIssue::ActiveMissing { generation: 1 })));
    std::fs::remove_dir_all(&dir).unwrap();
}
