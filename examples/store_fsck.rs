//! Crash-consistent store walkthrough: transactional promotion, one-call
//! rollback, `fsck` verification of a tampered directory, and recovery
//! that quarantines (never deletes) everything it cannot trust.
//!
//! Run with: `cargo run --release --example store_fsck [DIR]`
//!
//! With no argument the demo builds (and removes) a store under the
//! system temp dir; pass a directory to fsck an existing store instead.

use mfod::persist::{fsck_dir, ModelStore};
use mfod_fixtures::{sine_pipeline, FixtureConfig};

fn main() {
    // ---- fsck-only mode on an operator-supplied directory ------------
    if let Some(dir) = std::env::args().nth(1) {
        let report = fsck_dir(std::path::Path::new(&dir)).unwrap();
        println!("fsck {dir}: {} clean generation(s)", report.clean.len());
        for issue in &report.issues {
            println!("  issue: {issue}");
        }
        std::process::exit(if report.is_clean() { 0 } else { 1 });
    }

    let dir = std::env::temp_dir().join(format!("mfod-store-fsck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- transactional promotion -------------------------------------
    // Each promotion takes three steps, one fsync each: write the
    // snapshot to a temp file + fsync(file); rename it into place +
    // fsync(dir); append one commit record carrying its catalog entry to
    // deploy.log + fsync(log). A crash anywhere leaves either the
    // previous or the new generation committed, never a torn half-state.
    let (mut store, recovery) = ModelStore::open(&dir).unwrap();
    println!(
        "opened fresh store at {} (replayed {} log records)",
        dir.display(),
        recovery.replayed_records
    );
    let (v0, windows, _) = sine_pipeline(&FixtureConfig::default());
    let (v1, _, _) = sine_pipeline(&FixtureConfig {
        n_samples: 30,
        m: 20,
        n_trees: 15,
        grid_len: 12,
    });
    let e1 = store
        .promote(&v0.snapshot().unwrap(), 0, "baseline")
        .unwrap();
    let e2 = store
        .promote(&v1.snapshot().unwrap(), 1, "wider-grid")
        .unwrap();
    for e in [&e1, &e2] {
        println!(
            "  gen {} [{}] {} — {} bytes, CRC-32 {:08x}, parent {:?}",
            e.generation, e.tag, e.file, e.len, e.content_hash, e.parent
        );
    }
    println!("active: generation {:?}", store.active_generation());

    // ---- one-call rollback -------------------------------------------
    store.rollback(e1.generation).unwrap();
    println!(
        "rolled back: generation {:?} active, generation {} retained on disk",
        store.active_generation(),
        e2.generation
    );

    // ---- fsck on a healthy store -------------------------------------
    let report = store.fsck().unwrap();
    println!(
        "fsck (healthy): clean={:?}, {} issue(s)",
        report.clean,
        report.issues.len()
    );
    assert!(report.is_clean());

    // ---- tamper, then fsck again -------------------------------------
    // Flip one payload byte in the rolled-back-from generation, drop an
    // orphan snapshot and a stray temp file — every problem surfaces as
    // a typed issue, and the active generation stays verifiably clean.
    let p2 = store.generation_path(e2.generation).unwrap();
    let mut bytes = std::fs::read(&p2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&p2, &bytes).unwrap();
    std::fs::write(dir.join("orphan.mfod"), b"not a snapshot").unwrap();
    std::fs::write(dir.join("gen-000001.mfod-tmp-999-0"), b"leftover").unwrap();
    let report = store.fsck().unwrap();
    println!("fsck (tampered): clean={:?}", report.clean);
    for issue in &report.issues {
        println!("  issue: {issue}");
    }
    assert!(!report.is_clean());

    // ---- recovery quarantines, never deletes -------------------------
    drop(store);
    let (store, recovery) = ModelStore::open(&dir).unwrap();
    for (path, reason) in &recovery.quarantined {
        println!("quarantined: {} ({reason})", path.display());
    }
    println!(
        "recovered: active generation {:?}, fell_back={}, fsck clean={}",
        store.active_generation(),
        recovery.fell_back,
        store.fsck().unwrap().is_clean()
    );
    // the recovered active model still serves
    let loaded = mfod::FittedPipeline::load(
        &store
            .generation_path(store.active_generation().unwrap())
            .unwrap(),
    )
    .unwrap();
    let scores = loaded.score(&windows).unwrap();
    println!(
        "served {} scores from the recovered generation",
        scores.len()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
