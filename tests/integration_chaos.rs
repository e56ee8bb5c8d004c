//! Seeded chaos soak for the supervised serving runtime.
//!
//! Each schedule arms a deterministic `mfod-faultline` plan covering every
//! subsystem (persist reads, torn writes, CRC corruption, registry polls,
//! stream flushes/delays/poison, pool panics/stragglers) and then drives
//! a full serving session against it: a `ModelStore` promotes the models
//! and a `ModelRegistry` watcher serves what its deployment log commits.
//! These are the nine points that are not store crash points; the
//! kill-and-recover sweep (`integration_crash.rs`) covers those four.
//! Acceptance, per schedule:
//!
//! * **every armed point is hit**, except `persist.torn_write`: an
//!   injected `persist.crc` fault can refuse the upgrade while it
//!   validates, before the write, so that point must fire in at least one
//!   schedule of the run instead;
//! * **zero panics** escape — every injected failure surfaces as a typed
//!   error (the test completing is the proof);
//! * the **active model is never unseated** by a promotion that failed
//!   on a torn write or by failing polls — generation and identity are
//!   stable while faults fly, and the store's committed generation does
//!   not move;
//! * once the capped stream/pool fault rules are exhausted, a clean
//!   session scores **bit-identically** to a no-faults reference (a
//!   straggler-only fault that stays armed must not change results);
//! * after the plan is disarmed the registry **heals**: a new promotion
//!   is served and the watcher returns to its steady state.
//!
//! Runs 3 schedules by default; `MFOD_CHAOS_FULL=1` runs 12. With
//! `MFOD_CHAOS_JSON=<path>` a JSON report artifact (per-schedule error
//! counts plus the faultline hit/fire report) is written at the end.

use mfod::fda::RawSample;
use mfod::persist::{ModelRegistry, ModelStore, WatchConfig};
use mfod::FittedPipeline;
use mfod_faultline::{points, FaultPlan, FaultRule};
use mfod_fixtures::{sine_pipeline, FixtureConfig};
use mfod_stream::{BatchConfig, OnlineScorer, StreamConfig, StreamError, WindowConfig};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn fixture() -> &'static (Arc<FittedPipeline>, Vec<RawSample>, Vec<f64>) {
    static FIXTURE: OnceLock<(Arc<FittedPipeline>, Vec<RawSample>, Vec<f64>)> = OnceLock::new();
    FIXTURE.get_or_init(|| sine_pipeline(&FixtureConfig::default()))
}

/// A second, differently-configured model for the upgrades: the heal
/// phase must serve genuinely new content, not a byte-identical copy of
/// the fixture.
fn upgrade_fixture() -> &'static Arc<FittedPipeline> {
    static UPGRADE: OnceLock<Arc<FittedPipeline>> = OnceLock::new();
    UPGRADE.get_or_init(|| {
        let (fitted, _, _) = sine_pipeline(&FixtureConfig {
            n_samples: 30,
            m: 20,
            n_trees: 15,
            grid_len: 12,
        });
        fitted
    })
}

fn offline_scores() -> &'static Vec<f64> {
    static SCORES: OnceLock<Vec<f64>> = OnceLock::new();
    SCORES.get_or_init(|| {
        let (fitted, windows, _) = fixture();
        fitted.score(windows).unwrap()
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfod-it-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pushes every observation of window `i` into the scorer, splitting the
/// outcomes into released verdicts and typed errors. Injected ingest
/// rejections shift the window alignment, so a flush (and with it any
/// flush-stage fault) can surface on *any* push — the driver must accept
/// errors anywhere, which is exactly the recovery contract.
fn push_window(
    scorer: &mut OnlineScorer,
    i: usize,
) -> (Vec<mfod_stream::Verdict>, Vec<StreamError>) {
    let (_, windows, ts) = fixture();
    let w = &windows[i % windows.len()];
    let mut verdicts = Vec::new();
    let mut errors = Vec::new();
    for j in 0..ts.len() {
        match scorer.push(&[w.channels[0][j], w.channels[1][j]]) {
            Ok(v) => verdicts.extend(v),
            Err(e) => errors.push(e),
        }
    }
    (verdicts, errors)
}

struct ScheduleOutcome {
    seed: u64,
    typed_errors: usize,
    quarantined_batches: usize,
    fault_report: mfod_faultline::FaultReport,
}

/// One full chaos schedule: arm → torn upgrade → dirty session → clean
/// session (bit parity) → disarm → heal.
fn run_schedule(seed: u64) -> ScheduleOutcome {
    let (fitted, windows, ts) = fixture();
    let dir = tmpdir(&format!("s{seed}"));

    // Generation 1 is promoted, and served by the watcher, before any
    // fault is armed.
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    store
        .promote(&fitted.snapshot().unwrap(), 0, "fixture")
        .unwrap();
    let registry: Arc<ModelRegistry<FittedPipeline>> = Arc::new(ModelRegistry::new());
    let handle = registry.watch_store(
        &dir,
        WatchConfig {
            interval: Duration::from_millis(2),
            jitter_seed: seed,
        },
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.generation() == 0 {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: generation 1 never served"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let gen0 = registry.generation();
    let active0 = registry.active().unwrap();
    // Fit the upgrade before the plan is armed: the faults target the
    // deployment and serving paths, not fixture construction.
    let upgrade = upgrade_fixture().snapshot().unwrap();

    // Arm the full-spectrum plan. Stream/pool rules are capped so the
    // dirty session can exhaust them; persist rules are probabilistic but
    // bounded; the straggler stays armed through the clean session.
    let rules = [
        (
            points::PERSIST_READ,
            FaultRule::with_probability(0.3).times(4),
        ),
        (
            points::PERSIST_CRC,
            FaultRule::with_probability(0.3).times(4),
        ),
        (
            points::REGISTRY_SWEEP,
            FaultRule::with_probability(0.3).times(4),
        ),
        (points::PERSIST_TORN_WRITE, FaultRule::once()),
        (points::STREAM_POISON, FaultRule::always().times(2)),
        (
            points::STREAM_DELAY,
            FaultRule::once().delay(Duration::from_millis(60)),
        ),
        (points::STREAM_FLUSH, FaultRule::always().times(2)),
        (points::POOL_PANIC, FaultRule::once()),
        (
            points::POOL_STRAGGLE,
            FaultRule::with_probability(0.1).delay(Duration::from_millis(1)),
        ),
    ];
    mfod_faultline::install(
        rules
            .iter()
            .fold(FaultPlan::new(seed), |plan, (point, rule)| {
                plan.rule(*point, rule.clone())
            }),
    );

    // A model upgrade lands on the armed plan: the promotion fails with
    // a typed error (the torn snapshot write, or an injected CRC error
    // while it validates the bytes) and commits nothing, so the watcher
    // has nothing new to serve.
    let torn = store.promote(&upgrade, 1, "upgrade");
    assert!(torn.is_err(), "seed {seed}: the upgrade must fail");
    assert_eq!(store.active_generation(), Some(1), "seed {seed}");

    // A second serving box restarts while the persist faults fly: each
    // install of the committed generation either lands or fails with a
    // typed error (injected read or CRC faults), and the first box's
    // registry is never touched.
    let restarted: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    for _ in 0..8 {
        if let Ok(generation) = store.install_active(&restarted) {
            assert_eq!(generation, Some(1), "seed {seed}");
        }
    }

    // Dirty session: scoring against the active model while every fault
    // fires (`stream.delay` stalls one flush on this thread). Everything
    // lands as a typed error.
    let mut scorer = OnlineScorer::new(
        Arc::clone(&active0),
        StreamConfig {
            window: WindowConfig::tumbling(ts.clone(), 2),
            batch: BatchConfig {
                batch_size: 4,
                max_flush_retries: 1,
            },
        },
    )
    .unwrap();
    let mut typed_errors = Vec::new();
    for pass in 0..2 {
        for i in 0..windows.len() {
            let (_, errors) = push_window(&mut scorer, pass * windows.len() + i);
            typed_errors.extend(errors);
        }
    }
    // Settle: retry the final flush a few times (injected faults may hit
    // it), then drain whatever is left. Never a hang, never a panic.
    for _ in 0..5 {
        match scorer.finish() {
            Ok(_) => break,
            Err(e) => typed_errors.push(e),
        }
    }
    let _ = scorer.take_pending();
    let quarantined_batches = scorer.drain_quarantine().len();

    // The injected menu was actually served.
    assert!(
        typed_errors
            .iter()
            .any(|e| matches!(e, StreamError::Ingest(_))),
        "seed {seed}: expected a poison rejection, got {typed_errors:?}"
    );
    assert!(
        typed_errors
            .iter()
            .any(|e| e.to_string().contains("injected fault: stream.flush")),
        "seed {seed}: expected an injected flush failure, got {typed_errors:?}"
    );
    assert!(
        quarantined_batches >= 1,
        "seed {seed}: repeated flush failures must quarantine"
    );

    // The capped stream/pool faults are exhausted: every flush scored on
    // this thread or on pool chunks it joined before returning.
    let report = mfod_faultline::report().unwrap();
    for (point, fires) in [
        (points::STREAM_DELAY, 1),
        (points::STREAM_FLUSH, 2),
        (points::STREAM_POISON, 2),
        (points::POOL_PANIC, 1),
    ] {
        assert_eq!(
            report.fires(point),
            fires,
            "seed {seed}: {point} not exhausted: {}",
            report.to_json()
        );
    }

    // The active model was never unseated while faults were flying.
    assert_eq!(registry.generation(), gen0, "seed {seed}");
    assert!(
        Arc::ptr_eq(&registry.active().unwrap(), &active0),
        "seed {seed}: active generation must be identity-stable under faults"
    );

    // Clean session: with only the straggler left armed, streaming must
    // be bit-identical to the no-faults offline reference.
    let mut clean = OnlineScorer::new(
        Arc::clone(&active0),
        StreamConfig {
            window: WindowConfig::tumbling(ts.clone(), 2),
            batch: BatchConfig {
                batch_size: 4,
                ..Default::default()
            },
        },
    )
    .unwrap();
    let mut verdicts = Vec::new();
    for i in 0..windows.len() {
        let (v, errors) = push_window(&mut clean, i);
        assert!(errors.is_empty(), "seed {seed}: clean session: {errors:?}");
        verdicts.extend(v);
    }
    verdicts.extend(clean.finish().unwrap());
    let reference = offline_scores();
    assert_eq!(verdicts.len(), reference.len(), "seed {seed}");
    for (v, r) in verdicts.iter().zip(reference) {
        assert_eq!(
            v.score.to_bits(),
            r.to_bits(),
            "seed {seed}: fault-free session drifted from the reference at seq {}",
            v.seq
        );
    }

    // Disarm. Every armed point was hit on this schedule's behalf, except
    // the torn write, which the run as a whole must fire (see the test).
    let fault_report = mfod_faultline::disarm().unwrap();
    for (point, _) in &rules {
        assert!(
            *point == points::PERSIST_TORN_WRITE || fault_report.hits(point) > 0,
            "seed {seed}: armed point {point} never hit: {}",
            fault_report.to_json()
        );
    }

    // Heal: a new promotion is served and the watcher settles back to its
    // steady state.
    store.promote(&upgrade, 1, "upgrade").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = handle.health();
        if registry.generation() > gen0 && health.healthy && health.backoff_level == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed}: registry never healed (gen {} vs {gen0}, health {health:?})",
            registry.generation()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let health = handle.health();
    if fault_report.fires(points::REGISTRY_SWEEP) > 0 {
        assert!(
            health.recoveries >= 1,
            "seed {seed}: failing polls must be followed by a recovery"
        );
        assert!(
            health.last_error.is_some(),
            "seed {seed}: the last poll error is retained for post-mortems"
        );
    }
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();

    ScheduleOutcome {
        seed,
        typed_errors: typed_errors.len(),
        quarantined_batches,
        fault_report,
    }
}

#[test]
fn chaos_soak_serving_runtime_survives_seeded_fault_schedules() {
    let full = std::env::var("MFOD_CHAOS_FULL").is_ok_and(|v| v == "1");
    let schedules: u64 = if full { 12 } else { 3 };
    let mut outcomes = Vec::new();
    for i in 0..schedules {
        outcomes.push(run_schedule(1000 + 97 * i));
    }
    if let Ok(path) = std::env::var("MFOD_CHAOS_JSON") {
        let per_schedule: Vec<String> = outcomes
            .iter()
            .map(|o| {
                format!(
                    "{{\"seed\":{},\"typed_errors\":{},\"quarantined_batches\":{},\"faults\":{}}}",
                    o.seed,
                    o.typed_errors,
                    o.quarantined_batches,
                    o.fault_report.to_json()
                )
            })
            .collect();
        let json = format!(
            "{{\"schedules\":{},\"full\":{},\"results\":[{}]}}\n",
            schedules,
            full,
            per_schedule.join(",")
        );
        std::fs::write(&path, json).unwrap();
    }
    // An injected `persist.crc` fault may refuse a schedule's upgrade
    // before its write, so the torn write is owed once per run.
    assert!(
        outcomes
            .iter()
            .any(|o| o.fault_report.fires(points::PERSIST_TORN_WRITE) > 0),
        "persist.torn_write fired in none of {schedules} schedules"
    );
}
