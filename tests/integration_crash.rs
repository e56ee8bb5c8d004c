//! Kill-and-recover chaos harness for the crash-consistent model store.
//!
//! Each schedule re-invokes this test binary as a **child process** that
//! loops fit → promote against a `ModelStore`, with a seeded
//! `mfod-faultline` plan armed in `park_on_fire` mode at one of the four
//! store crash points (`persist.fsync`, `persist.rename`,
//! `manifest.append.torn`, `store.commit`). When the fault fires the
//! child freezes mid-syscall-sequence and announces the parked point;
//! the parent then **SIGKILLs** it, leaving the store directory exactly
//! as a power loss would. Acceptance, per schedule:
//!
//! * recovery (`ModelStore::open`) never fails and never panics —
//!   whatever the kill left behind is quarantined, not deleted;
//! * the recovered active generation is **committed and hash-valid**:
//!   at least the last generation the child reported `COMMITTED`, at
//!   most the last it reported `PROMOTING` (a commit record may be
//!   durable before the child got to print its confirmation);
//! * the served model scores the fixture windows **bit-identically** to
//!   a deterministic refit of the tagged variant — recovery hands back
//!   real model content, not merely a plausible file;
//! * `fsck` on the recovered directory is clean, and the store accepts
//!   a fresh promotion afterwards (it healed, not just limped);
//! * recovery is idempotent: a second open changes nothing.
//!
//! Runs 8 schedules by default; `MFOD_CHAOS_FULL=1` runs 16. With
//! `MFOD_CRASH_JSON=<path>` a JSON recovery-report artifact is written,
//! embedding each killed child's `FaultReport` (hit/fire counts per
//! crash point) harvested via the `MFOD_FAULT_REPORT` handshake.

use mfod::persist::{ModelStore, QuarantineReason};
use mfod::FittedPipeline;
use mfod_faultline::{points, FaultPlan, FaultRule};
use mfod_fixtures::{sine_pipeline, FixtureConfig};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Environment handshake between the parent harness and the child.
const ENV_CHILD_DIR: &str = "MFOD_CRASH_CHILD_DIR";
const ENV_CHILD_SEED: &str = "MFOD_CRASH_CHILD_SEED";
const ENV_CHILD_POINT: &str = "MFOD_CRASH_CHILD_POINT";

/// Promotions the child attempts per schedule.
const CHILD_PROMOTIONS: usize = 5;

/// The four store crash points, rotated across schedules.
const CRASH_POINTS: [&str; 4] = [
    points::PERSIST_FSYNC,
    points::PERSIST_RENAME,
    points::MANIFEST_APPEND_TORN,
    points::STORE_COMMIT,
];

fn variant_config(variant: usize) -> FixtureConfig {
    if variant.is_multiple_of(2) {
        FixtureConfig::default()
    } else {
        FixtureConfig {
            n_samples: 30,
            m: 20,
            n_trees: 15,
            grid_len: 12,
        }
    }
}

fn variant_tag(variant: usize) -> String {
    format!("variant-{}", variant % 2)
}

fn variant_from_tag(tag: &str) -> usize {
    match tag {
        "variant-0" => 0,
        "variant-1" => 1,
        other => panic!("unrecognized manifest tag {other:?}"),
    }
}

/// Deterministic refit of a variant — identical in parent and child, so
/// snapshot bytes and scores are comparable across processes.
fn refit(variant: usize) -> &'static (Arc<FittedPipeline>, Vec<mfod::fda::RawSample>, Vec<f64>) {
    static V0: OnceLock<(Arc<FittedPipeline>, Vec<mfod::fda::RawSample>, Vec<f64>)> =
        OnceLock::new();
    static V1: OnceLock<(Arc<FittedPipeline>, Vec<mfod::fda::RawSample>, Vec<f64>)> =
        OnceLock::new();
    let slot = if variant.is_multiple_of(2) { &V0 } else { &V1 };
    slot.get_or_init(|| sine_pipeline(&variant_config(variant)))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfod-it-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Child entry point. A no-op under a normal test run; when the parent
/// harness re-invokes the binary with the handshake env set, this arms
/// the parking fault plan and loops fit → promote until it either parks
/// (awaiting SIGKILL) or finishes all promotions cleanly.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var(ENV_CHILD_DIR) else {
        return;
    };
    let seed: u64 = std::env::var(ENV_CHILD_SEED).unwrap().parse().unwrap();
    let point = std::env::var(ENV_CHILD_POINT).unwrap();

    // Fit both variants before arming: the fault plan targets persist
    // crash points only, but a fixed pre-fault fit keeps the schedule's
    // crash window focused on the promotion path.
    let snapshots = [
        refit(0).0.snapshot().unwrap(),
        refit(1).0.snapshot().unwrap(),
    ];

    let (mut deploy, _) = ModelStore::open(&dir).unwrap();
    // Even seeds crash deterministically at the first hit of the point;
    // odd seeds use the seeded coin so the crash lands at a different
    // promotion (or not at all) per schedule.
    let rule = if seed.is_multiple_of(2) {
        FaultRule::once()
    } else {
        FaultRule::with_probability(0.25).times(1)
    };
    mfod_faultline::install(FaultPlan::new(seed).rule(point, rule).park_on_fire());

    use std::io::Write as _;
    for i in 0..CHILD_PROMOTIONS {
        let variant = i % 2;
        let tag = variant_tag(variant);
        {
            let mut out = std::io::stdout().lock();
            writeln!(
                out,
                "PROMOTING {} {tag}",
                deploy.manifest().next_generation()
            )
            .unwrap();
            out.flush().unwrap();
        }
        let entry = deploy
            .promote(&snapshots[variant], variant as u64, &tag)
            .unwrap();
        let mut out = std::io::stdout().lock();
        writeln!(out, "COMMITTED {} {}", entry.generation, entry.tag).unwrap();
        out.flush().unwrap();
    }
    mfod_faultline::disarm();
}

struct ScheduleOutcome {
    seed: u64,
    point: &'static str,
    killed: bool,
    last_promoting: Option<u64>,
    last_committed: Option<u64>,
    recovered_active: Option<u64>,
    quarantined: usize,
    fell_back: bool,
    fault_json: Option<String>,
}

/// One schedule: spawn child → watch its progress → SIGKILL at the
/// parked crash point → recover → verify the committed, hash-valid,
/// bit-identical serving contract.
fn run_schedule(index: u64) -> ScheduleOutcome {
    let seed = 7000 + 131 * index;
    let point = CRASH_POINTS[(index as usize) % CRASH_POINTS.len()];
    let dir = tmpdir(&format!("s{seed}"));
    let fault_report_path = dir.join("fault-report.json");

    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["crash_child", "--exact", "--nocapture", "--test-threads=1"])
        .env(ENV_CHILD_DIR, &dir)
        .env(ENV_CHILD_SEED, seed.to_string())
        .env(ENV_CHILD_POINT, point)
        .env(mfod_faultline::ENV_FAULT_REPORT, &fault_report_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    // Follow the child's progress in order: PROMOTING/COMMITTED markers
    // track the commit frontier; the faultline park announcement is the
    // kill signal. A child whose probabilistic rule never fires exits
    // cleanly and is validated as a crash-free baseline.
    let mut last_promoting = None;
    let mut last_committed = None;
    let mut killed = false;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                // libtest writes its `test crash_child ... ` banner with
                // no trailing newline, so the child's first marker can
                // land on the same line — match markers anywhere.
                let gen_after = |marker: &str| {
                    line.split(marker).nth(1).map(|rest| {
                        rest.split_whitespace()
                            .next()
                            .unwrap()
                            .parse::<u64>()
                            .unwrap()
                    })
                };
                if let Some(g) = gen_after("PROMOTING ") {
                    last_promoting = Some(g);
                }
                if let Some(g) = gen_after("COMMITTED ") {
                    last_committed = Some(g);
                }
                if line.contains("mfod-faultline: parked at") {
                    child.kill().unwrap();
                    killed = true;
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                assert!(
                    Instant::now() < deadline,
                    "seed {seed} @ {point}: child made no progress within the deadline"
                );
                if child.try_wait().unwrap().is_some() {
                    // Exited; drain whatever is still buffered, then stop.
                    continue;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let status = child.wait().unwrap();
                assert!(
                    status.success(),
                    "seed {seed} @ {point}: un-killed child must exit cleanly, got {status}"
                );
                break;
            }
        }
    }
    let _ = child.wait();
    reader.join().unwrap();

    // Recovery: open must succeed on whatever the SIGKILL left behind.
    let (recovered, recovery) = ModelStore::open(&dir).unwrap();
    let active = recovered.active_generation();

    // Committed state is never lost: once the child printed COMMITTED,
    // that generation's commit record was durable, so recovery must land
    // on it or on a later committed generation.
    if let Some(committed) = last_committed {
        let served = active.unwrap_or_else(|| {
            panic!("seed {seed} @ {point}: committed generation {committed} vanished")
        });
        assert!(
            served >= committed,
            "seed {seed} @ {point}: recovered gen {served} < durable commit {committed}"
        );
    }
    // ...and never invented: the active can be at most the in-flight
    // promotion the child announced last.
    if let (Some(served), Some(frontier)) = (active, last_promoting) {
        assert!(
            served <= frontier,
            "seed {seed} @ {point}: recovered gen {served} beyond the promotion frontier {frontier}"
        );
    }
    if !killed {
        assert_eq!(
            active, last_committed,
            "seed {seed} @ {point}: crash-free child must leave its last commit active"
        );
        assert!(
            recovery.quarantined.is_empty(),
            "seed {seed} @ {point}: crash-free store quarantined {:?}",
            recovery.quarantined
        );
    }

    // Nothing is deleted during recovery: every quarantined artifact is
    // preserved under quarantine/ with its reason.
    for (path, reason) in &recovery.quarantined {
        assert!(
            path.exists(),
            "seed {seed} @ {point}: quarantined {path:?} ({reason}) was not preserved"
        );
        let _: &QuarantineReason = reason;
    }

    // The recovered directory fscks clean — every surviving catalog
    // entry is hash-valid, no stray temps, no torn tails.
    let fsck = recovered.fsck().unwrap();
    assert!(
        fsck.is_clean(),
        "seed {seed} @ {point}: post-recovery fsck found {:?}",
        fsck.issues
    );

    // Bit-identical serving: the recovered model must score exactly like
    // a deterministic refit of the variant its manifest entry tags.
    if let Some(generation) = active {
        let entry = recovered.manifest().entry(generation).unwrap().clone();
        let loaded = FittedPipeline::load(&recovered.generation_path(generation).unwrap()).unwrap();
        let (fitted, windows, _) = refit(variant_from_tag(&entry.tag));
        let got = loaded.score(windows).unwrap();
        let want = fitted.score(windows).unwrap();
        assert_eq!(got.len(), want.len(), "seed {seed} @ {point}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "seed {seed} @ {point}: recovered model drifted from refit at row {i}"
            );
        }
    }

    // Recovery is idempotent and the store heals: a second open changes
    // nothing, and a fresh promotion lands cleanly on top.
    let manifest_once = recovered.manifest().clone();
    drop(recovered);
    let (mut reopened, second) = ModelStore::open(&dir).unwrap();
    assert_eq!(
        reopened.manifest(),
        &manifest_once,
        "seed {seed} @ {point}: second recovery changed the catalog"
    );
    assert!(
        second.quarantined.is_empty(),
        "seed {seed} @ {point}: second recovery re-quarantined {:?}",
        second.quarantined
    );
    let healed = reopened
        .promote(&refit(0).0.snapshot().unwrap(), 0, "post-recovery")
        .unwrap();
    assert_eq!(reopened.active_generation(), Some(healed.generation));
    assert!(reopened.fsck().unwrap().is_clean(), "seed {seed} @ {point}");

    let fault_json = std::fs::read_to_string(&fault_report_path).ok();
    if killed {
        assert!(
            fault_json.is_some(),
            "seed {seed} @ {point}: parked child must dump its fault report"
        );
    }

    let outcome = ScheduleOutcome {
        seed,
        point,
        killed,
        last_promoting,
        last_committed,
        recovered_active: active,
        quarantined: recovery.quarantined.len(),
        fell_back: recovery.fell_back,
        fault_json,
    };
    std::fs::remove_dir_all(&dir).unwrap();
    outcome
}

fn option_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |g| g.to_string())
}

#[test]
fn kill_and_recover_store_serves_committed_state_across_seeded_crashes() {
    // Guard against recursing when the parent itself runs under the
    // child handshake (a filtered child run executes only crash_child).
    if std::env::var(ENV_CHILD_DIR).is_ok() {
        return;
    }
    let full = std::env::var("MFOD_CHAOS_FULL").is_ok_and(|v| v == "1");
    let schedules: u64 = if full { 16 } else { 8 };
    let mut outcomes = Vec::new();
    for i in 0..schedules {
        outcomes.push(run_schedule(i));
    }

    // The harness only proves something if kills actually happened: the
    // deterministic even-seed schedules alone guarantee half the runs
    // die at their crash point.
    let kills = outcomes.iter().filter(|o| o.killed).count();
    assert!(
        kills >= (schedules as usize) / 2,
        "only {kills}/{schedules} schedules were killed"
    );
    // ...and every crash point got at least one kill.
    for point in CRASH_POINTS {
        assert!(
            outcomes.iter().any(|o| o.killed && o.point == point),
            "no schedule was killed at {point}"
        );
    }

    if let Ok(path) = std::env::var("MFOD_CRASH_JSON") {
        let per_schedule: Vec<String> = outcomes
            .iter()
            .map(|o| {
                format!(
                    "{{\"seed\":{},\"point\":\"{}\",\"killed\":{},\"last_promoting\":{},\
                     \"last_committed\":{},\"recovered_active\":{},\"quarantined\":{},\
                     \"fell_back\":{},\"faults\":{}}}",
                    o.seed,
                    o.point,
                    o.killed,
                    option_json(o.last_promoting),
                    option_json(o.last_committed),
                    option_json(o.recovered_active),
                    o.quarantined,
                    o.fell_back,
                    o.fault_json.as_deref().unwrap_or("null"),
                )
            })
            .collect();
        let json = format!(
            "{{\"schedules\":{},\"full\":{},\"kills\":{},\"results\":[{}]}}\n",
            schedules,
            full,
            kills,
            per_schedule.join(",")
        );
        std::fs::write(&path, json).unwrap();
    }
}
