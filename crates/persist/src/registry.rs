//! The serving-side model registry: validate snapshots and atomically
//! hot-swap the active model under live traffic.
//!
//! A [`ModelRegistry`] owns one *active* `Arc<T>` slot. Scoring threads
//! call [`ModelRegistry::active`] per batch — a read-lock plus an `Arc`
//! clone, never blocked by a concurrent install for longer than the swap
//! of one pointer — while an operator installs new generations with
//! [`ModelRegistry::install`], [`ModelRegistry::install_bytes`] or
//! [`ModelStore::install_active`], or a watcher thread follows a model
//! store's deployment log ([`watch_store`]). In-flight batches keep
//! scoring against the `Arc` they already cloned; the swap is
//! torn-batch-free by construction.
//!
//! Files are untrusted: anything malformed (bad magic, future version,
//! truncation, checksum mismatch, wrong artifact kind, failed restore
//! validation) is rejected with a typed [`PersistError`] and the active
//! model is left untouched. A store generation installs only while its
//! file still claims the length, kind and CRC-32 trailer its catalog
//! entry records (an O(1) compare before any decode), and the open's one
//! CRC pass then proves the trailer. An install reads the whole file into
//! memory first, so a file that shrinks or vanishes mid-install is a
//! typed I/O or truncation error, and a served model owns its values
//! outright.
//!
//! [`watch_store`]: ModelRegistry::watch_store
//! [`ModelStore::install_active`]: crate::store::ModelStore::install_active

use crate::error::PersistError;
use crate::format::{from_bytes, Snapshot};
use crate::manifest::ManifestEntry;
use crate::store::{read_log, DEPLOY_LOG_FILE};
use crate::Result;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, SystemTime};

/// A live artifact that can be rebuilt from its snapshot form.
///
/// The snapshot type carries the raw decoded state; `restore` re-runs the
/// domain validation and rebuilds any derived structures (trait objects,
/// cached operators). Splitting the two keeps [`crate::wire::Decode`]
/// infallible with respect to *domain* rules — wire errors and domain
/// errors stay distinct.
pub trait Restorable: Sized {
    /// The on-disk form of this artifact.
    type Snapshot: Snapshot;

    /// Rebuilds the live artifact; the error string is wrapped in
    /// [`PersistError::Restore`].
    fn restore(snapshot: Self::Snapshot) -> std::result::Result<Self, String>;
}

/// An atomically hot-swappable slot holding the active model generation.
pub struct ModelRegistry<T> {
    active: RwLock<Option<Arc<T>>>,
    generation: AtomicU64,
}

impl<T> std::fmt::Debug for ModelRegistry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("loaded", &self.active().is_some())
            .field("generation", &self.generation())
            .finish()
    }
}

impl<T> Default for ModelRegistry<T> {
    fn default() -> Self {
        ModelRegistry {
            active: RwLock::new(None),
            generation: AtomicU64::new(0),
        }
    }
}

impl<T> ModelRegistry<T> {
    /// An empty registry (no active model yet).
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// The active model, if any — a cheap `Arc` clone; callers hold it
    /// for the duration of one batch so a concurrent swap can never tear
    /// a batch across two models.
    pub fn active(&self) -> Option<Arc<T>> {
        self.active
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Monotone counter incremented by every successful install; 0 means
    /// nothing was ever installed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Atomically replaces the active model, returning the new generation
    /// number. The previous model is dropped when its last in-flight
    /// batch finishes.
    pub fn install(&self, model: Arc<T>) -> u64 {
        let mut slot = self.active.write().unwrap_or_else(|p| p.into_inner());
        *slot = Some(model);
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(m) = mfod_obs::active() {
            m.registry_swaps.add(1);
            m.registry_generation.set(generation);
            m.win_registry_swaps.add(1);
            mfod_obs::journal::instant("registry.swap");
        }
        generation
    }
}

impl<T: Restorable> ModelRegistry<T> {
    /// Decodes, restores and installs a snapshot byte buffer. The active
    /// model is untouched when the bytes fail any validation step.
    pub fn install_bytes(&self, bytes: &[u8]) -> Result<u64> {
        let started = mfod_obs::active().map(|_| std::time::Instant::now());
        let snapshot = from_bytes::<T::Snapshot>(bytes)?;
        let model = T::restore(snapshot).map_err(PersistError::Restore)?;
        let generation = self.install(Arc::new(model));
        if let (Some(m), Some(t)) = (mfod_obs::active(), started) {
            m.registry_install_time
                .record(t.elapsed().as_nanos() as u64);
        }
        Ok(generation)
    }

    /// Reads a store generation's file and installs it. The bytes must
    /// claim the length, kind and CRC-32 trailer its catalog entry
    /// records, or the install fails with [`PersistError::ContentMismatch`]
    /// before any decode and the active model stays. The open's CRC pass
    /// then proves the trailer. Fault point:
    /// [`mfod_faultline::points::PERSIST_READ`] fails the read.
    pub(crate) fn install_committed(&self, dir: &Path, entry: &ManifestEntry) -> Result<u64> {
        let path = dir.join(&entry.file);
        let io = |source| PersistError::Io {
            path: path.clone(),
            source,
        };
        if mfod_faultline::should_fire(mfod_faultline::points::PERSIST_READ) {
            return Err(io(std::io::Error::other("injected fault: persist.read")));
        }
        let bytes = std::fs::read(&path).map_err(io)?;
        entry.check_claimed(&path, &bytes)?;
        self.install_bytes(&bytes)
    }
}

/// Shared stop flag of a [`WatchHandle`]: the watcher thread waits on the
/// condvar between polls, so a stop request interrupts the sleep
/// immediately instead of after the current interval.
type StopSignal = Arc<(Mutex<bool>, Condvar)>;

/// Each consecutive failing poll doubles the watcher's sleep, up to
/// 2⁶ = 64 intervals.
const MAX_BACKOFF_LEVEL: u32 = 6;

/// Settings of a [`ModelRegistry::watch_store`] watcher.
///
/// Consecutive failing polls back the interval off exponentially —
/// `interval · 2ᵏ` after `k` consecutive failures, capped at
/// `64 · interval` — with a deterministic jitter (up to +25%, drawn from
/// a xoshiro stream seeded by `jitter_seed`) so a fleet of watchers
/// sharing a seed-per-host never thunders back in lockstep. One
/// successful poll resets the schedule to `interval`.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Healthy steady-state poll interval.
    pub interval: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl WatchConfig {
    /// Polls every `interval`, with jitter seed 0.
    pub fn new(interval: Duration) -> Self {
        WatchConfig {
            interval,
            jitter_seed: 0,
        }
    }
}

/// The backed-off sleep before the next poll: `interval · 2^level`
/// (level capped at [`MAX_BACKOFF_LEVEL`]), stretched by
/// `jitter_frac ∈ [0, 1)` mapped onto `[1.0, 1.25)`. Level 0 (healthy)
/// is exactly `interval`, no jitter. Pure, so the schedule is
/// unit-testable without a watcher.
fn backoff_interval(interval: Duration, level: u32, jitter_frac: f64) -> Duration {
    if level == 0 {
        return interval;
    }
    let base = interval.saturating_mul(1 << level.min(MAX_BACKOFF_LEVEL));
    base.saturating_add(base.mul_f64(0.25 * jitter_frac.clamp(0.0, 1.0)))
}

/// Point-in-time health of a watcher loop, surfaced by
/// [`WatchHandle::health`]. Failing polls do not vanish: the latest
/// typed error's message, the consecutive-failure streak and the current
/// backoff posture are all readable while the watcher self-heals.
#[derive(Debug, Clone)]
pub struct RegistryHealth {
    /// Did the most recent completed poll succeed? (`true` before the
    /// first poll completes — no evidence of trouble yet.)
    pub healthy: bool,
    /// Length of the current consecutive-failure streak (0 when healthy).
    pub consecutive_failures: u64,
    /// Current backoff exponent (0 when healthy).
    pub backoff_level: u32,
    /// The sleep chosen before the next poll (equals the configured
    /// interval when healthy, the jittered backed-off value otherwise).
    pub next_interval: Duration,
    /// Message of the most recent poll error, retained across recovery
    /// for post-mortems; `None` until a poll first fails. A committed
    /// generation that fails to install lands here.
    pub last_error: Option<String>,
    /// Times the watcher transitioned failing → healthy.
    pub recoveries: u64,
}

/// Handle to a background log watcher started by
/// [`ModelRegistry::watch_store`]. Dropping the handle (or calling
/// [`WatchHandle::stop`]) signals the watcher thread and joins it.
pub struct WatchHandle {
    stop: StopSignal,
    polls: Arc<AtomicU64>,
    health: Arc<Mutex<RegistryHealth>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchHandle")
            .field("polls", &self.polls())
            .field("running", &self.thread.is_some())
            .finish()
    }
}

impl WatchHandle {
    /// Number of completed polls so far, failed ones included (read
    /// [`ModelRegistry::generation`] for how many installs they made).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Acquire)
    }

    /// A snapshot of the watcher's health: last poll outcome, failure
    /// streak, backoff posture and the most recent poll error.
    pub fn health(&self) -> RegistryHealth {
        self.health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Signals the watcher to stop and joins its thread. Any poll already
    /// in flight finishes first; a sleeping watcher wakes immediately.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        let (flag, signal) = &*self.stop;
        *flag.lock().unwrap_or_else(|p| p.into_inner()) = true;
        signal.notify_all();
        let _ = thread.join();
    }
}

impl Drop for WatchHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a watcher has read of a store's deployment log, and what it
/// installed from it.
struct LogTail {
    dir: PathBuf,
    /// Length and mtime of `deploy.log` at the last replay.
    seen: Option<(u64, Option<SystemTime>)>,
    /// The committed active entry that replay found.
    active: Option<ManifestEntry>,
    /// Generation and CRC-32 of the entry this watcher installed.
    served: Option<(u64, u32)>,
}

impl LogTail {
    /// One poll: stat the log, replay it if its length or mtime moved,
    /// and install the committed active entry unless it is the one
    /// already served. Returns whether the log was unchanged. Reads only:
    /// a record a writer is still appending reads as a torn tail and is
    /// simply not visible until a later poll.
    fn poll<T: Restorable>(&mut self, registry: &ModelRegistry<T>) -> Result<bool> {
        if mfod_faultline::should_fire(mfod_faultline::points::REGISTRY_SWEEP) {
            return Err(PersistError::Io {
                path: self.dir.clone(),
                source: std::io::Error::other("injected fault: registry.sweep"),
            });
        }
        let stat = log_stat(&self.dir)?;
        let unchanged = self.seen == Some(stat);
        if !unchanged {
            self.active = read_log(&self.dir)?.manifest.active_entry().cloned();
            self.seen = Some(stat);
        }
        if let Some(entry) = &self.active {
            let id = (entry.generation, entry.content_hash);
            if self.served != Some(id) {
                if let Err(e) = registry.install_committed(&self.dir, entry) {
                    if let Some(m) = mfod_obs::active() {
                        m.registry_rejected.add(1);
                        m.win_registry_rejected.add(1);
                    }
                    return Err(e);
                }
                self.served = Some(id);
            }
        }
        Ok(unchanged)
    }
}

/// Length and mtime of the store's log. A store directory without a log
/// holds an empty one; a missing directory is an error.
fn log_stat(dir: &Path) -> Result<(u64, Option<SystemTime>)> {
    let log = dir.join(DEPLOY_LOG_FILE);
    match std::fs::metadata(&log) {
        Ok(meta) => Ok((meta.len(), meta.modified().ok())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => std::fs::metadata(dir)
            .map(|_| (0, None))
            .map_err(|source| PersistError::Io {
                path: dir.to_path_buf(),
                source,
            }),
        Err(source) => Err(PersistError::Io { path: log, source }),
    }
}

impl<T: Restorable + Send + Sync + 'static> ModelRegistry<T> {
    /// Starts a background thread that serves whatever the model store
    /// at `dir` has committed: every `interval` it stats `deploy.log`,
    /// replays it when it changed, and installs the committed active
    /// generation whenever that differs (by generation and CRC-32)
    /// from the one it installed last. A promotion or rollback through
    /// [`crate::store::ModelStore`] is served within one poll, with no
    /// registry call from the serving path; a snapshot the log does not
    /// commit is never installed. The first poll installs the committed
    /// active generation, whatever the registry already serves.
    ///
    /// The watcher only reads: it never writes, truncates or quarantines
    /// anything in `dir`. Poll errors (the directory missing, a log in
    /// a retired format, a committed file whose bytes no longer match
    /// its catalog entry) are non-fatal and leave the active model in
    /// place — the watcher self-heals: consecutive failures back the
    /// poll interval off exponentially with deterministic jitter (see
    /// [`WatchConfig`]), one success resets the schedule, and the latest
    /// error stays readable via [`WatchHandle::health`].
    ///
    /// The first poll runs immediately. The returned [`WatchHandle`]
    /// owns the thread: dropping it stops the watcher.
    pub fn watch_store(
        self: &Arc<Self>,
        dir: impl Into<PathBuf>,
        config: WatchConfig,
    ) -> WatchHandle {
        let mut tail = LogTail {
            dir: dir.into(),
            seen: None,
            active: None,
            served: None,
        };
        let registry = Arc::clone(self);
        let stop: StopSignal = Arc::new((Mutex::new(false), Condvar::new()));
        let polls = Arc::new(AtomicU64::new(0));
        let health = Arc::new(Mutex::new(RegistryHealth {
            healthy: true,
            consecutive_failures: 0,
            backoff_level: 0,
            next_interval: config.interval,
            last_error: None,
            recoveries: 0,
        }));
        let thread = {
            let stop = Arc::clone(&stop);
            let polls = Arc::clone(&polls);
            let health = Arc::clone(&health);
            // Polls consult the fault plan of the thread that started the
            // watcher, even one it arms later.
            let scope = mfod_faultline::scope();
            std::thread::Builder::new()
                .name("mfod-registry-watch".into())
                .spawn(move || {
                    let _scope = mfod_faultline::enter(scope);
                    let (flag, signal) = &*stop;
                    let mut jitter = StdRng::seed_from_u64(config.jitter_seed);
                    let mut level: u32 = 0;
                    loop {
                        let obs = mfod_obs::active();
                        let started = obs.map(|_| std::time::Instant::now());
                        let outcome = tail.poll(&registry);
                        if let (Some(m), Some(t)) = (obs, started) {
                            m.registry_sweeps.add(1);
                            m.registry_sweep_time.record_duration(t.elapsed());
                            m.registry_unchanged
                                .add(u64::from(matches!(outcome, Ok(true))));
                        }
                        polls.fetch_add(1, Ordering::AcqRel);
                        let sleep = {
                            let mut h = health.lock().unwrap_or_else(|p| p.into_inner());
                            match outcome {
                                Ok(_) => {
                                    if !h.healthy {
                                        h.recoveries += 1;
                                    }
                                    h.healthy = true;
                                    h.consecutive_failures = 0;
                                    level = 0;
                                }
                                Err(e) => {
                                    h.healthy = false;
                                    h.consecutive_failures += 1;
                                    h.last_error = Some(e.to_string());
                                    level = (level + 1).min(MAX_BACKOFF_LEVEL);
                                }
                            }
                            // one jitter draw per *failing* poll keeps the
                            // stream a pure function of the failure schedule
                            let frac = if level > 0 { jitter.random() } else { 0.0 };
                            let sleep = backoff_interval(config.interval, level, frac);
                            h.backoff_level = level;
                            h.next_interval = sleep;
                            if let Some(m) = mfod_obs::active() {
                                let previous = m.registry_backoff.get();
                                m.registry_backoff.set(u64::from(level));
                                // Journal only *transitions*, so a healthy
                                // steady-state watcher stays silent in the
                                // trace.
                                if previous != u64::from(level) {
                                    mfod_obs::journal::instant(if u64::from(level) > previous {
                                        "registry.backoff.raise"
                                    } else {
                                        "registry.backoff.clear"
                                    });
                                }
                            }
                            sleep
                        };
                        let mut stopped = flag.lock().unwrap_or_else(|p| p.into_inner());
                        while !*stopped {
                            let (guard, timeout) = signal
                                .wait_timeout(stopped, sleep)
                                .unwrap_or_else(|p| p.into_inner());
                            stopped = guard;
                            if timeout.timed_out() {
                                break;
                            }
                        }
                        if *stopped {
                            return;
                        }
                    }
                })
                .expect("failed to spawn registry watcher")
        };
        WatchHandle {
            stop,
            polls,
            health,
            thread: Some(thread),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::to_bytes;
    use crate::store::{generation_file, ModelStore};
    use crate::wal::{frame, LogRecord};
    use crate::wire::{Decode, Decoder, Encode, Encoder};
    use mfod_faultline::{points, FaultPlan, FaultRule};
    use std::io::Write as _;

    #[derive(Debug, Clone, PartialEq)]
    struct WeightsSnapshot {
        w: Vec<f64>,
    }

    impl Encode for WeightsSnapshot {
        fn encode(&self, w: &mut Encoder) {
            self.w.encode(w);
        }
    }

    impl Decode for WeightsSnapshot {
        fn decode(r: &mut Decoder<'_>) -> Result<Self> {
            Ok(WeightsSnapshot { w: Vec::decode(r)? })
        }
    }

    impl Snapshot for WeightsSnapshot {
        const KIND: u32 = 0x77;
        const NAME: &'static str = "weights";
    }

    /// A "live" model whose restore validates finiteness.
    #[derive(Debug, PartialEq)]
    struct Weights {
        w: Vec<f64>,
    }

    impl Restorable for Weights {
        type Snapshot = WeightsSnapshot;
        fn restore(s: WeightsSnapshot) -> std::result::Result<Self, String> {
            if !s.w.iter().all(|v| v.is_finite()) {
                return Err("weights must be finite".into());
            }
            Ok(Weights { w: s.w })
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfod-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn weights(w: f64) -> WeightsSnapshot {
        WeightsSnapshot { w: vec![w] }
    }

    /// The weights the registry serves, if any.
    fn served(reg: &ModelRegistry<Weights>) -> Option<Vec<f64>> {
        reg.active().map(|m| m.w.clone())
    }

    /// Spins until `done` holds, failing the test after 10 s.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits for two more completed polls, so at least one whole poll
    /// ran after the call.
    fn wait_one_full_poll(handle: &WatchHandle) {
        let polls = handle.polls();
        wait_until("two more polls", || handle.polls() >= polls + 2);
    }

    fn watch(reg: &Arc<ModelRegistry<Weights>>, dir: &Path) -> WatchHandle {
        reg.watch_store(dir, WatchConfig::new(Duration::from_millis(2)))
    }

    /// Appends one record to the store's log with plain `std::fs`, so no
    /// fault point is on the path.
    fn log(dir: &Path, record: &LogRecord) {
        let mut enc = Encoder::new();
        record.encode(&mut enc);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(DEPLOY_LOG_FILE))
            .unwrap()
            .write_all(&frame(&enc.into_bytes()))
            .unwrap();
    }

    /// Commits weights `w` as store generation `generation` by hand: the
    /// snapshot file, then its commit record.
    fn commit(dir: &Path, generation: u64, w: f64) {
        let bytes = to_bytes(&weights(w));
        let entry = ManifestEntry {
            generation,
            file: generation_file(generation),
            kind: WeightsSnapshot::KIND,
            content_hash: crate::format::ContentId::claimed(&bytes).crc,
            len: bytes.len() as u64,
            config_fingerprint: 0,
            parent: None,
            tag: String::new(),
        };
        std::fs::write(dir.join(&entry.file), &bytes).unwrap();
        log(dir, &LogRecord::Commit(entry));
    }

    #[test]
    fn empty_registry_has_no_active_model() {
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        assert!(reg.active().is_none());
        assert_eq!(reg.generation(), 0);
        assert!(format!("{reg:?}").contains("generation"));
    }

    #[test]
    fn install_swaps_and_bumps_generation() {
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let g1 = reg.install(Arc::new(Weights { w: vec![1.0] }));
        assert_eq!(g1, 1);
        let held = reg.active().unwrap(); // an in-flight batch's handle
        let g2 = reg.install(Arc::new(Weights { w: vec![2.0] }));
        assert_eq!(g2, 2);
        // the in-flight handle still sees the old model; new callers the new
        assert_eq!(held.w, vec![1.0]);
        assert_eq!(reg.active().unwrap().w, vec![2.0]);
    }

    #[test]
    fn install_bytes_validates_and_restores() {
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let ok = to_bytes(&WeightsSnapshot { w: vec![3.0, 4.0] });
        reg.install_bytes(&ok).unwrap();
        assert_eq!(reg.active().unwrap().w, vec![3.0, 4.0]);
        // domain validation runs on restore
        let bad = to_bytes(&WeightsSnapshot {
            w: vec![f64::INFINITY],
        });
        assert!(matches!(
            reg.install_bytes(&bad),
            Err(PersistError::Restore(_))
        ));
        // wire corruption is typed and leaves the active model alone
        let mut corrupt = ok.clone();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        assert!(reg.install_bytes(&corrupt).is_err());
        assert_eq!(reg.active().unwrap().w, vec![3.0, 4.0]);
        assert_eq!(reg.generation(), 1);
    }

    #[test]
    fn backoff_schedule_is_exponential_capped_and_jittered() {
        let interval = Duration::from_millis(10);
        // healthy: exactly the interval, jitter ignored
        assert_eq!(backoff_interval(interval, 0, 0.9), interval);
        // exponential growth, deterministic at zero jitter
        assert_eq!(
            backoff_interval(interval, 1, 0.0),
            Duration::from_millis(20)
        );
        assert_eq!(
            backoff_interval(interval, 3, 0.0),
            Duration::from_millis(80)
        );
        // cap: 64 · interval
        assert_eq!(
            backoff_interval(interval, 16, 0.0),
            Duration::from_millis(640)
        );
        // jitter stretches by at most +25%
        let jittered = backoff_interval(interval, 1, 1.0);
        assert!(jittered >= Duration::from_millis(20) && jittered <= Duration::from_millis(25));
        // a huge interval saturates instead of overflowing
        assert_eq!(backoff_interval(Duration::MAX, 16, 1.0), Duration::MAX);
    }

    #[test]
    fn watcher_follows_the_log_and_stops_cleanly() {
        let dir = tmpdir("watch");
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = watch(&reg, &dir);
        // a store without a log serves nothing, and that is healthy
        wait_one_full_poll(&handle);
        assert!(reg.active().is_none());
        assert!(handle.health().healthy);
        commit(&dir, 1, 1.0);
        wait_until("generation 1 served", || served(&reg) == Some(vec![1.0]));
        // steady-state polls find the log unchanged and install nothing
        wait_one_full_poll(&handle);
        wait_one_full_poll(&handle);
        assert_eq!(reg.generation(), 1, "no-op polls must not install");
        // a commit and a rollback are each served hands-free
        commit(&dir, 2, 2.0);
        wait_until("generation 2 served", || served(&reg) == Some(vec![2.0]));
        log(&dir, &LogRecord::Rollback { from: 2, to: 1 });
        wait_until("rollback served", || served(&reg) == Some(vec![1.0]));
        assert_eq!(reg.generation(), 3);
        assert!(format!("{handle:?}").contains("polls"));
        // stop joins; a stopped watcher installs nothing more
        handle.stop();
        commit(&dir, 3, 3.0);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(reg.generation(), 3, "a stopped watcher must not swap");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watcher_backs_off_on_failures_and_heals_on_recovery() {
        let dir = tmpdir("heal");
        let gone = dir.join("not-yet-there");
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = reg.watch_store(
            &gone,
            WatchConfig {
                interval: Duration::from_millis(2),
                jitter_seed: 7,
            },
        );
        // failing polls: unhealthy, streak grows, backoff engages, the
        // error is surfaced instead of vanishing
        wait_until("three failed polls", || {
            handle.health().consecutive_failures >= 3
        });
        let sick = handle.health();
        assert!(!sick.healthy);
        assert!(sick.consecutive_failures >= 3);
        assert!(sick.backoff_level >= 3);
        assert!(sick.next_interval > Duration::from_millis(2));
        assert!(sick
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("not-yet-there")));
        // the store appears with a committed generation: the watcher must
        // recover hands-free and reset the schedule
        std::fs::create_dir_all(&gone).unwrap();
        commit(&gone, 1, 4.0);
        wait_until("watcher healed", || handle.health().healthy);
        let well = handle.health();
        assert_eq!(well.consecutive_failures, 0);
        assert_eq!(well.backoff_level, 0);
        assert_eq!(well.next_interval, Duration::from_millis(2));
        assert!(well.recoveries >= 1);
        assert!(well.last_error.is_some(), "history survives recovery");
        wait_until("generation served", || served(&reg) == Some(vec![4.0]));
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A promotion that fails before its commit record is never served,
    /// although its snapshot file is on disk.
    #[test]
    fn watcher_never_serves_a_promotion_that_failed_before_commit() {
        let dir = tmpdir("uncommitted");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1.0), 0, "v1").unwrap();
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = watch(&reg, &dir);
        wait_until("generation 1 served", || served(&reg) == Some(vec![1.0]));
        mfod_faultline::install(FaultPlan::new(3).rule(points::STORE_COMMIT, FaultRule::once()));
        let err = store.promote(&weights(2.0), 0, "doomed").unwrap_err();
        mfod_faultline::disarm();
        assert!(err.to_string().contains("store.commit"), "{err}");
        assert!(dir.join(generation_file(2)).exists());
        wait_one_full_poll(&handle);
        wait_one_full_poll(&handle);
        assert_eq!(served(&reg), Some(vec![1.0]));
        assert_eq!(reg.generation(), 1);
        assert_eq!(store.active_generation(), Some(1));
        assert!(handle.health().healthy);
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A watcher acts for the thread that started it, even under a plan
    /// that thread arms later; another thread's watcher never sees it.
    #[test]
    fn a_watcher_polls_under_the_plan_of_the_thread_that_started_it() {
        let (dir, other) = (tmpdir("armed-watch"), tmpdir("bystander-watch"));
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = watch(&reg, &dir);
        mfod_faultline::install(
            FaultPlan::new(5).rule(points::REGISTRY_SWEEP, FaultRule::always()),
        );
        wait_until("three failed polls", || {
            handle.health().consecutive_failures >= 3
        });
        commit(&other, 1, 1.0);
        std::thread::spawn(move || {
            let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
            let handle = watch(&reg, &other);
            wait_until("generation 1 served", || served(&reg) == Some(vec![1.0]));
            wait_one_full_poll(&handle);
            let health = handle.health();
            assert!(health.healthy && health.last_error.is_none(), "{health:?}");
            handle.stop();
            std::fs::remove_dir_all(&other).unwrap();
        })
        .join()
        .unwrap();
        let report = mfod_faultline::disarm().unwrap();
        assert!(report.fires(points::REGISTRY_SWEEP) >= 3, "{report:?}");
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A committed generation whose file holds other bytes than its
    /// catalog entry records fails to install: a typed error on the
    /// health surface, and the served model stays.
    #[test]
    fn watcher_refuses_a_committed_file_with_other_bytes() {
        let dir = tmpdir("overwritten");
        commit(&dir, 1, 1.0);
        std::fs::write(dir.join(generation_file(1)), to_bytes(&weights(9.0))).unwrap();
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        reg.install_bytes(&to_bytes(&weights(0.0))).unwrap();
        let handle = watch(&reg, &dir);
        wait_until("two failed polls", || {
            handle.health().consecutive_failures >= 2
        });
        let error = handle.health().last_error.unwrap();
        assert!(error.contains("not the committed snapshot"), "{error}");
        assert_eq!(served(&reg), Some(vec![0.0]));
        assert_eq!(reg.generation(), 1);
        // the next commit is served and the watcher heals
        commit(&dir, 2, 2.0);
        wait_until("generation 2 served", || served(&reg) == Some(vec![2.0]));
        wait_until("watcher healed", || handle.health().healthy);
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers_during_swaps_never_tear() {
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        reg.install(Arc::new(Weights { w: vec![0.0; 4] }));
        std::thread::scope(|scope| {
            let writer = {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for g in 1..50u64 {
                        reg.install(Arc::new(Weights {
                            w: vec![g as f64; 4],
                        }));
                    }
                })
            };
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let m = reg.active().unwrap();
                        // a model is always internally consistent
                        assert!(m.w.iter().all(|&v| v == m.w[0]));
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(reg.generation(), 50);
    }
}
