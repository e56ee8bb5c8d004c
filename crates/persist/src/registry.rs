//! The serving-side model registry: load snapshot files, validate them,
//! and atomically hot-swap the active model under live traffic.
//!
//! A [`ModelRegistry`] owns one *active* `Arc<T>` slot. Scoring threads
//! call [`ModelRegistry::active`] per batch — a read-lock plus an `Arc`
//! clone, never blocked by a concurrent install for longer than the swap
//! of one pointer — while an operator (or a watcher thread) installs new
//! generations with [`ModelRegistry::install`], [`install_mapped`] or
//! [`load_dir`]. In-flight batches keep scoring against the `Arc` they
//! already cloned; the swap is torn-batch-free by construction.
//!
//! Files are untrusted: anything malformed (bad magic, future version,
//! truncation, checksum mismatch, wrong artifact kind, failed restore
//! validation) is rejected with a typed [`PersistError`] and the active
//! model is left untouched.
//!
//! [`install_mapped`]: ModelRegistry::install_mapped
//! [`load_dir`]: ModelRegistry::load_dir

use crate::error::PersistError;
use crate::format::{from_bytes, from_shared, Snapshot, SNAPSHOT_EXT};
use crate::map::SharedBytes;
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

/// Outcome of a [`ModelRegistry::load_dir`] sweep.
#[derive(Debug)]
pub struct DirLoadReport {
    /// The file that became active, with its new generation number.
    pub installed: Option<(PathBuf, u64)>,
    /// The newest valid file matched the currently active install, so
    /// the sweep was a no-op (generation unchanged) — the steady state
    /// of a polling watcher loop.
    pub unchanged: Option<PathBuf>,
    /// The no-op above was decided from file metadata alone (size +
    /// mtime matched the active install), without reading a single
    /// payload byte — the steady-state watcher poll is O(1) I/O, not
    /// O(file).
    pub stat_fast_path: bool,
    /// Files that failed validation, each with its typed error.
    pub rejected: Vec<(PathBuf, PersistError)>,
    /// Candidate snapshot files considered (sorted by file name).
    pub considered: usize,
}

/// Filesystems stamp mtimes with finite granularity (ns on ext4, 2 s on
/// FAT): a file rewritten within one tick of its recorded mtime can
/// carry an identical `(len, mtime)` pair with different bytes. The stat
/// fast path is therefore only trusted once the recorded mtime was at
/// least this old at the moment the identity was hash-confirmed — any
/// later rewrite must then move the mtime forward past the recorded one.
const MTIME_GRANULARITY: Duration = Duration::from_secs(2);

/// Identity of the bytes behind the active install: file size, mtime
/// (when installed from a file) and FNV-1a content hash. The size+mtime
/// pair powers the stat-only fast path in [`ModelRegistry::load_dir`];
/// the hash is the ground truth when metadata is inconclusive.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SourceId {
    len: u64,
    mtime: Option<SystemTime>,
    hash: u64,
    /// Whether the `(len, mtime)` pair may stand in for the hash on the
    /// next poll: true only when the mtime was already at least
    /// [`MTIME_GRANULARITY`] old when this identity was recorded, closing
    /// the same-tick rewrite blind spot. While false, every poll falls
    /// back to the content hash until a confirmation observes an aged
    /// mtime.
    stat_stable: bool,
}

/// Is an mtime old enough, *right now*, for a same-tick rewrite to be
/// impossible afterwards? See [`MTIME_GRANULARITY`].
fn mtime_is_settled(mtime: Option<SystemTime>) -> bool {
    mtime.is_some_and(|m| {
        SystemTime::now()
            .duration_since(m)
            .is_ok_and(|age| age >= MTIME_GRANULARITY)
    })
}

/// An atomically hot-swappable slot holding the active model generation.
pub struct ModelRegistry<T> {
    active: RwLock<Option<Arc<T>>>,
    generation: AtomicU64,
    /// Identity of the snapshot behind the active model, when it was
    /// installed from bytes or a file — lets [`ModelRegistry::load_dir`]
    /// skip re-reading (stat fast path) and re-decoding an unchanged
    /// file on every watcher poll. `None` after a direct
    /// [`ModelRegistry::install`].
    active_source: Mutex<Option<SourceId>>,
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
            active_source: Mutex::new(None),
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
        self.install_tagged(model, None)
    }

    fn install_tagged(&self, model: Arc<T>, source: Option<SourceId>) -> u64 {
        // Take both locks in a fixed order so a concurrent load_dir's
        // identity check can never observe a source newer than the slot.
        let mut slot = self.active.write().unwrap_or_else(|p| p.into_inner());
        *self.active_source.lock().unwrap_or_else(|p| p.into_inner()) = source;
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
    /// Decodes, restores and installs a snapshot byte buffer.
    pub fn install_bytes(&self, bytes: &[u8]) -> Result<u64> {
        let started = mfod_obs::active().map(|_| std::time::Instant::now());
        let snapshot = from_bytes::<T::Snapshot>(bytes)?;
        let model = T::restore(snapshot).map_err(PersistError::Restore)?;
        let generation = self.install_tagged(
            Arc::new(model),
            Some(SourceId {
                len: bytes.len() as u64,
                mtime: None,
                hash: crate::hash::fnv1a64(bytes),
                stat_stable: false,
            }),
        );
        if let (Some(m), Some(t)) = (mfod_obs::active(), started) {
            m.registry_install_time
                .record(t.elapsed().as_nanos() as u64);
        }
        Ok(generation)
    }

    /// Restores and installs a model from already-mapped snapshot bytes.
    fn install_shared(&self, shared: &SharedBytes, source: SourceId) -> Result<u64> {
        let started = mfod_obs::active().map(|_| std::time::Instant::now());
        let snapshot = from_shared::<T::Snapshot>(shared)?;
        let model = T::restore(snapshot).map_err(PersistError::Restore)?;
        let generation = self.install_tagged(Arc::new(model), Some(source));
        if let (Some(m), Some(t)) = (mfod_obs::active(), started) {
            m.registry_install_time
                .record(t.elapsed().as_nanos() as u64);
        }
        Ok(generation)
    }

    /// Memory-maps one snapshot file, validates it (header + table + CRC
    /// over the mapped slice) and hot-swaps the restored model in.
    /// Matrix payloads are served zero-copy out of the mapping wherever
    /// alignment allows; the decoded model owns the keep-alive handles,
    /// so the mapping lives exactly as long as any view into it. The
    /// active model is untouched when the file fails any validation step.
    pub fn install_mapped(&self, path: &Path) -> Result<u64> {
        let meta = std::fs::metadata(path).map_err(|source| PersistError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let shared = SharedBytes::map(path)?;
        let mtime = meta.modified().ok();
        let source = SourceId {
            len: meta.len(),
            mtime,
            hash: crate::hash::fnv1a64(shared.as_slice()),
            stat_stable: mtime_is_settled(mtime),
        };
        self.install_shared(&shared, source)
    }

    /// Scans `dir` for `*.mfod` snapshots and installs the newest valid
    /// one, where "newest" is the lexicographically greatest file name —
    /// write snapshots with sortable names (e.g. zero-padded generation
    /// numbers or RFC-3339 timestamps) to get last-writer-wins.
    ///
    /// Invalid files are skipped with their typed errors collected in the
    /// report; they never unseat the active model.
    ///
    /// Re-running `load_dir` on an interval (a polling watcher) is the
    /// intended deployment loop, so an unchanged winner is a no-op: when
    /// the newest valid file's size and mtime match the active install
    /// the sweep skips reading the file entirely (the stat fast path,
    /// [`DirLoadReport::stat_fast_path`] — steady-state polls are O(1)
    /// I/O); when metadata is inconclusive the file is mapped and its
    /// content hash compared, skipping decode/restore on a match. Either
    /// way the file lands in [`DirLoadReport::unchanged`] and the
    /// generation counter is left alone — `generation()` counts real
    /// model changes, not polls. Installs go through the mapped
    /// zero-copy path ([`ModelRegistry::install_mapped`]).
    pub fn load_dir(&self, dir: &Path) -> Result<DirLoadReport> {
        let obs = mfod_obs::active();
        let sweep_started = obs.map(|_| std::time::Instant::now());
        let report = self.load_dir_inner(dir);
        if let (Some(m), Some(t)) = (obs, sweep_started) {
            m.registry_sweeps.add(1);
            m.registry_sweep_time.record_duration(t.elapsed());
            if let Ok(report) = &report {
                m.registry_rejected.add(report.rejected.len() as u64);
                m.win_registry_rejected.add(report.rejected.len() as u64);
                m.registry_unchanged
                    .add(u64::from(report.unchanged.is_some()));
            }
        }
        report
    }

    fn load_dir_inner(&self, dir: &Path) -> Result<DirLoadReport> {
        if mfod_faultline::should_fire(mfod_faultline::points::REGISTRY_SWEEP) {
            return Err(PersistError::Io {
                path: dir.to_path_buf(),
                source: std::io::Error::other("injected fault: registry.sweep"),
            });
        }
        let entries = std::fs::read_dir(dir).map_err(|source| PersistError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT))
            .collect();
        files.sort();
        let considered = files.len();
        let mut rejected = Vec::new();
        let mut installed = None;
        let mut unchanged = None;
        let mut stat_fast_path = false;
        // newest first; the first valid file wins
        for path in files.into_iter().rev() {
            let io = |source| PersistError::Io {
                path: path.clone(),
                source,
            };
            let meta = match std::fs::metadata(&path) {
                Ok(meta) => meta,
                Err(source) => {
                    rejected.push((path.clone(), io(source)));
                    continue;
                }
            };
            let (len, mtime) = (meta.len(), meta.modified().ok());
            let active = *self.active_source.lock().unwrap_or_else(|p| p.into_inner());
            // Stat fast path: size + mtime match the active install, so
            // the poll skips reading the file entirely. Only trusted once
            // the identity is *stat-stable* — hash-confirmed at a moment
            // when the mtime was already a full granularity tick old — so
            // a same-length rewrite inside the same mtime tick (the
            // classic `(len, mtime)` blind spot) can never be skipped:
            // until stability is confirmed, every poll hashes.
            if let Some(active) = active {
                if active.stat_stable && active.mtime == mtime && active.len == len {
                    unchanged = Some(path);
                    stat_fast_path = true;
                    break;
                }
            }
            let shared = match SharedBytes::map(&path) {
                Ok(shared) => shared,
                Err(e) => {
                    rejected.push((path, e));
                    continue;
                }
            };
            // hash over the mapped slice — no buffer copy even when the
            // metadata check was inconclusive
            let hash = crate::hash::fnv1a64(shared.as_slice());
            if active.is_some_and(|a| a.hash == hash) {
                // same content behind fresh or unconfirmed metadata:
                // refresh the identity; the stat path arms once the
                // mtime has settled (confirmed by this very hash check)
                *self.active_source.lock().unwrap_or_else(|p| p.into_inner()) = Some(SourceId {
                    len,
                    mtime,
                    hash,
                    stat_stable: mtime_is_settled(mtime),
                });
                unchanged = Some(path);
                break;
            }
            let source = SourceId {
                len,
                mtime,
                hash,
                stat_stable: mtime_is_settled(mtime),
            };
            match self.install_shared(&shared, source) {
                Ok(generation) => {
                    installed = Some((path, generation));
                    break;
                }
                Err(e) => rejected.push((path, e)),
            }
        }
        Ok(DirLoadReport {
            installed,
            unchanged,
            stat_fast_path,
            rejected,
            considered,
        })
    }
}

/// Shared stop flag of a [`WatchHandle`]: the watcher thread waits on the
/// condvar between polls, so a stop request interrupts the sleep
/// immediately instead of after the current interval.
type StopSignal = Arc<(Mutex<bool>, Condvar)>;

/// Ceiling on the exponent in the watcher backoff schedule; with the
/// default factor of 2 this caps the multiplier at 2¹⁶ before
/// [`WatchConfig::max_backoff`] clamps the interval anyway.
const MAX_BACKOFF_LEVEL: u32 = 16;

/// Tuning for a [`ModelRegistry::watch_dir_with`] watcher: the healthy
/// poll interval plus the failure backoff schedule.
///
/// Consecutive failing sweeps back the interval off exponentially —
/// `interval · factorᵏ` after `k` consecutive failures, clamped to
/// `max_backoff` — with a deterministic jitter (up to +25%, drawn from a
/// xoshiro stream seeded by `jitter_seed`) so a fleet of watchers sharing
/// a seed-per-host never thunders back in lockstep. One successful sweep
/// resets the schedule to `interval`.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Healthy steady-state poll interval.
    pub interval: Duration,
    /// Backoff multiplier per consecutive failing sweep (values < 2 are
    /// treated as 2⁰ = no growth beyond the first step... clamped to ≥1).
    pub backoff_factor: u32,
    /// Upper bound on the backed-off interval.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl WatchConfig {
    /// Defaults: factor 2, `max_backoff = 64 · interval`, jitter seed 0.
    pub fn new(interval: Duration) -> Self {
        WatchConfig {
            interval,
            backoff_factor: 2,
            max_backoff: interval.saturating_mul(64),
            jitter_seed: 0,
        }
    }
}

/// The backed-off sleep before the next sweep: `interval · factor^level`
/// clamped to `max_backoff`, stretched by `jitter_frac ∈ [0, 1)` mapped
/// onto `[1.0, 1.25)`. Level 0 (healthy) is exactly `interval`, no
/// jitter. Pure, so the schedule is unit-testable without a watcher.
fn backoff_interval(config: &WatchConfig, level: u32, jitter_frac: f64) -> Duration {
    if level == 0 {
        return config.interval;
    }
    let factor =
        u64::from(config.backoff_factor.max(1)).saturating_pow(level.min(MAX_BACKOFF_LEVEL));
    let factor = u32::try_from(factor).unwrap_or(u32::MAX);
    let base = config
        .interval
        .saturating_mul(factor)
        .min(config.max_backoff);
    base.mul_f64(1.0 + 0.25 * jitter_frac.clamp(0.0, 1.0))
        .min(config.max_backoff.mul_f64(1.25))
}

/// Point-in-time health of a watcher loop, surfaced by
/// [`WatchHandle::health`]. Failing sweeps no longer vanish: the latest
/// typed error's message, the consecutive-failure streak and the current
/// backoff posture are all readable while the watcher self-heals.
#[derive(Debug, Clone)]
pub struct RegistryHealth {
    /// Did the most recent completed sweep succeed? (`true` before the
    /// first sweep completes — no evidence of trouble yet.)
    pub healthy: bool,
    /// Length of the current consecutive-failure streak (0 when healthy).
    pub consecutive_failures: u64,
    /// Current backoff exponent (0 when healthy).
    pub backoff_level: u32,
    /// The sleep chosen before the next sweep (equals the configured
    /// interval when healthy, the jittered backed-off value otherwise).
    pub next_interval: Duration,
    /// Message of the most recent sweep error, retained across recovery
    /// for post-mortems; `None` until a sweep first fails.
    pub last_error: Option<String>,
    /// Times the watcher transitioned failing → healthy.
    pub recoveries: u64,
    /// Per-path rejection reasons from the most recent *successful*
    /// sweep that rejected anything, retained until a later sweep
    /// rejects a different set — the evidence behind quarantine
    /// decisions, readable instead of vanishing with the sweep report.
    pub last_rejections: Vec<(PathBuf, String)>,
}

/// Handle to a background directory watcher started by
/// [`ModelRegistry::watch_dir`] / [`ModelRegistry::watch_dir_with`].
/// Dropping the handle (or calling [`WatchHandle::stop`]) signals the
/// watcher thread and joins it.
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
    /// Number of completed `load_dir` sweeps so far (hash-skipped no-op
    /// polls included; read [`ModelRegistry::generation`] for how many of
    /// them actually deployed a new model).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Acquire)
    }

    /// A snapshot of the watcher's health: last sweep outcome, failure
    /// streak, backoff posture and the most recent sweep error.
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

impl<T: Restorable + Send + Sync + 'static> ModelRegistry<T> {
    /// Starts a background thread that re-runs
    /// [`ModelRegistry::load_dir`] on `dir` every `interval` — the
    /// push-free deployment loop: an operator drops a new `*.mfod`
    /// snapshot into the directory and the next poll hot-swaps it in,
    /// with no registry call from the serving path.
    ///
    /// Polling is cheap in the steady state: an unchanged newest file
    /// stat-matches the active install (size + mtime) and the sweep ends
    /// without reading a single payload byte
    /// ([`DirLoadReport::stat_fast_path`]), so watcher polls are O(1)
    /// I/O and `generation()` keeps counting real deployments, not
    /// polls. Sweep errors (e.g. the directory briefly missing during a
    /// deploy) are non-fatal — the watcher self-heals: consecutive
    /// failures back the poll interval off exponentially with
    /// deterministic jitter (see [`WatchConfig`]), one success resets the
    /// schedule, and the latest error stays readable via
    /// [`WatchHandle::health`] instead of vanishing. Malformed snapshot
    /// *files* were already non-fatal per the `load_dir` contract.
    ///
    /// The first poll runs immediately. The returned [`WatchHandle`]
    /// owns the thread: dropping it stops the watcher.
    pub fn watch_dir(self: &Arc<Self>, dir: impl Into<PathBuf>, interval: Duration) -> WatchHandle {
        self.watch_dir_with(dir, WatchConfig::new(interval))
    }

    /// [`ModelRegistry::watch_dir`] with an explicit backoff/jitter
    /// configuration.
    pub fn watch_dir_with(
        self: &Arc<Self>,
        dir: impl Into<PathBuf>,
        config: WatchConfig,
    ) -> WatchHandle {
        let dir = dir.into();
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
            last_rejections: Vec::new(),
        }));
        let thread = {
            let stop = Arc::clone(&stop);
            let polls = Arc::clone(&polls);
            let health = Arc::clone(&health);
            std::thread::Builder::new()
                .name("mfod-registry-watch".into())
                .spawn(move || {
                    let (flag, signal) = &*stop;
                    let mut jitter = StdRng::seed_from_u64(config.jitter_seed);
                    let mut level: u32 = 0;
                    loop {
                        let outcome = registry.load_dir(&dir);
                        polls.fetch_add(1, Ordering::AcqRel);
                        let sleep = {
                            let mut h = health.lock().unwrap_or_else(|p| p.into_inner());
                            match outcome {
                                Ok(report) => {
                                    if !h.healthy {
                                        h.recoveries += 1;
                                    }
                                    h.healthy = true;
                                    h.consecutive_failures = 0;
                                    level = 0;
                                    if !report.rejected.is_empty() {
                                        h.last_rejections = report
                                            .rejected
                                            .iter()
                                            .map(|(p, e)| (p.clone(), e.to_string()))
                                            .collect();
                                    }
                                }
                                Err(e) => {
                                    h.healthy = false;
                                    h.consecutive_failures += 1;
                                    h.last_error = Some(e.to_string());
                                    level = (level + 1).min(MAX_BACKOFF_LEVEL);
                                }
                            }
                            // one jitter draw per *failing* sweep keeps the
                            // stream a pure function of the failure schedule
                            let frac = if level > 0 { jitter.random() } else { 0.0 };
                            let sleep = backoff_interval(&config, level, frac);
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
    use crate::format::{save, to_bytes};
    use crate::wire::{Decode, Decoder, Encode, Encoder};

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

    /// Backdates `path`'s mtime past [`MTIME_GRANULARITY`], so the next
    /// hash confirmation marks the identity stat-stable without a sleep.
    fn age_mtime(path: &Path) {
        let old = SystemTime::now() - MTIME_GRANULARITY - Duration::from_secs(3);
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(old)
            .unwrap();
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
    fn load_dir_prefers_newest_valid_and_reports_rejects() {
        let dir = tmpdir("dir");
        save(&WeightsSnapshot { w: vec![1.0] }, &dir.join("gen-001.mfod")).unwrap();
        save(&WeightsSnapshot { w: vec![2.0] }, &dir.join("gen-002.mfod")).unwrap();
        // newest file is corrupt: the registry must fall back to gen-002
        let mut corrupt = to_bytes(&WeightsSnapshot { w: vec![9.0] });
        let n = corrupt.len();
        corrupt[n - 1] ^= 0xAA;
        std::fs::write(dir.join("gen-003.mfod"), &corrupt).unwrap();
        // non-snapshot files are ignored entirely
        std::fs::write(dir.join("README.txt"), b"not a model").unwrap();

        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let report = reg.load_dir(&dir).unwrap();
        assert_eq!(report.considered, 3);
        assert_eq!(report.rejected.len(), 1);
        assert!(report.rejected[0].0.ends_with("gen-003.mfod"));
        let (winner, generation) = report.installed.as_ref().unwrap();
        assert!(winner.ends_with("gen-002.mfod"));
        assert_eq!(*generation, 1);
        assert_eq!(reg.active().unwrap().w, vec![2.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_skips_unchanged_active_bytes() {
        let dir = tmpdir("unchanged");
        save(&WeightsSnapshot { w: vec![1.0] }, &dir.join("gen-001.mfod")).unwrap();
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let first = reg.load_dir(&dir).unwrap();
        assert!(first.installed.is_some());
        assert!(first.unchanged.is_none());
        assert_eq!(reg.generation(), 1);
        // watcher steady state: same file, same bytes → no-op
        for _ in 0..3 {
            let poll = reg.load_dir(&dir).unwrap();
            assert!(poll.installed.is_none());
            assert!(poll
                .unchanged
                .as_ref()
                .is_some_and(|p| p.ends_with("gen-001.mfod")));
            assert_eq!(reg.generation(), 1, "polls must not bump the generation");
        }
        // a genuinely new file still swaps
        save(&WeightsSnapshot { w: vec![2.0] }, &dir.join("gen-002.mfod")).unwrap();
        let swap = reg.load_dir(&dir).unwrap();
        assert!(swap.installed.is_some());
        assert_eq!(reg.generation(), 2);
        // a direct install (no bytes) clears the hash, so the next poll
        // conservatively re-installs from disk rather than assuming
        reg.install(Arc::new(Weights { w: vec![9.0] }));
        assert_eq!(reg.generation(), 3);
        let poll = reg.load_dir(&dir).unwrap();
        assert!(poll.installed.is_some());
        assert_eq!(reg.generation(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn steady_state_polls_take_the_stat_fast_path() {
        let dir = tmpdir("statfast");
        let path = dir.join("gen-001.mfod");
        save(&WeightsSnapshot { w: vec![1.0, 2.0] }, &path).unwrap();
        // settle the mtime so the install itself confirms stat stability
        age_mtime(&path);
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let first = reg.load_dir(&dir).unwrap();
        assert!(first.installed.is_some());
        assert!(!first.stat_fast_path);
        // second poll: size + mtime match a settled identity — decided
        // without reading bytes
        let poll = reg.load_dir(&dir).unwrap();
        assert!(poll.unchanged.is_some());
        assert!(poll.stat_fast_path, "steady-state poll must be stat-only");
        // re-write identical content: mtime moves to "now", hash still
        // matches — polls keep hashing while the mtime is fresh (the
        // same-tick rewrite window), and the stat path re-arms only once
        // the identity is confirmed over a settled mtime
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let rehash = reg.load_dir(&dir).unwrap();
        assert!(rehash.unchanged.is_some());
        assert!(
            !rehash.stat_fast_path,
            "a fresh mtime must force the hash fallback"
        );
        let fresh = reg.load_dir(&dir).unwrap();
        assert!(fresh.unchanged.is_some());
        assert!(
            !fresh.stat_fast_path,
            "the stat path must stay disarmed while the mtime is fresh"
        );
        age_mtime(&path);
        let confirm = reg.load_dir(&dir).unwrap(); // hash poll confirms over a settled mtime
        assert!(confirm.unchanged.is_some());
        let again = reg.load_dir(&dir).unwrap();
        assert!(again.unchanged.is_some());
        assert!(again.stat_fast_path, "stat path must re-arm after settling");
        assert_eq!(reg.generation(), 1, "no-op polls never bump the generation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: the `(len, mtime)` stat fast path used to silently
    /// skip a snapshot rewritten in place with identical length inside
    /// one mtime tick. With stat stability the unsettled identity falls
    /// back to the content hash and catches the new bytes.
    #[test]
    fn same_tick_equal_length_rewrite_is_caught_by_hash_fallback() {
        let dir = tmpdir("sametick");
        let path = dir.join("gen-001.mfod");
        save(&WeightsSnapshot { w: vec![1.0, 2.0] }, &path).unwrap();
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        reg.load_dir(&dir).unwrap();
        assert_eq!(reg.active().unwrap().w, vec![1.0, 2.0]);
        let recorded_mtime = std::fs::metadata(&path).unwrap().modified().unwrap();

        // in-place rewrite: different bytes, same length, and the mtime
        // pinned to the recorded value — exactly the blind spot
        let rewritten = to_bytes(&WeightsSnapshot { w: vec![5.0, 6.0] });
        assert_eq!(
            rewritten.len() as u64,
            std::fs::metadata(&path).unwrap().len(),
            "test requires an equal-length rewrite"
        );
        std::fs::write(&path, &rewritten).unwrap();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(recorded_mtime)
            .unwrap();

        let poll = reg.load_dir(&dir).unwrap();
        assert!(!poll.stat_fast_path, "unsettled identity must hash");
        assert!(poll.installed.is_some(), "rewrite must be detected");
        assert_eq!(reg.generation(), 2);
        assert_eq!(reg.active().unwrap().w, vec![5.0, 6.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backoff_schedule_is_exponential_capped_and_jittered() {
        let config = WatchConfig::new(Duration::from_millis(10));
        // healthy: exactly the interval, jitter ignored
        assert_eq!(backoff_interval(&config, 0, 0.9), config.interval);
        // exponential growth, deterministic at zero jitter
        assert_eq!(backoff_interval(&config, 1, 0.0), Duration::from_millis(20));
        assert_eq!(backoff_interval(&config, 3, 0.0), Duration::from_millis(80));
        // cap: 64 · interval by default
        assert_eq!(
            backoff_interval(&config, 16, 0.0),
            Duration::from_millis(640)
        );
        // jitter stretches by at most +25%
        let jittered = backoff_interval(&config, 1, 1.0);
        assert!(jittered >= Duration::from_millis(20) && jittered <= Duration::from_millis(25));
        // a huge level saturates instead of overflowing
        let wide = WatchConfig {
            backoff_factor: u32::MAX,
            ..WatchConfig::new(Duration::from_secs(1))
        };
        assert_eq!(backoff_interval(&wide, 16, 0.0), wide.max_backoff);
    }

    #[test]
    fn watcher_backs_off_on_failures_and_heals_on_recovery() {
        let dir = tmpdir("heal");
        let gone = dir.join("not-yet-there");
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = reg.watch_dir_with(
            &gone,
            WatchConfig {
                interval: Duration::from_millis(2),
                backoff_factor: 2,
                max_backoff: Duration::from_millis(20),
                jitter_seed: 7,
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // failing sweeps: unhealthy, streak grows, backoff engages, the
        // error is surfaced instead of vanishing
        while handle.health().consecutive_failures < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let sick = handle.health();
        assert!(!sick.healthy);
        assert!(sick.consecutive_failures >= 3);
        assert!(sick.backoff_level >= 3);
        assert!(sick.next_interval > Duration::from_millis(2));
        assert!(sick
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("not-yet-there")));
        // the directory appears with a valid snapshot: the watcher must
        // recover hands-free and reset the schedule
        std::fs::create_dir_all(&gone).unwrap();
        save(
            &WeightsSnapshot { w: vec![4.0] },
            &gone.join("gen-001.mfod"),
        )
        .unwrap();
        while !handle.health().healthy && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let well = handle.health();
        assert!(well.healthy, "watcher must self-heal");
        assert_eq!(well.consecutive_failures, 0);
        assert_eq!(well.backoff_level, 0);
        assert_eq!(well.next_interval, Duration::from_millis(2));
        assert!(well.recoveries >= 1);
        assert!(well.last_error.is_some(), "history survives recovery");
        while reg.generation() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(reg.active().unwrap().w, vec![4.0]);
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watcher_surfaces_per_path_rejection_reasons() {
        let dir = tmpdir("rejections");
        save(&WeightsSnapshot { w: vec![1.0] }, &dir.join("gen-001.mfod")).unwrap();
        // a corrupt upload lands next to the good generation
        let mut corrupt = std::fs::read(dir.join("gen-001.mfod")).unwrap();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        let bad = dir.join("gen-002.mfod");
        std::fs::write(&bad, &corrupt).unwrap();

        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = reg.watch_dir_with(
            &dir,
            WatchConfig {
                interval: Duration::from_millis(2),
                ..WatchConfig::new(Duration::from_millis(2))
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (reg.generation() < 1 || handle.health().last_rejections.is_empty())
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        // the corrupt file never unseated the good model, and its typed
        // rejection reason is on the health surface, keyed by path
        assert_eq!(reg.active().unwrap().w, vec![1.0]);
        let health = handle.health();
        let (path, why) = health
            .last_rejections
            .first()
            .expect("rejection must surface");
        assert!(path.ends_with("gen-002.mfod"), "{path:?}");
        assert!(why.contains("checksum"), "{why}");
        // once the bad file is gone, clean sweeps retain the last
        // non-empty evidence for post-mortems
        std::fs::remove_file(&bad).unwrap();
        let polls = handle.polls();
        while handle.polls() < polls + 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!handle.health().last_rejections.is_empty());
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn install_mapped_swaps_from_a_mapped_file() {
        let dir = tmpdir("mapped");
        let path = dir.join("gen-001.mfod");
        save(&WeightsSnapshot { w: vec![7.0, 8.0] }, &path).unwrap();
        age_mtime(&path); // settle so the install arms the stat path
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let generation = reg.install_mapped(&path).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(reg.active().unwrap().w, vec![7.0, 8.0]);
        // the mapped install arms the stat fast path for the watcher loop
        let poll = reg.load_dir(&dir).unwrap();
        assert!(poll.unchanged.is_some());
        assert!(poll.stat_fast_path);
        // corrupt file: typed error, active model untouched
        let mut corrupt = std::fs::read(&path).unwrap();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        let bad = dir.join("gen-002.mfod");
        std::fs::write(&bad, &corrupt).unwrap();
        assert!(reg.install_mapped(&bad).is_err());
        assert_eq!(reg.active().unwrap().w, vec![7.0, 8.0]);
        assert!(matches!(
            reg.install_mapped(&dir.join("missing.mfod")),
            Err(PersistError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_with_no_valid_files_installs_nothing() {
        let dir = tmpdir("empty");
        std::fs::write(dir.join("junk.mfod"), b"garbage").unwrap();
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let report = reg.load_dir(&dir).unwrap();
        assert!(report.installed.is_none());
        assert_eq!(report.rejected.len(), 1);
        assert!(reg.active().is_none());
        // a missing directory is a typed io error
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(reg.load_dir(&dir), Err(PersistError::Io { .. })));
    }

    #[test]
    fn watcher_hot_swaps_new_snapshots_and_stops_cleanly() {
        let dir = tmpdir("watch");
        save(&WeightsSnapshot { w: vec![1.0] }, &dir.join("gen-001.mfod")).unwrap();
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = reg.watch_dir(&dir, Duration::from_millis(5));
        // the first (immediate) poll installs generation 1
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while reg.generation() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(reg.generation(), 1, "watcher must install the snapshot");
        assert_eq!(reg.active().unwrap().w, vec![1.0]);
        // steady-state polls are hash-skipped no-ops
        let polled = handle.polls();
        while handle.polls() < polled + 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(reg.generation(), 1, "no-op polls must not bump generation");
        // a new snapshot lands: the next poll hot-swaps, hands-free
        save(&WeightsSnapshot { w: vec![2.0] }, &dir.join("gen-002.mfod")).unwrap();
        while reg.generation() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(reg.generation(), 2, "watcher must pick up the new file");
        assert_eq!(reg.active().unwrap().w, vec![2.0]);
        assert!(format!("{handle:?}").contains("polls"));
        // stop joins; no further polls land afterwards
        handle.stop();
        let polls_after_stop = {
            // re-create a handle-less count by watching generation: a
            // third snapshot must NOT be installed once stopped
            save(&WeightsSnapshot { w: vec![3.0] }, &dir.join("gen-003.mfod")).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            reg.generation()
        };
        assert_eq!(polls_after_stop, 2, "a stopped watcher must not swap");
        // a watcher on a missing directory survives and keeps polling
        let missing = dir.join("not-there");
        let lost = reg.watch_dir(&missing, Duration::from_millis(5));
        while lost.polls() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(lost.polls() >= 2, "sweep errors must not kill the watcher");
        drop(lost); // drop also stops
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
