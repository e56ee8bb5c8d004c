//! The process-wide recorder: one static bundle of named metric slots,
//! an enable gate resolved from `MFOD_OBS`, ordered snapshots with
//! `diff`, a hand-rolled JSON dump, a human-readable report, a Chrome
//! trace export of the event journal, and a scrape endpoint.

use crate::http::HttpHandle;
use crate::journal;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::Phase;
use crate::window::{self, WindowedCounter, WindowedHistogram};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

/// Environment variable that enables the recorder when set to `1`.
pub const ENV_OBS: &str = "MFOD_OBS";
/// Environment variable naming the JSON dump path used by
/// [`json_dump_guard`] and honoured by [`Recorder::dump_json_to_env`].
pub const ENV_OBS_JSON: &str = "MFOD_OBS_JSON";
/// Environment variable naming the Chrome trace-event JSON path used by
/// [`json_dump_guard`] and honoured by [`Recorder::dump_trace_to_env`].
pub const ENV_OBS_TRACE: &str = "MFOD_OBS_TRACE";

/// Per-phase histogram array (exclusive nanoseconds per span).
pub type PhaseSlots = [Histogram; Phase::COUNT];

/// Every metric slot the workspace records into, grouped by subsystem.
/// All slots are const-initialised so the whole bundle lives in one
/// `static` with zero startup cost.
#[derive(Debug)]
pub struct Metrics {
    // -- mfod_linalg::par::Pool ---------------------------------------
    /// Parallel map operations issued.
    pub pool_maps: Counter,
    /// Sub-chunks handed to the shared injector (excludes the chunk the
    /// caller runs inline).
    pub pool_chunks_queued: Counter,
    /// Queued sub-chunks the *caller* stole back while helping.
    pub pool_caller_steals: Counter,
    /// Queued sub-chunks executed by pool workers.
    pub pool_worker_runs: Counter,
    /// Nanoseconds a sub-chunk waited between injection and execution.
    pub pool_queue_wait: Histogram,
    /// Nanoseconds a sub-chunk spent executing.
    pub pool_chunk_run: Histogram,

    // -- SelectionPlan cache (mfod_fda) -------------------------------
    /// Plan-cache lookups that reused a cached plan.
    pub plan_cache_hits: Counter,
    /// Plan-cache lookups that had to build a plan.
    pub plan_cache_misses: Counter,
    /// Plans evicted by the LRU capacity bound.
    pub plan_cache_evictions: Counter,
    /// Nanoseconds spent building selection plans (misses only).
    pub plan_build: Histogram,

    // -- MicroBatcher / OnlineScorer (mfod_stream) --------------------
    /// Micro-batches flushed because the batch filled up.
    pub stream_flush_full: Counter,
    /// Micro-batches flushed by an explicit `finish`.
    pub stream_flush_manual: Counter,
    /// Pending windows dropped (drained unscored) via `take_pending`.
    pub stream_window_drops: Counter,
    /// Nanoseconds from the oldest pending window's arrival to its
    /// flush (batch assembly latency).
    pub stream_batch_assembly: Histogram,
    /// Nanoseconds spent scoring one micro-batch end to end.
    pub stream_batch_score: Histogram,

    // -- ModelRegistry / watch_store (mfod_persist) -------------------
    /// Successful model swaps (`install_*`).
    pub registry_swaps: Counter,
    /// Generation of the most recently installed model.
    pub registry_generation: Gauge,
    /// Watcher polls of a store's `deploy.log`.
    pub registry_sweeps: Counter,
    /// Committed generations that failed to install (a snapshot whose
    /// bytes no longer match its catalog entry, or that fails to decode).
    pub registry_rejected: Counter,
    /// Watcher polls that found the log unchanged (stat only, no replay).
    pub registry_unchanged: Counter,
    /// Nanoseconds per watcher poll.
    pub registry_sweep_time: Histogram,
    /// Nanoseconds per model install (`install_bytes`, also behind
    /// `install_active` and the watcher): validate + decode + swap,
    /// excluding the file read.
    pub registry_install_time: Histogram,

    // -- Snapshot decode (mfod_persist) -------------------------------
    /// Sections handed out whole by `LazySnapshot::section`: every
    /// `from_bytes` body decode and every eager walk.
    pub persist_sections_eager: Counter,
    /// Sections decoded and memoized on first touch by
    /// `LazySnapshot::section_value`.
    pub persist_sections_lazy: Counter,
    /// Nanoseconds per lazy first-touch section decode.
    pub persist_first_touch: Histogram,

    // -- Failure semantics (mfod-stream / mfod-persist) ---------------
    /// Typed errors surfaced by the serving path: failed or injected
    /// flushes, and flushes refused after the retries ran out (each of
    /// which the `OnlineScorer` surfaces as one quarantine).
    pub errors_total: Counter,
    /// Sessions whose pending windows were quarantined after repeated
    /// flush failures.
    pub quarantined_sessions: Counter,
    /// Current watcher backoff level (0 when the last poll succeeded).
    pub registry_backoff: Gauge,

    // -- Crash-consistent model store (mfod-persist) ------------------
    /// Generations promoted through the transactional protocol.
    pub store_promotions: Counter,
    /// Store opens that ran the log-replay recovery path.
    pub store_recoveries: Counter,
    /// Rollback calls that re-pointed the active generation.
    pub store_rollbacks: Counter,
    /// Artifacts moved into `quarantine/` (torn, uncommitted, orphaned
    /// or damaged — moved, never deleted).
    pub store_quarantined: Counter,
    /// Issues reported by fsck walks (0 adds on clean walks).
    pub store_fsck_issues: Counter,

    // -- Windowed telemetry (rates and rolling distributions) ---------
    /// Windows scored per rolling window (→ windows/sec).
    pub win_stream_windows: WindowedCounter,
    /// Model swaps per rolling window (→ swaps/min).
    pub win_registry_swaps: WindowedCounter,
    /// Committed generations that failed to install per rolling window
    /// (→ rejections/min).
    pub win_registry_rejected: WindowedCounter,
    /// Serving errors per rolling window (→ errors/sec).
    pub win_errors: WindowedCounter,
    /// Rolling micro-batch scoring latency (ns; rolling p50/p95/p99).
    pub win_batch_score: WindowedHistogram,
    /// Rolling outlier-score distribution sketch in nanoscore units
    /// (see [`crate::window::quantize_score`]) — the drift-monitor
    /// substrate.
    pub win_score_dist: WindowedHistogram,

    // -- Pipeline phases (mfod) ---------------------------------------
    /// Exclusive nanoseconds per pipeline phase, indexed by
    /// [`Phase::index`].
    pub phases: PhaseSlots,
}

impl Metrics {
    const fn new() -> Self {
        Metrics {
            pool_maps: Counter::new(),
            pool_chunks_queued: Counter::new(),
            pool_caller_steals: Counter::new(),
            pool_worker_runs: Counter::new(),
            pool_queue_wait: Histogram::new(),
            pool_chunk_run: Histogram::new(),
            plan_cache_hits: Counter::new(),
            plan_cache_misses: Counter::new(),
            plan_cache_evictions: Counter::new(),
            plan_build: Histogram::new(),
            stream_flush_full: Counter::new(),
            stream_flush_manual: Counter::new(),
            stream_window_drops: Counter::new(),
            stream_batch_assembly: Histogram::new(),
            stream_batch_score: Histogram::new(),
            registry_swaps: Counter::new(),
            registry_generation: Gauge::new(),
            registry_sweeps: Counter::new(),
            registry_rejected: Counter::new(),
            registry_unchanged: Counter::new(),
            registry_sweep_time: Histogram::new(),
            registry_install_time: Histogram::new(),
            persist_sections_eager: Counter::new(),
            persist_sections_lazy: Counter::new(),
            persist_first_touch: Histogram::new(),
            errors_total: Counter::new(),
            quarantined_sessions: Counter::new(),
            registry_backoff: Gauge::new(),
            store_promotions: Counter::new(),
            store_recoveries: Counter::new(),
            store_rollbacks: Counter::new(),
            store_quarantined: Counter::new(),
            store_fsck_issues: Counter::new(),
            win_stream_windows: WindowedCounter::new(),
            win_registry_swaps: WindowedCounter::new(),
            win_registry_rejected: WindowedCounter::new(),
            win_errors: WindowedCounter::new(),
            win_batch_score: WindowedHistogram::new(),
            win_score_dist: WindowedHistogram::new(),
            phases: [const { Histogram::new() }; Phase::COUNT],
        }
    }

    fn reset(&self) {
        self.pool_maps.reset();
        self.pool_chunks_queued.reset();
        self.pool_caller_steals.reset();
        self.pool_worker_runs.reset();
        self.pool_queue_wait.reset();
        self.pool_chunk_run.reset();
        self.plan_cache_hits.reset();
        self.plan_cache_misses.reset();
        self.plan_cache_evictions.reset();
        self.plan_build.reset();
        self.stream_flush_full.reset();
        self.stream_flush_manual.reset();
        self.stream_window_drops.reset();
        self.stream_batch_assembly.reset();
        self.stream_batch_score.reset();
        self.registry_swaps.reset();
        self.registry_generation.reset();
        self.registry_sweeps.reset();
        self.registry_rejected.reset();
        self.registry_unchanged.reset();
        self.registry_sweep_time.reset();
        self.registry_install_time.reset();
        self.persist_sections_eager.reset();
        self.persist_sections_lazy.reset();
        self.persist_first_touch.reset();
        self.errors_total.reset();
        self.quarantined_sessions.reset();
        self.registry_backoff.reset();
        self.store_promotions.reset();
        self.store_recoveries.reset();
        self.store_rollbacks.reset();
        self.store_quarantined.reset();
        self.store_fsck_issues.reset();
        self.win_stream_windows.reset();
        self.win_registry_swaps.reset();
        self.win_registry_rejected.reset();
        self.win_errors.reset();
        self.win_batch_score.reset();
        self.win_score_dist.reset();
        for h in &self.phases {
            h.reset();
        }
    }
}

static METRICS: Metrics = Metrics::new();

const GATE_UNSET: u8 = 0;
const GATE_ON: u8 = 1;
const GATE_OFF: u8 = 2;

static GATE: AtomicU8 = AtomicU8::new(GATE_UNSET);

/// The process-wide recorder facade. All state is static; the type only
/// namespaces the API.
#[derive(Debug)]
pub struct Recorder;

impl Recorder {
    /// Whether recording is enabled. The first call resolves
    /// [`ENV_OBS`] (`MFOD_OBS=1`); afterwards this is a single relaxed
    /// load plus a predictable branch — the entire disabled-path cost.
    #[inline]
    pub fn enabled() -> bool {
        match GATE.load(Ordering::Relaxed) {
            GATE_ON => true,
            GATE_OFF => false,
            _ => {
                let on = std::env::var(ENV_OBS).is_ok_and(|v| v == "1");
                GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
                on
            }
        }
    }

    /// Forces the gate on or off, overriding the environment. Tests use
    /// this to toggle recording at runtime (e.g. the bit-parity and
    /// overhead checks).
    pub fn install(enabled: bool) {
        GATE.store(if enabled { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
    }

    /// Unconditional access to the metric slots (reads, tests, span
    /// recording). Hot paths should gate through [`active`] instead.
    #[inline]
    pub fn metrics() -> &'static Metrics {
        &METRICS
    }

    /// Zeroes every metric slot. Snapshots taken before a reset are
    /// unaffected (they are plain copies).
    pub fn reset() {
        METRICS.reset();
    }

    /// Copies every slot into an ordered, diffable snapshot.
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::capture(&METRICS)
    }

    /// Writes the current snapshot as JSON to `path`.
    pub fn dump_json(path: &Path) -> std::io::Result<()> {
        std::fs::write(path, Self::snapshot().to_json())
    }

    /// Writes the current snapshot to the path named by
    /// [`ENV_OBS_JSON`], if set. Returns the path written.
    pub fn dump_json_to_env() -> std::io::Result<Option<PathBuf>> {
        match std::env::var_os(ENV_OBS_JSON) {
            Some(p) if !p.is_empty() => {
                let path = PathBuf::from(p);
                Self::dump_json(&path)?;
                Ok(Some(path))
            }
            _ => Ok(None),
        }
    }

    /// Writes the merged event journal as Chrome trace-event JSON to
    /// `path` (open it in `chrome://tracing` or Perfetto).
    pub fn dump_trace(path: &Path) -> std::io::Result<()> {
        std::fs::write(path, journal::chrome_trace_json())
    }

    /// Writes the Chrome trace to the path named by [`ENV_OBS_TRACE`],
    /// if set. Returns the path written.
    pub fn dump_trace_to_env() -> std::io::Result<Option<PathBuf>> {
        match std::env::var_os(ENV_OBS_TRACE) {
            Some(p) if !p.is_empty() => {
                let path = PathBuf::from(p);
                Self::dump_trace(&path)?;
                Ok(Some(path))
            }
            _ => Ok(None),
        }
    }

    /// Starts the scrape endpoint on `addr` (e.g. `127.0.0.1:9464`, or
    /// port 0 for an ephemeral port). The returned handle stops the
    /// server when dropped; see [`HttpHandle::addr`] for the bound
    /// address.
    pub fn serve(addr: &str) -> std::io::Result<HttpHandle> {
        crate::http::serve(addr)
    }

    /// Starts the scrape endpoint on the address named by
    /// [`crate::ENV_OBS_HTTP`], if set.
    pub fn serve_from_env() -> std::io::Result<Option<HttpHandle>> {
        match std::env::var(crate::http::ENV_OBS_HTTP) {
            Ok(addr) if !addr.is_empty() => Self::serve(&addr).map(Some),
            _ => Ok(None),
        }
    }
}

/// Gate for hot-path instrumentation: `Some(&Metrics)` only when the
/// recorder is enabled, so disabled call sites cost one load + branch
/// and never construct an `Instant`.
///
/// ```
/// if let Some(obs) = mfod_obs::active() {
///     obs.pool_maps.add(1);
/// }
/// ```
#[inline]
pub fn active() -> Option<&'static Metrics> {
    Recorder::enabled().then_some(&METRICS)
}

/// RAII guard returned by [`json_dump_guard`]: on drop, writes the
/// final snapshot to the [`ENV_OBS_JSON`] path and the Chrome trace to
/// the [`ENV_OBS_TRACE`] path (when set). Dump errors are reported on
/// stderr but never panic — telemetry must not take down a shutdown
/// path, yet a silently missing dump is a debugging dead end.
#[derive(Debug)]
pub struct JsonDumpGuard(());

impl Drop for JsonDumpGuard {
    fn drop(&mut self) {
        if let Err(e) = Recorder::dump_json_to_env() {
            eprintln!("mfod-obs: failed to write {ENV_OBS_JSON} metrics dump: {e}");
        }
        if let Err(e) = Recorder::dump_trace_to_env() {
            eprintln!("mfod-obs: failed to write {ENV_OBS_TRACE} trace dump: {e}");
        }
    }
}

/// Creates a guard that dumps the metrics JSON on drop (typically held
/// for the lifetime of `main`).
pub fn json_dump_guard() -> JsonDumpGuard {
    JsonDumpGuard(())
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// Pool metric snapshot (see the matching [`Metrics`] fields).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolSnapshot {
    pub maps: u64,
    pub chunks_queued: u64,
    pub caller_steals: u64,
    pub worker_runs: u64,
    pub queue_wait: HistogramSnapshot,
    pub chunk_run: HistogramSnapshot,
}

impl PoolSnapshot {
    /// Fraction of queued sub-chunks the caller stole back (`None`
    /// until something was queued).
    pub fn caller_steal_share(&self) -> Option<f64> {
        (self.chunks_queued > 0).then(|| self.caller_steals as f64 / self.chunks_queued as f64)
    }
}

/// Selection-plan cache snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanCacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub build: HistogramSnapshot,
}

impl PlanCacheSnapshot {
    /// Hit rate over all lookups (`None` before the first lookup).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Streaming micro-batcher snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamObsSnapshot {
    pub flush_full: u64,
    pub flush_manual: u64,
    pub window_drops: u64,
    pub batch_assembly: HistogramSnapshot,
    pub batch_score: HistogramSnapshot,
}

/// Model-registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    pub swaps: u64,
    pub generation: u64,
    pub sweeps: u64,
    pub rejected: u64,
    pub unchanged: u64,
    pub sweep_time: HistogramSnapshot,
    pub install_time: HistogramSnapshot,
}

/// Snapshot-decode snapshot (`mfod-persist`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PersistSnapshot {
    pub sections_eager: u64,
    pub sections_lazy: u64,
    pub first_touch: HistogramSnapshot,
}

impl PersistSnapshot {
    /// Share of section decodes deferred to first touch (`None` until a
    /// section was decoded either way).
    pub fn lazy_share(&self) -> Option<f64> {
        let total = self.sections_eager + self.sections_lazy;
        (total > 0).then(|| self.sections_lazy as f64 / total as f64)
    }
}

/// Failure-semantics snapshot: the graceful-degradation counters and the
/// watcher backoff level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureSnapshot {
    pub errors: u64,
    pub quarantined_sessions: u64,
    pub registry_backoff: u64,
}

/// Crash-consistent-store snapshot: promotion/recovery/rollback/
/// quarantine/fsck counters from the durability layer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreSnapshot {
    pub promotions: u64,
    pub recoveries: u64,
    pub rollbacks: u64,
    pub quarantined: u64,
    pub fsck_issues: u64,
}

/// Windowed-telemetry snapshot: rates and rolling distributions over
/// the last [`window::WINDOW_SLOTS`]×[`window::WINDOW_SLOT_MILLIS`]
/// (60×1s), or over the [`WindowSnapshot::covered_secs`] that have
/// passed since process start if fewer. Rates and the covered span are
/// 0.0 while nothing was recorded, so snapshots of idle windows stay
/// deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowSnapshot {
    /// Seconds of wall clock the rates below cover
    /// ([`window::covered_secs`]): under 60 during the first minute after
    /// process start, 0.0 while the window is idle.
    pub covered_secs: f64,
    /// Windows scored per second over the live window.
    pub windows_per_sec: f64,
    /// Model swaps per minute over the live window.
    pub swaps_per_min: f64,
    /// Committed generations that failed to install, per minute over the
    /// live window.
    pub rejected_per_min: f64,
    /// Serving errors per second over the live window.
    pub errors_per_sec: f64,
    /// Rolling micro-batch scoring latency (ns).
    pub batch_score: HistogramSnapshot,
    /// Rolling outlier-score distribution in nanoscore units
    /// ([`window::quantize_score`]).
    pub score_dist: HistogramSnapshot,
}

/// One pipeline phase's exclusive-time histogram, labelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    pub phase: Phase,
    pub exclusive: HistogramSnapshot,
}

/// A point-in-time copy of every recorder slot. Field order is fixed
/// and mirrors [`Metrics`], so two snapshots of the same run are
/// directly comparable and [`MetricsSnapshot::diff`] is well defined.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub pool: PoolSnapshot,
    pub plan_cache: PlanCacheSnapshot,
    pub stream: StreamObsSnapshot,
    pub registry: RegistrySnapshot,
    pub persist: PersistSnapshot,
    pub failures: FailureSnapshot,
    pub store: StoreSnapshot,
    pub window: WindowSnapshot,
    /// Indexed by [`Phase::index`], in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
}

impl MetricsSnapshot {
    fn capture(m: &Metrics) -> MetricsSnapshot {
        MetricsSnapshot {
            pool: PoolSnapshot {
                maps: m.pool_maps.get(),
                chunks_queued: m.pool_chunks_queued.get(),
                caller_steals: m.pool_caller_steals.get(),
                worker_runs: m.pool_worker_runs.get(),
                queue_wait: m.pool_queue_wait.snapshot(),
                chunk_run: m.pool_chunk_run.snapshot(),
            },
            plan_cache: PlanCacheSnapshot {
                hits: m.plan_cache_hits.get(),
                misses: m.plan_cache_misses.get(),
                evictions: m.plan_cache_evictions.get(),
                build: m.plan_build.snapshot(),
            },
            stream: StreamObsSnapshot {
                flush_full: m.stream_flush_full.get(),
                flush_manual: m.stream_flush_manual.get(),
                window_drops: m.stream_window_drops.get(),
                batch_assembly: m.stream_batch_assembly.snapshot(),
                batch_score: m.stream_batch_score.snapshot(),
            },
            registry: RegistrySnapshot {
                swaps: m.registry_swaps.get(),
                generation: m.registry_generation.get(),
                sweeps: m.registry_sweeps.get(),
                rejected: m.registry_rejected.get(),
                unchanged: m.registry_unchanged.get(),
                sweep_time: m.registry_sweep_time.snapshot(),
                install_time: m.registry_install_time.snapshot(),
            },
            persist: PersistSnapshot {
                sections_eager: m.persist_sections_eager.get(),
                sections_lazy: m.persist_sections_lazy.get(),
                first_touch: m.persist_first_touch.snapshot(),
            },
            failures: FailureSnapshot {
                errors: m.errors_total.get(),
                quarantined_sessions: m.quarantined_sessions.get(),
                registry_backoff: m.registry_backoff.get(),
            },
            store: StoreSnapshot {
                promotions: m.store_promotions.get(),
                recoveries: m.store_recoveries.get(),
                rollbacks: m.store_rollbacks.get(),
                quarantined: m.store_quarantined.get(),
                fsck_issues: m.store_fsck_issues.get(),
            },
            window: {
                let now_id = window::now_slot_id();
                let mut w = WindowSnapshot {
                    covered_secs: window::covered_secs(now_id),
                    windows_per_sec: m.win_stream_windows.rate_per_sec(now_id),
                    swaps_per_min: m.win_registry_swaps.rate_per_sec(now_id) * 60.0,
                    rejected_per_min: m.win_registry_rejected.rate_per_sec(now_id) * 60.0,
                    errors_per_sec: m.win_errors.rate_per_sec(now_id),
                    batch_score: m.win_batch_score.snapshot_live(now_id),
                    score_dist: m.win_score_dist.snapshot_live(now_id),
                };
                let idle = WindowSnapshot {
                    covered_secs: w.covered_secs,
                    ..WindowSnapshot::default()
                };
                if w == idle {
                    w.covered_secs = 0.0;
                }
                w
            },
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseSnapshot {
                    phase: p,
                    exclusive: m.phases[p.index()].snapshot(),
                })
                .collect(),
        }
    }

    /// What happened since `earlier`: counters and histogram buckets
    /// subtract (saturating); the generation gauge and histogram maxima
    /// keep the later value.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            pool: PoolSnapshot {
                maps: self.pool.maps.saturating_sub(earlier.pool.maps),
                chunks_queued: self
                    .pool
                    .chunks_queued
                    .saturating_sub(earlier.pool.chunks_queued),
                caller_steals: self
                    .pool
                    .caller_steals
                    .saturating_sub(earlier.pool.caller_steals),
                worker_runs: self
                    .pool
                    .worker_runs
                    .saturating_sub(earlier.pool.worker_runs),
                queue_wait: self.pool.queue_wait.diff(&earlier.pool.queue_wait),
                chunk_run: self.pool.chunk_run.diff(&earlier.pool.chunk_run),
            },
            plan_cache: PlanCacheSnapshot {
                hits: self.plan_cache.hits.saturating_sub(earlier.plan_cache.hits),
                misses: self
                    .plan_cache
                    .misses
                    .saturating_sub(earlier.plan_cache.misses),
                evictions: self
                    .plan_cache
                    .evictions
                    .saturating_sub(earlier.plan_cache.evictions),
                build: self.plan_cache.build.diff(&earlier.plan_cache.build),
            },
            stream: StreamObsSnapshot {
                flush_full: self
                    .stream
                    .flush_full
                    .saturating_sub(earlier.stream.flush_full),
                flush_manual: self
                    .stream
                    .flush_manual
                    .saturating_sub(earlier.stream.flush_manual),
                window_drops: self
                    .stream
                    .window_drops
                    .saturating_sub(earlier.stream.window_drops),
                batch_assembly: self
                    .stream
                    .batch_assembly
                    .diff(&earlier.stream.batch_assembly),
                batch_score: self.stream.batch_score.diff(&earlier.stream.batch_score),
            },
            registry: RegistrySnapshot {
                swaps: self.registry.swaps.saturating_sub(earlier.registry.swaps),
                generation: self.registry.generation,
                sweeps: self.registry.sweeps.saturating_sub(earlier.registry.sweeps),
                rejected: self
                    .registry
                    .rejected
                    .saturating_sub(earlier.registry.rejected),
                unchanged: self
                    .registry
                    .unchanged
                    .saturating_sub(earlier.registry.unchanged),
                sweep_time: self.registry.sweep_time.diff(&earlier.registry.sweep_time),
                install_time: self
                    .registry
                    .install_time
                    .diff(&earlier.registry.install_time),
            },
            persist: PersistSnapshot {
                sections_eager: self
                    .persist
                    .sections_eager
                    .saturating_sub(earlier.persist.sections_eager),
                sections_lazy: self
                    .persist
                    .sections_lazy
                    .saturating_sub(earlier.persist.sections_lazy),
                first_touch: self.persist.first_touch.diff(&earlier.persist.first_touch),
            },
            failures: FailureSnapshot {
                errors: self.failures.errors.saturating_sub(earlier.failures.errors),
                quarantined_sessions: self
                    .failures
                    .quarantined_sessions
                    .saturating_sub(earlier.failures.quarantined_sessions),
                // a level, not a rate: keep the later reading
                registry_backoff: self.failures.registry_backoff,
            },
            store: StoreSnapshot {
                promotions: self
                    .store
                    .promotions
                    .saturating_sub(earlier.store.promotions),
                recoveries: self
                    .store
                    .recoveries
                    .saturating_sub(earlier.store.recoveries),
                rollbacks: self.store.rollbacks.saturating_sub(earlier.store.rollbacks),
                quarantined: self
                    .store
                    .quarantined
                    .saturating_sub(earlier.store.quarantined),
                fsck_issues: self
                    .store
                    .fsck_issues
                    .saturating_sub(earlier.store.fsck_issues),
            },
            // Already windowed — a diff keeps the later reading.
            window: self.window.clone(),
            phases: self
                .phases
                .iter()
                .zip(&earlier.phases)
                .map(|(now, then)| PhaseSnapshot {
                    phase: now.phase,
                    exclusive: now.exclusive.diff(&then.exclusive),
                })
                .collect(),
        }
    }

    /// Serialises the snapshot as a stable, hand-rolled JSON object
    /// (no external dependency; field order matches the struct).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"pool\": {");
        push_u64(&mut out, "maps", self.pool.maps, true);
        push_u64(&mut out, "chunks_queued", self.pool.chunks_queued, false);
        push_u64(&mut out, "caller_steals", self.pool.caller_steals, false);
        push_u64(&mut out, "worker_runs", self.pool.worker_runs, false);
        push_hist(&mut out, "queue_wait_ns", &self.pool.queue_wait);
        push_hist(&mut out, "chunk_run_ns", &self.pool.chunk_run);
        out.push_str("},\n  \"plan_cache\": {");
        push_u64(&mut out, "hits", self.plan_cache.hits, true);
        push_u64(&mut out, "misses", self.plan_cache.misses, false);
        push_u64(&mut out, "evictions", self.plan_cache.evictions, false);
        push_hist(&mut out, "build_ns", &self.plan_cache.build);
        out.push_str("},\n  \"stream\": {");
        push_u64(&mut out, "flush_full", self.stream.flush_full, true);
        push_u64(&mut out, "flush_manual", self.stream.flush_manual, false);
        push_u64(&mut out, "window_drops", self.stream.window_drops, false);
        push_hist(&mut out, "batch_assembly_ns", &self.stream.batch_assembly);
        push_hist(&mut out, "batch_score_ns", &self.stream.batch_score);
        out.push_str("},\n  \"registry\": {");
        push_u64(&mut out, "swaps", self.registry.swaps, true);
        push_u64(&mut out, "generation", self.registry.generation, false);
        push_u64(&mut out, "sweeps", self.registry.sweeps, false);
        push_u64(&mut out, "rejected", self.registry.rejected, false);
        push_u64(&mut out, "unchanged", self.registry.unchanged, false);
        push_hist(&mut out, "sweep_ns", &self.registry.sweep_time);
        push_hist(&mut out, "install_ns", &self.registry.install_time);
        out.push_str("},\n  \"persist\": {");
        push_u64(
            &mut out,
            "sections_eager",
            self.persist.sections_eager,
            true,
        );
        push_u64(&mut out, "sections_lazy", self.persist.sections_lazy, false);
        push_hist(&mut out, "first_touch_ns", &self.persist.first_touch);
        out.push_str("},\n  \"failures\": {");
        push_u64(&mut out, "errors_total", self.failures.errors, true);
        push_u64(
            &mut out,
            "quarantined_sessions",
            self.failures.quarantined_sessions,
            false,
        );
        push_u64(
            &mut out,
            "registry_backoff",
            self.failures.registry_backoff,
            false,
        );
        out.push_str("},\n  \"store\": {");
        push_u64(&mut out, "promotions", self.store.promotions, true);
        push_u64(&mut out, "recoveries", self.store.recoveries, false);
        push_u64(&mut out, "rollbacks", self.store.rollbacks, false);
        push_u64(&mut out, "quarantined", self.store.quarantined, false);
        push_u64(&mut out, "fsck_issues", self.store.fsck_issues, false);
        out.push_str("},\n  \"window\": {");
        let w = &self.window;
        push_f64(&mut out, "covered_secs", w.covered_secs, true);
        push_f64(&mut out, "windows_per_sec", w.windows_per_sec, false);
        push_f64(&mut out, "swaps_per_min", w.swaps_per_min, false);
        push_f64(&mut out, "rejected_per_min", w.rejected_per_min, false);
        push_f64(&mut out, "errors_per_sec", w.errors_per_sec, false);
        push_hist(&mut out, "batch_score_ns", &w.batch_score);
        push_hist(&mut out, "score_dist_nanoscore", &w.score_dist);
        out.push_str("},\n  \"phases\": {");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": ", p.phase.name());
            hist_json(&mut out, &p.exclusive);
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders a human-readable multi-section report (what
    /// `examples/observability.rs` prints).
    pub fn format_report(&self) -> String {
        let mut r = String::with_capacity(2048);
        r.push_str("== mfod-obs report ==\n");

        let p = &self.pool;
        let share = p
            .caller_steal_share()
            .map(|s| format!("{:.1}%", 100.0 * s))
            .unwrap_or_else(|| "n/a".into());
        let _ = writeln!(
            r,
            "pool       {} maps · {} sub-chunks queued · {} caller steals ({share} share) · {} worker runs",
            p.maps, p.chunks_queued, p.caller_steals, p.worker_runs
        );
        hist_line(&mut r, "  queue wait", &p.queue_wait);
        hist_line(&mut r, "  chunk run ", &p.chunk_run);

        let c = &self.plan_cache;
        let rate = c
            .hit_rate()
            .map(|h| format!("{:.1}%", 100.0 * h))
            .unwrap_or_else(|| "n/a".into());
        let _ = writeln!(
            r,
            "plan cache {} hits / {} misses (hit rate {rate}) · {} evictions",
            c.hits, c.misses, c.evictions
        );
        hist_line(&mut r, "  plan build", &c.build);

        let s = &self.stream;
        let _ = writeln!(
            r,
            "stream     flushes: {} full / {} manual · {} window drops",
            s.flush_full, s.flush_manual, s.window_drops
        );
        hist_line(&mut r, "  assembly  ", &s.batch_assembly);
        hist_line(&mut r, "  batch lat ", &s.batch_score);

        let g = &self.registry;
        let _ = writeln!(
            r,
            "registry   generation {} · {} swaps · {} polls · {} rejected · {} unchanged",
            g.generation, g.swaps, g.sweeps, g.rejected, g.unchanged
        );
        hist_line(&mut r, "  poll      ", &g.sweep_time);
        hist_line(&mut r, "  install   ", &g.install_time);

        let pe = &self.persist;
        let share = pe
            .lazy_share()
            .map(|s| format!("{:.1}%", 100.0 * s))
            .unwrap_or_else(|| "n/a".into());
        let _ = writeln!(
            r,
            "persist    sections: {} eager / {} lazy ({share} lazy)",
            pe.sections_eager, pe.sections_lazy
        );
        hist_line(&mut r, "  1st touch ", &pe.first_touch);

        let f = &self.failures;
        let _ = writeln!(
            r,
            "failures   {} errors · {} quarantined · backoff level {}",
            f.errors, f.quarantined_sessions, f.registry_backoff
        );

        let st = &self.store;
        let _ = writeln!(
            r,
            "store      {} promotions · {} recoveries · {} rollbacks · {} quarantined · {} fsck issues",
            st.promotions, st.recoveries, st.rollbacks, st.quarantined, st.fsck_issues
        );

        let w = &self.window;
        let _ = writeln!(
            r,
            "window({}x{}ms) covering {:.0}s: {:.2} windows/s · {:.2} swaps/min · {:.2} rejected/min · {:.2} errors/s",
            window::WINDOW_SLOTS,
            window::WINDOW_SLOT_MILLIS,
            w.covered_secs,
            w.windows_per_sec,
            w.swaps_per_min,
            w.rejected_per_min,
            w.errors_per_sec
        );
        hist_line(&mut r, "  score lat ", &w.batch_score);
        score_dist_line(&mut r, "  score dist", &w.score_dist);

        r.push_str("phases (exclusive time)\n");
        for ph in &self.phases {
            hist_line(&mut r, &format!("  {:<14}", ph.phase.name()), &ph.exclusive);
        }
        r
    }
}

fn push_u64(out: &mut String, key: &str, v: u64, first: bool) {
    if !first {
        out.push(',');
    }
    let _ = write!(out, "\n    \"{key}\": {v}");
}

fn push_f64(out: &mut String, key: &str, v: f64, first: bool) {
    if !first {
        out.push(',');
    }
    let _ = write!(out, "\n    \"{key}\": {v:.6}");
}

fn push_hist(out: &mut String, key: &str, h: &HistogramSnapshot) {
    let _ = write!(out, ",\n    \"{key}\": ");
    hist_json(out, h);
}

fn hist_json(out: &mut String, h: &HistogramSnapshot) {
    let q = |p: f64| h.quantile(p).unwrap_or(0);
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
        h.count,
        h.sum,
        h.max,
        q(0.50),
        q(0.95),
        q(0.99)
    );
    // Trailing zero buckets are elided (the decoder implies them),
    // keeping dumps compact while staying a plain JSON array.
    let last = h.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
    for (i, b) in h.buckets[..last].iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

/// Report line for the score-distribution sketch: nanoscore bucket
/// edges rendered back in score units.
fn score_dist_line(r: &mut String, label: &str, h: &HistogramSnapshot) {
    if h.count == 0 {
        let _ = writeln!(r, "{label}  (no samples)");
        return;
    }
    let q = |p: f64| window::dequantize_score(h.quantile(p).unwrap_or(0));
    let _ = writeln!(
        r,
        "{label}  n={:<6} p50 {:.4} · p95 {:.4} · p99 {:.4} · max {:.4}",
        h.count,
        q(0.50),
        q(0.95),
        q(0.99),
        window::dequantize_score(h.max)
    );
}

fn hist_line(r: &mut String, label: &str, h: &HistogramSnapshot) {
    if h.count == 0 {
        let _ = writeln!(r, "{label}  (no samples)");
        return;
    }
    let q = |p: f64| fmt_nanos(h.quantile(p).unwrap_or(0));
    let _ = writeln!(
        r,
        "{label}  n={:<6} p50 {} · p95 {} · p99 {} · max {}",
        h.count,
        q(0.50),
        q(0.95),
        q(0.99),
        fmt_nanos(h.max)
    );
}

/// Formats a nanosecond value with a readable unit.
fn fmt_nanos(ns: u64) -> String {
    let d = Duration::from_nanos(ns);
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTimer;
    use crate::testutil::locked;

    #[test]
    fn install_overrides_and_gates_active() {
        let _g = locked();
        Recorder::install(false);
        assert!(active().is_none());
        Recorder::install(true);
        assert!(active().is_some());
        assert!(Recorder::enabled());
        Recorder::install(false);
    }

    #[test]
    fn snapshot_roundtrip_and_diff() {
        let _g = locked();
        Recorder::install(true);
        Recorder::reset();
        let m = Recorder::metrics();
        m.pool_maps.add(2);
        m.plan_cache_hits.add(3);
        m.plan_cache_misses.add(1);
        m.registry_generation.set(7);
        m.stream_batch_score.record(1_500);
        let early = Recorder::snapshot();
        m.pool_maps.add(5);
        m.stream_batch_score.record(3_000);
        let late = Recorder::snapshot();
        let d = late.diff(&early);
        assert_eq!(d.pool.maps, 5);
        assert_eq!(d.plan_cache.hits, 0);
        assert_eq!(d.registry.generation, 7);
        assert_eq!(d.stream.batch_score.count, 1);
        assert_eq!(early.plan_cache.hit_rate(), Some(0.75));
        Recorder::reset();
        Recorder::install(false);
    }

    #[test]
    fn spans_record_exclusive_time() {
        let _g = locked();
        Recorder::install(true);
        Recorder::reset();
        {
            let _outer = SpanTimer::start(Phase::FitFeatures);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = SpanTimer::start(Phase::FitDetector);
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        let snap = Recorder::snapshot();
        let outer = &snap.phases[Phase::FitFeatures.index()].exclusive;
        let inner = &snap.phases[Phase::FitDetector.index()].exclusive;
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The outer span's exclusive time excludes the inner span, so
        // both should be ~4ms — in particular the outer must be below
        // the 8ms total (sleep granularity leaves plenty of headroom).
        assert!(inner.sum >= 3_000_000, "inner {}ns", inner.sum);
        assert!(outer.sum >= 3_000_000, "outer {}ns", outer.sum);
        assert!(
            outer.sum < 7_000_000,
            "outer kept child time: {}ns",
            outer.sum
        );
        Recorder::reset();
        Recorder::install(false);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        Recorder::install(false);
        Recorder::reset();
        {
            let _span = SpanTimer::start(Phase::ScoreDetector);
        }
        assert_eq!(
            Recorder::snapshot().phases[Phase::ScoreDetector.index()]
                .exclusive
                .count,
            0
        );
    }

    #[test]
    fn json_and_report_contain_all_sections() {
        let _g = locked();
        Recorder::install(true);
        Recorder::reset();
        let m = Recorder::metrics();
        m.pool_caller_steals.add(4);
        m.pool_chunks_queued.add(8);
        m.stream_batch_score.record(2_000_000);
        m.registry_generation.set(3);
        m.persist_sections_lazy.add(2);
        m.persist_sections_eager.add(6);
        m.persist_first_touch.record(10_000);
        m.registry_install_time.record(5_000_000);
        m.errors_total.add(5);
        m.quarantined_sessions.add(1);
        m.registry_backoff.set(3);
        m.store_promotions.add(7);
        m.store_recoveries.add(2);
        m.store_rollbacks.add(1);
        m.store_quarantined.add(3);
        m.store_fsck_issues.add(4);
        let snap = Recorder::snapshot();
        let json = snap.to_json();
        for key in [
            "\"pool\"",
            "\"plan_cache\"",
            "\"stream\"",
            "\"registry\"",
            "\"persist\"",
            "\"phases\"",
            "\"caller_steals\": 4",
            "\"generation\": 3",
            "\"sections_lazy\": 2",
            "\"install_ns\"",
            "\"first_touch_ns\"",
            "\"failures\"",
            "\"errors_total\": 5",
            "\"quarantined_sessions\": 1",
            "\"registry_backoff\": 3",
            "\"store\"",
            "\"promotions\": 7",
            "\"recoveries\": 2",
            "\"rollbacks\": 1",
            "\"quarantined\": 3",
            "\"fsck_issues\": 4",
            "\"window\"",
            "\"covered_secs\"",
            "\"windows_per_sec\"",
            "\"swaps_per_min\"",
            "\"rejected_per_min\"",
            "\"batch_score_ns\"",
            "\"score_dist_nanoscore\"",
            "\"p50\"",
            "\"buckets\"",
            "\"fit-features\"",
        ] {
            assert!(json.contains(key), "JSON missing {key}:\n{json}");
        }
        let report = snap.format_report();
        for needle in [
            "pool",
            "caller steals",
            "50.0% share",
            "plan cache",
            "stream",
            "batch lat",
            "registry   generation 3",
            "persist    sections: 6 eager / 2 lazy (25.0% lazy)",
            "failures   5 errors · 1 quarantined · backoff level 3",
            "store      7 promotions · 2 recoveries · 1 rollbacks · 3 quarantined · 4 fsck issues",
            "rejected/min",
            "window(60x1000ms)",
            "windows/s",
            "score dist",
            "phases",
        ] {
            assert!(
                report.contains(needle),
                "report missing {needle}:\n{report}"
            );
        }
        Recorder::reset();
        Recorder::install(false);
    }

    #[test]
    fn windowed_slots_surface_rates_and_rolling_quantiles() {
        let _g = locked();
        Recorder::install(true);
        Recorder::reset();
        let m = Recorder::metrics();
        // Record into the *current* wall-clock slot so capture (which
        // reads the live window at `now_slot_id`) sees everything.
        let now_id = crate::window::now_slot_id();
        m.win_stream_windows.add_at(now_id, 30);
        m.win_registry_swaps.add_at(now_id, 2);
        m.win_batch_score.record_at(now_id, 1_000_000);
        m.win_score_dist
            .record_at(now_id, crate::window::quantize_score(0.5));
        let snap = Recorder::snapshot();
        assert!(snap.window.windows_per_sec > 0.0);
        assert!(snap.window.swaps_per_min > 0.0);
        assert_eq!(snap.window.batch_score.count, 1);
        assert_eq!(snap.window.score_dist.count, 1);
        // The sketch quantile dequantizes back near the score (log₂
        // buckets → upper edge within 2× of the true value).
        let p50 = crate::window::dequantize_score(snap.window.score_dist.quantile(0.5).unwrap());
        assert!((0.5..=1.0).contains(&p50), "p50 {p50}");
        let report = snap.format_report();
        assert!(report.contains("score dist"), "{report}");
        Recorder::reset();
        Recorder::install(false);
    }

    /// One swap in the first slot after process start is 60 swaps/min
    /// over a 1-s span, and every surface says the span.
    #[test]
    fn windowed_rates_say_the_span_they_cover() {
        assert_eq!(crate::window::covered_secs(0), 1.0);
        assert_eq!(crate::window::covered_secs(9), 10.0);
        assert_eq!(crate::window::covered_secs(59), 60.0);
        assert_eq!(crate::window::covered_secs(10_000), 60.0);
        let first = WindowedCounter::new();
        first.add_at(0, 1);
        assert_eq!(first.rate_per_sec(0) * 60.0, 60.0);

        let _g = locked();
        Recorder::install(true);
        Recorder::reset();
        let idle = Recorder::snapshot();
        assert_eq!(idle.window.covered_secs, 0.0);
        let now_id = crate::window::now_slot_id();
        Recorder::metrics().win_registry_swaps.add_at(now_id, 1);
        let mut snap = Recorder::snapshot();
        // the snapshot reads the clock again, maybe a slot later
        let span = crate::window::covered_secs(now_id)
            ..=crate::window::covered_secs(crate::window::now_slot_id());
        assert!(
            span.contains(&snap.window.covered_secs),
            "{} not in {span:?}",
            snap.window.covered_secs
        );
        snap.window.covered_secs = 1.0;
        snap.window.swaps_per_min = first.rate_per_sec(0) * 60.0;
        let report = snap.format_report();
        assert!(
            report.contains("window(60x1000ms) covering 1s: 0.00 windows/s · 60.00 swaps/min"),
            "{report}"
        );
        assert!(
            snap.to_json().contains("\"covered_secs\": 1"),
            "{}",
            snap.to_json()
        );
        Recorder::reset();
        Recorder::install(false);
    }

    #[test]
    fn snapshot_is_deterministic_for_fixed_sequence() {
        let _g = locked();
        let run = || {
            Recorder::install(true);
            Recorder::reset();
            let m = Recorder::metrics();
            for v in [3u64, 17, 1_024, 0, 999_999] {
                m.pool_queue_wait.record(v);
                m.stream_batch_assembly.record(v * 2);
            }
            m.pool_maps.add(5);
            let snap = Recorder::snapshot();
            Recorder::reset();
            Recorder::install(false);
            snap
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn dump_json_writes_file() {
        let _g = locked();
        let dir = std::env::temp_dir().join("mfod_obs_test_dump");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        Recorder::dump_json(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(750), "750ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.5ms");
        assert_eq!(fmt_nanos(1_500_000_000), "1.50s");
    }
}
