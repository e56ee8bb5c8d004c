//! Deterministic data parallelism on a **persistent worker pool** with
//! fine-grained, index-ordered task splitting and work stealing.
//!
//! The workspace builds without external crates, so this module provides
//! the small slice of a rayon-style API the hot paths need: map an index
//! range across threads and reassemble the results **in order**.
//!
//! ## Scheduling model
//!
//! Every map call pre-splits its index range `0..n` into small contiguous
//! **sub-chunks** — many more than there are threads — and pushes them
//! onto one shared deque in index order. Idle workers (and the calling
//! thread, while it waits) steal the next sub-chunk from the front of the
//! deque, so a thread that lands on cheap items immediately pulls more
//! work while a thread stuck on an expensive item keeps only that one
//! sub-chunk. This is what keeps unbalanced workloads — variable-depth
//! isolation-forest trees, CV folds of different cost, mixed-grid
//! selection fan-outs — from straggling on the one thread whose
//! contiguous share happened to contain the expensive items.
//!
//! The **split factor** (sub-chunks per thread per job) is derived purely
//! from the item count and the pool size — never from timing — so the
//! schedule is a pure function of `(n, threads, split)`:
//!
//! ```text
//! sub_chunks(n) = min(n, threads × split)      // split = DEFAULT_SPLIT (8)
//! ```
//!
//! A split-1 pool ([`Pool::with_config`] with `split = 1`) runs the
//! contiguous one-chunk-per-thread schedule, the reference point
//! `benches/pool_throughput.rs` measures the stealing scheduler against.
//!
//! ## Runtime model
//!
//! A [`Pool`] owns long-lived worker threads fed from one shared deque.
//! The free functions [`par_map`] / [`par_try_map`] run on a global pool
//! that is lazily created on first use and sized to
//! [`configured_threads`], so every call site in the workspace shares one
//! set of workers and pays **no thread-spawn cost per call**.
//! [`Pool::with_threads`] builds an explicitly sized private pool for
//! tests and benchmarks.
//!
//! ## Global pool sizing
//!
//! The global pool's thread count is resolved once, at first use, with
//! this precedence:
//!
//! 1. the `MFOD_THREADS` environment variable ([`THREADS_ENV`]), when set
//!    to a positive integer — malformed or zero values fall through;
//! 2. [`max_threads`] (`available_parallelism`).
//!
//! `MFOD_THREADS=1` turns every global-pool call site into the exact
//! sequential loop. Every pool splits by [`DEFAULT_SPLIT`] unless
//! [`Pool::with_config`] pins another factor.
//!
//! ## Determinism contract
//!
//! For a pure `f`, `pool.try_map(n, f)` returns exactly
//! `(0..n).map(f).collect()` — element for element, bit for bit —
//! regardless of the pool's thread count **and** split factor, because
//! every index is mapped independently and sub-chunk results are
//! reassembled strictly in index order. Which thread stole which
//! sub-chunk affects wall-clock time only, never the output. The *first*
//! failure in index order wins (running sub-chunks are not cancelled, so
//! this is deterministic-error selection, not fail-fast).
//!
//! ## Panic behavior
//!
//! A panicking closure does not poison the pool: the stealing worker
//! catches the unwind, the remaining sub-chunks finish, and the
//! **original panic payload** is re-raised on the calling thread via
//! [`std::panic::resume_unwind`]. When both a panic and an `Err` occur,
//! the one in the earlier sub-chunk (lower index range) is reported,
//! matching what a sequential loop would have hit first.
//!
//! ## Nesting
//!
//! Calls may nest (a mapped closure may itself call [`par_map`], even on
//! the same pool): a thread that is waiting for its sub-chunks to finish
//! steals queued tasks instead of blocking, so the pool cannot deadlock
//! on dependency cycles between waiters and queued work.
//!
//! ## Observability
//!
//! With `MFOD_OBS=1` (see `mfod-obs`), every map call records per-map
//! and per-sub-chunk telemetry into the global recorder: map count,
//! sub-chunks queued, how many queued sub-chunks the *caller* stole back
//! versus how many pool workers ran, and queue-wait / run-time
//! histograms per sub-chunk. Disabled (the default), each site costs one
//! relaxed atomic load and a predictable branch — no clocks, no
//! counters — and the schedule itself is never consulted, so enabling
//! observability cannot change any mapped result (the determinism
//! contract above is independent of the recorder state).

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "MFOD_THREADS";

/// Sub-chunks per thread per job for every pool not built with an
/// explicit [`Pool::with_config`] split. Eight keeps the largest
/// sub-chunk at ~1/(8·threads) of the work — small enough that one
/// expensive straggler item cannot hold more than its own sub-chunk
/// hostage, large enough that queue traffic stays negligible next to the
/// per-item work of the workspace's fan-outs (tree growth, fold fits,
/// per-sample selection ladders).
pub const DEFAULT_SPLIT: usize = 8;

/// Hardware thread budget of the machine (`available_parallelism`, with a
/// safe fallback of 1).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Thread count the global pool will be created with, resolving the
/// sizing precedence (highest first):
///
/// 1. the [`THREADS_ENV`] (`MFOD_THREADS`) environment variable, when set
///    to a positive integer — malformed or zero values are ignored;
/// 2. [`max_threads`] (`available_parallelism`).
pub fn configured_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .as_deref()
        .and_then(positive_from_env)
        .unwrap_or_else(max_threads)
}

/// Parses an `MFOD_THREADS` value: a positive integer (surrounding
/// whitespace tolerated). Returns `None` — meaning "fall back" — for
/// anything else, so a typo degrades to the default instead of crashing
/// pool creation.
fn positive_from_env(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Applies `f` to every index in `0..n` and collects the results in index
/// order, splitting the range into steal-able sub-chunks across the
/// global pool's threads.
///
/// Falls back to a plain sequential loop when `n < 2` or only one thread
/// is available, so small batches pay no synchronization cost.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    global().map(n, f)
}

/// Fallible [`par_map`] on the global pool: reports the first error **in
/// index order**. On success the output is identical — element for
/// element — to the sequential `(0..n).map(f).collect()`.
pub fn par_try_map<T, E, F>(n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    global().try_map(n, f)
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool shared by [`par_map`] / [`par_try_map`], created
/// on first use with [`configured_threads`] threads (the `MFOD_THREADS`
/// environment variable when set, `available_parallelism` otherwise) and
/// the [`DEFAULT_SPLIT`] split factor.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::with_threads(configured_threads()))
}

/// A task queued on the pool. Tasks are built exclusively by
/// [`Pool::try_map`], which catches unwinds inside the task body, so a
/// task never propagates a panic into a worker's run loop.
type Task = Box<dyn FnOnce() + Send>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a task is queued or shutdown begins.
    work_ready: Condvar,
}

impl Shared {
    fn pop(&self) -> Option<Task> {
        self.queue.lock().unwrap().tasks.pop_front()
    }
}

/// A persistent, deterministic worker pool with a work-stealing
/// scheduler (see the module docs).
///
/// `Pool::with_threads(k)` keeps `k − 1` background workers; the thread
/// calling [`Pool::map`] / [`Pool::try_map`] steals sub-chunks alongside
/// them, so a map call uses at most `k` threads in total and a 1-thread
/// pool is exactly the sequential loop. Workers are joined when the pool
/// is dropped.
pub struct Pool {
    shared: &'static Shared,
    threads: usize,
    split: usize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("split", &self.split)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Pool {
    /// Creates a pool that runs maps on up to `threads` threads (clamped
    /// to at least 1) with the [`DEFAULT_SPLIT`] split factor.
    /// `with_threads(1)` spawns no workers and runs every map
    /// sequentially on the caller — handy as the reference point in
    /// determinism tests and benchmarks.
    pub fn with_threads(threads: usize) -> Pool {
        Pool::with_config(threads, DEFAULT_SPLIT)
    }

    /// Creates a pool with an explicit thread count **and** split factor
    /// (both clamped to at least 1). `split = 1` reproduces the
    /// contiguous one-chunk-per-thread schedule on every map call.
    pub fn with_config(threads: usize, split: usize) -> Pool {
        let threads = threads.max(1);
        // The shared state is leaked so worker threads can borrow it with
        // a 'static lifetime without reference counting in the hot path;
        // a pool is either global (never dropped) or a long-lived test /
        // bench fixture, so the one-off leak per pool is deliberate.
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        }));
        let workers = (1..threads)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("mfod-par-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            threads,
            split: split.max(1),
            workers,
        }
    }

    /// The maximum number of threads a map call on this pool can use
    /// (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The split factor: steal-able sub-chunks created per thread per map
    /// call (never derived from timing — see the module docs).
    pub fn split(&self) -> usize {
        self.split
    }

    /// The number of index-ordered sub-chunks a map over `n` items is
    /// pre-split into: `min(n, threads × split)` (0 for an empty range,
    /// 1 on a single-thread pool).
    fn task_chunks(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        if self.threads == 1 {
            return 1;
        }
        n.min(self.threads.saturating_mul(self.split))
    }

    /// Applies `f` to every index in `0..n`, collecting results in index
    /// order — bit-for-bit identical to `(0..n).map(f).collect()`.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_map(n, |i| Ok::<T, Never>(f(i))) {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// Fallible [`Pool::map`] on the stealing scheduler: the range is
    /// pre-split into `min(n, threads × split)` index-ordered sub-chunks that
    /// idle threads steal from a shared deque. Reports the first error
    /// **in index order**. Running sub-chunks are not cancelled — every
    /// sub-chunk finishes before the error is returned, so error
    /// selection is deterministic. A panic in `f` is re-raised on the
    /// calling thread with its original payload once all sub-chunks have
    /// finished; the pool stays usable afterwards.
    ///
    /// Sub-chunk sizes differ by at most one item; the caller runs the
    /// first inline and steals queued ones until every sub-chunk is done.
    pub fn try_map<T, E, F>(&self, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let chunks = self.task_chunks(n);
        if chunks <= 1 {
            // The sequential fallback is still a pool execution path: the
            // chaos hooks must cover it too (a 1-thread pool, or a batch
            // too small to split, is how most CI machines run). The whole
            // range is one "chunk" here, so one hit per non-empty map.
            // Unlike the stealing path there is no catch/rethrow wrapper:
            // an injected panic propagates inline, exactly like a real
            // item panic on this path.
            if n > 0 {
                mfod_faultline::stall(mfod_faultline::points::POOL_STRAGGLE);
                if mfod_faultline::should_fire(mfod_faultline::points::POOL_PANIC) {
                    panic!("injected fault: pool.panic");
                }
            }
            return (0..n).map(f).collect();
        }
        let obs = mfod_obs::active();
        if let Some(m) = obs {
            m.pool_maps.add(1);
            m.pool_chunks_queued.add((chunks - 1) as u64);
        }
        let mut bounds = Vec::with_capacity(chunks + 1);
        let (base, extra) = (n / chunks, n % chunks);
        let mut start = 0usize;
        bounds.push(0);
        for c in 0..chunks {
            start += base + usize::from(c < extra);
            bounds.push(start);
        }

        let outcomes: Vec<Mutex<Option<ChunkOutcome<T, E>>>> =
            (0..chunks).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new(chunks - 1);
        let run_chunk = |c: usize| -> ChunkOutcome<T, E> {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            match catch_unwind(AssertUnwindSafe(|| {
                // Chaos hooks: a straggling chunk (injected delay) and a
                // panicking work item. Both compile to one relaxed load
                // when no fault plan is armed; the injected panic rides
                // the same catch/rethrow path as a real item panic.
                mfod_faultline::stall(mfod_faultline::points::POOL_STRAGGLE);
                if mfod_faultline::should_fire(mfod_faultline::points::POOL_PANIC) {
                    panic!("injected fault: pool.panic");
                }
                (lo..hi).map(&f).collect::<Result<Vec<T>, E>>()
            })) {
                Ok(Ok(items)) => ChunkOutcome::Items(items),
                Ok(Err(e)) => ChunkOutcome::Error(e),
                Err(payload) => ChunkOutcome::Panicked(payload),
            }
        };

        {
            // Only resolved when the recorder is on; the disabled path
            // never reads a clock.
            let queued_at = obs.map(|_| std::time::Instant::now());
            // A chunk consults its submitter's fault plan, whichever thread
            // runs it. Each task owns a copy of the id: a borrow would
            // dangle once this block ends.
            let scope = mfod_faultline::scope();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (1..chunks)
                .map(|c| {
                    let outcomes = &outcomes;
                    let latch = &latch;
                    let run_chunk = &run_chunk;
                    Box::new(move || {
                        // The guard counts down even if writing the
                        // outcome were to unwind, so the waiter can never
                        // hang on a lost count.
                        let _guard = CountdownGuard(latch);
                        let _scope = mfod_faultline::enter(scope);
                        if let (Some(m), Some(t)) = (obs, queued_at) {
                            m.pool_queue_wait.record_duration(t.elapsed());
                        }
                        let started = obs.map(|_| {
                            mfod_obs::journal::span_begin(mfod_obs::journal::NAME_POOL_CHUNK);
                            std::time::Instant::now()
                        });
                        let outcome = run_chunk(c);
                        if let (Some(m), Some(t)) = (obs, started) {
                            mfod_obs::journal::span_end(mfod_obs::journal::NAME_POOL_CHUNK);
                            m.pool_chunk_run.record_duration(t.elapsed());
                        }
                        *lock_recovering(&outcomes[c]) = Some(outcome);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            // SAFETY: the erased tasks borrow `f`, `bounds`, `outcomes`
            // and `latch` from this stack frame. Every task decrements
            // `latch` exactly once (via `CountdownGuard`), and this call
            // does not return — not even by unwinding, because
            // `run_chunk(0)` catches panics — until `help_until` has
            // observed the latch at zero, i.e. until every task has
            // finished running and dropped its borrows.
            unsafe { self.inject_scoped(tasks) };
        }
        let started = obs.map(|_| {
            mfod_obs::journal::span_begin(mfod_obs::journal::NAME_POOL_CHUNK);
            std::time::Instant::now()
        });
        let first = run_chunk(0);
        if let (Some(m), Some(t)) = (obs, started) {
            mfod_obs::journal::span_end(mfod_obs::journal::NAME_POOL_CHUNK);
            m.pool_chunk_run.record_duration(t.elapsed());
        }
        self.help_until(&latch);

        // All sub-chunks have finished; walk them in index order so the
        // first failure a sequential loop would have hit is the one
        // reported. Chunk 0's outcome lives on this stack, the rest in
        // the slots.
        let drained = std::iter::once(first).chain(outcomes.into_iter().skip(1).map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("pool chunk finished without reporting an outcome")
        }));
        let mut out = Vec::with_capacity(n);
        for outcome in drained {
            match outcome {
                ChunkOutcome::Items(items) => out.extend(items),
                ChunkOutcome::Error(e) => return Err(e),
                ChunkOutcome::Panicked(payload) => resume_unwind(payload),
            }
        }
        Ok(out)
    }

    /// Queues lifetime-erased tasks for the workers.
    ///
    /// # Safety
    ///
    /// The caller must not return (or unwind) until every injected task
    /// has finished executing, since the tasks may borrow from its stack.
    unsafe fn inject_scoped<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let mut queue = self.shared.queue.lock().unwrap();
        for task in tasks {
            // SAFETY: lifetime erasure only — see the function contract.
            let task: Task = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                    task,
                )
            };
            queue.tasks.push_back(task);
        }
        drop(queue);
        self.shared.work_ready.notify_all();
    }

    /// Waits for `latch` to reach zero, stealing queued tasks in the
    /// meantime so that nested map calls cannot deadlock: every waiter is
    /// also a worker while there is work to take.
    fn help_until(&self, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            match self.shared.pop() {
                Some(task) => {
                    if let Some(m) = mfod_obs::active() {
                        m.pool_caller_steals.add(1);
                    }
                    run_task(task)
                }
                // Queue drained: our sub-chunks are running on other
                // threads; block until they count the latch down.
                None => {
                    if latch.wait_done() {
                        return;
                    }
                }
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &'static Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work_ready.wait(queue).unwrap();
            }
        };
        if let Some(m) = mfod_obs::active() {
            m.pool_worker_runs.add(1);
        }
        run_task(task);
    }
}

/// Runs one task; by construction tasks catch their own unwinds, but the
/// extra `catch_unwind` guarantees a worker (or a stealing waiter) can
/// never be torn down by a job, whatever a future task type does.
fn run_task(task: Task) {
    let _ = catch_unwind(AssertUnwindSafe(task));
}

/// Locks a mutex, recovering the data if a previous holder panicked (the
/// slots only ever hold plain data, so poisoning carries no invariant).
fn lock_recovering<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Result of one contiguous sub-chunk.
enum ChunkOutcome<T, E> {
    Items(Vec<T>),
    Error(E),
    Panicked(Box<dyn Any + Send>),
}

/// Counts outstanding sub-chunk tasks; waiters block on `done`.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = lock_recovering(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *lock_recovering(&self.remaining) == 0
    }

    /// Blocks until the latch is done **or** the wait is interrupted by a
    /// queue wake-up race; returns whether the latch is done.
    fn wait_done(&self) -> bool {
        let mut remaining = lock_recovering(&self.remaining);
        while *remaining != 0 {
            remaining = match self.done.wait(remaining) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        true
    }
}

struct CountdownGuard<'a>(&'a Latch);

impl Drop for CountdownGuard<'_> {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// Uninhabited error type used to reuse the fallible path for the
/// infallible one.
enum Never {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let seq: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(0x9E37) >> 3)
                .collect();
            let par = par_map(n, |i| (i as u64).wrapping_mul(0x9E37) >> 3);
            assert_eq!(seq, par, "n={n}");
        }
    }

    #[test]
    fn error_propagates() {
        let r: Result<Vec<usize>, String> = par_try_map(100, |i| {
            if i == 63 {
                Err(format!("boom {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(r.unwrap_err(), "boom 63");
        let ok: Result<Vec<usize>, String> = par_try_map(100, Ok);
        assert_eq!(ok.unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn first_error_in_index_order_wins() {
        // Errors at indices 10 and 90 land in different sub-chunks on any
        // thread count; the reassembly order guarantees index 10 reports.
        let pool = Pool::with_threads(4);
        let r: Result<Vec<usize>, usize> =
            pool.try_map(100, |i| if i == 10 || i == 90 { Err(i) } else { Ok(i) });
        assert_eq!(r.unwrap_err(), 10);
        // …and on the contiguous (split-1) schedule
        let contiguous = Pool::with_config(4, 1);
        let r: Result<Vec<usize>, usize> =
            contiguous.try_map(100, |i| if i == 10 || i == 90 { Err(i) } else { Ok(i) });
        assert_eq!(r.unwrap_err(), 10);
    }

    #[test]
    fn reports_at_least_one_thread() {
        assert!(max_threads() >= 1);
        assert!(configured_threads() >= 1);
        assert!(global().threads() >= 1);
        assert_eq!(global().split(), DEFAULT_SPLIT);
    }

    #[test]
    fn env_values_parse_leniently() {
        assert_eq!(positive_from_env("4"), Some(4));
        assert_eq!(positive_from_env(" 16 "), Some(16));
        assert_eq!(positive_from_env("1"), Some(1));
        // zero, negatives, junk and empty all fall back
        assert_eq!(positive_from_env("0"), None);
        assert_eq!(positive_from_env("-2"), None);
        assert_eq!(positive_from_env("many"), None);
        assert_eq!(positive_from_env(""), None);
        assert_eq!(positive_from_env("4.5"), None);
    }

    #[test]
    fn task_chunks_is_a_pure_function_of_shape() {
        let pool = Pool::with_config(4, 8);
        assert_eq!(pool.split(), 8);
        // capped by the item count…
        assert_eq!(pool.task_chunks(3), 3);
        // …and by threads × split
        assert_eq!(pool.task_chunks(1000), 32);
        assert_eq!(pool.task_chunks(0), 0);
        // a 1-thread pool never splits
        let seq = Pool::with_config(1, 8);
        assert_eq!(seq.task_chunks(1000), 1);
        // split = 1 is the contiguous schedule
        let contiguous = Pool::with_config(4, 1);
        assert_eq!(contiguous.task_chunks(1000), 4);
    }

    #[test]
    fn explicit_pools_agree_with_each_other_and_sequential() {
        let work = |i: usize| ((i as f64) * 0.6180339887).sin().to_bits();
        let seq: Vec<u64> = (0..257).map(work).collect();
        for threads in [1usize, 2, 3, 8] {
            for split in [1usize, 2, 8, 33] {
                let pool = Pool::with_config(threads, split);
                assert_eq!(pool.threads(), threads);
                assert_eq!(pool.map(257, work), seq, "threads={threads} split={split}");
            }
        }
    }

    #[test]
    fn unbalanced_items_are_bit_identical_to_sequential() {
        // Exponential per-item cost: the last items dominate, exactly the
        // shape the stealing scheduler exists for. The *output* must not
        // care which thread stole what.
        let work = |i: usize| {
            let iters = 1usize << (i % 11);
            let mut acc = i as f64 + 0.5;
            for _ in 0..iters {
                acc = (acc * 1.000_000_1).sin().mul_add(0.5, acc * 0.5);
            }
            acc.to_bits()
        };
        let seq: Vec<u64> = (0..200).map(work).collect();
        for threads in [2usize, 4, 8] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.map(200, work), seq, "threads={threads}");
            let contiguous = Pool::with_config(threads, 1);
            assert_eq!(contiguous.map(200, work), seq, "threads={threads}");
        }
        assert_eq!(par_map(200, work), seq, "global pool");
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        let pool = Pool::with_threads(4);
        for round in 0..200usize {
            let out = pool.map(round % 37, |i| i * round);
            assert_eq!(out, (0..round % 37).map(|i| i * round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panic_payload_reaches_the_caller_and_pool_survives() {
        let pool = Pool::with_threads(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(64, |i| {
                if i == 40 {
                    std::panic::panic_any(String::from("custom payload 40"));
                }
                i
            })
        }))
        .expect_err("the worker panic must surface on the caller");
        let payload = caught
            .downcast::<String>()
            .expect("original payload type preserved");
        assert_eq!(*payload, "custom payload 40");
        // The pool is not poisoned: subsequent maps still work on every
        // worker.
        for _ in 0..10 {
            assert_eq!(pool.map(64, |i| i + 1), (1..=64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn injected_pool_faults_surface_like_real_ones() {
        // An injected chunk panic rides the normal catch/rethrow path:
        // the caller sees the panic, the pool survives.
        mfod_faultline::install(mfod_faultline::FaultPlan::new(21).rule(
            mfod_faultline::points::POOL_PANIC,
            mfod_faultline::FaultRule::once(),
        ));
        let pool = Pool::with_threads(4);
        let caught = catch_unwind(AssertUnwindSafe(|| pool.map(256, |i| i * 2)))
            .expect_err("injected panic must surface on the caller");
        let msg = caught.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("injected fault: pool.panic"), "{msg}");
        let report = mfod_faultline::disarm().unwrap();
        assert_eq!(report.fires(mfod_faultline::points::POOL_PANIC), 1);
        // plan exhausted + disarmed: the pool is healthy and outputs are
        // identical to the sequential path again
        assert_eq!(
            pool.map(256, |i| i * 2),
            (0..256).map(|i| i * 2).collect::<Vec<_>>()
        );
        // An injected straggler only delays; outputs stay bit-identical.
        mfod_faultline::install(
            mfod_faultline::FaultPlan::new(22).rule(
                mfod_faultline::points::POOL_STRAGGLE,
                mfod_faultline::FaultRule::with_probability(0.5)
                    .delay(std::time::Duration::from_millis(1)),
            ),
        );
        let delayed = pool.map(256, |i| (i as f64).sqrt().to_bits());
        mfod_faultline::disarm();
        assert_eq!(
            delayed,
            (0..256)
                .map(|i| (i as f64).sqrt().to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_plan_reaches_only_the_chunks_its_thread_submits() {
        let pool = Pool::with_threads(4);
        let barrier = std::sync::Barrier::new(2);
        let expected: Vec<usize> = (0..256).map(|i| i * 3).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                mfod_faultline::install(mfod_faultline::FaultPlan::new(23).rule(
                    mfod_faultline::points::POOL_PANIC,
                    mfod_faultline::FaultRule::always(),
                ));
                barrier.wait();
                for _ in 0..50 {
                    let caught = catch_unwind(AssertUnwindSafe(|| pool.map(256, |i| i * 3)));
                    assert!(caught.is_err(), "the arming thread's map must panic");
                }
                mfod_faultline::disarm();
            });
            // Unarmed: its chunks may run on the arming thread while that
            // one helps, and still never see its plan.
            s.spawn(|| {
                barrier.wait();
                for _ in 0..50 {
                    assert_eq!(pool.map(256, |i| i * 3), expected);
                }
            });
        });
    }

    #[test]
    fn earliest_chunk_failure_wins_across_kinds() {
        let pool = Pool::with_threads(4);
        // Error in an early sub-chunk beats a panic in a late one (that
        // is what a sequential loop would have hit first).
        let r: Result<Vec<usize>, &str> = pool.try_map(100, |i| {
            if i == 5 {
                Err("early error")
            } else if i == 95 {
                panic!("late panic");
            } else {
                Ok(i)
            }
        });
        assert_eq!(r.unwrap_err(), "early error");
        // And an early panic beats a late error.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _: Result<Vec<usize>, &str> = pool.try_map(100, |i| {
                if i == 5 {
                    panic!("early panic");
                } else if i == 95 {
                    Err("late error")
                } else {
                    Ok(i)
                }
            });
        }))
        .expect_err("the early panic must win");
        let msg = caught.downcast::<&str>().expect("payload is the &str");
        assert_eq!(*msg, "early panic");
    }

    #[test]
    fn sequential_path_panics_transparently() {
        // n < 2 runs inline; the panic must still carry the payload.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(1, |_| -> usize { std::panic::panic_any(7usize) })
        }))
        .expect_err("inline panic propagates");
        assert_eq!(*caught.downcast::<usize>().unwrap(), 7);
    }

    #[test]
    fn nested_maps_on_the_same_pool_do_not_deadlock() {
        let pool = Pool::with_threads(2);
        let out = pool.map(4, |i| pool.map(4, move |j| i * 10 + j));
        let expected: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn global_functions_use_one_shared_pool() {
        // Nested global calls exercise the steal-while-waiting path on
        // the machine's real pool.
        let out = par_try_map(8, |i| {
            Ok::<_, String>(par_map(8, move |j| i + j).iter().sum::<usize>())
        })
        .unwrap();
        let expected: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i + j).sum()).collect();
        assert_eq!(out, expected);
    }
}
