//! Deterministic fault injection for the mfod workspace.
//!
//! `mfod-faultline` is a std-only leaf crate (like `mfod-obs`) that lets
//! tests and chaos harnesses inject failures at named points inside the
//! serving stack — snapshot I/O, registry sweeps, micro-batch flushes,
//! pool chunks — on a schedule that is a pure function of a seed.
//!
//! # Contract
//!
//! - **Disabled is free.** Every hook ([`should_fire`], [`stall`])
//!   compiles down to a single relaxed atomic load and a predictable
//!   branch while no plan is armed. The bench ratchet holds this to the
//!   same ≤2% overhead ceiling as the `mfod-obs` gate.
//! - **Armed is deterministic.** Each injection point draws from its own
//!   xoshiro256++ stream seeded from `(plan seed, fnv1a(point name))`, so
//!   the fire/skip decision sequence at a point depends only on the seed
//!   and how many times that point has been hit — never on thread
//!   interleaving across points.
//! - **Owned by the arming thread.** A plan is armed for the calling
//!   thread's [`scope`] and fires only for work done on its behalf: its
//!   own calls, the pool chunks it submits and the registry watcher it
//!   starts, each of which [`enter`]s that scope. Concurrent plans never
//!   see each other's hits, and a plan is disarmed when its thread exits.
//!
//! # Writing a plan
//!
//! ```
//! use mfod_faultline::{points, FaultPlan, FaultRule};
//!
//! mfod_faultline::install(
//!     FaultPlan::new(42)
//!         .rule(points::PERSIST_READ, FaultRule::with_probability(0.25))
//!         .rule(points::STREAM_FLUSH, FaultRule::always().times(2)),
//! );
//! // ... exercise the system under faults; hooks consult the plan ...
//! let fired: Vec<bool> = (0..4).map(|_| mfod_faultline::should_fire(points::STREAM_FLUSH)).collect();
//! assert_eq!(fired, vec![true, true, false, false], "always().times(2)");
//! let report = mfod_faultline::disarm().unwrap();
//! assert_eq!(report.fires(points::STREAM_FLUSH), 2);
//! ```

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Canonical injection-point names threaded through the workspace.
///
/// Hooks pass these constants; plans reference them when building rules.
/// The naming scheme is `<crate-area>.<event>`.
pub mod points {
    /// Snapshot read failure in `mfod-persist` (reading a snapshot file
    /// errors out with an injected `io::Error`).
    pub const PERSIST_READ: &str = "persist.read";
    /// Torn write: `save_bytes` leaves a truncated file at the *final*
    /// path (simulating a crashed writer that bypassed the atomic
    /// rename) and reports an I/O error.
    pub const PERSIST_TORN_WRITE: &str = "persist.torn_write";
    /// CRC corruption: the computed checksum is inverted during parse,
    /// so an otherwise valid snapshot reports `ChecksumMismatch`.
    pub const PERSIST_CRC: &str = "persist.crc";
    /// A registry watcher's poll of a store's deployment log fails with
    /// an injected I/O error before it reads anything.
    pub const REGISTRY_SWEEP: &str = "registry.sweep";
    /// Micro-batch flush fails with a typed pipeline error before
    /// scoring runs; the batch stays pending.
    pub const STREAM_FLUSH: &str = "stream.flush";
    /// Delay injected at the start of a micro-batch flush, stalling the
    /// caller that flushes; pair with a [`FaultRule::delay`](crate::FaultRule::delay).
    pub const STREAM_DELAY: &str = "stream.delay";
    /// Poison sample: an observation pushed into a `WindowBuffer` has a
    /// channel value replaced with NaN before validation.
    pub const STREAM_POISON: &str = "stream.poison";
    /// A pool work item panics mid-chunk.
    pub const POOL_PANIC: &str = "pool.panic";
    /// Straggler delay injected into a pool chunk; pair with a
    /// [`FaultRule::delay`](crate::FaultRule::delay).
    pub const POOL_STRAGGLE: &str = "pool.straggle";
    /// `fsync` of a freshly written snapshot temp file fails (or, in a
    /// parked plan, the process dies right before the data is durable):
    /// the temp file may exist with unsynced bytes, the final path is
    /// untouched.
    pub const PERSIST_FSYNC: &str = "persist.fsync";
    /// The rename of a synced temp file onto its final path fails (or
    /// the process dies between fsync and rename): a durable stray temp
    /// file is left next to an untouched final path.
    pub const PERSIST_RENAME: &str = "persist.rename";
    /// Torn deployment-log append: only a prefix of the framed record
    /// reaches the log before the writer dies, leaving a tail the
    /// recovery replay must detect and quarantine.
    pub const MANIFEST_APPEND_TORN: &str = "manifest.append.torn";
    /// Crash on the commit step of a store promotion: the snapshot is
    /// durable but its commit record never lands, so recovery must treat
    /// the generation as uncommitted.
    pub const STORE_COMMIT: &str = "store.commit";
}

/// FNV-1a 64-bit hash of the point name (same constants as
/// `mfod-persist`'s content hash); mixes the point identity into the
/// plan seed so each point gets an independent stream.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// When and how often a single injection point fires.
///
/// A rule is evaluated once per *hit* (each time the hook runs while
/// armed). Hits before `skip_first` never fire; after `max_fires` fires
/// the rule goes quiet. Each eligible hit draws one `f64` from the
/// point's RNG stream regardless of outcome, so the decision sequence is
/// reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct FaultRule {
    probability: f64,
    max_fires: Option<u64>,
    skip_first: u64,
    delay: Option<Duration>,
}

impl FaultRule {
    /// Fire on every eligible hit.
    pub fn always() -> Self {
        Self::with_probability(1.0)
    }

    /// Fire each eligible hit independently with probability `p`
    /// (clamped to `[0, 1]`).
    pub fn with_probability(p: f64) -> Self {
        FaultRule {
            probability: p.clamp(0.0, 1.0),
            max_fires: None,
            skip_first: 0,
            delay: None,
        }
    }

    /// Fire exactly once, on the first eligible hit.
    pub fn once() -> Self {
        Self::always().times(1)
    }

    /// Cap the total number of fires at `n`.
    pub fn times(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }

    /// Skip the first `n` hits before the rule becomes eligible.
    pub fn after(mut self, n: u64) -> Self {
        self.skip_first = n;
        self
    }

    /// Attach a stall duration, used by [`stall`] hooks when the rule
    /// fires. Ignored by [`should_fire`] hooks.
    pub fn delay(mut self, d: Duration) -> Self {
        self.delay = Some(d);
        self
    }
}

/// A seeded schedule of fault rules, built once and then [`install`]ed
/// for the calling thread's [`scope`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(String, FaultRule)>,
    park_on_fire: bool,
}

impl FaultPlan {
    /// Start an empty plan with the given seed. A plan with no rules
    /// never fires anywhere but still counts hits.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            park_on_fire: false,
        }
    }

    /// Crash-harness mode: when a crash-point hook fires under this plan,
    /// [`park_if_requested`] freezes the process at the injection point
    /// (after writing the fault report to the [`ENV_FAULT_REPORT`] path,
    /// if set) instead of letting the hook return a typed error. The
    /// parked process sits in an endless sleep so an external supervisor
    /// can SIGKILL it with the on-disk state exactly as it was at the
    /// crash point.
    pub fn park_on_fire(mut self) -> Self {
        self.park_on_fire = true;
        self
    }

    /// Attach `rule` to the named injection point, replacing any earlier
    /// rule for the same point.
    pub fn rule(mut self, point: impl Into<String>, rule: FaultRule) -> Self {
        let point = point.into();
        self.rules.retain(|(p, _)| *p != point);
        self.rules.push((point, rule));
        self
    }
}

/// Per-point armed state: the rule (if any), its private RNG stream, and
/// hit/fire counters.
#[derive(Debug)]
struct PointState {
    rule: Option<FaultRule>,
    rng: StdRng,
    hits: u64,
    fires: u64,
}

impl PointState {
    fn new(seed: u64, point: &str, rule: Option<FaultRule>) -> Self {
        PointState {
            rule,
            rng: StdRng::seed_from_u64(seed ^ fnv1a64(point.as_bytes())),
            hits: 0,
            fires: 0,
        }
    }

    /// One hook hit: count it, and decide whether the rule fires.
    fn check(&mut self) -> Option<FaultRule> {
        self.hits += 1;
        let rule = self.rule.as_ref()?;
        if self.hits <= rule.skip_first {
            return None;
        }
        if let Some(cap) = rule.max_fires {
            if self.fires >= cap {
                return None;
            }
        }
        // Draw on every eligible hit, fire or not, so the stream at this
        // point is a pure function of (seed, eligible-hit index).
        let draw: f64 = self.rng.random();
        if draw < rule.probability {
            self.fires += 1;
            Some(rule.clone())
        } else {
            None
        }
    }
}

/// The armed plan: seed plus lazily-populated per-point states. Points
/// without rules get a counting-only state on first hit.
#[derive(Debug)]
struct ArmedPlan {
    seed: u64,
    states: HashMap<String, PointState>,
    park_on_fire: bool,
}

impl ArmedPlan {
    fn new(plan: FaultPlan) -> Self {
        let mut states = HashMap::new();
        for (point, rule) in &plan.rules {
            states.insert(
                point.clone(),
                PointState::new(plan.seed, point, Some(rule.clone())),
            );
        }
        ArmedPlan {
            seed: plan.seed,
            states,
            park_on_fire: plan.park_on_fire,
        }
    }

    fn check(&mut self, point: &str) -> Option<FaultRule> {
        if let Some(state) = self.states.get_mut(point) {
            return state.check();
        }
        let mut state = PointState::new(self.seed, point, None);
        let fired = state.check();
        self.states.insert(point.to_string(), state);
        fired
    }
}

/// Hit/fire counts per injection point, captured at [`disarm`] (or via
/// [`report`] while armed), of the hits made on behalf of the arming
/// thread. Serializable by hand; `to_json` emits a flat object for
/// chaos-report artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Seed the plan was built from.
    pub seed: u64,
    /// `(point, hits, fires)` sorted by point name.
    pub points: Vec<(String, u64, u64)>,
}

impl FaultReport {
    fn from_plan(plan: &ArmedPlan) -> Self {
        let mut points: Vec<(String, u64, u64)> = plan
            .states
            .iter()
            .map(|(p, s)| (p.clone(), s.hits, s.fires))
            .collect();
        points.sort();
        FaultReport {
            seed: plan.seed,
            points,
        }
    }

    /// Times the named point's hook ran while armed.
    pub fn hits(&self, point: &str) -> u64 {
        self.points
            .iter()
            .find(|(p, _, _)| p == point)
            .map_or(0, |&(_, h, _)| h)
    }

    /// Times the named point actually fired.
    pub fn fires(&self, point: &str) -> u64 {
        self.points
            .iter()
            .find(|(p, _, _)| p == point)
            .map_or(0, |&(_, _, f)| f)
    }

    /// Flat JSON object: seed plus `"<point>": {"hits": .., "fires": ..}`
    /// per touched point.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"seed\": {}", self.seed));
        for (point, hits, fires) in &self.points {
            out.push_str(&format!(
                ", \"{point}\": {{\"hits\": {hits}, \"fires\": {fires}}}"
            ));
        }
        out.push('}');
        out
    }
}

/// Fast gate: `true` while some thread has a plan armed. One relaxed load.
static GATE: AtomicBool = AtomicBool::new(false);

/// Armed plans by scope. `GATE` is set under this lock: up while non-empty.
static PLANS: Mutex<BTreeMap<u64, ArmedPlan>> = Mutex::new(BTreeMap::new());

/// The next scope id; 0 means "none taken yet".
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The scope this thread acts for; 0 until [`scope`] takes one.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
    /// The scope this thread last armed; its plan dies with the thread.
    static ARMED: Disarm = const { Disarm(Cell::new(0)) };
}

struct Disarm(Cell<u64>);

impl Drop for Disarm {
    fn drop(&mut self) {
        take_plan(self.0.get());
    }
}

/// Every update leaves the map valid, so a poisoned lock is still usable.
fn plans() -> MutexGuard<'static, BTreeMap<u64, ArmedPlan>> {
    PLANS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn take_plan(scope: u64) -> Option<ArmedPlan> {
    let mut plans = plans();
    let plan = plans.remove(&scope);
    GATE.store(!plans.is_empty(), Ordering::Release);
    plan
}

/// The fault-plan scope the calling thread acts for: the one it
/// [`enter`]ed, else its own. Work handed to another thread `enter`s this
/// id there, so its hooks consult the plan of the thread it is done for.
pub fn scope() -> u64 {
    SCOPE.with(|s| {
        if s.get() == 0 {
            s.set(NEXT_SCOPE.fetch_add(1, Ordering::Relaxed));
        }
        s.get()
    })
}

/// Act for `scope` on this thread until the guard drops.
pub fn enter(scope: u64) -> ScopeGuard {
    ScopeGuard(SCOPE.with(|s| s.replace(scope)), PhantomData)
}

/// Restores the thread's previous scope on drop; it cannot leave the thread.
#[must_use = "the scope is left when the guard drops"]
pub struct ScopeGuard(u64, PhantomData<*const ()>);

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.0));
    }
}

/// Arm `plan` for the calling thread's [`scope`], replacing the plan
/// armed there before. It is disarmed when the thread exits.
pub fn install(plan: FaultPlan) {
    let scope = scope();
    ARMED.with(|a| a.0.set(scope));
    let mut plans = plans();
    plans.insert(scope, ArmedPlan::new(plan));
    GATE.store(true, Ordering::Release);
}

/// Disarm the calling thread's plan and return its report, if it had one.
pub fn disarm() -> Option<FaultReport> {
    take_plan(scope()).map(|plan| FaultReport::from_plan(&plan))
}

/// Snapshot the report of the calling thread's plan without disarming it.
pub fn report() -> Option<FaultReport> {
    plans().get(&scope()).map(FaultReport::from_plan)
}

/// Should the named injection point fire on this hit?
///
/// Disabled path: one relaxed load, returns `false`. Armed path: counts
/// the hit in the plan of the caller's [`scope`] and consults the point's
/// seeded rule under the plan lock.
#[inline]
pub fn should_fire(point: &str) -> bool {
    if !GATE.load(Ordering::Relaxed) {
        return false;
    }
    check_slow(point).is_some()
}

/// Stall hook: if the named point fires and its rule carries a
/// [`FaultRule::delay`], sleep for that duration. Disabled path: one
/// relaxed load, returns immediately.
#[inline]
pub fn stall(point: &str) {
    if !GATE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(rule) = check_slow(point) {
        if let Some(d) = rule.delay {
            std::thread::sleep(d);
        }
    }
}

/// Environment variable naming the file [`park_if_requested`] writes the
/// in-flight [`FaultReport`] JSON to just before freezing, so the
/// supervising process can attribute the kill to the point that fired.
pub const ENV_FAULT_REPORT: &str = "MFOD_FAULT_REPORT";

/// Crash-harness freeze: if the calling thread's armed plan was built with
/// [`FaultPlan::park_on_fire`], dump the current [`FaultReport`] to the
/// [`ENV_FAULT_REPORT`] path (when set), announce the parked point on
/// stdout, and sleep forever awaiting an external SIGKILL. Under a
/// normal (non-parking) plan — or no plan — this returns immediately, so
/// crash-point hooks call it unconditionally after [`should_fire`] and
/// then surface their usual typed injected error.
///
/// The caller performs any torn side effects (partial writes, fsyncs)
/// *before* calling this, so the frozen on-disk state is exactly the
/// state a real crash at the point would leave behind.
pub fn park_if_requested(point: &str) {
    let parked = plans()
        .get(&scope())
        .filter(|plan| plan.park_on_fire)
        .map(FaultReport::from_plan);
    let Some(report) = parked else {
        return;
    };
    if let Some(path) = std::env::var_os(ENV_FAULT_REPORT).filter(|p| !p.is_empty()) {
        let _ = std::fs::write(path, report.to_json());
    }
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "mfod-faultline: parked at {point}");
    let _ = out.flush();
    drop(out);
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

#[cold]
fn check_slow(point: &str) -> Option<FaultRule> {
    // The gate is up for any thread's plan; the caller may have none.
    let fired = plans().get_mut(&scope()).and_then(|plan| plan.check(point));
    if fired.is_some() {
        // Timeline marker for the observability journal: one instant
        // event per actual firing, so a chaos-soak trace shows *when*
        // each fault landed relative to flushes and sweeps. Fires are
        // rare by construction, so the interning cost is irrelevant.
        mfod_obs::journal::instant(&format!("fault:{point}"));
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_never_fire() {
        disarm();
        assert!(report().is_none());
        for _ in 0..100 {
            assert!(!should_fire(points::PERSIST_READ));
        }
        stall(points::POOL_STRAGGLE); // returns immediately
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| -> Vec<bool> {
            install(
                FaultPlan::new(seed).rule(points::STREAM_FLUSH, FaultRule::with_probability(0.5)),
            );
            let fired = (0..64).map(|_| should_fire(points::STREAM_FLUSH)).collect();
            disarm();
            fired
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn concurrent_plans_stay_apart() {
        let plan = |seed| {
            FaultPlan::new(seed).rule(points::STREAM_FLUSH, FaultRule::with_probability(0.5))
        };
        let hit = || -> Vec<bool> { (0..64).map(|_| should_fire(points::STREAM_FLUSH)).collect() };
        let solo: Vec<Vec<bool>> = [7, 8]
            .map(|seed| {
                install(plan(seed));
                let fired = hit();
                disarm();
                fired
            })
            .into();
        let barrier = &std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let armed = [7, 8].map(|seed| {
                s.spawn(move || {
                    install(plan(seed));
                    barrier.wait();
                    (hit(), disarm().unwrap())
                })
            });
            let bystander = s.spawn(|| {
                barrier.wait();
                (hit(), report())
            });
            for (handle, expected) in armed.into_iter().zip(&solo) {
                let (fired, report) = handle.join().unwrap();
                assert_eq!(&fired, expected, "a plan saw another thread's hits");
                assert_eq!(report.hits(points::STREAM_FLUSH), 64);
            }
            let (fired, report) = bystander.join().unwrap();
            assert!(fired.iter().all(|&f| !f), "an unarmed thread fired");
            assert!(report.is_none());
        });
    }

    #[test]
    fn a_thread_that_dies_armed_leaves_nothing_armed() {
        let (tx, rx) = std::sync::mpsc::channel();
        let died = std::thread::spawn(move || {
            install(FaultPlan::new(1).rule(points::PERSIST_READ, FaultRule::always()));
            tx.send(scope()).unwrap();
            panic!("dies armed");
        })
        .join();
        assert!(died.is_err());
        assert!(!should_fire(points::PERSIST_READ));
        // The plan went with its thread, not just out of this one's reach.
        let _dead = enter(rx.recv().unwrap());
        assert!(report().is_none());
    }

    #[test]
    fn per_point_streams_are_independent_of_interleaving() {
        let plan = || {
            FaultPlan::new(11)
                .rule(points::PERSIST_READ, FaultRule::with_probability(0.5))
                .rule(points::REGISTRY_SWEEP, FaultRule::with_probability(0.5))
        };
        // Sequential: all hits to A, then all to B.
        install(plan());
        let a1: Vec<bool> = (0..32).map(|_| should_fire(points::PERSIST_READ)).collect();
        let b1: Vec<bool> = (0..32)
            .map(|_| should_fire(points::REGISTRY_SWEEP))
            .collect();
        disarm();
        // Interleaved: alternate hits between the two points.
        install(plan());
        let mut a2 = Vec::new();
        let mut b2 = Vec::new();
        for _ in 0..32 {
            a2.push(should_fire(points::PERSIST_READ));
            b2.push(should_fire(points::REGISTRY_SWEEP));
        }
        disarm();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn once_and_times_cap_fires() {
        install(FaultPlan::new(3).rule(points::POOL_PANIC, FaultRule::once()));
        let fires = (0..50).filter(|_| should_fire(points::POOL_PANIC)).count();
        let report = disarm().unwrap();
        assert_eq!(fires, 1);
        assert_eq!(report.fires(points::POOL_PANIC), 1);
        assert_eq!(report.hits(points::POOL_PANIC), 50);

        install(FaultPlan::new(3).rule(points::POOL_PANIC, FaultRule::always().times(4)));
        let fires = (0..50).filter(|_| should_fire(points::POOL_PANIC)).count();
        assert_eq!(fires, 4);
        disarm();
    }

    #[test]
    fn skip_first_defers_eligibility() {
        install(FaultPlan::new(5).rule(points::STREAM_FLUSH, FaultRule::always().after(10)));
        let fired: Vec<bool> = (0..15).map(|_| should_fire(points::STREAM_FLUSH)).collect();
        disarm();
        assert!(fired[..10].iter().all(|&f| !f));
        assert!(fired[10..].iter().all(|&f| f));
    }

    #[test]
    fn unruled_points_count_hits_but_never_fire() {
        install(FaultPlan::new(1));
        for _ in 0..7 {
            assert!(!should_fire(points::PERSIST_CRC));
        }
        let report = disarm().unwrap();
        assert_eq!(report.hits(points::PERSIST_CRC), 7);
        assert_eq!(report.fires(points::PERSIST_CRC), 0);
    }

    #[test]
    fn stall_sleeps_only_when_fired() {
        install(FaultPlan::new(9).rule(
            points::POOL_STRAGGLE,
            FaultRule::once().delay(Duration::from_millis(25)),
        ));
        let t0 = std::time::Instant::now();
        stall(points::POOL_STRAGGLE); // fires: sleeps ~25ms
        let first = t0.elapsed();
        let t1 = std::time::Instant::now();
        stall(points::POOL_STRAGGLE); // capped out: no sleep
        let second = t1.elapsed();
        disarm();
        assert!(
            first >= Duration::from_millis(20),
            "stall too short: {first:?}"
        );
        assert!(second < Duration::from_millis(20));
    }

    #[test]
    fn report_json_is_flat_and_sorted() {
        install(
            FaultPlan::new(2)
                .rule(points::STREAM_FLUSH, FaultRule::always().times(1))
                .rule(points::PERSIST_READ, FaultRule::always().times(1)),
        );
        should_fire(points::STREAM_FLUSH);
        should_fire(points::PERSIST_READ);
        let report = disarm().unwrap();
        let json = report.to_json();
        assert!(json.starts_with("{\"seed\": 2"));
        assert!(json.contains("\"persist.read\": {\"hits\": 1, \"fires\": 1}"));
        assert!(json.contains("\"stream.flush\": {\"hits\": 1, \"fires\": 1}"));
        // persist.* sorts before stream.*
        assert!(json.find("persist.read").unwrap() < json.find("stream.flush").unwrap());
    }

    #[test]
    fn park_is_a_noop_without_a_parking_plan() {
        // no plan armed: returns immediately
        disarm();
        park_if_requested(points::STORE_COMMIT);
        // armed but not a parking plan: still a no-op
        install(FaultPlan::new(1).rule(points::STORE_COMMIT, FaultRule::always()));
        assert!(should_fire(points::STORE_COMMIT));
        park_if_requested(points::STORE_COMMIT);
        disarm();
    }

    #[test]
    fn crash_points_are_named_consistently() {
        for p in [
            points::PERSIST_FSYNC,
            points::PERSIST_RENAME,
            points::MANIFEST_APPEND_TORN,
            points::STORE_COMMIT,
        ] {
            assert!(p.contains('.'), "point {p} must be <area>.<event>");
        }
    }

    #[test]
    fn rule_replaces_earlier_rule_for_same_point() {
        let plan = FaultPlan::new(4)
            .rule(points::STREAM_FLUSH, FaultRule::always())
            .rule(points::STREAM_FLUSH, FaultRule::with_probability(0.0));
        assert_eq!(plan.rules.len(), 1);
        install(plan);
        assert!(!should_fire(points::STREAM_FLUSH));
        disarm();
    }
}
