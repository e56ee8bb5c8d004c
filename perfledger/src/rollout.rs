//! Workload `rollout`: deployments beside reads. K models are fitted on K
//! different splits; each cycle encodes the next model, promotes it into
//! the `ModelStore`, installs the active generation through the
//! `ModelRegistry`, and scores a short session of windows, flushed with
//! `finish`, through the model just served. Every `rollback_every`-th
//! cycle rolls back to the previous generation instead of promoting.
//! Cycles run back to back, in the traced run as in the untraced one.
//!
//! `persist` does most of the work here and none in the other workloads.
//! Deployments and sessions are timed apart, so a change that moves cost
//! from one to the other (decoding at first use instead of at install,
//! say) lowers deployment latency and lowers windows per second of
//! session time: it shows.
//!
//! A store lives for a fixed number of deployments (an *epoch*); then it
//! is checked (`fsck` clean, a reopen quarantines nothing and agrees on
//! the active generation) and replaced by an empty one. The catalog
//! checkpoint grows with every generation, so a fixed epoch keeps the
//! deployment cost independent of how many deployments fit in a run.
//! Epoch checks count in neither deployment nor session time.

use crate::common::{
    beat_stream, derive_seed, median, ms, percentile, repeated_setup, report_line, Args, Metric,
    Outcome, ScratchDir, SETUPS,
};
use crate::layers::{self, Probe, StreamTotals, TracedPass};
use crate::serving::{encode, stream_config, Scale, WindowLog};
use crate::trace::{span, span_scoring};
use mfod::fda::RawSample;
use mfod::geometry::Curvature;
use mfod::pipeline::FittedPipeline;
use mfod::snapshot::PipelineSnapshot;
use mfod_persist::{ModelRegistry, ModelStore, Snapshot};
use mfod_stream::OnlineScorer;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

struct Rollout {
    models: Vec<Arc<FittedPipeline>>,
    beats: Vec<RawSample>,
    seed: u64,
    registry: ModelRegistry<FittedPipeline>,
    store: ModelStore,
    dir: ScratchDir,
    /// Store generation → index of the model it holds (this epoch).
    generation_model: HashMap<u64, usize>,
    /// Active generations, newest last; a rollback pops back one.
    history: Vec<u64>,
    epoch_cycles: usize,
    next_model: usize,
}

/// What the cycles measured.
struct Cycles {
    deployments: u64,
    promotes: u64,
    rollbacks: u64,
    epochs: u64,
    bytes: u64,
    log: WindowLog,
    /// Latency of every deployment (ms).
    deploy_ms: Vec<f64>,
    /// Session time summed over the cycles (s), each from
    /// `OnlineScorer::new` to the return of `finish`.
    session_s: f64,
    totals: StreamTotals,
}

fn open_store(dir: &ScratchDir) -> Result<ModelStore, String> {
    span("persist.open", || ModelStore::open(dir.path()))
        .map(|(store, _)| store)
        .map_err(|e| format!("store open: {e}"))
}

fn setup(scale: &Scale, seed: u64) -> Result<Rollout, String> {
    let data = scale.data(derive_seed(seed, 1))?;
    let models = (0..scale.models)
        .map(|k| {
            scale
                .fit(&data, derive_seed(seed, 10 + k as u64))
                .map(|(m, _)| m)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let beats = span("datasets.generate", || {
        beat_stream(&scale.ecg, scale.session_beats, derive_seed(seed, 4))
    })?;
    let dir = ScratchDir::new("rollout")?;
    let store = open_store(&dir)?;
    Ok(Rollout {
        models,
        beats,
        seed,
        registry: ModelRegistry::new(),
        store,
        dir,
        generation_model: HashMap::new(),
        history: Vec::new(),
        epoch_cycles: 0,
        next_model: 0,
    })
}

impl Rollout {
    /// One deployment: encode + promote (or rollback), install, read back
    /// the served model. Returns it with the index of the in-memory model
    /// it must score like.
    fn deploy(
        &mut self,
        scale: &Scale,
        c: &mut Cycles,
        out: &mut Outcome,
    ) -> Result<(Arc<FittedPipeline>, usize), String> {
        let start = Instant::now();
        let rollback = self.epoch_cycles % scale.rollback_every == scale.rollback_every - 1
            && self.history.len() >= 2;
        let generation = if rollback {
            let target = self.history[self.history.len() - 2];
            span("persist.rollback", || self.store.rollback(target))
                .map_err(|e| format!("rollback: {e}"))?;
            self.history.pop();
            c.rollbacks += 1;
            target
        } else {
            let k = self.next_model;
            self.next_model = (k + 1) % self.models.len();
            let bytes = encode(&self.models[k])?;
            let entry = span("persist.promote", || {
                self.store.promote_bytes(
                    &bytes,
                    PipelineSnapshot::KIND,
                    derive_seed(self.seed, 100 + k as u64),
                    "rollout",
                )
            })
            .map_err(|e| format!("promote: {e}"))?;
            self.generation_model.insert(entry.generation, k);
            self.history.push(entry.generation);
            c.promotes += 1;
            c.bytes += bytes.len() as u64;
            entry.generation
        };
        let installed = span("persist.install", || {
            self.store.install_active(&self.registry)
        })
        .map_err(|e| format!("install: {e}"))?;
        let served = span("persist.active", || self.registry.active());
        c.deploy_ms.push(ms(start.elapsed()));
        c.deployments += 1;
        let active = self.store.active_generation();
        if installed != Some(generation) || active != Some(generation) {
            out.fail(1, format!(
                "deployment of generation {generation}: installed {installed:?}, store active {active:?}"
            ));
        }
        let served = served.ok_or("registry serves nothing after install")?;
        let model = self.generation_model[&generation];
        Ok((served, model))
    }

    /// Checks the epoch's store, then replaces it with an empty one.
    fn close_epoch(&mut self, reopen: bool, out: &mut Outcome) -> Result<(), String> {
        let report =
            span("persist.fsck", || self.store.fsck()).map_err(|e| format!("fsck: {e}"))?;
        if !report.is_clean() {
            out.fail(1, format!("fsck found {:?}", report.issues));
        }
        let active = self.store.active_generation();
        let (_, recovery) = span("persist.open", || ModelStore::open(self.dir.path()))
            .map_err(|e| format!("reopen: {e}"))?;
        if !recovery.quarantined.is_empty() || recovery.active != active {
            out.fail(
                1,
                format!(
                    "reopen quarantined {:?}, active {:?} (expected {active:?})",
                    recovery.quarantined, recovery.active
                ),
            );
        }
        if reopen {
            self.dir = ScratchDir::new("rollout")?;
            self.store = open_store(&self.dir)?;
            self.generation_model.clear();
            self.history.clear();
            self.epoch_cycles = 0;
        }
        Ok(())
    }

    /// Deploy-and-read cycles until `stop(cycle)`; closes the last epoch.
    fn run(
        &mut self,
        scale: &Scale,
        out: &mut Outcome,
        stop: impl Fn(usize) -> bool,
    ) -> Result<Cycles, String> {
        let ts = self.beats[0].t.clone();
        let m = ts.len() as u64;
        let mut c = Cycles {
            deployments: 0,
            promotes: 0,
            rollbacks: 0,
            epochs: 0,
            bytes: 0,
            log: WindowLog::new(self.models.len() * self.beats.len()),
            deploy_ms: Vec::new(),
            session_s: 0.0,
            totals: StreamTotals::default(),
        };
        let mut cycle = 0;
        while !stop(cycle) {
            if self.epoch_cycles == scale.epoch {
                self.close_epoch(true, out)?;
                c.epochs += 1;
            }
            let (served, model) = self.deploy(scale, &mut c, out)?;
            let session = Instant::now();
            let mut scorer = span("stream.new", || {
                OnlineScorer::new(served, stream_config(&ts))
            })
            .map_err(|e| format!("scorer: {e}"))?;
            c.log.new_session();
            for i in 0..scale.session {
                let b = (cycle * scale.session + i) % self.beats.len();
                let slot = model * self.beats.len() + b;
                let beat = &self.beats[b];
                span_scoring("stream.push", m, || {
                    c.log.push_window(&mut scorer, beat, slot)
                })?;
            }
            span_scoring("stream.push", 1, || c.log.finish(&mut scorer))?;
            c.session_s += session.elapsed().as_secs_f64();
            c.totals.add(&scorer.stats());
            self.epoch_cycles += 1;
            cycle += 1;
        }
        self.close_epoch(false, out)?;
        c.epochs += 1;
        Ok(c)
    }

    /// Checks every session verdict against its model's offline score.
    fn check(&self, c: &Cycles, out: &mut Outcome, what: &str) -> Result<(), String> {
        let reference = self
            .models
            .iter()
            .map(|model| model.score(&self.beats))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("reference scores: {e}"))?;
        out.attempted += c.log.pushed() + c.deployments;
        let beats = self.beats.len();
        let checked = c.log.verify(|slot| reference[slot / beats][slot % beats]);
        out.compared(checked, what);
        Ok(())
    }
}

pub fn run(args: &Args, main_start: Instant) -> Result<Outcome, String> {
    let scale = Scale::new(args.smoke);
    let mut out = Outcome::default();
    if args.trace {
        return traced(args, &scale, out);
    }
    let (mut r, setup_s) = repeated_setup(main_start, || setup(&scale, args.seed))?;
    let start = Instant::now();
    let c = r.run(&scale, &mut out, |_| start.elapsed() >= args.duration())?;
    r.check(&c, &mut out, "session verdict vs in-memory model")?;

    let windows_per_s = c.log.pushed() as f64 / c.session_s;
    let deploy_p50 = median(&c.deploy_ms);
    let deploy_p95 = percentile(&c.deploy_ms, 0.95);
    let window_p50 = median(&c.log.latency);
    let window_p99 = percentile(&c.log.latency, 0.99);
    let deploys = format!("of {} deployments", c.deploy_ms.len());
    let windows = format!("of {} windows", c.log.latency.len());
    out.report.extend([
        report_line(
            "setup_s",
            setup_s,
            "s",
            &format!("median of {SETUPS} set-ups"),
        ),
        report_line("deploy_p50_ms", deploy_p50, "ms", &deploys),
        report_line("deploy_p95_ms", deploy_p95, "ms", &deploys),
        report_line(
            "windows_per_s",
            windows_per_s,
            "windows/s",
            &format!(
                "{} windows in {:.2} s of sessions",
                c.log.pushed(),
                c.session_s
            ),
        ),
        report_line("window_p50_ms", window_p50, "ms", &windows),
        report_line("window_p99_ms", window_p99, "ms", &windows),
        format!(
            "  {} promotes, {} rollbacks, {} store epochs, {:.0} bytes per promote",
            c.promotes,
            c.rollbacks,
            c.epochs,
            c.bytes as f64 / c.promotes.max(1) as f64
        ),
    ]);
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", windows_per_s, "1/s"),
        Metric::new("op_p50_ms", deploy_p50, "ms"),
        Metric::new("op_tail_ms", deploy_p95, "ms"),
    ];
    Ok(out)
}

/// Traced run: set-up and a fixed number of cycles under spans, then the
/// same work untraced and traced again for the overhead ratio, then the
/// probe pass. Every pass's verdicts and stores are checked.
fn traced(args: &Args, scale: &Scale, mut out: Outcome) -> Result<Outcome, String> {
    let mut work = |_traced: bool| -> Result<(Rollout, Cycles), String> {
        let mut r = setup(scale, args.seed)?;
        let c = r.run(scale, &mut out, |n| n >= scale.trace_cycles)?;
        Ok((r, c))
    };
    let (pass, first) = layers::traced_pass(|| work(true))?;
    let (overhead, plain, again) = layers::overhead(&mut work)?;
    for ((r, c), what) in [
        (&first, "traced"),
        (&plain, "untraced"),
        (&again, "second traced"),
    ] {
        r.check(
            c,
            &mut out,
            &format!("{what} session verdict vs in-memory model"),
        )?;
    }

    let (r, c) = &first;
    let probe = Probe::run(&scale.pipeline, &Curvature, &r.beats)?;
    let pass = TracedPass {
        overhead,
        probe,
        stream: c.totals,
        bytes_per_deploy: c.bytes as f64 / c.promotes.max(1) as f64,
        ..pass
    };
    out.metrics = layers::metrics("rollout", &pass);
    out.report.extend(layers::report(&pass));
    out.report
        .push(layers::write_trace("rollout", args.seed, &pass)?);
    Ok(out)
}
