//! Workload `stream`: one model (default configuration, curvature +
//! iForest) fitted on a 96-beat split, promoted into a `ModelStore`,
//! installed through a `ModelRegistry` and calibrated; then a closed-loop
//! client pushes simulated beats (about 10 % abnormal, separate seed) into
//! an `OnlineScorer` one observation at a time, tumbling windows, default
//! micro-batching, exact scoring.
//!
//! Per-window smoothing, mapping and scoring plus micro-batching do all the
//! work; depth, tuning and persistence do none. Every verdict must equal
//! `FittedPipeline::score` on the same window, bit for bit.

use crate::common::{
    beat_stream, derive_seed, median, percentile, repeated_setup, report_line, Args, Metric,
    Outcome, ScratchDir, SETUPS,
};
use crate::layers::{self, Probe, StreamTotals, TracedPass};
use crate::serving::{encode, stream_config, Scale, WindowLog, CONTAMINATION};
use crate::trace::{span, span_scoring};
use mfod::fda::RawSample;
use mfod::geometry::Curvature;
use mfod::pipeline::FittedPipeline;
use mfod::snapshot::PipelineSnapshot;
use mfod_persist::{ModelRegistry, ModelStore, Snapshot};
use mfod_stream::OnlineScorer;
use std::sync::Arc;
use std::time::Instant;

/// A served model and the traffic for it.
struct Served {
    /// The in-memory model verdicts are checked against.
    fitted: Arc<FittedPipeline>,
    scorer: OnlineScorer,
    beats: Vec<RawSample>,
    _store: ModelStore,
    _dir: ScratchDir,
}

fn setup(scale: &Scale, seed: u64) -> Result<Served, String> {
    let data = scale.data(derive_seed(seed, 1))?;
    let (fitted, train) = scale.fit(&data, derive_seed(seed, 2))?;
    let dir = ScratchDir::new("stream")?;
    let (mut store, _) = span("persist.open", || ModelStore::open(dir.path()))
        .map_err(|e| format!("store open: {e}"))?;
    let bytes = encode(&fitted)?;
    span("persist.promote", || {
        store.promote_bytes(
            &bytes,
            PipelineSnapshot::KIND,
            derive_seed(seed, 3),
            "stream",
        )
    })
    .map_err(|e| format!("promote: {e}"))?;
    let registry = ModelRegistry::<FittedPipeline>::new();
    span("persist.install", || store.install_active(&registry))
        .map_err(|e| format!("install: {e}"))?;
    let served = span("persist.active", || registry.active()).ok_or("registry serves nothing")?;
    let ts = train.samples()[0].t.clone();
    let mut scorer = span("stream.new", || {
        OnlineScorer::new(served, stream_config(&ts))
    })
    .map_err(|e| format!("scorer: {e}"))?;
    span_scoring("stream.calibrate", 1, || {
        scorer.calibrate_from_samples(train.samples(), CONTAMINATION)
    })
    .map_err(|e| format!("calibrate: {e}"))?;
    let beats = span("datasets.generate", || {
        beat_stream(&scale.ecg, scale.stream_beats, derive_seed(seed, 4))
    })?;
    Ok(Served {
        fitted,
        scorer,
        beats,
        _store: store,
        _dir: dir,
    })
}

/// Pushes windows until `stop` says so, then flushes.
fn serve(s: &mut Served, log: &mut WindowLog, stop: impl Fn(usize) -> bool) -> Result<(), String> {
    let m = s.beats[0].t.len() as u64;
    let mut w = 0;
    while !stop(w) {
        let slot = w % s.beats.len();
        let beat = &s.beats[slot];
        span_scoring("stream.push", m, || {
            log.push_window(&mut s.scorer, beat, slot)
        })?;
        w += 1;
    }
    span_scoring("stream.push", 1, || log.finish(&mut s.scorer))
}

/// Checks every logged verdict against offline scores of the beats.
fn check(s: &Served, log: &WindowLog, out: &mut Outcome, what: &str) -> Result<(), String> {
    let used = (log.pushed() as usize).min(s.beats.len());
    let reference = s
        .fitted
        .score(&s.beats[..used])
        .map_err(|e| format!("reference scores: {e}"))?;
    out.attempted += log.pushed();
    out.compared(log.verify(|slot| reference[slot]), what);
    Ok(())
}

pub fn run(args: &Args, main_start: Instant) -> Result<Outcome, String> {
    let scale = Scale::new(args.smoke);
    let mut out = Outcome::default();
    if args.trace {
        return traced(args, &scale, out);
    }
    let (mut s, setup_s) = repeated_setup(main_start, || setup(&scale, args.seed))?;

    let mut log = WindowLog::new(s.beats.len());
    let start = Instant::now();
    serve(&mut s, &mut log, |_| start.elapsed() >= args.duration())?;
    let timed = start.elapsed().as_secs_f64();
    let alarms = s.scorer.stats().alarms;
    check(&s, &log, &mut out, "verdict vs FittedPipeline::score")?;

    // The tail metric is the 90th percentile: host CPU steal bursts on a
    // shared VM move the 99th by several times from run to run, so it is
    // reported but not bounded.
    let windows_per_s = log.pushed() as f64 / timed;
    let p50 = median(&log.latency);
    let p90 = percentile(&log.latency, 0.90);
    let p99 = percentile(&log.latency, 0.99);
    let samples = format!("of {} windows", log.latency.len());
    out.report.extend([
        report_line(
            "setup_s",
            setup_s,
            "s",
            &format!("median of {SETUPS} set-ups"),
        ),
        report_line(
            "windows_per_s",
            windows_per_s,
            "windows/s",
            &format!("{} windows in {timed:.2} s", log.pushed()),
        ),
        report_line("window_p50_ms", p50, "ms", &samples),
        report_line("window_p90_ms", p90, "ms", &samples),
        report_line("window_p99_ms", p99, "ms", &samples),
        report_line("alarms", alarms as f64, "count", "calibrated at 10 %"),
    ]);
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", windows_per_s, "1/s"),
        Metric::new("op_p50_ms", p50, "ms"),
        Metric::new("op_tail_ms", p90, "ms"),
    ];
    Ok(out)
}

/// Traced run: set-up and a fixed number of windows under spans, then the
/// same work untraced and traced again for the overhead ratio, then the
/// probe pass. Every pass's verdicts are checked.
fn traced(args: &Args, scale: &Scale, mut out: Outcome) -> Result<Outcome, String> {
    let work = |_traced: bool| -> Result<(Served, WindowLog), String> {
        let mut s = setup(scale, args.seed)?;
        let mut log = WindowLog::new(s.beats.len());
        serve(&mut s, &mut log, |w| w >= scale.trace_windows)?;
        Ok((s, log))
    };
    let (pass, first) = layers::traced_pass(|| work(true))?;
    let (overhead, plain, again) = layers::overhead(work)?;
    for ((s, log), what) in [
        (&first, "traced"),
        (&plain, "untraced"),
        (&again, "second traced"),
    ] {
        check(
            s,
            log,
            &mut out,
            &format!("{what} verdict vs FittedPipeline::score"),
        )?;
    }

    let mut stream = StreamTotals::default();
    stream.add(&first.0.scorer.stats());
    let beats = &first.0.beats;
    let probe = Probe::run(&scale.pipeline, &Curvature, &beats[..beats.len().min(256)])?;
    let pass = TracedPass {
        overhead,
        probe,
        stream,
        ..pass
    };
    out.metrics = layers::metrics("stream", &pass);
    out.report.extend(layers::report(&pass));
    out.report
        .push(layers::write_trace("stream", args.seed, &pass)?);
    Ok(out)
}
