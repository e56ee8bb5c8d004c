//! The traced run's per-layer metrics: benchmark-side span self times
//! with call counts, the existing `mfod-obs` pool / plan-cache counters,
//! stream and persist counts, the probe pass, coverage and the tracing
//! overhead.
//!
//! Every workload reports every name (a layer a workload never calls
//! reads 0 there), so one list serves all three.

use crate::common::Metric;
use crate::trace::{self, Summary};
use mfod::fda::{Grid, MultiFunctionalDatum, RawSample};
use mfod::geometry::MappingFunction;
use mfod::pipeline::PipelineConfig;
use mfod_obs::{MetricsSnapshot, Recorder};
use std::time::{Duration, Instant};

/// Span layers, each reported as `<layer>_ms` (self time) and
/// `<layer>_calls`.
pub const SPAN_LAYERS: [&str; 26] = [
    "datasets.generate",
    "datasets.split",
    "depth.funta",
    "depth.dirout",
    "detect.iforest_fit",
    "detect.iforest_score",
    "detect.ocsvm_fit",
    "detect.ocsvm_score",
    "detect.standardize",
    "eval.auc",
    "mfod.features",
    "mfod.gridded",
    "mfod.nu_tune",
    "mfod.fit",
    "mfod.score_features",
    "mfod.score_detector",
    "persist.encode",
    "persist.promote",
    "persist.install",
    "persist.active",
    "persist.rollback",
    "persist.open",
    "persist.fsck",
    "stream.new",
    "stream.calibrate",
    "stream.push",
];

/// Mean cost of the two per-window kernels, timed call by call over the
/// workload's own windows after the traced pass (not part of coverage).
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    pub map_us: f64,
    pub select_us: f64,
}

impl Probe {
    /// `BasisSelector::select_with_plan` per (sample × channel) and
    /// `MappingFunction::map` per sample, as the pipeline configures them.
    pub fn run(
        config: &PipelineConfig,
        mapping: &dyn MappingFunction,
        samples: &[RawSample],
    ) -> Result<Probe, String> {
        let first = samples.first().ok_or("probe pass needs samples")?;
        let selector = &config.selector;
        let plan = selector
            .plan(&first.t)
            .map_err(|e| format!("probe plan: {e}"))?;
        let (a, b) = first.domain();
        let grid = Grid::uniform(a, b, config.grid_len).map_err(|e| format!("probe grid: {e}"))?;
        let (mut select, mut map, mut selects) = (Duration::ZERO, Duration::ZERO, 0u32);
        for s in samples {
            let mut channels = Vec::with_capacity(s.dim());
            for k in 0..s.dim() {
                let (ts, ys) = s.channel(k).ok_or("probe: missing channel")?;
                let t0 = Instant::now();
                let fit = selector
                    .select_with_plan(&plan, ts, ys)
                    .map_err(|e| format!("probe select: {e}"))?;
                select += t0.elapsed();
                selects += 1;
                channels.push(fit.datum);
            }
            let datum = MultiFunctionalDatum::new(channels).map_err(|e| format!("probe: {e}"))?;
            let t0 = Instant::now();
            std::hint::black_box(
                mapping
                    .map(&datum, &grid)
                    .map_err(|e| format!("probe map: {e}"))?,
            );
            map += t0.elapsed();
        }
        Ok(Probe {
            map_us: map.as_secs_f64() * 1e6 / samples.len() as f64,
            select_us: select.as_secs_f64() * 1e6 / f64::from(selects.max(1)),
        })
    }
}

/// One traced pass and the measurements that go with it.
pub struct TracedPass {
    pub summary: Summary,
    pub obs: MetricsSnapshot,
    pub wall: Duration,
    /// Traced ÷ untraced wall of the same work (see [`overhead`]).
    pub overhead: f64,
    pub probe: Probe,
    pub dirout_directions: usize,
    pub dirout_degenerate: usize,
    pub stream: StreamTotals,
    pub bytes_per_deploy: f64,
}

/// `OnlineScorer::stats` summed over the pass's scorers.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamTotals {
    pub batches: u64,
    pub windows: u64,
    pub alarms: u64,
    pub scoring: Duration,
}

impl StreamTotals {
    pub fn add(&mut self, s: &mfod_stream::StatsSnapshot) {
        self.batches += s.batches;
        self.windows += s.windows;
        self.alarms += s.alarms;
        self.scoring += s.scoring_time;
    }
}

/// Runs `work` with benchmark spans and the `mfod-obs` recorder on, then
/// turns both off again.
pub fn traced_pass<T>(work: impl FnOnce() -> Result<T, String>) -> Result<(TracedPass, T), String> {
    Recorder::install(true);
    Recorder::reset();
    trace::enable();
    let t0 = Instant::now();
    let result = work();
    let wall = t0.elapsed();
    let summary = trace::finish();
    let obs = Recorder::snapshot();
    Recorder::install(false);
    let value = result?;
    Ok((
        TracedPass {
            summary,
            obs,
            wall,
            overhead: f64::NAN,
            probe: Probe::default(),
            dirout_directions: 0,
            dirout_degenerate: 0,
            stream: StreamTotals::default(),
            bytes_per_deploy: 0.0,
        },
        value,
    ))
}

/// Tracing overhead of `work` (its argument says whether it runs traced),
/// measured after the workload's first traced pass: `work` runs once
/// untraced, then once traced, so both timed runs find the pool, the plan
/// cache and the allocator warm. Returns traced ÷ untraced wall and the
/// two runs' results, for checking.
pub fn overhead<T>(mut work: impl FnMut(bool) -> Result<T, String>) -> Result<(f64, T, T), String> {
    let t0 = Instant::now();
    let untraced = work(false)?;
    let untraced_wall = t0.elapsed();
    let (pass, traced) = traced_pass(|| work(true))?;
    Ok((
        pass.wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        untraced,
        traced,
    ))
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn metrics(workload: &str, p: &TracedPass) -> Vec<Metric> {
    let mut out = Vec::new();
    for layer in SPAN_LAYERS {
        let l = p.summary.layer(layer);
        out.push(Metric::new(format!("{layer}_ms"), ns_ms(l.self_ns), "ms"));
        out.push(Metric::new(
            format!("{layer}_calls"),
            l.calls as f64,
            "count",
        ));
    }
    let pool = &p.obs.pool;
    let plan = &p.obs.plan_cache;
    let wall_ns = p.wall.as_nanos() as u64;
    let attributed = p.summary.attributed_ns();
    let coverage = attributed as f64 / wall_ns.max(1) as f64;
    out.extend([
        Metric::new(
            "depth.dirout_directions",
            p.dirout_directions as f64,
            "count",
        ),
        Metric::new(
            "depth.dirout_degenerate",
            p.dirout_degenerate as f64,
            "count",
        ),
        Metric::new("geometry.map_us", p.probe.map_us, "us"),
        Metric::new("fda.select_us", p.probe.select_us, "us"),
        Metric::new("fda.plan_hits", plan.hits as f64, "count"),
        Metric::new("fda.plan_misses", plan.misses as f64, "count"),
        Metric::new("fda.plan_build_ms", ns_ms(plan.build.sum), "ms"),
        Metric::new("linalg.pool_maps", pool.maps as f64, "count"),
        Metric::new("linalg.pool_chunks", pool.chunks_queued as f64, "count"),
        Metric::new(
            "linalg.pool_steal_share",
            pool.caller_steal_share().unwrap_or(0.0),
            "ratio",
        ),
        Metric::new(
            "linalg.pool_queue_wait_ms",
            ns_ms(pool.queue_wait.sum),
            "ms",
        ),
        Metric::new("linalg.pool_chunk_run_ms", ns_ms(pool.chunk_run.sum), "ms"),
        Metric::new("stream.batches", p.stream.batches as f64, "count"),
        Metric::new(
            "stream.mean_batch",
            if p.stream.batches == 0 {
                0.0
            } else {
                p.stream.windows as f64 / p.stream.batches as f64
            },
            "windows",
        ),
        Metric::new(
            "stream.batch_score_ms",
            p.stream.scoring.as_secs_f64() * 1e3,
            "ms",
        ),
        Metric::new("stream.alarms", p.stream.alarms as f64, "count"),
        Metric::new("persist.bytes_per_deploy", p.bytes_per_deploy, "bytes"),
    ]);
    for w in ["fig3", "stream", "rollout"] {
        let value = if w == workload { coverage } else { 0.0 };
        out.push(Metric::new(format!("{w}.coverage"), value, "ratio"));
    }
    out.push(Metric::new(
        "unattributed_ms",
        (wall_ns as f64 - attributed as f64) / 1e6,
        "ms",
    ));
    out.push(Metric::new("obs.trace_overhead", p.overhead, "ratio"));
    out
}

/// Human-readable summary of a traced pass: coverage, the tracing
/// overhead and the layers that dominate.
pub fn report(p: &TracedPass) -> Vec<String> {
    let wall_ms = p.wall.as_secs_f64() * 1e3;
    let mut layers: Vec<(&str, trace::Layer)> =
        p.summary.layers.iter().map(|(k, v)| (*k, *v)).collect();
    layers.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    let mut out = vec![format!(
        "  traced wall {wall_ms:.1} ms, layers cover {:.1} %, tracing overhead {:.3} (warm traced / warm untraced)",
        100.0 * p.summary.attributed_ns() as f64 / (wall_ms * 1e6),
        p.overhead
    )];
    for (name, l) in layers.iter().filter(|(_, l)| l.self_ns > 0) {
        out.push(format!(
            "  {name:<22} {:>10.2} ms {:>6.1} % {:>9} calls",
            ns_ms(l.self_ns),
            100.0 * ns_ms(l.self_ns) / wall_ms,
            l.calls
        ));
    }
    out
}

/// Writes the pass's spans to `.perfledger/traces/<workload>-seed<n>.json`
/// and returns the report line naming it.
pub fn write_trace(workload: &str, seed: u64, p: &TracedPass) -> Result<String, String> {
    let dir = std::path::Path::new(".perfledger").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    p.summary
        .write_chrome(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!("  spans written to {}", path.display()))
}
