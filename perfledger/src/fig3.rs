//! Workload `fig3`: the paper's experiment. `run_fig3_on` produces the
//! whole AUC-vs-contamination table on the ECG stand-in (128 normal + 64
//! abnormal beats, m = 85, squared-series second channel), training on 96
//! beats at c = 5…25 % with every stage at its default configuration.
//! Nearly all of its time is in the depth baselines, ν tuning and detector
//! fits; it bypasses `stream` and `persist`.
//!
//! The traced run replays the same protocol step by step through the
//! per-layer calls, since `run_fig3_on` is one opaque call, and the replay
//! must reproduce the golden table bit for bit.

use crate::common::{
    ecg_beats, median, ms, percentile, repeated_setup, report_line, Args, Metric, Outcome, SETUPS,
};
use crate::golden::{self, Table};
use crate::layers::{self, Probe, TracedPass};
use crate::trace::span;
use mfod::baselines::DepthBaseline;
use mfod::datasets::{LabeledDataSet, SplitConfig};
use mfod::depth::{DirOut, FunctionalOutlierScorer, Funta};
use mfod::detect::features::Standardizer;
use mfod::detect::{Detector, FittedDetector, OcSvm};
use mfod::experiment::{run_fig3_on, Fig3Config};
use mfod::geometry::Curvature;
use mfod::pipeline::GeomOutlierPipeline;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per table in the full configuration.
const REPS: usize = 2;
/// Data variants, each with its golden table checked in; `--seed` picks
/// the first.
pub const VARIANTS: u64 = 8;

fn config(smoke: bool) -> (&'static str, Fig3Config) {
    if smoke {
        ("smoke", Fig3Config::smoke())
    } else {
        (
            "full",
            Fig3Config {
                repetitions: REPS,
                ..Default::default()
            },
        )
    }
}

fn data(cfg: &Fig3Config, variant: u64) -> Result<LabeledDataSet, String> {
    span("datasets.generate", || {
        ecg_beats(&cfg.ecg, cfg.n_normal, cfg.n_abnormal, 2020 + variant)
    })
}

fn table(cfg: &Fig3Config, data: &LabeledDataSet) -> Result<Table, String> {
    run_fig3_on(cfg, data)
        .map(|rows| golden::from_rows(&rows))
        .map_err(|e| format!("run_fig3_on: {e}"))
}

/// Golden tables for every variant of both configurations.
pub fn write_golden(path: &std::path::Path) -> Result<(), String> {
    let mut tables = BTreeMap::new();
    for smoke in [false, true] {
        let (name, cfg) = config(smoke);
        for variant in 0..VARIANTS {
            let t = table(&cfg, &data(&cfg, variant)?)?;
            tables.insert((name.to_string(), variant), t);
        }
    }
    std::fs::write(path, golden::render(&tables)).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(args: &Args, main_start: Instant) -> Result<Outcome, String> {
    let (name, cfg) = config(args.smoke);
    let first = args.seed % VARIANTS;
    let per_table = (cfg.contamination_levels.len() * cfg.repetitions) as u64;
    let mut out = Outcome::default();
    out.record.push(("fig3_first_variant", first.to_string()));
    out.record
        .push(("fig3_repetitions", cfg.repetitions.to_string()));
    if args.trace {
        let expected = golden::lookup(name, first)?;
        return traced(args.seed, &cfg, first, &expected, out);
    }
    let expected = (0..VARIANTS)
        .map(|v| golden::lookup(name, v))
        .collect::<Result<Vec<_>, String>>()?;

    // Set-up is data generation for every variant.
    let (datasets, setup_s) = repeated_setup(main_start, || {
        (0..VARIANTS)
            .map(|v| data(&cfg, v))
            .collect::<Result<Vec<_>, String>>()
    })?;

    // Table cost depends on the data, so consecutive tables cycle through
    // the variants (starting at the seed's): every run measures the same
    // mix, and the seed still decides the inputs' order.
    let mut walls: Vec<f64> = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        let v = ((first + i) % VARIANTS) as usize;
        let t0 = Instant::now();
        let result = table(&cfg, &datasets[v]);
        walls.push(ms(t0.elapsed()));
        out.attempted += per_table;
        match result {
            Ok(got) => out.compared(
                golden::mismatches(&expected[v], &got, cfg.repetitions),
                &format!("table {} (variant {v}) vs golden", walls.len()),
            ),
            Err(e) => out.fail(per_table, e),
        }
        if start.elapsed() >= args.duration() {
            break;
        }
    }
    let timed = start.elapsed().as_secs_f64();
    let table_ms = median(&walls);
    let slow_ms = percentile(&walls, 0.9);
    let reps_per_s = out.attempted as f64 / timed;
    let n = walls.len();
    out.report.extend([
        report_line(
            "setup_s",
            setup_s,
            "s",
            &format!("median of {SETUPS} set-ups"),
        ),
        report_line(
            "fig3_s",
            table_ms / 1e3,
            "s",
            &format!("median of {n} tables"),
        ),
        report_line(
            "fig3_p90_s",
            slow_ms / 1e3,
            "s",
            &format!("90th percentile of {n} tables"),
        ),
        report_line(
            "reps_per_s",
            reps_per_s,
            "1/s",
            "repetitions (level x split) per second",
        ),
    ]);
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", reps_per_s, "1/s"),
        Metric::new("op_p50_ms", table_ms, "ms"),
        Metric::new("op_tail_ms", slow_ms, "ms"),
    ];
    Ok(out)
}

/// Traced run: set-up and a step-by-step replay under spans, then the
/// same table untraced (`run_fig3_on`) and replayed under spans again for
/// the overhead ratio, then the probe pass. Every table is checked
/// against the golden one.
fn traced(
    seed: u64,
    cfg: &Fig3Config,
    variant: u64,
    expected: &Table,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let per_table = (cfg.contamination_levels.len() * cfg.repetitions) as u64;
    let work = |traced: bool| -> Result<Table, String> {
        let d = data(cfg, variant)?;
        if traced {
            replay(cfg, &d)
        } else {
            table(cfg, &d)
        }
    };
    let (pass, first) = layers::traced_pass(|| work(true))?;
    let (overhead, plain, again) = layers::overhead(work)?;
    for (got, what) in [
        (&first, "traced replay"),
        (&plain, "untraced table"),
        (&again, "second traced replay"),
    ] {
        out.attempted += per_table;
        out.compared(
            golden::mismatches(expected, got, cfg.repetitions),
            &format!("{what} vs golden"),
        );
    }

    let probe = Probe::run(&cfg.pipeline, &Curvature, data(cfg, variant)?.samples())?;
    let pass = TracedPass {
        overhead,
        probe,
        dirout_directions: first.iter().map(|l| l.dirout_attempted).sum(),
        dirout_degenerate: first.iter().map(|l| l.dirout_degenerate).sum(),
        ..pass
    };
    out.metrics = layers::metrics("fig3", &pass);
    out.report.extend(layers::report(&pass));
    out.report.push(layers::write_trace("fig3", seed, &pass)?);
    Ok(out)
}

/// `run_fig3_on`'s protocol, one public call per span. Must stay in step
/// with `crates/mfod/src/experiment.rs`: the golden check catches drift.
fn replay(cfg: &Fig3Config, data: &LabeledDataSet) -> Result<Table, String> {
    let curv_pipeline = GeomOutlierPipeline::new(
        cfg.pipeline.clone(),
        Arc::new(Curvature),
        Arc::new(cfg.iforest.clone()),
    );
    let features = span("mfod.features", || curv_pipeline.features(data.samples()))
        .map_err(|e| format!("features: {e}"))?;
    let gridded = span("mfod.gridded", || DepthBaseline::gridded(data))
        .map_err(|e| format!("gridded: {e}"))?;
    let funta = Funta::new();
    let dirout = DirOut::new();
    let all_cols: Vec<usize> = (0..features.ncols()).collect();
    let mut table = Vec::new();
    for &c in &cfg.contamination_levels {
        let split_cfg = SplitConfig {
            train_size: cfg.train_size,
            contamination: c,
        };
        let mut level = golden::Level {
            contamination: c,
            aucs: BTreeMap::new(),
            dirout_degenerate: 0,
            dirout_attempted: 0,
        };
        for r in 0..cfg.repetitions {
            let seed = cfg.split_seed + r as u64;
            let split = span("datasets.split", || split_cfg.split(data, seed))
                .map_err(|e| format!("split: {e}"))?;
            let test_labels: Vec<bool> = split
                .test_indices
                .iter()
                .map(|&i| data.labels()[i])
                .collect();
            let train_f = features.submatrix(&split.train_indices, &all_cols);
            let test_f = features.submatrix(&split.test_indices, &all_cols);
            let auc = |scores: &[f64]| {
                span("eval.auc", || mfod::eval::auc(scores, &test_labels))
                    .map_err(|e| format!("auc: {e}"))
            };

            let ifor = span("detect.iforest_fit", || cfg.iforest.fit(&train_f))
                .map_err(|e| format!("iforest fit: {e}"))?;
            let scores = span("detect.iforest_score", || ifor.score_batch(&test_f))
                .map_err(|e| format!("iforest score: {e}"))?;
            let ifor_auc = auc(&scores)?;

            let std = span("detect.standardize", || Standardizer::fit(&train_f))
                .map_err(|e| format!("standardize: {e}"))?;
            let train_z = span("detect.standardize", || std.transform(&train_f))
                .map_err(|e| format!("standardize: {e}"))?;
            let test_z = span("detect.standardize", || std.transform(&test_f))
                .map_err(|e| format!("standardize: {e}"))?;
            let selection = span("mfod.nu_tune", || cfg.nu_tuner.tune(&cfg.ocsvm, &train_z))
                .map_err(|e| format!("nu tune: {e}"))?;
            let ocsvm = OcSvm {
                nu: selection.nu,
                ..cfg.ocsvm.clone()
            };
            let model = span("detect.ocsvm_fit", || ocsvm.fit_concrete(&train_z))
                .map_err(|e| format!("ocsvm fit: {e}"))?;
            let scores = span("detect.ocsvm_score", || model.score_batch(&test_z))
                .map_err(|e| format!("ocsvm score: {e}"))?;
            let ocsvm_auc = auc(&scores)?;

            let train_g = span("mfod.gridded", || gridded.subset(&split.train_indices))
                .map_err(|e| format!("subset: {e}"))?;
            let test_g = span("mfod.gridded", || gridded.subset(&split.test_indices))
                .map_err(|e| format!("subset: {e}"))?;
            let scores = span("depth.funta", || funta.score_against(&train_g, &test_g))
                .map_err(|e| format!("funta: {e}"))?;
            let funta_auc = auc(&scores)?;
            let d = span("depth.dirout", || {
                dirout.decompose_against(&train_g, &test_g)
            })
            .map_err(|e| format!("dirout: {e}"))?;
            level.dirout_degenerate += d.degenerate_directions;
            level.dirout_attempted += d.attempted_directions;
            let dirout_auc = auc(&d.fo)?;

            for (method, value) in [
                ("iFor(Curvmap)", ifor_auc),
                ("OCSVM(Curvmap)", ocsvm_auc),
                ("FUNTA", funta_auc),
                ("Dir.out", dirout_auc),
            ] {
                level
                    .aucs
                    .entry(method.to_string())
                    .or_default()
                    .push(value.to_bits());
            }
        }
        table.push(level);
    }
    Ok(table)
}
