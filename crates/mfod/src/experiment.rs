//! The paper's Fig. 3 experiment: AUC versus training contamination level
//! for the two geometric pipelines — `iFor(Curvmap)`, `OCSVM(Curvmap)` —
//! against the depth baselines `FUNTA` and `Dir.out`, averaged over
//! repeated random splits.
//!
//! Protocol (Sec. 4.1):
//! 1. ECG data (`m = 85`), augmented to bivariate MFD with the squared
//!    series;
//! 2. for each contamination level `c ∈ {5, 10, 15, 20, 25}%`: draw a
//!    train/test split whose training set contains exactly `c` outliers,
//!    fit iForest and OCSVM (ν tuned by 5-fold CV) on the *mapped* training
//!    curves, score the test set and record the AUC;
//! 3. repeat 50 times per level and report mean ± std.
//!
//! Smoothing and mapping do not depend on the split, so the feature matrix
//! and the baselines' gridded dataset are computed once and the split loop
//! only refits detectors — a few orders of magnitude faster than
//! re-smoothing per repetition, with identical results.

use crate::baselines::DepthBaseline;
use crate::error::MfodError;
use crate::pipeline::{GeomOutlierPipeline, PipelineConfig};
use crate::tune::NuTuner;
use crate::Result;
use mfod_datasets::{ucr, EcgConfig, EcgSimulator, LabeledDataSet, SplitConfig};
use mfod_depth::{DirOut, FunctionalOutlierScorer, Funta};
use mfod_detect::features::Standardizer;
use mfod_detect::{Detector, IsolationForest, OcSvm};
use mfod_eval::{run_repeated, RepeatedSummary};
use mfod_geometry::Curvature;
use std::path::Path;
use std::sync::Arc;

/// Configuration of the Fig. 3 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Contamination levels to sweep (the paper: 5…25%).
    pub contamination_levels: Vec<f64>,
    /// Random splits per level (the paper: 50).
    pub repetitions: usize,
    /// Training-set size per split.
    pub train_size: usize,
    /// Normal beats generated.
    pub n_normal: usize,
    /// Abnormal beats generated.
    pub n_abnormal: usize,
    /// ECG simulator settings (`m = 85` matches ECG200).
    pub ecg: EcgConfig,
    /// Smoothing/mapping settings.
    pub pipeline: PipelineConfig,
    /// iForest settings.
    pub iforest: IsolationForest,
    /// OCSVM template (ν is overridden by the tuner).
    pub ocsvm: OcSvm,
    /// ν tuner (5-fold CV, Sec. 4.3).
    pub nu_tuner: NuTuner,
    /// Seed for the dataset generation.
    pub data_seed: u64,
    /// Base seed for the split repetitions.
    pub split_seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            contamination_levels: vec![0.05, 0.10, 0.15, 0.20, 0.25],
            repetitions: 50,
            train_size: 96,
            n_normal: 128,
            n_abnormal: 64,
            ecg: EcgConfig::default(),
            pipeline: PipelineConfig::default(),
            iforest: IsolationForest::default(),
            ocsvm: OcSvm::default(),
            nu_tuner: NuTuner::default(),
            data_seed: 2020,
            split_seed: 38,
        }
    }
}

impl Fig3Config {
    /// A much smaller configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        Fig3Config {
            contamination_levels: vec![0.10, 0.25],
            repetitions: 3,
            train_size: 30,
            n_normal: 40,
            n_abnormal: 20,
            ecg: EcgConfig {
                m: 40,
                ..Default::default()
            },
            pipeline: PipelineConfig::fast(),
            iforest: IsolationForest {
                n_trees: 50,
                ..Default::default()
            },
            nu_tuner: NuTuner {
                folds: 3,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// One row of the Fig. 3 result: a contamination level with the
/// per-method AUC summaries.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The contamination level `c`.
    pub contamination: f64,
    /// AUC mean ± std per method.
    pub summary: RepeatedSummary,
    /// `Dir.out` projection directions that degenerated (zero MAD of the
    /// projected reference cloud), summed over the level's repetitions —
    /// the direction-budget collapse signal of
    /// [`mfod_depth::dirout::DirOutScores::degenerate_directions`].
    pub dirout_degenerate: usize,
    /// Total `Dir.out` directions attempted across the level's
    /// repetitions, as reported by the projection layer
    /// ([`mfod_depth::dirout::DirOutScores::attempted_directions`]); the
    /// denominator for [`Fig3Row::dirout_degenerate`].
    pub dirout_direction_budget: usize,
}

/// Runs the full Fig. 3 experiment.
pub fn run_fig3(cfg: &Fig3Config) -> Result<Vec<Fig3Row>> {
    // 1. data: ECG beats, augmented with the squared series (Sec. 4.1)
    let data = EcgSimulator::new(cfg.ecg.clone())?
        .generate(cfg.n_normal, cfg.n_abnormal, cfg.data_seed)?
        .augment_with(0, |y| y * y)?;
    run_fig3_on(cfg, &data)
}

/// Pools a UCR-archive train/test pair — ECG200's `ECG200_TRAIN` and
/// `ECG200_TEST`, say — into one data set for [`run_fig3_on`], which draws
/// its own splits from the pool: label `-1` marks an outlier, and each
/// curve is augmented with its squared series (Sec. 4.1), as [`run_fig3`]
/// does for the simulated beats.
pub fn load_ucr_pair(train: &Path, test: &Path) -> Result<LabeledDataSet> {
    let (mut samples, mut labels) = (Vec::new(), Vec::new());
    for path in [train, test] {
        let part = ucr::load_ucr_file(path, "-1")?;
        samples.extend_from_slice(part.samples());
        labels.extend_from_slice(part.labels());
    }
    Ok(LabeledDataSet::new(samples, labels)?.augment_with(0, |y| y * y)?)
}

/// Runs the Fig. 3 protocol on externally supplied (already augmented)
/// data — e.g. the real ECG200 pooled by [`load_ucr_pair`].
pub fn run_fig3_on(cfg: &Fig3Config, data: &LabeledDataSet) -> Result<Vec<Fig3Row>> {
    // 2. split-independent precomputation
    let curv_pipeline = GeomOutlierPipeline::new(
        cfg.pipeline.clone(),
        Arc::new(Curvature),
        Arc::new(cfg.iforest.clone()),
    );
    let features = curv_pipeline.features(data.samples())?;
    let gridded = DepthBaseline::gridded(data)?;
    let funta = Funta::new();
    let dirout = DirOut::new();
    let all_cols: Vec<usize> = (0..features.ncols()).collect();

    let mut rows = Vec::with_capacity(cfg.contamination_levels.len());
    for &c in &cfg.contamination_levels {
        let split_cfg = SplitConfig {
            train_size: cfg.train_size,
            contamination: c,
        };
        let mut dirout_degenerate = 0usize;
        let mut dirout_direction_budget = 0usize;
        let summary = run_repeated(cfg.repetitions, cfg.split_seed, |seed| {
            let split = split_cfg.split(data, seed).map_err(MfodError::from)?;
            let test_labels: Vec<bool> = split
                .test_indices
                .iter()
                .map(|&i| data.labels()[i])
                .collect();
            let train_f = features.submatrix(&split.train_indices, &all_cols);
            let test_f = features.submatrix(&split.test_indices, &all_cols);

            // iFor(Curvmap)
            let ifor = cfg.iforest.fit(&train_f).map_err(MfodError::from)?;
            let ifor_auc = mfod_eval::auc(
                &ifor.score_batch(&test_f).map_err(MfodError::from)?,
                &test_labels,
            )
            .map_err(MfodError::from)?;

            // OCSVM(Curvmap), ν tuned by k-fold self-consistency CV;
            // features standardized with training statistics (the RBF
            // kernel is distance-based, unlike the scale-free iForest)
            let std = Standardizer::fit(&train_f).map_err(MfodError::from)?;
            let train_z = std.transform(&train_f).map_err(MfodError::from)?;
            let test_z = std.transform(&test_f).map_err(MfodError::from)?;
            let (_, ocsvm) = cfg.nu_tuner.tune_and_fit(&cfg.ocsvm, &train_z)?;
            let ocsvm_auc = mfod_eval::auc(
                &ocsvm.score_batch(&test_z).map_err(MfodError::from)?,
                &test_labels,
            )
            .map_err(MfodError::from)?;

            // depth baselines, fit on the training reference (so that
            // training contamination affects them exactly as it affects the
            // detector-based pipelines)
            let train_g = gridded
                .subset(&split.train_indices)
                .map_err(MfodError::from)?;
            let test_g = gridded
                .subset(&split.test_indices)
                .map_err(MfodError::from)?;
            let funta_scores = funta
                .score_against(&train_g, &test_g)
                .map_err(MfodError::from)?;
            let funta_auc = mfod_eval::auc(&funta_scores, &test_labels).map_err(MfodError::from)?;
            let dirout_scores = dirout
                .decompose_against(&train_g, &test_g)
                .map_err(MfodError::from)?;
            dirout_degenerate += dirout_scores.degenerate_directions;
            dirout_direction_budget += dirout_scores.attempted_directions;
            let dirout_auc =
                mfod_eval::auc(&dirout_scores.fo, &test_labels).map_err(MfodError::from)?;

            Ok::<_, MfodError>(vec![
                ("iFor(Curvmap)".to_string(), ifor_auc),
                ("OCSVM(Curvmap)".to_string(), ocsvm_auc),
                ("FUNTA".to_string(), funta_auc),
                ("Dir.out".to_string(), dirout_auc),
            ])
        })?;
        rows.push(Fig3Row {
            contamination: c,
            summary,
            dirout_degenerate,
            dirout_direction_budget,
        });
    }
    Ok(rows)
}

/// Renders the Fig. 3 result as the text analogue of the paper's plot:
/// one row per contamination level, one column per method (mean ± std).
pub fn format_fig3(rows: &[Fig3Row]) -> String {
    let methods = ["Dir.out", "FUNTA", "iFor(Curvmap)", "OCSVM(Curvmap)"];
    let mut out = String::from("AUC vs. contamination level (mean ± std)\n");
    out.push_str(&format!("{:>6}", "c"));
    for m in &methods {
        out.push_str(&format!("  {m:>16}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:>5.0}%", row.contamination * 100.0));
        for m in &methods {
            match row.summary.get(m) {
                Some(s) => out.push_str(&format!("  {:>8.3} ± {:>5.3}", s.mean, s.std)),
                None => out.push_str(&format!("  {:>16}", "—")),
            }
        }
        out.push('\n');
    }
    // Direction-budget health of the Dir.out baseline: a large degenerate
    // share means the projection supremum was estimated from far fewer
    // directions than configured and its AUC column should be read with
    // suspicion.
    out.push_str("\nDir.out direction budget (degenerate / attempted):\n");
    for row in rows {
        let pct = if row.dirout_direction_budget == 0 {
            0.0
        } else {
            100.0 * row.dirout_degenerate as f64 / row.dirout_direction_budget as f64
        };
        out.push_str(&format!(
            "{:>5.0}%  {} / {} ({pct:.2}% degenerate)\n",
            row.contamination * 100.0,
            row.dirout_degenerate,
            row.dirout_direction_budget,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_methods() {
        let cfg = Fig3Config::smoke();
        let rows = run_fig3(&cfg).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.summary.repetitions, 3);
            for m in ["iFor(Curvmap)", "OCSVM(Curvmap)", "FUNTA", "Dir.out"] {
                let s = row.summary.get(m).unwrap_or_else(|| panic!("missing {m}"));
                assert!(
                    (0.0..=1.0).contains(&s.mean),
                    "{m} mean {} out of range",
                    s.mean
                );
                assert!(s.std >= 0.0);
            }
        }
    }

    #[test]
    fn formatting_contains_all_columns() {
        let cfg = Fig3Config::smoke();
        let rows = run_fig3(&cfg).unwrap();
        let text = format_fig3(&rows);
        assert!(text.contains("iFor(Curvmap)"));
        assert!(text.contains("OCSVM(Curvmap)"));
        assert!(text.contains("FUNTA"));
        assert!(text.contains("Dir.out"));
        assert!(text.contains("10%"));
        assert!(text.contains("25%"));
        assert!(text.contains("direction budget"));
        for row in &rows {
            assert!(row.dirout_direction_budget > 0);
            assert!(row.dirout_degenerate <= row.dirout_direction_budget);
        }
    }

    #[test]
    fn geometric_pipeline_beats_baselines_on_average() {
        // The paper's headline claim, on a reduced-but-meaningful setup.
        let cfg = Fig3Config {
            repetitions: 3,
            contamination_levels: vec![0.10],
            train_size: 40,
            n_normal: 60,
            n_abnormal: 30,
            ecg: EcgConfig {
                m: 50,
                ..Default::default()
            },
            pipeline: PipelineConfig {
                selector: mfod_fda::BasisSelector {
                    sizes: vec![12],
                    lambdas: vec![1e-2],
                    ..Default::default()
                },
                grid_len: 50,
                ..Default::default()
            },
            iforest: IsolationForest {
                n_trees: 100,
                ..Default::default()
            },
            nu_tuner: NuTuner {
                folds: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let rows = run_fig3(&cfg).unwrap();
        let s = &rows[0].summary;
        let ifor = s.get("iFor(Curvmap)").unwrap().mean;
        let funta = s.get("FUNTA").unwrap().mean;
        assert!(
            ifor > funta - 0.05,
            "iFor(Curvmap) {ifor} should not lose clearly to FUNTA {funta}"
        );
    }
}
