//! The end-to-end pipeline of the paper: per-channel penalized smoothing →
//! geometric mapping → multivariate outlier detector.

use crate::error::MfodError;
use crate::Result;
use mfod_datasets::LabeledDataSet;
use mfod_detect::{Detector, FittedDetector};
use mfod_fda::{BasisSelector, Grid, MultiFunctionalDatum, RawSample, SelectionPlan};
use mfod_geometry::MappingFunction;
use mfod_linalg::par::{self, Pool};
use mfod_linalg::Matrix;
use std::sync::Arc;

/// Point-wise transform applied to the mapped features before they reach
/// the detector.
///
/// Curvature is heavy-tailed: wherever the smoothed path passes near a
/// stationary point, `κ = ‖X′×X″‖/‖X′‖³` can spike by orders of magnitude
/// on noise alone, and those spikes would dominate any distance-based
/// detector. A monotone compression keeps the ordering information while
/// taming the tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureTransform {
    /// Pass features through unchanged.
    None,
    /// `ln(1 + x)` — the default; sensible for non-negative heavy-tailed
    /// mappings such as curvature and speed.
    Log1p,
    /// `sign(x)·√|x|` — milder compression, defined for signed mappings.
    SignedSqrt,
    /// Clamp every value above the given quantile of the *training*
    /// feature distribution (e.g. `0.99`).
    Winsorize(f64),
}

impl FeatureTransform {
    /// Applies the transform in place. For [`FeatureTransform::Winsorize`],
    /// `cap` must be the training-set quantile (computed by the caller so
    /// that test-time transforms reuse the training cap).
    pub(crate) fn apply(&self, data: &mut [f64], cap: Option<f64>) {
        match *self {
            FeatureTransform::None => {}
            FeatureTransform::Log1p => {
                for v in data.iter_mut() {
                    *v = (1.0 + v.max(0.0)).ln();
                }
            }
            FeatureTransform::SignedSqrt => {
                for v in data.iter_mut() {
                    *v = v.signum() * v.abs().sqrt();
                }
            }
            FeatureTransform::Winsorize(_) => {
                let cap = cap.expect("winsorize cap computed at fit time");
                for v in data.iter_mut() {
                    if *v > cap {
                        *v = cap;
                    }
                }
            }
        }
    }
}

/// Configuration of the smoothing and mapping stages.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Per-channel B-spline selection (the paper chooses basis sizes by
    /// leave-one-out cross-validation, Sec. 4.1).
    pub selector: BasisSelector,
    /// Length of the common evaluation grid for the mapped UFD (the paper
    /// re-evaluates on a regular grid of the same length as the data,
    /// m = 85 for ECG200).
    pub grid_len: usize,
    /// Monotone compression of the mapped features (see
    /// [`FeatureTransform`]).
    pub transform: FeatureTransform,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        // Derivative-based mappings need *more* smoothing than prediction-
        // optimal CV selects (a classical FDA caveat: LOOCV optimizes the
        // fit to the function, not to its derivatives, and under-smoothed
        // derivatives create spurious curvature cusps near stationary
        // points). The default therefore fixes a moderate basis with a
        // meaningful roughness penalty; use a custom `selector` to
        // reproduce the pure-LOOCV protocol.
        PipelineConfig {
            selector: BasisSelector {
                sizes: vec![16],
                lambdas: vec![1e-2],
                ..Default::default()
            },
            grid_len: 85,
            transform: FeatureTransform::Log1p,
        }
    }
}

impl PipelineConfig {
    /// A cheaper configuration for tests and examples: a small basis-size
    /// ladder (heavier smoothing, appropriate for coarse grids) and a
    /// shorter evaluation grid.
    pub fn fast() -> Self {
        PipelineConfig {
            selector: BasisSelector {
                sizes: vec![6, 8],
                ..BasisSelector::default()
            },
            grid_len: 40,
            ..Default::default()
        }
    }

    /// Config invariants shared by the fit path and snapshot restore
    /// (`crate::snapshot`): a restored pipeline must never be in a state
    /// the fit path would have rejected.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.grid_len < 4 {
            return Err(MfodError::Pipeline(format!(
                "grid_len must be >= 4, got {}",
                self.grid_len
            )));
        }
        if let FeatureTransform::Winsorize(q) = self.transform {
            if !(0.0..=1.0).contains(&q) {
                return Err(MfodError::Pipeline(format!(
                    "winsorize quantile must be in [0, 1], got {q}"
                )));
            }
        }
        Ok(())
    }
}

/// The geometric-aggregation outlier detection pipeline
/// (smoother ∘ mapping ∘ detector).
#[derive(Clone)]
pub struct GeomOutlierPipeline {
    config: PipelineConfig,
    mapping: Arc<dyn MappingFunction>,
    detector: Arc<dyn Detector>,
}

impl std::fmt::Debug for GeomOutlierPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeomOutlierPipeline")
            .field("mapping", &self.mapping.name())
            .field("detector", &self.detector.name())
            .field("grid_len", &self.config.grid_len)
            .finish()
    }
}

impl GeomOutlierPipeline {
    /// Assembles a pipeline from its three stages.
    pub fn new(
        config: PipelineConfig,
        mapping: Arc<dyn MappingFunction>,
        detector: Arc<dyn Detector>,
    ) -> Self {
        GeomOutlierPipeline {
            config,
            mapping,
            detector,
        }
    }

    /// `"<detector>(<mapping>)"`, e.g. `"iforest(curvature)"` — the naming
    /// scheme of the paper's Fig. 3 legend.
    pub fn label(&self) -> String {
        format!("{}({})", self.detector.name(), self.mapping.name())
    }

    /// Smooths every channel of a raw sample with the configured selector.
    pub fn smooth_sample(&self, sample: &RawSample) -> Result<MultiFunctionalDatum> {
        smooth_sample(&self.config.selector, sample)
    }

    /// Shared smoothing + mapping loop: validates the configuration, the
    /// common observation domain and consistent channel counts, returning
    /// the raw feature matrix together with the per-channel `(size, λ)`
    /// selection votes accumulated across the batch.
    ///
    /// One [`SelectionPlan`] is built per channel group — all channels of
    /// a sample share its abscissae, so the first sample's grid plans the
    /// whole batch — and the per-(sample × channel) basis selection fans
    /// out over `pool`. Rows are reassembled in sample order and every
    /// sample observed on a different grid falls back to the uncached
    /// per-sample selection, so the output is bit-for-bit identical to
    /// the sequential unplanned loop at any pool size.
    fn raw_features_votes_on(
        &self,
        pool: &Pool,
        samples: &[RawSample],
    ) -> Result<(Matrix, Vec<SelectionVotes>)> {
        self.config.validate()?;
        if samples.is_empty() {
            return Err(MfodError::Pipeline("no samples supplied".into()));
        }
        let (a0, b0) = samples[0].domain();
        let dim = samples[0].dim();
        let grid = Grid::uniform(a0, b0, self.config.grid_len)?;
        // A plan that fails to build is not fatal here: the per-sample
        // fallback reproduces (and correctly attributes) the error on the
        // first sample it affects. `plan_shared` consults the process-wide
        // plan cache, so repeated fits on one grid (e.g. the Fig. 3
        // repetition loops) reuse a single built ladder.
        let plan = self.config.selector.plan_shared(&samples[0].t).ok();
        let rows = pool.try_map(samples.len(), |i| {
            let s = &samples[i];
            let (a, b) = s.domain();
            if !domains_match((a0, b0), (a, b)) {
                return Err(MfodError::Pipeline(format!(
                    "sample {i} domain [{a}, {b}] differs from [{a0}, {b0}]"
                )));
            }
            if s.dim() != dim {
                return Err(MfodError::Pipeline(format!(
                    "sample {i} has {} channels, expected {dim}",
                    s.dim()
                )));
            }
            let (datum, selections) =
                smooth_sample_with_plan(&self.config.selector, plan.as_deref(), s)?;
            let mapped = self.mapping.map(&datum, &grid)?;
            Ok((mapped, selections))
        })?;
        let mut out = Matrix::zeros(samples.len(), grid.len());
        let mut votes: Vec<SelectionVotes> = vec![SelectionVotes::new(); dim];
        for (i, (mapped, selections)) in rows.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(&mapped);
            for (k, sel) in selections.iter().enumerate() {
                *votes[k].entry((sel.0, sel.1.to_bits())).or_insert(0) += 1;
            }
        }
        Ok((out, votes))
    }

    /// Smooths and maps a batch into the *raw* (untransformed) feature
    /// matrix on `pool`: row `i` is the mapped UFD of sample `i` on the
    /// common grid.
    ///
    /// All samples must share the same observation domain (the paper's
    /// setting: a common interval `T`).
    pub fn raw_features_on(&self, pool: &Pool, samples: &[RawSample]) -> Result<Matrix> {
        Ok(self.raw_features_votes_on(pool, samples)?.0)
    }

    /// Like [`GeomOutlierPipeline::raw_features_on`] on the global worker
    /// pool, with the configured [`FeatureTransform`] applied (the
    /// winsorize cap, if any, comes from this same batch).
    pub fn features(&self, samples: &[RawSample]) -> Result<Matrix> {
        self.features_on(par::global(), samples)
    }

    /// [`GeomOutlierPipeline::features`] on an explicit worker pool.
    pub fn features_on(&self, pool: &Pool, samples: &[RawSample]) -> Result<Matrix> {
        let mut f = self.raw_features_on(pool, samples)?;
        let cap = self.winsorize_cap(&f);
        self.config.transform.apply(f.as_mut_slice(), cap);
        Ok(f)
    }

    fn winsorize_cap(&self, raw: &Matrix) -> Option<f64> {
        match self.config.transform {
            FeatureTransform::Winsorize(q) => {
                Some(mfod_linalg::vector::quantile(raw.as_slice(), q))
            }
            _ => None,
        }
    }

    /// Fits the detector on the mapped training samples.
    ///
    /// Besides training the detector, this records the per-channel basis
    /// selection that won most often across the training set
    /// ([`FittedPipeline::selected_bases`]). Scoring never reuses it: every
    /// sample is re-smoothed with its own cross-validated selection.
    ///
    /// The smoothing stage builds one [`SelectionPlan`] per channel group
    /// and fans the per-(sample × channel) selection out over the global
    /// worker pool; see [`GeomOutlierPipeline::fit_on`] for an explicit
    /// pool. Fitted artifacts are bit-for-bit identical at any pool size.
    pub fn fit(&self, train: &[RawSample]) -> Result<FittedPipeline> {
        self.fit_on(par::global(), train)
    }

    /// [`GeomOutlierPipeline::fit`] on an explicit worker pool.
    pub fn fit_on(&self, pool: &Pool, train: &[RawSample]) -> Result<FittedPipeline> {
        let (mut features, votes) = {
            let _span = mfod_obs::SpanTimer::start(mfod_obs::Phase::FitFeatures);
            self.raw_features_votes_on(pool, train)?
        };
        let selected = votes
            .into_iter()
            .map(|v| {
                let ((size, lambda_bits), _) = v
                    .into_iter()
                    .max_by_key(|&((size, bits), count)| {
                        // most votes; ties broken deterministically toward
                        // the smoother candidate — fewer basis functions,
                        // then the larger penalty λ (λ ≥ 0, so its bit
                        // pattern orders like the value)
                        (count, std::cmp::Reverse(size), bits)
                    })
                    .expect("at least one training sample voted");
                (size, f64::from_bits(lambda_bits))
            })
            .collect();
        let cap = self.winsorize_cap(&features);
        self.config.transform.apply(features.as_mut_slice(), cap);
        let model = {
            let _span = mfod_obs::SpanTimer::start(mfod_obs::Phase::FitDetector);
            self.detector.fit(&features)?
        };
        Ok(FittedPipeline {
            config: self.config.clone(),
            mapping: Arc::clone(&self.mapping),
            model,
            label: self.label(),
            winsorize_cap: cap,
            domain: train[0].domain(),
            selected,
        })
    }

    /// Convenience: fit on `train`, score `test`, return the test AUC.
    pub fn fit_score_auc(&self, train: &LabeledDataSet, test: &LabeledDataSet) -> Result<f64> {
        let fitted = self.fit(train.samples())?;
        let scores = fitted.score(test.samples())?;
        Ok(mfod_eval::auc(&scores, test.labels())?)
    }

    /// The mapping stage.
    pub fn mapping(&self) -> &Arc<dyn MappingFunction> {
        &self.mapping
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

/// Per-channel tally of `(basis size, λ-bits)` selections across a
/// training batch.
type SelectionVotes = std::collections::HashMap<(usize, u64), usize>;

/// Numerical tolerance for comparing observation domains against the
/// training domain `[a, b]` (see [`domains_match`]).
fn domain_tol(a: f64, b: f64) -> f64 {
    1e-9 * (b - a).abs().max(1.0)
}

/// Assembles an `n × m` feature matrix by appending the row `produce(i)`
/// yields for each sample into one flat buffer sized for the whole batch
/// up front — no zero-fill pass, no intermediate per-sample matrix.
/// Shared by [`FittedPipeline::score`] and [`FittedPipeline::par_score`]
/// so the two cannot drift apart.
fn assemble_features<R, E>(
    n: usize,
    m: usize,
    mut produce: impl FnMut(usize) -> std::result::Result<R, E>,
) -> std::result::Result<Matrix, E>
where
    R: AsRef<[f64]>,
{
    let mut data = Vec::with_capacity(n * m);
    for i in 0..n {
        data.extend_from_slice(produce(i)?.as_ref());
    }
    Ok(Matrix::from_vec(n, m, data))
}

/// Whether observation domain `got` matches `expected` up to
/// [`domain_tol`].
pub(crate) fn domains_match(expected: (f64, f64), got: (f64, f64)) -> bool {
    let (a0, b0) = expected;
    let (a, b) = got;
    let tol = domain_tol(a0, b0);
    (a - a0).abs() <= tol && (b - b0).abs() <= tol
}

/// Smooths every channel of a raw sample with cross-validated B-spline
/// selection (the paper's Sec. 4.1 procedure), shared by the pipeline and
/// its fitted form.
pub fn smooth_sample(selector: &BasisSelector, sample: &RawSample) -> Result<MultiFunctionalDatum> {
    Ok(smooth_sample_with_selection(selector, sample)?.0)
}

/// Like [`smooth_sample`], additionally reporting the winning
/// `(basis size, λ)` per channel (the fit path tallies these into
/// [`FittedPipeline::selected_bases`]).
pub fn smooth_sample_with_selection(
    selector: &BasisSelector,
    sample: &RawSample,
) -> Result<(MultiFunctionalDatum, Vec<(usize, f64)>)> {
    smooth_sample_with_plan(selector, None, sample)
}

/// [`smooth_sample_with_selection`] through an optional cached
/// [`SelectionPlan`]: channels of samples observed on the plan's grid are
/// selected against the precomputed ladder (one O(mL) pass per candidate
/// instead of a fresh O(L³) factorization), anything else falls back to
/// the uncached per-sample path. Results are bit-identical either way.
pub fn smooth_sample_with_plan(
    selector: &BasisSelector,
    plan: Option<&SelectionPlan>,
    sample: &RawSample,
) -> Result<(MultiFunctionalDatum, Vec<(usize, f64)>)> {
    let mut channels = Vec::with_capacity(sample.dim());
    let mut selections = Vec::with_capacity(sample.dim());
    for k in 0..sample.dim() {
        let (ts, ys) = sample.channel(k).expect("validated channel index");
        let fit = match plan {
            Some(plan) => selector.select_with_plan(plan, ts, ys)?,
            None => selector.select(ts, ys)?,
        };
        selections.push((fit.size, fit.lambda));
        channels.push(fit.datum);
    }
    Ok((MultiFunctionalDatum::new(channels)?, selections))
}

/// A fitted pipeline, ready to score unseen raw samples.
///
/// This is the first-class serving artifact of the workspace: it owns the
/// trained basis selection, the feature-transform state (e.g. the training
/// winsorization cap) and the fitted detector, and it is `Send + Sync`, so
/// a single `Arc<FittedPipeline>` can be shared across every scoring
/// thread of an online system (see the `mfod-stream` crate).
pub struct FittedPipeline {
    config: PipelineConfig,
    mapping: Arc<dyn MappingFunction>,
    model: Box<dyn FittedDetector>,
    label: String,
    /// Training-set winsorization cap (only for
    /// [`FeatureTransform::Winsorize`]).
    winsorize_cap: Option<f64>,
    /// Observation domain the model was trained on; scoring rejects samples
    /// from a different domain (their grid features would not be
    /// commensurable with the training features).
    domain: (f64, f64),
    /// Per-channel `(basis size, λ)` selected most often across the
    /// training set; its length is the trained channel count.
    selected: Vec<(usize, f64)>,
}

impl std::fmt::Debug for FittedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedPipeline")
            .field("label", &self.label)
            .finish()
    }
}

impl FittedPipeline {
    /// Reassembles a fitted pipeline from restored snapshot parts
    /// (`crate::snapshot` validates the parts before calling this).
    pub(crate) fn from_snapshot_parts(
        config: PipelineConfig,
        mapping: Arc<dyn MappingFunction>,
        model: Box<dyn FittedDetector>,
        label: String,
        winsorize_cap: Option<f64>,
        domain: (f64, f64),
        selected: Vec<(usize, f64)>,
    ) -> Self {
        FittedPipeline {
            config,
            mapping,
            model,
            label,
            winsorize_cap,
            domain,
            selected,
        }
    }

    /// The `"<detector>(<mapping>)"` label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The pipeline configuration the model was fitted under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The mapping stage.
    pub fn mapping(&self) -> &Arc<dyn MappingFunction> {
        &self.mapping
    }

    /// The fitted detector.
    pub fn detector(&self) -> &dyn FittedDetector {
        self.model.as_ref()
    }

    /// Observation domain the model was trained on.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// Whether samples observed on `domain` would pass this pipeline's
    /// scoring domain check (the training domain, up to the crate's
    /// numerical tolerance). Serving layers use this to reject a
    /// misconfigured stream at construction instead of on the first batch.
    pub fn accepts_domain(&self, domain: (f64, f64)) -> bool {
        domains_match(self.domain, domain)
    }

    /// Training-set winsorization cap, when the transform is
    /// [`FeatureTransform::Winsorize`].
    pub fn winsorize_cap(&self) -> Option<f64> {
        self.winsorize_cap
    }

    /// Per-channel `(basis size, λ)` chosen most often across the training
    /// set (one entry per input channel). A record of the fit, persisted
    /// in every snapshot; scoring re-selects per sample and never reads it.
    pub fn selected_bases(&self) -> &[(usize, f64)] {
        &self.selected
    }

    /// Wraps the artifact for sharing across scoring threads.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    fn check_domain(&self, samples: &[RawSample]) -> Result<Grid> {
        if samples.is_empty() {
            return Err(MfodError::Pipeline("no samples supplied".into()));
        }
        let (a0, b0) = self.domain;
        let dim = self.selected.len();
        for (i, s) in samples.iter().enumerate() {
            let (a, b) = s.domain();
            if !domains_match((a0, b0), (a, b)) {
                return Err(MfodError::Pipeline(format!(
                    "sample {i} scoring domain [{a}, {b}] differs from the training domain \
                     [{a0}, {b0}]"
                )));
            }
            if s.dim() != dim {
                return Err(MfodError::Pipeline(format!(
                    "sample {i} has {} channels, pipeline was trained on {dim}",
                    s.dim()
                )));
            }
        }
        let (a, b) = samples[0].domain();
        Ok(Grid::uniform(a, b, self.config.grid_len)?)
    }

    /// The fully transformed feature vector of one sample on `grid` —
    /// the exact quantity handed to the detector.
    fn feature_row(
        &self,
        sample: &RawSample,
        grid: &Grid,
        plan: Option<&SelectionPlan>,
    ) -> Result<Vec<f64>> {
        let (datum, _) = smooth_sample_with_plan(&self.config.selector, plan, sample)?;
        let mut mapped = self.mapping.map(&datum, grid)?;
        self.config.transform.apply(&mut mapped, self.winsorize_cap);
        Ok(mapped)
    }

    /// Builds the per-batch selection plan for scoring: one plan on the
    /// first sample's grid, shared by every sample observed on it (the
    /// others fall back per sample inside the selector). Served batches
    /// arrive on one fixed grid, so the process-wide plan cache behind
    /// `plan_shared` turns this into a lookup after the first batch.
    fn scoring_plan(&self, samples: &[RawSample]) -> Option<std::sync::Arc<SelectionPlan>> {
        self.config.selector.plan_shared(&samples[0].t).ok()
    }

    /// Smooths, maps and transforms raw samples into the detector's
    /// feature matrix, reusing the training-time transform state.
    ///
    /// The matrix is assembled by appending each feature row into one
    /// flat buffer sized for the whole batch up front — no zero-fill
    /// pass, no per-sample intermediate matrix — and the per-sample
    /// selection itself runs through the grid plan's scratch-reusing
    /// sweep, so steady-state micro-batch scoring performs no
    /// per-candidate allocations (see `SelectionPlan::select`).
    pub fn features(&self, samples: &[RawSample]) -> Result<Matrix> {
        let _span = mfod_obs::SpanTimer::start(mfod_obs::Phase::ScoreFeatures);
        let grid = self.check_domain(samples)?;
        let plan = self.scoring_plan(samples);
        assemble_features(samples.len(), grid.len(), |i| {
            self.feature_row(&samples[i], &grid, plan.as_deref())
        })
    }

    /// Scores raw samples; **higher = more outlying**.
    pub fn score(&self, samples: &[RawSample]) -> Result<Vec<f64>> {
        let features = self.features(samples)?;
        let _span = mfod_obs::SpanTimer::start(mfod_obs::Phase::ScoreDetector);
        Ok(self.model.score_batch(&features)?)
    }

    /// Scores raw samples across all available cores.
    ///
    /// Smoothing, mapping and detector scoring are all per-sample
    /// computations, so parallelizing over samples reproduces
    /// [`FittedPipeline::score`] bit for bit — this is the micro-batching
    /// entry point of `mfod-stream`.
    pub fn par_score(&self, samples: &[RawSample]) -> Result<Vec<f64>> {
        let features = {
            let _span = mfod_obs::SpanTimer::start(mfod_obs::Phase::ScoreFeatures);
            let grid = self.check_domain(samples)?;
            let plan = self.scoring_plan(samples);
            let rows = mfod_linalg::par::par_try_map(samples.len(), |i| {
                self.feature_row(&samples[i], &grid, plan.as_deref())
            })?;
            assemble_features(samples.len(), grid.len(), |i| Ok::<_, MfodError>(&rows[i]))?
        };
        let _span = mfod_obs::SpanTimer::start(mfod_obs::Phase::ScoreDetector);
        Ok(self.model.par_score_batch(&features)?)
    }

    /// Scores a single raw sample.
    pub fn score_one(&self, sample: &RawSample) -> Result<f64> {
        Ok(self.score(std::slice::from_ref(sample))?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_datasets::{EcgConfig, EcgSimulator, SplitConfig};
    use mfod_detect::IsolationForest;
    use mfod_geometry::{Curvature, Speed};

    fn ecg_bivariate(n_norm: usize, n_abn: usize, seed: u64) -> LabeledDataSet {
        EcgSimulator::new(EcgConfig {
            m: 40,
            ..Default::default()
        })
        .unwrap()
        .generate(n_norm, n_abn, seed)
        .unwrap()
        .augment_with(0, |y| y * y)
        .unwrap()
    }

    fn fast_pipeline() -> GeomOutlierPipeline {
        GeomOutlierPipeline::new(
            PipelineConfig::fast(),
            Arc::new(Curvature),
            Arc::new(IsolationForest {
                n_trees: 50,
                ..Default::default()
            }),
        )
    }

    #[test]
    fn labels_and_debug() {
        let p = fast_pipeline();
        assert_eq!(p.label(), "iforest(curvature)");
        assert!(format!("{p:?}").contains("curvature"));
        assert_eq!(p.config().grid_len, 40);
        assert_eq!(p.mapping().name(), "curvature");
    }

    #[test]
    fn features_shape() {
        let data = ecg_bivariate(10, 2, 3);
        let p = fast_pipeline();
        let f = p.features(data.samples()).unwrap();
        assert_eq!(f.shape(), (12, 40));
        assert!(f.is_finite());
    }

    #[test]
    fn fit_and_score_end_to_end() {
        let data = ecg_bivariate(36, 12, 5);
        let split = SplitConfig {
            train_size: 24,
            contamination: 0.1,
        };
        let (train, test) = split.split_datasets(&data, 1).unwrap();
        let p = fast_pipeline();
        let auc = p.fit_score_auc(&train, &test).unwrap();
        assert!(auc > 0.55, "AUC {auc}");
    }

    #[test]
    fn score_one_matches_batch() {
        let data = ecg_bivariate(12, 2, 7);
        let p = fast_pipeline();
        let fitted = p.fit(data.samples()).unwrap();
        let batch = fitted.score(data.samples()).unwrap();
        let single = fitted.score_one(&data.samples()[3]).unwrap();
        assert!((batch[3] - single).abs() < 1e-12);
        assert_eq!(fitted.label(), "iforest(curvature)");
        assert!(format!("{fitted:?}").contains("iforest"));
    }

    #[test]
    fn fitted_pipeline_is_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FittedPipeline>();
        assert_send_sync::<Arc<FittedPipeline>>();
        let data = ecg_bivariate(10, 2, 13);
        let shared = fast_pipeline().fit(data.samples()).unwrap().into_shared();
        assert_eq!(shared.selected_bases().len(), 2);
        assert!(shared
            .selected_bases()
            .iter()
            .all(|&(size, l)| size >= 4 && l >= 0.0));
        let (a, b) = shared.domain();
        assert!(a < b);
        assert_eq!(shared.detector().dim(), shared.config().grid_len);
        assert!(shared.winsorize_cap().is_none());
        // Concurrent scoring through one shared artifact.
        let scores = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    let samples = data.samples();
                    scope.spawn(move || shared.score(samples).unwrap())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(scores[0], scores[1]);
        assert_eq!(scores[1], scores[2]);
    }

    #[test]
    fn par_score_is_bit_identical_to_score() {
        let data = ecg_bivariate(18, 5, 17);
        let fitted = fast_pipeline().fit(data.samples()).unwrap();
        let seq = fitted.score(data.samples()).unwrap();
        let par = fitted.par_score(data.samples()).unwrap();
        assert_eq!(
            seq.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            par.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        let f = fitted.features(data.samples()).unwrap();
        assert_eq!(f.shape(), (23, 40));
    }

    #[test]
    fn fit_is_bit_identical_across_pool_sizes() {
        let data = ecg_bivariate(20, 6, 11);
        let (train, test) = SplitConfig {
            train_size: 16,
            contamination: 0.1,
        }
        .split_datasets(&data, 2)
        .unwrap();
        let p = fast_pipeline();
        let fitted: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&k| p.fit_on(&Pool::with_threads(k), train.samples()).unwrap())
            .collect();
        let reference = fitted[0].score(test.samples()).unwrap();
        for f in &fitted[1..] {
            assert_eq!(f.selected_bases(), fitted[0].selected_bases());
            let scores = f.score(test.samples()).unwrap();
            assert_eq!(
                reference.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mixed_grid_batch_matches_unplanned_per_sample_path() {
        // One sample on a perturbed (same-domain) grid: the plan built from
        // sample 0 cannot cover it, so it must take the per-sample fallback
        // — and the whole batch must still equal the fully unplanned loop.
        let data = ecg_bivariate(8, 2, 19);
        let mut samples = data.samples().to_vec();
        let mut warped = samples[4].t.clone();
        let last = warped.len() - 1;
        for t in &mut warped[1..last] {
            *t += 1e-4 * (*t * 37.0).sin().abs();
        }
        samples[4] = RawSample::new(warped, samples[4].channels.clone()).unwrap();
        let p = fast_pipeline();
        let planned = p.raw_features_on(par::global(), &samples).unwrap();
        // hand-rolled unplanned reference loop
        let (a, b) = samples[0].domain();
        let grid = Grid::uniform(a, b, p.config().grid_len).unwrap();
        for (i, s) in samples.iter().enumerate() {
            let (datum, _) = smooth_sample_with_selection(&p.config().selector, s).unwrap();
            let mapped = p.mapping().map(&datum, &grid).unwrap();
            for (j, v) in mapped.iter().enumerate() {
                assert_eq!(
                    planned[(i, j)].to_bits(),
                    v.to_bits(),
                    "sample {i} grid point {j}"
                );
            }
        }
        // fitting the mixed batch works and scores deterministically
        let f1 = p.fit(&samples).unwrap();
        let f2 = p.fit(&samples).unwrap();
        assert_eq!(f1.selected_bases(), f2.selected_bases());
    }

    #[test]
    fn rejects_empty_and_mismatched_domains() {
        let p = fast_pipeline();
        assert!(matches!(p.features(&[]), Err(MfodError::Pipeline(_))));
        let mut samples = ecg_bivariate(3, 0, 1).samples().to_vec();
        // stretch one sample's domain
        let stretched: Vec<f64> = samples[1].t.iter().map(|t| t * 2.0).collect();
        samples[1] = RawSample::new(stretched, samples[1].channels.clone()).unwrap();
        assert!(matches!(p.features(&samples), Err(MfodError::Pipeline(_))));
        let fitted = p.fit(ecg_bivariate(8, 0, 2).samples()).unwrap();
        assert!(fitted.score(&[]).is_err());
    }

    #[test]
    fn fit_rejects_inconsistent_channel_counts() {
        let data = ecg_bivariate(4, 0, 21);
        let mut samples = data.samples().to_vec();
        // strip the second channel from one sample
        samples[2] =
            RawSample::new(samples[2].t.clone(), vec![samples[2].channels[0].clone()]).unwrap();
        let p = fast_pipeline();
        assert!(matches!(p.fit(&samples), Err(MfodError::Pipeline(_))));
        assert!(matches!(
            p.raw_features_on(par::global(), &samples),
            Err(MfodError::Pipeline(_))
        ));
    }

    #[test]
    fn scoring_rejects_foreign_domain() {
        let data = ecg_bivariate(8, 0, 3);
        let p = fast_pipeline();
        let fitted = p.fit(data.samples()).unwrap();
        // stretch a sample's domain to [0, 2]
        let s = &data.samples()[0];
        let stretched: Vec<f64> = s.t.iter().map(|t| t * 2.0).collect();
        let foreign = RawSample::new(stretched, s.channels.clone()).unwrap();
        assert!(matches!(
            fitted.score(std::slice::from_ref(&foreign)),
            Err(MfodError::Pipeline(_))
        ));
    }

    #[test]
    fn invalid_grid_config_rejected() {
        let cfg = PipelineConfig {
            grid_len: 2,
            ..PipelineConfig::fast()
        };
        let p =
            GeomOutlierPipeline::new(cfg, Arc::new(Speed), Arc::new(IsolationForest::default()));
        let data = ecg_bivariate(4, 0, 1);
        assert!(p.features(data.samples()).is_err());
    }

    #[test]
    fn works_with_other_mappings() {
        let data = ecg_bivariate(10, 2, 9);
        let p = GeomOutlierPipeline::new(
            PipelineConfig::fast(),
            Arc::new(Speed),
            Arc::new(IsolationForest {
                n_trees: 30,
                ..Default::default()
            }),
        );
        assert_eq!(p.label(), "iforest(speed)");
        let fitted = p.fit(data.samples()).unwrap();
        let scores = fitted.score(data.samples()).unwrap();
        assert_eq!(scores.len(), 12);
    }
}
