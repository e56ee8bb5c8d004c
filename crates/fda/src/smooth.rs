//! Penalized least-squares smoothing (Eq. 3–4 of the paper) and
//! cross-validated selection of the basis size and penalty weight.
//!
//! Given observations `y_j = x(t_j) + ε_j`, the coefficient vector of the
//! basis expansion minimizes
//!
//! ```text
//! J_λ(α) = ‖y − Φα‖² + λ αᵀ R_q α
//! ```
//!
//! whose closed-form minimizer is `α* = (ΦᵀΦ + λR_q)⁻¹ Φᵀ y` — a ridge
//! regression special case solved here by Cholesky factorization.
//! Leave-one-out cross-validation is computed exactly from the hat matrix
//! (`LOOCV = Σ ((y_j − ŷ_j)/(1 − h_jj))²`), which is how the paper selects
//! basis sizes per sample and channel (Sec. 4.1).

use crate::bspline::BSplineBasis;
use crate::datum::FunctionalDatum;
use crate::error::FdaError;
use crate::selcache::SelectionPlan;
use crate::Result;
use mfod_linalg::{vector, Cholesky, Matrix};
use std::sync::Arc;

/// Model-selection criterion for [`BasisSelector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionCriterion {
    /// Exact leave-one-out cross-validation from the hat-matrix diagonal
    /// (the paper's choice).
    Loocv,
    /// Generalized cross-validation `m·RSS / (m − tr H)²` — cheaper and
    /// smoother in λ; a standard alternative.
    Gcv,
}

/// Goodness-of-fit diagnostics of a penalized least-squares fit.
#[derive(Debug, Clone)]
pub struct FitDiagnostics {
    /// Residual sum of squares on the observation points.
    pub rss: f64,
    /// Effective degrees of freedom `tr H`.
    pub df: f64,
    /// Exact leave-one-out cross-validation score.
    pub loocv: f64,
    /// Generalized cross-validation score.
    pub gcv: f64,
    /// Diagonal of the hat matrix, one entry per observation.
    pub hat_diag: Vec<f64>,
}

/// A penalized least-squares smoother for a fixed B-spline basis, penalty
/// order `q` and penalty weight `λ >= 0`.
#[derive(Clone)]
pub struct PenalizedLeastSquares {
    basis: Arc<BSplineBasis>,
    lambda: f64,
    penalty_order: usize,
    /// Cached penalty matrix `R_q` (λ-independent).
    penalty: Matrix,
}

impl std::fmt::Debug for PenalizedLeastSquares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PenalizedLeastSquares")
            .field("order", &self.basis.order())
            .field("len", &self.basis.len())
            .field("lambda", &self.lambda)
            .field("penalty_order", &self.penalty_order)
            .finish()
    }
}

impl PenalizedLeastSquares {
    /// Creates a smoother that owns its basis.
    pub fn new(basis: BSplineBasis, lambda: f64, penalty_order: usize) -> Result<Self> {
        Self::with_arc(Arc::new(basis), lambda, penalty_order)
    }

    /// Creates a smoother sharing an existing basis.
    pub fn with_arc(basis: Arc<BSplineBasis>, lambda: f64, penalty_order: usize) -> Result<Self> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(FdaError::InvalidParameter(format!(
                "lambda must be finite and >= 0, got {lambda}"
            )));
        }
        let penalty = basis.penalty(penalty_order);
        Ok(PenalizedLeastSquares {
            basis,
            lambda,
            penalty_order,
            penalty,
        })
    }

    /// The basis used by this smoother.
    pub fn basis(&self) -> &Arc<BSplineBasis> {
        &self.basis
    }

    /// Penalty weight λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Penalty derivative order `q`.
    pub fn penalty_order(&self) -> usize {
        self.penalty_order
    }

    /// Checks that `points` observations are enough to determine this
    /// smoother's system (`L` points for the unpenalized case, 2 otherwise).
    fn check_point_count(&self, points: usize) -> Result<()> {
        let l = self.basis.len();
        let need = if self.lambda == 0.0 { l } else { 2 };
        if points < need {
            return Err(if self.lambda == 0.0 && points < l {
                FdaError::BasisTooLarge {
                    basis_len: l,
                    points,
                }
            } else {
                FdaError::TooFewPoints { got: points, need }
            });
        }
        Ok(())
    }

    fn validate(&self, ts: &[f64], ys: &[f64]) -> Result<()> {
        if ts.len() != ys.len() {
            return Err(FdaError::LengthMismatch {
                t_len: ts.len(),
                y_len: ys.len(),
            });
        }
        if !vector::all_finite(ts) || !vector::all_finite(ys) {
            return Err(FdaError::NonFinite);
        }
        self.check_point_count(ts.len())
    }

    /// Assembles and factorizes the normal-equation matrix
    /// `M = ΦᵀΦ + λ R_q`, returning `(Φ, chol(M))`.
    pub(crate) fn factorize(&self, ts: &[f64]) -> Result<(Matrix, Cholesky)> {
        let phi = self.basis.design_matrix(ts, 0);
        let mut m = phi.gram();
        if self.lambda > 0.0 {
            m.axpy(self.lambda, &self.penalty);
        }
        // Jitter rescues the λ=0 / collinear-columns corner without
        // perturbing well-posed systems.
        let chol = Cholesky::new_jittered(&m, 1e-12)?;
        Ok((phi, chol))
    }

    /// Fits the basis expansion to observations `(ts, ys)`.
    pub fn fit(&self, ts: &[f64], ys: &[f64]) -> Result<FunctionalDatum> {
        self.validate(ts, ys)?;
        let (phi, chol) = self.factorize(ts)?;
        let coefs = chol.solve(&phi.tr_matvec(ys));
        FunctionalDatum::new(Arc::clone(&self.basis), coefs)
    }

    /// Fits and additionally returns exact LOOCV/GCV diagnostics.
    pub fn fit_with_diagnostics(
        &self,
        ts: &[f64],
        ys: &[f64],
    ) -> Result<(FunctionalDatum, FitDiagnostics)> {
        self.validate(ts, ys)?;
        let (phi, chol) = self.factorize(ts)?;
        let coefs = chol.solve(&phi.tr_matvec(ys));
        let hat_diag = hat_diagonal(&phi, &chol);
        let df: f64 = hat_diag.iter().sum();
        let fitted = phi.matvec(&coefs);
        let diagnostics = diagnostics_from(ys, &fitted, hat_diag, df);
        let datum = FunctionalDatum::new(Arc::clone(&self.basis), coefs)?;
        Ok((datum, diagnostics))
    }
}

/// Diagonal of the hat matrix `H = Φ M⁻¹ Φᵀ` without forming `M⁻¹`:
/// `h_jj = φ_jᵀ (LLᵀ)⁻¹ φ_j = ‖L⁻¹ φ_j‖²`, computed for **all**
/// observations in one fused forward-substitution sweep
/// ([`Cholesky::solve_lower_multi`] on `Φᵀ`) — `L` streams from memory
/// once per hat diagonal instead of once per observation. Per
/// observation the operations (ascending-order subtractions, one
/// division per row, ascending-order sum of squares) are identical to
/// the former per-column `solve_lower` + dot loop, so the diagonal is
/// bit-for-bit unchanged.
///
/// Shared by [`PenalizedLeastSquares::fit_with_diagnostics`] and the
/// y-independent precomputation of [`crate::selcache::SelectionPlan`], so
/// the planned and unplanned selection paths produce bit-identical
/// diagnostics.
pub(crate) fn hat_diagonal(phi: &Matrix, chol: &Cholesky) -> Vec<f64> {
    let z = chol.solve_lower_multi(phi.transpose());
    let mut h = vec![0.0; phi.nrows()];
    for i in 0..z.nrows() {
        for (hj, &v) in h.iter_mut().zip(z.row(i)) {
            *hj += v * v;
        }
    }
    h
}

/// RSS / LOOCV / GCV scores of a fit from its residuals and (possibly
/// precomputed) hat diagonal, without materializing a [`FitDiagnostics`]
/// — the allocation-free scoring pass [`crate::selcache::SelectionPlan`]
/// runs once per ladder candidate. `df` must be the sum of `hat_diag`.
pub(crate) fn fit_scores(ys: &[f64], fitted: &[f64], hat_diag: &[f64], df: f64) -> (f64, f64, f64) {
    let m = ys.len();
    let mut rss = 0.0;
    let mut loocv = 0.0;
    for j in 0..m {
        let r = ys[j] - fitted[j];
        rss += r * r;
        // guard h -> 1 (exact interpolation at that point)
        let denom = (1.0 - hat_diag[j]).max(1e-10);
        let lr = r / denom;
        loocv += lr * lr;
    }
    let denom = (m as f64 - df).max(1e-10);
    let gcv = m as f64 * rss / (denom * denom);
    (rss, loocv, gcv)
}

/// RSS / LOOCV / GCV from a fit's residuals and (possibly precomputed)
/// hat diagonal. `df` must be the sum of `hat_diag` (cached by the
/// selection plan; recomputed by the direct path with the same sum).
pub(crate) fn diagnostics_from(
    ys: &[f64],
    fitted: &[f64],
    hat_diag: Vec<f64>,
    df: f64,
) -> FitDiagnostics {
    let (rss, loocv, gcv) = fit_scores(ys, fitted, &hat_diag, df);
    FitDiagnostics {
        rss,
        df,
        loocv,
        gcv,
        hat_diag,
    }
}

/// Cross-validated selection of the B-spline basis size (and optionally λ),
/// mirroring the paper's per-sample, per-channel leave-one-out procedure
/// (Sec. 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct BasisSelector {
    /// Candidate basis sizes `L` (each must be >= `order`).
    pub sizes: Vec<usize>,
    /// Candidate penalty weights λ (use `[0.0]` for unpenalized fits).
    pub lambdas: Vec<f64>,
    /// Spline order `k` (4 = cubic).
    pub order: usize,
    /// Penalty derivative order `q` (2 = curvature penalty).
    pub penalty_order: usize,
    /// Score used to rank candidates.
    pub criterion: SelectionCriterion,
}

/// Outcome of a [`BasisSelector`] search.
#[derive(Debug)]
pub struct SelectionResult {
    /// The winning fitted curve.
    pub datum: FunctionalDatum,
    /// Winning basis size.
    pub size: usize,
    /// Winning penalty weight.
    pub lambda: f64,
    /// Criterion value of the winner.
    pub score: f64,
    /// Diagnostics of the winning fit.
    pub diagnostics: FitDiagnostics,
}

impl Default for BasisSelector {
    fn default() -> Self {
        // A parsimonious ladder: derivative-based mappings (curvature)
        // amplify any noise the fit retains, and large bases tracking noise
        // create spurious near-stationary points whose curvature explodes.
        // LOOCV within this ladder reproduces the paper's protocol while
        // keeping the derivatives trustworthy.
        BasisSelector {
            sizes: vec![6, 8, 10, 12],
            lambdas: vec![1e-8],
            order: 4,
            penalty_order: 2,
            criterion: SelectionCriterion::Loocv,
        }
    }
}

impl BasisSelector {
    /// Selects the best B-spline fit for a single channel observed at
    /// `(ts, ys)`; the basis domain is `[min t, max t]`.
    ///
    /// Internally this builds a single-use [`SelectionPlan`] — callers
    /// that score many curves on one shared grid should build the plan
    /// once with [`BasisSelector::plan`] and reuse it: the per-candidate
    /// design matrix, factorization and hat diagonal are y-independent,
    /// and a reused plan returns bit-identical results at a fraction of
    /// the cost.
    pub fn select(&self, ts: &[f64], ys: &[f64]) -> Result<SelectionResult> {
        if self.sizes.is_empty() || self.lambdas.is_empty() {
            return Err(FdaError::InvalidParameter(
                "selector needs at least one size and one lambda".into(),
            ));
        }
        if ts.len() != ys.len() {
            return Err(FdaError::LengthMismatch {
                t_len: ts.len(),
                y_len: ys.len(),
            });
        }
        // Reject non-finite measurements before the plan's per-candidate
        // precompute: an O(m) scan instead of a wasted ladder build.
        if !vector::all_finite(ts) || !vector::all_finite(ys) {
            return Err(FdaError::NonFinite);
        }
        SelectionPlan::build(self, ts)?.select(ys)
    }

    /// Precomputes the y-independent part of [`BasisSelector::select`] for
    /// the observation grid `ts` (see [`SelectionPlan`]).
    pub fn plan(&self, ts: &[f64]) -> Result<SelectionPlan> {
        SelectionPlan::build(self, ts)
    }

    /// [`BasisSelector::select`] through a cached [`SelectionPlan`] when
    /// it covers this selector and grid, with a per-sample fallback to the
    /// uncached path when it does not (e.g. a batch mixing observation
    /// grids). Both paths return bit-identical [`SelectionResult`]s.
    pub fn select_with_plan(
        &self,
        plan: &SelectionPlan,
        ts: &[f64],
        ys: &[f64],
    ) -> Result<SelectionResult> {
        if plan.covers(self, ts) {
            // covers() guarantees ts matches the plan's grid, so
            // plan.select's own length/finiteness validation applies.
            plan.select(ys)
        } else {
            self.select(ts, ys)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(m: usize, noise: f64) -> (Vec<f64>, Vec<f64>) {
        let ts: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        // deterministic pseudo-noise so tests are reproducible without rand
        let ys: Vec<f64> = ts
            .iter()
            .enumerate()
            .map(|(j, &t)| {
                let n = ((j as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5;
                (std::f64::consts::TAU * t).sin() + noise * n
            })
            .collect();
        (ts, ys)
    }

    #[test]
    fn interpolates_polynomial_exactly() {
        // Cubic splines with zero penalty reproduce a quadratic exactly.
        let ts: Vec<f64> = (0..20).map(|j| j as f64 / 19.0).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 1.0 + 2.0 * t - 3.0 * t * t).collect();
        let basis = BSplineBasis::uniform(0.0, 1.0, 8, 4).unwrap();
        let fit = PenalizedLeastSquares::new(basis, 0.0, 2)
            .unwrap()
            .fit(&ts, &ys)
            .unwrap();
        for &t in &[0.05, 0.33, 0.72, 0.95] {
            let expect = 1.0 + 2.0 * t - 3.0 * t * t;
            assert!((fit.eval(t) - expect).abs() < 1e-9, "t={t}");
        }
        // first derivative too: 2 - 6t
        for &t in &[0.2, 0.6] {
            assert!((fit.eval_deriv(t, 1) - (2.0 - 6.0 * t)).abs() < 1e-8);
        }
    }

    #[test]
    fn smoothing_reduces_noise() {
        let (ts, ys) = sine_data(60, 0.3);
        let basis = BSplineBasis::uniform(0.0, 1.0, 10, 4).unwrap();
        let fit = PenalizedLeastSquares::new(basis, 1e-5, 2)
            .unwrap()
            .fit(&ts, &ys)
            .unwrap();
        // fitted curve should be closer to the clean signal than the data
        let mut err_fit = 0.0;
        let mut err_data = 0.0;
        for (j, &t) in ts.iter().enumerate() {
            let clean = (std::f64::consts::TAU * t).sin();
            err_fit += (fit.eval(t) - clean).powi(2);
            err_data += (ys[j] - clean).powi(2);
        }
        // the pseudo-noise is only approximately white; any clear reduction
        // demonstrates that smoothing denoises
        assert!(err_fit < err_data * 0.8, "fit {err_fit} vs data {err_data}");
    }

    #[test]
    fn heavy_penalty_flattens_curve() {
        let (ts, ys) = sine_data(50, 0.0);
        let basis = BSplineBasis::uniform(0.0, 1.0, 12, 4).unwrap();
        // Penalizing the first derivative with a huge λ forces a constant.
        let fit = PenalizedLeastSquares::new(basis, 1e9, 1)
            .unwrap()
            .fit(&ts, &ys)
            .unwrap();
        let values: Vec<f64> = ts.iter().map(|&t| fit.eval(t)).collect();
        let spread = vector::max(&values) - vector::min(&values);
        assert!(spread < 0.05, "spread {spread}");
    }

    #[test]
    fn lambda_zero_requires_enough_points() {
        let basis = BSplineBasis::uniform(0.0, 1.0, 10, 4).unwrap();
        let s = PenalizedLeastSquares::new(basis, 0.0, 2).unwrap();
        let ts = [0.0, 0.5, 1.0];
        let ys = [0.0, 1.0, 0.0];
        assert!(matches!(
            s.fit(&ts, &ys),
            Err(FdaError::BasisTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let basis = BSplineBasis::uniform(0.0, 1.0, 5, 4).unwrap();
        let s = PenalizedLeastSquares::new(basis, 1.0, 2).unwrap();
        assert!(matches!(
            s.fit(&[0.0, 1.0], &[0.0]),
            Err(FdaError::LengthMismatch { .. })
        ));
        assert!(matches!(
            s.fit(&[0.0, f64::NAN], &[0.0, 1.0]),
            Err(FdaError::NonFinite)
        ));
        let basis = BSplineBasis::uniform(0.0, 1.0, 5, 4).unwrap();
        assert!(PenalizedLeastSquares::new(basis, -1.0, 2).is_err());
    }

    #[test]
    fn diagnostics_consistency() {
        let (ts, ys) = sine_data(40, 0.1);
        let basis = BSplineBasis::uniform(0.0, 1.0, 8, 4).unwrap();
        let s = PenalizedLeastSquares::new(basis, 1e-4, 2).unwrap();
        let (_, d) = s.fit_with_diagnostics(&ts, &ys).unwrap();
        assert!(d.rss > 0.0);
        // df is between 0 and the basis size and at most m
        assert!(d.df > 0.0 && d.df <= 8.0 + 1e-9);
        // hat diag entries in [0, 1]
        assert!(d
            .hat_diag
            .iter()
            .all(|&h| (-1e-9..=1.0 + 1e-9).contains(&h)));
        // LOOCV >= RSS (residuals are inflated by 1/(1-h))
        assert!(d.loocv >= d.rss - 1e-12);
        assert!(d.gcv > 0.0);
    }

    #[test]
    fn loocv_detects_overfitting_ladder() {
        // With pure noise, LOOCV should prefer fewer basis functions.
        let m = 40;
        let ts: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let ys: Vec<f64> = (0..m)
            .map(|j| ((j as f64 * 78.233).sin() * 43758.5453).fract() - 0.5)
            .collect();
        let score = |size: usize| {
            let basis = BSplineBasis::uniform(0.0, 1.0, size, 4).unwrap();
            let s = PenalizedLeastSquares::new(basis, 0.0, 2).unwrap();
            s.fit_with_diagnostics(&ts, &ys).unwrap().1.loocv
        };
        assert!(
            score(4) < score(30),
            "LOOCV should penalize overfitting noise"
        );
    }

    #[test]
    fn selector_picks_reasonable_size() {
        let (ts, ys) = sine_data(60, 0.15);
        let sel = BasisSelector {
            sizes: vec![4, 6, 8, 12, 20, 40],
            ..BasisSelector::default()
        };
        let r = sel.select(&ts, &ys).unwrap();
        // A single sine needs few basis functions; 40 would badly overfit.
        assert!(r.size <= 20, "selected {}", r.size);
        assert!(r.score.is_finite());
        // smooth fit should track the clean sine
        for &t in &[0.25, 0.5, 0.75] {
            let clean = (std::f64::consts::TAU * t).sin();
            assert!((r.datum.eval(t) - clean).abs() < 0.2);
        }
    }

    #[test]
    fn selector_respects_gcv_choice() {
        let (ts, ys) = sine_data(50, 0.1);
        let sel = BasisSelector {
            criterion: SelectionCriterion::Gcv,
            ..BasisSelector::default()
        };
        let r = sel.select(&ts, &ys).unwrap();
        assert!(r.score > 0.0);
    }

    #[test]
    fn selector_error_paths() {
        let sel = BasisSelector {
            sizes: vec![],
            ..BasisSelector::default()
        };
        assert!(sel.select(&[0.0, 1.0], &[0.0, 1.0]).is_err());
        let sel = BasisSelector::default();
        assert!(sel.select(&[0.0], &[0.0]).is_err());
        assert!(sel.select(&[0.0, 1.0], &[0.0]).is_err());
        // all candidates too large for the data
        let sel = BasisSelector {
            sizes: vec![50],
            ..BasisSelector::default()
        };
        assert!(sel.select(&[0.0, 0.5, 1.0], &[0.0, 1.0, 0.0]).is_err());
    }
}
