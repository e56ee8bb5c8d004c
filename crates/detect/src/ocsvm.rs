//! ν-One-Class SVM (Schölkopf et al., *Neural Computation* 2001), solved by
//! sequential minimal optimization (SMO).
//!
//! The dual problem is
//!
//! ```text
//! min_α ½ αᵀ Q α    s.t.  0 <= α_i <= 1/(νn),  Σ α_i = 1
//! ```
//!
//! with `Q_ij = K(x_i, x_j)`. The decision function is
//! `f(x) = Σ_i α_i K(x_i, x) − ρ`, negative for outliers; ν upper-bounds the
//! training outlier fraction and lower-bounds the support-vector fraction.
//! We report the outlyingness score `ρ − Σ α K(x_i, x)` (higher = more
//! outlying), so thresholding at 0 recovers the usual decision rule.
//!
//! The SMO solver picks the maximally violating pair (the pair that most
//! violates dual feasibility), performs the exact two-variable update, and
//! stops when the duality gap proxy `max_{I_low} g − min_{I_up} g` falls
//! under `tol` — the textbook LIBSVM scheme specialized to the one-class
//! objective (no labels, no linear term).

use crate::error::DetectError;
use crate::features::validate_features;
use crate::kernel::Kernel;
use crate::{Detector, FittedDetector, Result};
use mfod_linalg::par::{self, Pool};
use mfod_linalg::{vector, Matrix};

/// Training sizes below this run the SMO scans sequentially: per-iteration
/// pool dispatch only pays off once the O(n) pair search and gradient
/// update dominate the synchronization cost.
const SMO_PAR_MIN: usize = 512;

/// Fixed chunk length for the parallel SMO scans. The chunk grid depends
/// only on `n` — never on the pool's thread count — so per-chunk partial
/// results and their in-order reduction are identical at any pool size,
/// which is what makes the parallel fit **bit-for-bit** equal to the
/// sequential one.
const SMO_CHUNK: usize = 256;

/// How the RBF bandwidth γ is chosen when the kernel is not given
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GammaSpec {
    /// Fixed value.
    Fixed(f64),
    /// Median heuristic: `γ = 1 / (2 · median(‖x_i − x_j‖²))` over a
    /// subsample of pairs — scale-free and robust.
    Median,
    /// `γ = 1 / (d · Var(X))` (the scikit-learn `"scale"` rule).
    Scale,
}

/// ν-one-class SVM configuration.
#[derive(Debug, Clone)]
pub struct OcSvm {
    /// ν ∈ (0, 1]: upper bound on the training outlier fraction and lower
    /// bound on the support-vector fraction.
    pub nu: f64,
    /// Kernel; `None` selects RBF with [`OcSvm::gamma`].
    pub kernel: Option<Kernel>,
    /// Bandwidth rule used when `kernel` is `None`.
    pub gamma: GammaSpec,
    /// SMO stopping tolerance on the maximal KKT violation.
    pub tol: f64,
    /// Iteration budget for the SMO loop.
    pub max_iter: usize,
}

impl Default for OcSvm {
    fn default() -> Self {
        OcSvm {
            nu: 0.1,
            kernel: None,
            gamma: GammaSpec::Median,
            tol: 1e-6,
            max_iter: 100_000,
        }
    }
}

impl OcSvm {
    /// OCSVM with the given ν and default (median-heuristic RBF) kernel.
    pub fn with_nu(nu: f64) -> Result<Self> {
        if !(0.0 < nu && nu <= 1.0) {
            return Err(DetectError::InvalidParameter(format!(
                "nu must be in (0, 1], got {nu}"
            )));
        }
        Ok(OcSvm {
            nu,
            ..Default::default()
        })
    }

    /// Resolves the kernel for a given training set.
    fn resolve_kernel(&self, train: &Matrix) -> Result<Kernel> {
        if let Some(k) = self.kernel {
            if !k.is_valid() {
                return Err(DetectError::InvalidParameter(format!(
                    "invalid kernel {k:?}"
                )));
            }
            return Ok(k);
        }
        let gamma = match self.gamma {
            GammaSpec::Fixed(g) => g,
            GammaSpec::Median => median_heuristic_gamma(train),
            GammaSpec::Scale => scale_gamma(train),
        };
        if !(gamma > 0.0 && gamma.is_finite()) {
            return Err(DetectError::InvalidParameter(format!(
                "resolved gamma {gamma} is invalid (degenerate data?)"
            )));
        }
        Ok(Kernel::Rbf { gamma })
    }
}

/// Median-of-pairwise-squared-distances bandwidth
/// `γ = 1 / (2 · median ‖x_i − x_j‖²)`, on at most ~2000 deterministic
/// pairs for large n.
pub fn median_heuristic_gamma(x: &Matrix) -> f64 {
    let n = x.nrows();
    if n < 2 {
        return 1.0;
    }
    let mut d2 = Vec::new();
    // stride so the number of pairs stays bounded
    let max_pairs = 2000usize;
    let total_pairs = n * (n - 1) / 2;
    let stride = (total_pairs / max_pairs).max(1);
    let mut c = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if c.is_multiple_of(stride) {
                let v = vector::dist2_sq(x.row(i), x.row(j));
                if v > 0.0 {
                    d2.push(v);
                }
            }
            c += 1;
        }
    }
    if d2.is_empty() {
        return 1.0;
    }
    1.0 / (2.0 * vector::median(&d2))
}

/// `γ = 1/(d · Var)` with the pooled per-column variance.
pub fn scale_gamma(x: &Matrix) -> f64 {
    let d = x.ncols();
    let mut var = 0.0;
    for j in 0..d {
        let col = x.col(j);
        let v = vector::variance_pop(&col);
        if v.is_finite() {
            var += v;
        }
    }
    var /= d as f64;
    if var <= 0.0 {
        1.0
    } else {
        1.0 / (d as f64 * var)
    }
}

/// A fitted one-class SVM.
#[derive(Debug, Clone)]
pub struct FittedOcSvm {
    pub(crate) kernel: Kernel,
    /// Support vectors (rows).
    pub(crate) support: Matrix,
    /// Dual coefficients of the support vectors.
    pub(crate) alpha: Vec<f64>,
    /// Offset ρ.
    pub(crate) rho: f64,
    pub(crate) dim: usize,
    /// Fraction of training points that ended up support vectors.
    pub(crate) sv_fraction: f64,
}

impl FittedOcSvm {
    /// The offset ρ of the decision function.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Number of support vectors.
    pub fn n_support(&self) -> usize {
        self.alpha.len()
    }

    /// Fraction of the training set retained as support vectors.
    pub fn sv_fraction(&self) -> f64 {
        self.sv_fraction
    }

    /// Signed decision value `f(x) = Σ α K − ρ` (negative ⇒ outlier).
    pub fn decision(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.dim {
            return Err(DetectError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        if !vector::all_finite(x) {
            return Err(DetectError::NonFinite);
        }
        let mut s = 0.0;
        for (i, &a) in self.alpha.iter().enumerate() {
            s += a * self.kernel.eval(self.support.row(i), x);
        }
        Ok(s - self.rho)
    }
}

/// Per-chunk partial result of the maximal-violating-pair scan.
#[derive(Clone, Copy)]
struct PairScan {
    i_up: usize,
    g_up: f64,
    j_low: usize,
    g_low: f64,
}

impl PairScan {
    fn empty() -> Self {
        PairScan {
            i_up: usize::MAX,
            g_up: f64::INFINITY,
            j_low: usize::MAX,
            g_low: f64::NEG_INFINITY,
        }
    }

    /// Scans `lo..hi` with the exact strict comparisons of the sequential
    /// loop, so the chunk winner is the *earliest* index attaining the
    /// chunk extremum — the property the in-order reduction relies on.
    fn scan(lo: usize, hi: usize, g: &[f64], alpha: &[f64], c: f64, eps_box: f64) -> Self {
        let mut p = PairScan::empty();
        for t in lo..hi {
            if alpha[t] < c - eps_box && g[t] < p.g_up {
                p.g_up = g[t];
                p.i_up = t;
            }
            if alpha[t] > eps_box && g[t] > p.g_low {
                p.g_low = g[t];
                p.j_low = t;
            }
        }
        p
    }

    /// Folds a later chunk into `self` with the same strict comparisons:
    /// an exact tie keeps the earlier chunk's index, exactly as one
    /// sequential left-to-right scan would.
    fn merge(&mut self, later: &PairScan) {
        if later.g_up < self.g_up {
            self.g_up = later.g_up;
            self.i_up = later.i_up;
        }
        if later.g_low > self.g_low {
            self.g_low = later.g_low;
            self.j_low = later.j_low;
        }
    }
}

impl OcSvm {
    /// Fits and returns the concrete model (exposing ρ, support vectors and
    /// the SV fraction, which the ν-tuning in `mfod-eval` inspects), on
    /// the global worker pool — see [`OcSvm::fit_concrete_on`].
    pub fn fit_concrete(&self, train: &Matrix) -> Result<FittedOcSvm> {
        self.fit_concrete_on(par::global(), train)
    }

    /// [`OcSvm::fit_concrete`] on an explicit worker pool: the one-ν case
    /// of [`OcSvm::fit_nus_on`].
    ///
    /// The Gram matrix assembles one upper-triangular row stripe per
    /// training point across the pool, and for `n >= 512` the SMO pair
    /// search and gradient update fan out over fixed-size 256-element
    /// chunks. Every parallel path reduces its partial
    /// results in index order with the same strict comparisons as the
    /// sequential loop, so the fitted model — support vectors, dual
    /// coefficients, ρ — is **bit-for-bit identical** at any pool size.
    pub fn fit_concrete_on(&self, pool: &Pool, train: &Matrix) -> Result<FittedOcSvm> {
        let mut fits = self.fit_nus_on(pool, train, &[self.nu])?;
        fits.pop().expect("one fit per ν")
    }

    /// Fits one model per ν in `nus` (`self.nu` is not used) on a single
    /// kernel stage: γ and the Gram matrix depend only on `train`, so
    /// they are resolved once and every ν runs only its own SMO solve.
    /// Each model is bit for bit the one [`OcSvm::fit_concrete_on`]
    /// returns for that ν.
    ///
    /// The outer error belongs to the shared stage (invalid features, a
    /// ν outside `(0, 1]`, an invalid kernel); each inner one to its ν's
    /// solve (an exhausted iteration budget).
    pub fn fit_nus_on(
        &self,
        pool: &Pool,
        train: &Matrix,
        nus: &[f64],
    ) -> Result<Vec<Result<FittedOcSvm>>> {
        self.fit_nus_with(pool, train, nus, SMO_PAR_MIN)
    }

    /// [`OcSvm::fit_nus_on`] with an explicit parallelism threshold so
    /// tests can pin both the chunked (`par_min = 0`) and the sequential
    /// (`par_min = usize::MAX`) inner loops onto the same problem and
    /// assert bit parity between them.
    fn fit_nus_with(
        &self,
        pool: &Pool,
        train: &Matrix,
        nus: &[f64],
        par_min: usize,
    ) -> Result<Vec<Result<FittedOcSvm>>> {
        validate_features(train, 2)?;
        if let Some(nu) = nus.iter().find(|&&nu| !(0.0 < nu && nu <= 1.0)) {
            return Err(DetectError::InvalidParameter(format!(
                "nu must be in (0, 1], got {nu}"
            )));
        }
        let stage = KernelStage::new(pool, self.resolve_kernel(train)?, train);
        Ok(nus
            .iter()
            .map(|&nu| stage.solve(pool, nu, self.tol, self.max_iter, par_min))
            .collect())
    }
}

/// The ν-independent half of a fit: one training set, its resolved
/// kernel and its Gram matrix `Q_ij = K(x_i, x_j)`.
struct KernelStage<'a> {
    train: &'a Matrix,
    kernel: Kernel,
    q: Matrix,
}

impl<'a> KernelStage<'a> {
    fn new(pool: &Pool, kernel: Kernel, train: &'a Matrix) -> Self {
        let n = train.nrows();
        // Gram matrix: upper-triangular row stripes, mirrored afterwards.
        // Stripe i costs n − i kernel evaluations, so contiguous chunks of
        // stripes would be badly imbalanced; pairing stripe k with stripe
        // n−1−k makes every map item cost n + 1 evaluations. Each entry
        // is still the same single kernel evaluation the sequential
        // assembly performed.
        let stripe = |i: usize| {
            let row_i = train.row(i);
            (i..n)
                .map(|j| kernel.eval(row_i, train.row(j)))
                .collect::<Vec<f64>>()
        };
        let pairs = pool.map(n.div_ceil(2), |k| {
            let mirror = n - 1 - k;
            (stripe(k), (mirror > k).then(|| stripe(mirror)))
        });
        let mut q = Matrix::zeros(n, n);
        let mut fill = |i: usize, s: Vec<f64>| {
            for (off, v) in s.into_iter().enumerate() {
                let j = i + off;
                q[(i, j)] = v;
                q[(j, i)] = v;
            }
        };
        for (k, (first, second)) in pairs.into_iter().enumerate() {
            fill(k, first);
            if let Some(s) = second {
                fill(n - 1 - k, s);
            }
        }
        KernelStage { train, kernel, q }
    }

    /// The SMO stage for one ν on this stage's Gram matrix.
    fn solve(
        &self,
        pool: &Pool,
        nu: f64,
        tol: f64,
        max_iter: usize,
        par_min: usize,
    ) -> Result<FittedOcSvm> {
        let (train, q) = (self.train, &self.q);
        let n = train.nrows();
        let c = 1.0 / (nu * n as f64);
        // Feasible start: fill ⌊1/C⌋ entries at the box bound, remainder on
        // the next one, so Σα = 1 and 0 <= α <= C.
        let mut alpha = vec![0.0; n];
        let full = (nu * n as f64).floor() as usize;
        for a in alpha.iter_mut().take(full.min(n)) {
            *a = c;
        }
        if full < n {
            alpha[full] = 1.0 - full as f64 * c;
        }
        // gradient g = Qα
        let mut g = q.matvec(&alpha);
        let mut iterations = 0;
        let eps_box = c * 1e-12;
        let chunked = n >= par_min;
        let chunks = n.div_ceil(SMO_CHUNK);
        loop {
            // maximal violating pair
            let pair = if chunked {
                let partials = pool.map(chunks, |ch| {
                    let lo = ch * SMO_CHUNK;
                    let hi = (lo + SMO_CHUNK).min(n);
                    PairScan::scan(lo, hi, &g, &alpha, c, eps_box)
                });
                let mut acc = PairScan::empty();
                for p in &partials {
                    acc.merge(p);
                }
                acc
            } else {
                PairScan::scan(0, n, &g, &alpha, c, eps_box)
            };
            let (i_up, g_up, j_low, g_low) = (pair.i_up, pair.g_up, pair.j_low, pair.g_low);
            if i_up == usize::MAX || j_low == usize::MAX || g_low - g_up < tol {
                break;
            }
            if iterations >= max_iter {
                return Err(DetectError::NoConvergence {
                    algorithm: "ocsvm-smo",
                    iterations,
                });
            }
            iterations += 1;
            let (i, j) = (i_up, j_low);
            let eta = (q[(i, i)] + q[(j, j)] - 2.0 * q[(i, j)]).max(1e-12);
            // unconstrained optimal step along e_i − e_j, then clip to box
            let mut delta = (g[j] - g[i]) / eta;
            delta = delta.min(c - alpha[i]).min(alpha[j]);
            if delta <= 0.0 {
                break; // numerically stuck: the pair cannot move
            }
            alpha[i] += delta;
            alpha[j] -= delta;
            // rank-one gradient update: every element is an independent
            // `g[t] + δ(Q_ti − Q_tj)`, so chunked evaluation reproduces
            // the in-place loop exactly
            if chunked {
                let updates = pool.map(chunks, |ch| {
                    let lo = ch * SMO_CHUNK;
                    let hi = (lo + SMO_CHUNK).min(n);
                    (lo..hi)
                        .map(|t| g[t] + delta * (q[(t, i)] - q[(t, j)]))
                        .collect::<Vec<f64>>()
                });
                for (ch, seg) in updates.into_iter().enumerate() {
                    let lo = ch * SMO_CHUNK;
                    g[lo..lo + seg.len()].copy_from_slice(&seg);
                }
            } else {
                for t in 0..n {
                    g[t] += delta * (q[(t, i)] - q[(t, j)]);
                }
            }
        }
        // ρ: average decision value over free support vectors; fall back to
        // the midpoint of the bound gradients when none is strictly free.
        let mut rho_sum = 0.0;
        let mut rho_cnt = 0usize;
        for t in 0..n {
            if alpha[t] > eps_box && alpha[t] < c - eps_box {
                rho_sum += g[t];
                rho_cnt += 1;
            }
        }
        let rho = if rho_cnt > 0 {
            rho_sum / rho_cnt as f64
        } else {
            let mut lo = f64::NEG_INFINITY;
            let mut hi = f64::INFINITY;
            for t in 0..n {
                if alpha[t] > eps_box {
                    lo = lo.max(g[t]);
                }
                if alpha[t] < c - eps_box {
                    hi = hi.min(g[t]);
                }
            }
            match (lo.is_finite(), hi.is_finite()) {
                (true, true) => 0.5 * (lo + hi),
                (true, false) => lo,
                (false, true) => hi,
                (false, false) => 0.0,
            }
        };
        // retain support vectors only
        let sv_idx: Vec<usize> = (0..n).filter(|&t| alpha[t] > eps_box).collect();
        let all_cols: Vec<usize> = (0..train.ncols()).collect();
        let support = train.submatrix(&sv_idx, &all_cols);
        let sv_alpha: Vec<f64> = sv_idx.iter().map(|&t| alpha[t]).collect();
        Ok(FittedOcSvm {
            kernel: self.kernel,
            support,
            alpha: sv_alpha,
            rho,
            dim: train.ncols(),
            sv_fraction: sv_idx.len() as f64 / n as f64,
        })
    }
}

impl Detector for OcSvm {
    fn name(&self) -> &'static str {
        "ocsvm"
    }

    fn fit(&self, train: &Matrix) -> Result<Box<dyn FittedDetector>> {
        Ok(Box::new(self.fit_concrete(train)?))
    }
}

impl FittedDetector for FittedOcSvm {
    fn dim(&self) -> usize {
        self.dim
    }

    fn score_one(&self, x: &[f64]) -> Result<f64> {
        // outlyingness = ρ − Σ α K = −f(x)
        Ok(-self.decision(x)?)
    }

    fn snapshot(&self) -> Option<crate::snapshot::DetectorSnapshot> {
        Some(crate::snapshot::DetectorSnapshot::OcSvm(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::matrix_from_rows;

    fn ring_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 100.0;
                vec![
                    a.cos() + 0.05 * (7.0 * a).sin(),
                    a.sin() + 0.05 * (5.0 * a).cos(),
                ]
            })
            .collect();
        rows.push(vec![6.0, 6.0]);
        matrix_from_rows(&rows).unwrap()
    }

    fn fit_ocsvm(x: &Matrix, nu: f64) -> Box<dyn FittedDetector> {
        OcSvm::with_nu(nu).unwrap().fit(x).unwrap()
    }

    #[test]
    fn outlier_scores_highest() {
        let x = ring_with_outlier();
        let model = fit_ocsvm(&x, 0.1);
        let s = model.score_batch(&x).unwrap();
        let top = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(top, 100, "{s:?}");
    }

    #[test]
    fn nu_property_bounds() {
        // ν lower-bounds the SV fraction and (approximately) upper-bounds
        // the fraction of training points scored as outliers (f < 0).
        let x = ring_with_outlier();
        for &nu in &[0.05, 0.1, 0.3, 0.5] {
            let cfg = OcSvm::with_nu(nu).unwrap();
            let fitted = cfg.fit(&x).unwrap();
            let scores = fitted.score_batch(&x).unwrap();
            let outlier_frac =
                scores.iter().filter(|&&v| v > 1e-9).count() as f64 / x.nrows() as f64;
            assert!(
                outlier_frac <= nu + 0.08,
                "nu={nu}: outlier fraction {outlier_frac}"
            );
        }
    }

    #[test]
    fn sv_fraction_at_least_nu() {
        let x = ring_with_outlier();
        for &nu in &[0.1, 0.3, 0.5] {
            let model = OcSvm::with_nu(nu).unwrap().fit(&x).unwrap();
            let s = model.score_batch(&x).unwrap();
            assert!(s.iter().all(|v| v.is_finite()));
            // re-fit to inspect internals through the concrete type
            let cfg = OcSvm::with_nu(nu).unwrap();
            let kernel = cfg.resolve_kernel(&x).unwrap();
            assert!(matches!(kernel, Kernel::Rbf { .. }));
        }
    }

    #[test]
    fn kkt_conditions_hold_at_solution() {
        // At the optimum: training points with decision f(x_i) > 0 (strictly
        // inside) must have α_i = 0, i.e. not be support vectors; points with
        // f(x_i) < 0 must sit at the box bound. We verify the observable
        // consequence: Σα over support vectors is 1 and the fraction of
        // training points with positive score is close to the SV-bound story.
        let x = ring_with_outlier();
        let cfg = OcSvm {
            nu: 0.2,
            tol: 1e-8,
            ..Default::default()
        };
        let model = cfg.fit_concrete(&x).unwrap();
        let total_alpha: f64 = model.alpha.iter().sum();
        assert!((total_alpha - 1.0).abs() < 1e-9, "Σα = {total_alpha}");
        // ν-property: SV fraction >= ν (up to one grid point of slack)
        assert!(
            model.sv_fraction() >= 0.2 - 1.0 / x.nrows() as f64,
            "sv fraction {}",
            model.sv_fraction()
        );
        assert!(model.n_support() > 0);
        assert!(model.rho().is_finite());
        // margin SVs (0 < α < C) lie on the boundary: |f| ≈ 0
        let c = 1.0 / (0.2 * x.nrows() as f64);
        for (i, &a) in model.alpha.iter().enumerate() {
            if a > 1e-9 && a < c - 1e-9 {
                let f = model.decision(model.support.row(i)).unwrap();
                assert!(f.abs() < 1e-5, "free SV {i} has |f| = {}", f.abs());
            }
        }
    }

    #[test]
    fn decision_sign_thresholding() {
        let x = ring_with_outlier();
        let cfg = OcSvm::with_nu(0.1).unwrap();
        let fitted = cfg.fit(&x).unwrap();
        // an obvious inlier region point scores negative (not outlying)
        let inlier_score = fitted.score_one(&[1.0, 0.0]).unwrap();
        let outlier_score = fitted.score_one(&[8.0, -8.0]).unwrap();
        assert!(inlier_score < outlier_score);
        assert!(
            outlier_score > 0.0,
            "far point must be flagged: {outlier_score}"
        );
    }

    #[test]
    fn works_with_linear_and_poly_kernels() {
        let x = ring_with_outlier();
        for kernel in [
            Kernel::Linear,
            Kernel::Polynomial {
                gamma: 1.0,
                coef0: 1.0,
                degree: 2,
            },
        ] {
            let cfg = OcSvm {
                kernel: Some(kernel),
                nu: 0.2,
                ..Default::default()
            };
            let fitted = cfg.fit(&x).unwrap();
            let s = fitted.score_batch(&x).unwrap();
            assert!(s.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn gamma_heuristics_positive() {
        let x = ring_with_outlier();
        assert!(median_heuristic_gamma(&x) > 0.0);
        assert!(scale_gamma(&x) > 0.0);
        // degenerate data falls back to 1.0
        let flat = Matrix::filled(10, 2, 3.0);
        assert_eq!(median_heuristic_gamma(&flat), 1.0);
        assert_eq!(scale_gamma(&flat), 1.0);
    }

    #[test]
    fn parameter_validation() {
        assert!(OcSvm::with_nu(0.0).is_err());
        assert!(OcSvm::with_nu(1.5).is_err());
        assert!(OcSvm::with_nu(1.0).is_ok());
        let x = ring_with_outlier();
        let bad = OcSvm {
            kernel: Some(Kernel::Rbf { gamma: -1.0 }),
            ..Default::default()
        };
        assert!(bad.fit(&x).is_err());
        let cfg = OcSvm::with_nu(0.1).unwrap();
        let fitted = cfg.fit(&x).unwrap();
        assert!(fitted.score_one(&[1.0]).is_err());
        assert!(fitted.score_one(&[f64::NAN, 1.0]).is_err());
        assert_eq!(cfg.name(), "ocsvm");
        assert_eq!(fitted.dim(), 2);
    }

    /// The one-ν fit with an explicit SMO parallelism threshold.
    fn fit_with(cfg: &OcSvm, pool: &Pool, x: &Matrix, par_min: usize) -> FittedOcSvm {
        let mut fits = cfg.fit_nus_with(pool, x, &[cfg.nu], par_min).unwrap();
        fits.pop().unwrap().unwrap()
    }

    fn assert_fits_bit_equal(a: &FittedOcSvm, b: &FittedOcSvm, what: &str) {
        assert_eq!(a.dim, b.dim, "{what}: dim");
        assert_eq!(a.rho.to_bits(), b.rho.to_bits(), "{what}: rho");
        assert_eq!(a.alpha.len(), b.alpha.len(), "{what}: support count");
        for (i, (x, y)) in a.alpha.iter().zip(&b.alpha).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: alpha {i}");
        }
        for (x, y) in a.support.as_slice().iter().zip(b.support.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: support vector entry");
        }
        assert_eq!(
            a.sv_fraction.to_bits(),
            b.sv_fraction.to_bits(),
            "{what}: sv fraction"
        );
    }

    #[test]
    fn chunked_smo_is_bit_identical_to_sequential() {
        // Force both inner-loop implementations onto the same problem:
        // par_min = 0 runs every scan chunked, par_min = MAX never does.
        let x = ring_with_outlier();
        let cfg = OcSvm::with_nu(0.2).unwrap();
        let pool = Pool::with_threads(4);
        let chunked = fit_with(&cfg, &pool, &x, 0);
        let sequential = fit_with(&cfg, &pool, &x, usize::MAX);
        assert_fits_bit_equal(&chunked, &sequential, "chunked vs sequential");
    }

    #[test]
    fn fit_is_bit_identical_across_pool_sizes() {
        let x = ring_with_outlier();
        let cfg = OcSvm::with_nu(0.15).unwrap();
        // chunked path pinned on at every pool size, including the global
        let reference = fit_with(&cfg, &Pool::with_threads(1), &x, 0);
        for threads in [2usize, 3, 8] {
            let fitted = fit_with(&cfg, &Pool::with_threads(threads), &x, 0);
            assert_fits_bit_equal(&fitted, &reference, &format!("{threads} threads"));
        }
        let global = cfg.fit_concrete(&x).unwrap();
        assert_fits_bit_equal(&global, &reference, "global pool");
        // and the scores a served model would produce agree bit for bit
        let s1 = FittedDetector::score_batch(&reference, &x).unwrap();
        let s2 = FittedDetector::score_batch(&global, &x).unwrap();
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunked_smo_spanning_many_chunks_matches_sequential() {
        // > 2 chunks (n > 512) so cross-chunk reduction order is exercised
        // with real chunk counts, including an uneven tail chunk.
        let rows: Vec<Vec<f64>> = (0..541)
            .map(|i| {
                let a = i as f64 * 0.117;
                vec![a.sin() + 0.01 * (13.0 * a).cos(), a.cos()]
            })
            .collect();
        let x = matrix_from_rows(&rows).unwrap();
        let cfg = OcSvm {
            nu: 0.1,
            max_iter: 200_000,
            ..Default::default()
        };
        let pool = Pool::with_threads(4);
        // n >= SMO_PAR_MIN: the default threshold engages the chunked path
        let default_path = cfg.fit_concrete_on(&pool, &x).unwrap();
        let sequential = fit_with(&cfg, &pool, &x, usize::MAX);
        assert_fits_bit_equal(&default_path, &sequential, "large-n default path");
    }

    #[test]
    fn multi_nu_fit_matches_single_nu_fits() {
        // One Gram matrix serves every solve: each ν's model, repeated ν
        // included, is the one a fresh single-ν fit produces.
        let x = ring_with_outlier();
        let nus = [0.3, 0.05, 0.2, 1.0, 0.05];
        let cfg = OcSvm::default();
        for threads in [1usize, 3] {
            let pool = Pool::with_threads(threads);
            let fits = cfg.fit_nus_on(&pool, &x, &nus).unwrap();
            assert_eq!(fits.len(), nus.len());
            for (&nu, fit) in nus.iter().zip(fits) {
                let single = OcSvm { nu, ..cfg.clone() }.fit_concrete(&x).unwrap();
                assert_fits_bit_equal(&fit.unwrap(), &single, &format!("ν = {nu}, {threads}"));
            }
        }
    }

    #[test]
    fn multi_nu_errors_split_shared_and_per_nu() {
        let x = ring_with_outlier();
        let pool = Pool::with_threads(2);
        // Shared-stage failures fail the whole call, with the error the
        // single-ν fit reports.
        let cfg = OcSvm::default();
        let bad_nu = OcSvm {
            nu: 1.5,
            ..cfg.clone()
        };
        assert_eq!(
            cfg.fit_nus_on(&pool, &x, &[0.1, 1.5]).unwrap_err(),
            bad_nu.fit_concrete(&x).unwrap_err()
        );
        let bad_kernel = OcSvm {
            kernel: Some(Kernel::Rbf { gamma: -1.0 }),
            ..Default::default()
        };
        assert_eq!(
            bad_kernel.fit_nus_on(&pool, &x, &[0.1]).unwrap_err(),
            bad_kernel.fit_concrete(&x).unwrap_err()
        );
        // A solve that runs out of iterations fails only its own ν; ν = 1
        // starts at the optimum (every α at the bound 1/n).
        let tight = OcSvm {
            max_iter: 3,
            ..Default::default()
        };
        let fits = tight.fit_nus_on(&pool, &x, &[0.1, 1.0]).unwrap();
        assert_eq!(
            fits[0].as_ref().unwrap_err(),
            &DetectError::NoConvergence {
                algorithm: "ocsvm-smo",
                iterations: 3
            }
        );
        let one = OcSvm {
            nu: 1.0,
            ..tight.clone()
        };
        assert_fits_bit_equal(
            fits[1].as_ref().unwrap(),
            &one.fit_concrete(&x).unwrap(),
            "ν = 1",
        );
    }

    #[test]
    fn duplicate_rows_handled() {
        // Many duplicated points: kernel matrix is rank-deficient; SMO must
        // still converge (eta is clamped).
        let mut rows = vec![vec![1.0, 1.0]; 30];
        rows.extend(vec![vec![-1.0, -1.0]; 30]);
        rows.push(vec![10.0, 10.0]);
        let x = matrix_from_rows(&rows).unwrap();
        let fitted = OcSvm::with_nu(0.2).unwrap().fit(&x).unwrap();
        let s = fitted.score_batch(&x).unwrap();
        assert!(s.iter().all(|v| v.is_finite()));
        let top = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(top, 60);
    }
}
