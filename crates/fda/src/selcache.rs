//! Grid-cached basis selection: the y-independent part of the paper's
//! per-sample, per-channel leave-one-out procedure (Sec. 4.1), computed
//! exactly once per shared observation grid.
//!
//! [`crate::smooth::BasisSelector::select`] ranks a ladder of
//! `(basis size L, λ)` candidates per curve. For every candidate the
//! design matrix `Φ`, the factorized normal equations `ΦᵀΦ + λR`, the hat
//! diagonal `h_jj = ‖L⁻¹φ_j‖²` and the effective degrees of freedom
//! `df = Σ h_jj` depend only on the observation times `ts` — not on the
//! measurements `y`. When a whole batch shares one grid (the usual case:
//! ECG, UCR and the synthetic generators all observe every sample on the
//! same equispaced grid), re-deriving them per curve makes selection
//! O(L³ + mL²) per (sample × channel × candidate).
//!
//! A [`SelectionPlan`] hoists all of that out of the per-curve loop:
//! scoring one curve against one candidate is then a `Φᵀy` pass, two
//! triangular solves and the fitted-values product — O(mL + L²) — plus an
//! O(m) LOOCV/GCV sweep over the **cached** hat diagonal. Fitting and
//! scoring both select through a plan, so every curve still gets its own
//! cross-validated winner.
//!
//! ## Exactness
//!
//! The planned path is not an approximation: it executes the same
//! floating-point operations on the same cached intermediates the
//! uncached path derives fresh, so winners, scores, coefficients and
//! diagnostics are **bit-for-bit identical** — `BasisSelector::select`
//! itself delegates to a single-use plan. Candidates whose normal
//! equations are singular are skipped at plan build exactly as the
//! uncached ladder skips them (the factorization is y-independent, so the
//! skip set cannot differ between curves).

use crate::bspline::BSplineBasis;
use crate::datum::FunctionalDatum;
use crate::error::FdaError;
use crate::smooth::{
    fit_scores, hat_diagonal, BasisSelector, FitDiagnostics, PenalizedLeastSquares,
    SelectionCriterion, SelectionResult,
};
use crate::Result;
use mfod_linalg::{vector, Cholesky, Matrix};
use std::sync::Arc;

/// One `(size, λ)` rung of the ladder with every y-independent quantity
/// precomputed.
struct PlannedCandidate {
    size: usize,
    lambda: f64,
    basis: Arc<BSplineBasis>,
    /// `m × L` design matrix on the plan's grid.
    phi: Matrix,
    /// Factorized normal equations `ΦᵀΦ + λR`.
    chol: Cholesky,
    /// Hat diagonal `h_jj = ‖L⁻¹φ_j‖²`, one entry per observation.
    hat_diag: Vec<f64>,
    /// Effective degrees of freedom `Σ h_jj`.
    df: f64,
}

/// The precomputed selection ladder of a [`BasisSelector`] on one fixed
/// observation grid (see the module docs).
pub struct SelectionPlan {
    selector: BasisSelector,
    ts: Vec<f64>,
    candidates: Vec<PlannedCandidate>,
}

impl std::fmt::Debug for SelectionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionPlan")
            .field("points", &self.ts.len())
            .field("candidates", &self.candidates.len())
            .field("criterion", &self.selector.criterion)
            .finish()
    }
}

impl SelectionPlan {
    /// Precomputes the selection ladder of `selector` on the grid `ts`.
    ///
    /// Performs the ts-side validation of [`BasisSelector::select`]
    /// (enough points, finite, non-degenerate domain) and the full
    /// per-candidate assembly; singular candidates are dropped here, and a
    /// plan whose ladder is entirely infeasible (every size larger than
    /// the grid) builds successfully but fails at [`SelectionPlan::select`]
    /// with the uncached path's "no valid candidate" error.
    pub fn build(selector: &BasisSelector, ts: &[f64]) -> Result<Self> {
        if selector.sizes.is_empty() || selector.lambdas.is_empty() {
            return Err(FdaError::InvalidParameter(
                "selector needs at least one size and one lambda".into(),
            ));
        }
        if ts.len() < 2 {
            return Err(FdaError::TooFewPoints {
                got: ts.len(),
                need: 2,
            });
        }
        if !vector::all_finite(ts) {
            return Err(FdaError::NonFinite);
        }
        let a = vector::min(ts);
        let b = vector::max(ts);
        if a >= b {
            return Err(FdaError::InvalidDomain { a, b });
        }
        let mut candidates = Vec::with_capacity(selector.sizes.len() * selector.lambdas.len());
        for &size in &selector.sizes {
            if size > ts.len() {
                continue; // cannot LOOCV an under-determined fit
            }
            let basis = Arc::new(BSplineBasis::uniform(a, b, size, selector.order)?);
            for &lambda in &selector.lambdas {
                let smoother = PenalizedLeastSquares::with_arc(
                    Arc::clone(&basis),
                    lambda,
                    selector.penalty_order,
                )?;
                let (phi, chol) = match smoother.factorize(ts) {
                    Ok(ok) => ok,
                    // A singular candidate is skipped, not fatal: other
                    // (smaller or more penalized) candidates may be fine.
                    Err(FdaError::Linalg(_)) => continue,
                    Err(e) => return Err(e),
                };
                let hat_diag = hat_diagonal(&phi, &chol);
                let df = hat_diag.iter().sum();
                candidates.push(PlannedCandidate {
                    size,
                    lambda,
                    basis: Arc::clone(&basis),
                    phi,
                    chol,
                    hat_diag,
                    df,
                });
            }
        }
        Ok(SelectionPlan {
            selector: selector.clone(),
            ts: ts.to_vec(),
            candidates,
        })
    }

    /// The observation grid this plan is specialized to.
    pub fn ts(&self) -> &[f64] {
        &self.ts
    }

    /// The selector configuration the plan was built from.
    pub fn selector(&self) -> &BasisSelector {
        &self.selector
    }

    /// Number of feasible (non-singular, non-under-determined) candidates
    /// in the precomputed ladder.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Whether `ts` is exactly (bit for bit) the plan's grid. Selection
    /// through a plan is only valid on the grid it was built for, so the
    /// comparison is deliberately exact — a tolerance here could silently
    /// score a curve against the wrong design matrix.
    pub fn same_grid(&self, ts: &[f64]) -> bool {
        self.ts.len() == ts.len()
            && self
                .ts
                .iter()
                .zip(ts)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Whether this plan can stand in for `selector.select(ts, _)`: the
    /// selector configurations are equal and the grid matches bit for bit.
    pub fn covers(&self, selector: &BasisSelector, ts: &[f64]) -> bool {
        self.selector == *selector && self.same_grid(ts)
    }

    /// Selects the best candidate for one curve of measurements taken at
    /// the plan's grid — bit-identical to `selector.select(ts, ys)` on
    /// the grid the plan was built for.
    ///
    /// The ladder sweep reuses three scratch buffers (`Φᵀy`,
    /// coefficients, fitted values) across candidates and defers the
    /// winner's datum and diagnostics materialization to the end, so
    /// steady-state per-curve selection — the streaming hot path, one
    /// call per (window × channel) — performs no per-candidate
    /// allocations. The floating-point operations, their order, the
    /// per-candidate coefficient-finiteness validation and the
    /// strict-improvement winner rule are unchanged, so results stay
    /// bit-for-bit identical to the allocating sweep.
    pub fn select(&self, ys: &[f64]) -> Result<SelectionResult> {
        if ys.len() != self.ts.len() {
            return Err(FdaError::LengthMismatch {
                t_len: self.ts.len(),
                y_len: ys.len(),
            });
        }
        if !vector::all_finite(ys) {
            return Err(FdaError::NonFinite);
        }
        let mut xty = Vec::new();
        let mut coefs = Vec::new();
        let mut fitted = Vec::new();
        let mut best_coefs = Vec::new();
        // (candidate index, score, rss, loocv, gcv) of the running winner
        let mut best: Option<(usize, f64, f64, f64, f64)> = None;
        for (ci, cand) in self.candidates.iter().enumerate() {
            // α = (ΦᵀΦ + λR)⁻¹ Φᵀy through the cached factorization: the
            // identical solve the uncached fit performs, minus the O(L³)
            // re-factorization and O(mL²) hat-diagonal work per curve.
            cand.phi.tr_matvec_into(ys, &mut xty);
            cand.chol.solve_into(&xty, &mut coefs);
            // the coefficient validation `FunctionalDatum::new` performs,
            // at the same point in the sweep (the length always matches
            // the basis by construction)
            if !vector::all_finite(&coefs) {
                return Err(FdaError::NonFinite);
            }
            cand.phi.matvec_into(&coefs, &mut fitted);
            let (rss, loocv, gcv) = fit_scores(ys, &fitted, &cand.hat_diag, cand.df);
            let score = match self.selector.criterion {
                SelectionCriterion::Loocv => loocv,
                SelectionCriterion::Gcv => gcv,
            };
            if !score.is_finite() {
                continue;
            }
            let better = best.as_ref().is_none_or(|&(_, b, _, _, _)| score < b);
            if better {
                best = Some((ci, score, rss, loocv, gcv));
                best_coefs.clear();
                best_coefs.extend_from_slice(&coefs);
            }
        }
        let Some((ci, score, rss, loocv, gcv)) = best else {
            return Err(FdaError::InvalidParameter(
                "no selector candidate produced a valid fit".into(),
            ));
        };
        let cand = &self.candidates[ci];
        let datum = FunctionalDatum::new(Arc::clone(&cand.basis), best_coefs)?;
        Ok(SelectionResult {
            datum,
            size: cand.size,
            lambda: cand.lambda,
            score,
            diagnostics: FitDiagnostics {
                rss,
                df: cand.df,
                loocv,
                gcv,
                hat_diag: cand.hat_diag.clone(),
            },
        })
    }
}

/// Capacity of the process-wide plan cache. Plans are a few hundred
/// kilobytes for ECG-sized ladders; a serving process sees a handful of
/// distinct `(selector, grid)` pairs, so a small LRU covers them all.
const PLAN_CACHE_CAPACITY: usize = 16;

/// One cache slot: the `(selector, grid)` key hash and the shared plan.
type CachedPlan = (u64, Arc<SelectionPlan>);

/// LRU order: front = most recently used.
type PlanLru = std::collections::VecDeque<CachedPlan>;

/// Process-wide LRU of built selection plans, keyed by the FNV hash of
/// the selector fingerprint and the grid bit patterns. Hash collisions
/// are harmless: every hit re-checks [`SelectionPlan::covers`] before
/// the plan is returned.
static PLAN_CACHE: std::sync::OnceLock<std::sync::Mutex<PlanLru>> = std::sync::OnceLock::new();

/// Stable cache key of a `(selector, grid)` pair: the selector
/// configuration and every abscissa hashed by bit pattern, reusing the
/// snapshot subsystem's FNV hasher so grid identity means the same thing
/// here and on disk.
fn plan_cache_key(selector: &BasisSelector, ts: &[f64]) -> u64 {
    let mut h = mfod_persist::Fnv1a::new();
    h.update_usize(selector.sizes.len());
    for &s in &selector.sizes {
        h.update_usize(s);
    }
    h.update_f64s(&selector.lambdas);
    h.update_usize(selector.order);
    h.update_usize(selector.penalty_order);
    h.update_u64(match selector.criterion {
        SelectionCriterion::Loocv => 0,
        SelectionCriterion::Gcv => 1,
    });
    h.update_f64s(ts);
    h.finish()
}

impl BasisSelector {
    /// [`BasisSelector::plan`] through the process-wide plan cache:
    /// repeated `fit` calls on the same grid (e.g. the Fig. 3 repetition
    /// loops, or per-batch scoring plans) reuse one built ladder instead
    /// of re-deriving it per call.
    ///
    /// The returned plan is shared ([`Arc`]) and immutable; since a plan
    /// produces bit-identical selections wherever it is reused, caching
    /// cannot change any result. Build errors are not cached — a failing
    /// `(selector, grid)` pair fails identically on every call.
    ///
    /// With `MFOD_OBS=1` (see `mfod-obs`) the cache reports hit / miss /
    /// eviction counts and plan-build latency to the global recorder.
    pub fn plan_shared(&self, ts: &[f64]) -> Result<Arc<SelectionPlan>> {
        let key = plan_cache_key(self, ts);
        let cache = PLAN_CACHE.get_or_init(Default::default);
        let obs = mfod_obs::active();
        {
            let mut lru = cache.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(pos) = lru
                .iter()
                .position(|(k, plan)| *k == key && plan.covers(self, ts))
            {
                let hit = lru.remove(pos).expect("position came from iter");
                let plan = Arc::clone(&hit.1);
                lru.push_front(hit);
                if let Some(m) = obs {
                    m.plan_cache_hits.add(1);
                }
                return Ok(plan);
            }
        }
        // Build outside the lock: plan assembly is the expensive part and
        // a racing duplicate build is merely wasted work, never wrong.
        let built_at = obs.map(|_| std::time::Instant::now());
        let plan = Arc::new(SelectionPlan::build(self, ts)?);
        if let (Some(m), Some(t)) = (obs, built_at) {
            m.plan_cache_misses.add(1);
            m.plan_build.record_duration(t.elapsed());
        }
        let mut lru = cache.lock().unwrap_or_else(|p| p.into_inner());
        lru.push_front((key, Arc::clone(&plan)));
        let over = lru.len().saturating_sub(PLAN_CACHE_CAPACITY);
        if over > 0 {
            if let Some(m) = obs {
                m.plan_cache_evictions.add(over as u64);
            }
            lru.truncate(PLAN_CACHE_CAPACITY);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(m: usize, noise: f64) -> (Vec<f64>, Vec<f64>) {
        let ts: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
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

    fn assert_results_bit_equal(a: &SelectionResult, b: &SelectionResult) {
        assert_eq!(a.size, b.size);
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.datum.coefs().len(), b.datum.coefs().len());
        for (x, y) in a.datum.coefs().iter().zip(b.datum.coefs()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.diagnostics.rss.to_bits(), b.diagnostics.rss.to_bits());
        assert_eq!(a.diagnostics.df.to_bits(), b.diagnostics.df.to_bits());
        assert_eq!(a.diagnostics.loocv.to_bits(), b.diagnostics.loocv.to_bits());
        assert_eq!(a.diagnostics.gcv.to_bits(), b.diagnostics.gcv.to_bits());
    }

    #[test]
    fn planned_selection_is_bit_identical_to_uncached() {
        let (ts, _) = sine_data(50, 0.0);
        let sel = BasisSelector {
            sizes: vec![6, 8, 10, 12],
            lambdas: vec![1e-8, 1e-3],
            ..BasisSelector::default()
        };
        let plan = sel.plan(&ts).unwrap();
        assert_eq!(plan.candidate_count(), 8);
        assert!(plan.same_grid(&ts));
        assert!(plan.covers(&sel, &ts));
        assert!(format!("{plan:?}").contains("SelectionPlan"));
        // several curves through one plan
        for curve in 0..5 {
            let ys: Vec<f64> = ts
                .iter()
                .enumerate()
                .map(|(j, &t)| {
                    let n = ((j as f64 * 7.77 + curve as f64).sin() * 1357.9).fract() - 0.5;
                    (std::f64::consts::TAU * t * (1.0 + curve as f64 * 0.1)).sin() + 0.2 * n
                })
                .collect();
            let unplanned = sel.select(&ts, &ys).unwrap();
            let planned = plan.select(&ys).unwrap();
            let with_plan = sel.select_with_plan(&plan, &ts, &ys).unwrap();
            assert_results_bit_equal(&unplanned, &planned);
            assert_results_bit_equal(&unplanned, &with_plan);
        }
    }

    #[test]
    fn select_with_plan_falls_back_on_foreign_grid() {
        let (ts, ys) = sine_data(40, 0.1);
        let sel = BasisSelector::default();
        // plan on a *different* grid with the same domain
        let other: Vec<f64> = (0..45).map(|j| (j as f64 / 44.0).powf(1.1)).collect();
        let plan = sel.plan(&other).unwrap();
        assert!(!plan.same_grid(&ts));
        let via_fallback = sel.select_with_plan(&plan, &ts, &ys).unwrap();
        let direct = sel.select(&ts, &ys).unwrap();
        assert_results_bit_equal(&direct, &via_fallback);
    }

    #[test]
    fn select_with_plan_falls_back_on_foreign_selector() {
        let (ts, ys) = sine_data(40, 0.1);
        let plan = BasisSelector::default().plan(&ts).unwrap();
        let gcv = BasisSelector {
            criterion: SelectionCriterion::Gcv,
            ..BasisSelector::default()
        };
        assert!(!plan.covers(&gcv, &ts));
        let via_fallback = gcv.select_with_plan(&plan, &ts, &ys).unwrap();
        let direct = gcv.select(&ts, &ys).unwrap();
        assert_results_bit_equal(&direct, &via_fallback);
    }

    #[test]
    fn plan_validates_inputs() {
        let sel = BasisSelector::default();
        assert!(matches!(
            sel.plan(&[0.0]),
            Err(FdaError::TooFewPoints { .. })
        ));
        assert!(matches!(
            sel.plan(&[0.0, f64::NAN]),
            Err(FdaError::NonFinite)
        ));
        assert!(matches!(
            sel.plan(&[1.0, 1.0, 1.0]),
            Err(FdaError::InvalidDomain { .. })
        ));
        let empty = BasisSelector {
            sizes: vec![],
            ..BasisSelector::default()
        };
        assert!(matches!(
            empty.plan(&[0.0, 1.0]),
            Err(FdaError::InvalidParameter(_))
        ));
        let (ts, _) = sine_data(30, 0.0);
        let plan = sel.plan(&ts).unwrap();
        assert!(matches!(
            plan.select(&[1.0, 2.0]),
            Err(FdaError::LengthMismatch { .. })
        ));
        assert!(matches!(
            plan.select(&vec![f64::NAN; 30]),
            Err(FdaError::NonFinite)
        ));
    }

    #[test]
    fn infeasible_ladder_fails_at_select_like_the_uncached_path() {
        // every size larger than the grid: the plan builds (empty ladder)
        // and selection reports the uncached path's error
        let sel = BasisSelector {
            sizes: vec![50],
            ..BasisSelector::default()
        };
        let ts = [0.0, 0.5, 1.0];
        let plan = sel.plan(&ts).unwrap();
        assert_eq!(plan.candidate_count(), 0);
        assert!(matches!(
            plan.select(&[0.0, 1.0, 0.0]),
            Err(FdaError::InvalidParameter(_))
        ));
        assert!(sel.select(&ts, &[0.0, 1.0, 0.0]).is_err());
    }

    #[test]
    fn plan_shared_reuses_one_plan_per_grid() {
        // a grid unique to this test so parallel tests cannot evict it
        let ts: Vec<f64> = (0..41).map(|j| (j as f64 / 40.0).powf(1.000_173)).collect();
        let sel = BasisSelector::default();
        let p1 = sel.plan_shared(&ts).unwrap();
        let p2 = sel.plan_shared(&ts).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second call must hit the cache");
        // a different grid or selector misses
        let other: Vec<f64> = ts.iter().map(|t| t + 1e-9).collect();
        let p3 = sel.plan_shared(&other).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
        let gcv = BasisSelector {
            criterion: SelectionCriterion::Gcv,
            ..BasisSelector::default()
        };
        let p4 = gcv.plan_shared(&ts).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p4));
        // cached plans select bit-identically to a fresh uncached build
        let ys: Vec<f64> = ts.iter().map(|&t| (5.0 * t).sin()).collect();
        let cached = p2.select(&ys).unwrap();
        let fresh = sel.select(&ts, &ys).unwrap();
        assert_results_bit_equal(&cached, &fresh);
        // build errors surface unchanged
        assert!(sel.plan_shared(&[0.0]).is_err());
    }

    #[test]
    fn plan_accessors_expose_build_inputs() {
        let (ts, _) = sine_data(25, 0.0);
        let sel = BasisSelector::default();
        let plan = sel.plan(&ts).unwrap();
        assert_eq!(plan.ts(), &ts[..]);
        assert_eq!(plan.selector(), &sel);
    }
}
