//! B-spline bases: piecewise-polynomial bases with local support, the
//! paper's choice for smooth non-periodic functional data (Sec. 2.1).
//!
//! Evaluation uses the numerically stable Cox–de Boor triangular scheme,
//! derivatives the standard knot-difference recursion (both following
//! Piegl & Tiller, *The NURBS Book*, algorithms A2.1–A2.3). The roughness
//! penalty `R_q = ∫ D^q φ_j D^q φ_m dt` is assembled exactly by per-span
//! Gauss–Legendre quadrature (the integrand is a polynomial of degree
//! `≤ 2(k−1−q)` on each span).

use crate::basis::Basis;
use crate::error::FdaError;
use crate::Result;
use mfod_linalg::quadrature::gauss_legendre_on;
use mfod_linalg::Matrix;

/// A B-spline basis of order `k` (degree `k − 1`) with an open-uniform knot
/// vector on `[a, b]`.
///
/// With `L` basis functions the knot vector has `L + k` entries: the first
/// and last knot are repeated `k` times and `L − k` interior knots are
/// placed uniformly. `L = k` yields the Bernstein basis on `[a, b]`.
#[derive(Debug, Clone)]
pub struct BSplineBasis {
    knots: Vec<f64>,
    order: usize,
    len: usize,
    a: f64,
    b: f64,
}

impl BSplineBasis {
    /// Creates an open-uniform B-spline basis with `len` functions of order
    /// `order` on `[a, b]`.
    ///
    /// Requires `order >= 1`, `len >= order` and `a < b`.
    pub fn uniform(a: f64, b: f64, len: usize, order: usize) -> Result<Self> {
        if !(a.is_finite() && b.is_finite()) {
            return Err(FdaError::NonFinite);
        }
        if a >= b {
            return Err(FdaError::InvalidDomain { a, b });
        }
        if order == 0 {
            return Err(FdaError::InvalidBasis("order must be >= 1".into()));
        }
        if len < order {
            return Err(FdaError::InvalidBasis(format!(
                "basis size {len} must be >= order {order}"
            )));
        }
        let n_interior = len - order;
        let mut knots = Vec::with_capacity(len + order);
        knots.extend(std::iter::repeat_n(a, order));
        for i in 1..=n_interior {
            knots.push(a + (b - a) * i as f64 / (n_interior + 1) as f64);
        }
        knots.extend(std::iter::repeat_n(b, order));
        Ok(BSplineBasis {
            knots,
            order,
            len,
            a,
            b,
        })
    }

    /// Creates a basis from explicit interior knots (sorted, strictly inside
    /// `(a, b)`); boundary knots are repeated `order` times.
    pub fn with_interior_knots(a: f64, b: f64, interior: &[f64], order: usize) -> Result<Self> {
        if !a.is_finite() || !b.is_finite() || !interior.iter().all(|v| v.is_finite()) {
            return Err(FdaError::NonFinite);
        }
        if a >= b {
            return Err(FdaError::InvalidDomain { a, b });
        }
        if order == 0 {
            return Err(FdaError::InvalidBasis("order must be >= 1".into()));
        }
        for w in interior.windows(2) {
            if w[0] > w[1] {
                return Err(FdaError::InvalidBasis(
                    "interior knots must be sorted".into(),
                ));
            }
        }
        if interior.iter().any(|&t| t <= a || t >= b) {
            return Err(FdaError::InvalidBasis(
                "interior knots must lie strictly inside (a, b)".into(),
            ));
        }
        let len = interior.len() + order;
        let mut knots = Vec::with_capacity(len + order);
        knots.extend(std::iter::repeat_n(a, order));
        knots.extend_from_slice(interior);
        knots.extend(std::iter::repeat_n(b, order));
        Ok(BSplineBasis {
            knots,
            order,
            len,
            a,
            b,
        })
    }

    /// Spline order `k` (polynomial degree + 1).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Polynomial degree `k − 1`.
    pub fn degree(&self) -> usize {
        self.order - 1
    }

    /// Full knot vector, including the repeated boundary knots.
    pub fn knots(&self) -> &[f64] {
        &self.knots
    }

    /// Finds the knot span index `mu` with `knots[mu] <= t < knots[mu+1]`
    /// (the last non-empty span for `t == b`).
    fn find_span(&self, t: f64) -> usize {
        let d = self.degree();
        let n = self.len - 1; // last basis index
        if t >= self.knots[n + 1] {
            return n;
        }
        if t <= self.knots[d] {
            return d;
        }
        // binary search
        let (mut lo, mut hi) = (d, n + 1);
        let mut mid = (lo + hi) / 2;
        while t < self.knots[mid] || t >= self.knots[mid + 1] {
            if t < self.knots[mid] {
                hi = mid;
            } else {
                lo = mid;
            }
            mid = (lo + hi) / 2;
        }
        mid
    }

    /// Cox–de Boor: values of the `k` basis functions that are non-zero on
    /// the span (`N_{span-d}, …, N_{span}`), NURBS book A2.2.
    fn basis_funs(&self, span: usize, t: f64) -> Vec<f64> {
        let d = self.degree();
        let mut n = vec![0.0; d + 1];
        let mut left = vec![0.0; d + 1];
        let mut right = vec![0.0; d + 1];
        n[0] = 1.0;
        for j in 1..=d {
            left[j] = t - self.knots[span + 1 - j];
            right[j] = self.knots[span + j] - t;
            let mut saved = 0.0;
            for r in 0..j {
                let temp = n[r] / (right[r + 1] + left[j - r]);
                n[r] = saved + right[r + 1] * temp;
                saved = left[j - r] * temp;
            }
            n[j] = saved;
        }
        n
    }

    /// Values and derivatives up to order `nd` of the non-zero basis
    /// functions on the span of `t` (NURBS book A2.3). Returns a
    /// `(nd+1) x (d+1)` table: `ders[q][r] = D^q N_{span-d+r}(t)`.
    fn ders_basis_funs(&self, span: usize, t: f64, nd: usize) -> Vec<Vec<f64>> {
        let d = self.degree();
        let nd_eff = nd.min(d);
        let mut ndu = vec![vec![0.0; d + 1]; d + 1];
        let mut left = vec![0.0; d + 1];
        let mut right = vec![0.0; d + 1];
        ndu[0][0] = 1.0;
        for j in 1..=d {
            left[j] = t - self.knots[span + 1 - j];
            right[j] = self.knots[span + j] - t;
            let mut saved = 0.0;
            for r in 0..j {
                // lower triangle: knot differences
                ndu[j][r] = right[r + 1] + left[j - r];
                let temp = ndu[r][j - 1] / ndu[j][r];
                // upper triangle: basis values
                ndu[r][j] = saved + right[r + 1] * temp;
                saved = left[j - r] * temp;
            }
            ndu[j][j] = saved;
        }
        let mut ders = vec![vec![0.0; d + 1]; nd + 1];
        for r in 0..=d {
            ders[0][r] = ndu[r][d];
        }
        if nd_eff == 0 {
            return ders;
        }
        let mut a = vec![vec![0.0; d + 1]; 2];
        for r in 0..=d {
            let mut s1 = 0;
            let mut s2 = 1;
            a[0][0] = 1.0;
            for q in 1..=nd_eff {
                let mut dv = 0.0;
                let rk = r as isize - q as isize;
                let pk = (d - q) as isize;
                if r as isize >= q as isize {
                    a[s2][0] = a[s1][0] / ndu[(pk + 1) as usize][rk as usize];
                    dv = a[s2][0] * ndu[rk as usize][pk as usize];
                }
                let j1 = if rk >= -1 { 1 } else { (-rk) as usize };
                let j2 = if (r as isize - 1) <= pk { q - 1 } else { d - r };
                for j in j1..=j2 {
                    a[s2][j] = (a[s1][j] - a[s1][j - 1])
                        / ndu[(pk + 1) as usize][(rk + j as isize) as usize];
                    dv += a[s2][j] * ndu[(rk + j as isize) as usize][pk as usize];
                }
                if r as isize <= pk {
                    a[s2][q] = -a[s1][q - 1] / ndu[(pk + 1) as usize][r];
                    dv += a[s2][q] * ndu[r][pk as usize];
                }
                ders[q][r] = dv;
                std::mem::swap(&mut s1, &mut s2);
            }
        }
        // multiply by d! / (d - q)!
        let mut factor = d as f64;
        for q in 1..=nd_eff {
            for r in 0..=d {
                ders[q][r] *= factor;
            }
            factor *= (d - q) as f64;
        }
        ders
    }
}

impl Basis for BSplineBasis {
    fn len(&self) -> usize {
        self.len
    }

    fn domain(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    fn eval_into(&self, t: f64, deriv: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "output buffer length mismatch");
        out.fill(0.0);
        let t = t.clamp(self.a, self.b);
        let span = self.find_span(t);
        let d = self.degree();
        if deriv > d {
            // derivative of order above the degree is identically zero
            return;
        }
        if deriv == 0 {
            let vals = self.basis_funs(span, t);
            for (r, &v) in vals.iter().enumerate() {
                out[span - d + r] = v;
            }
        } else {
            let ders = self.ders_basis_funs(span, t, deriv);
            for (r, &v) in ders[deriv].iter().enumerate() {
                out[span - d + r] = v;
            }
        }
    }

    fn penalty(&self, q: usize) -> Matrix {
        let l = self.len;
        let mut r = Matrix::zeros(l, l);
        let d = self.degree();
        if q > d {
            return r; // D^q φ ≡ 0
        }
        // Integrate exactly over every non-empty knot span.
        let n_nodes = (self.order - q).max(1);
        let mut buf = vec![0.0; l];
        for span in d..self.len {
            let (lo, hi) = (self.knots[span], self.knots[span + 1]);
            if hi <= lo {
                continue;
            }
            let rule = gauss_legendre_on(n_nodes, lo, hi);
            for (&x, &w) in rule.nodes.iter().zip(&rule.weights) {
                self.eval_into(x, q, &mut buf);
                // only indices span-d ..= span are non-zero
                for j in (span - d)..=span {
                    let bj = buf[j];
                    if bj == 0.0 {
                        continue;
                    }
                    for m in (span - d)..=span {
                        r[(j, m)] += w * bj * buf[m];
                    }
                }
            }
        }
        r
    }

    fn name(&self) -> &'static str {
        "bspline"
    }

    fn snapshot(&self) -> Option<crate::snapshot::BasisSnapshot> {
        // Boundary knots are implied by (a, b, order); the interior knots
        // are the stored state with_interior_knots rebuilds exactly.
        Some(crate::snapshot::BasisSnapshot::BSpline {
            a: self.a,
            b: self.b,
            order: self.order,
            interior: self.knots[self.order..self.len].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cubic(len: usize) -> BSplineBasis {
        BSplineBasis::uniform(0.0, 1.0, len, 4).unwrap()
    }

    #[test]
    fn construction_validations() {
        assert!(BSplineBasis::uniform(0.0, 1.0, 3, 4).is_err()); // len < order
        assert!(BSplineBasis::uniform(1.0, 0.0, 8, 4).is_err());
        assert!(BSplineBasis::uniform(0.0, 1.0, 8, 0).is_err());
        assert!(BSplineBasis::uniform(f64::NAN, 1.0, 8, 4).is_err());
        let b = cubic(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.order(), 4);
        assert_eq!(b.degree(), 3);
        assert_eq!(b.knots().len(), 14);
    }

    #[test]
    fn knot_vector_structure() {
        let b = cubic(6); // 2 interior knots at 1/3, 2/3
        let k = b.knots();
        assert_eq!(k.len(), 10);
        assert_eq!(&k[..4], &[0.0; 4]);
        assert_eq!(&k[6..], &[1.0; 4]);
        assert!((k[4] - 1.0 / 3.0).abs() < 1e-12);
        assert!((k[5] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn partition_of_unity() {
        let b = cubic(9);
        for i in 0..=100 {
            let t = i as f64 / 100.0;
            let vals = b.eval(t, 0);
            let s: f64 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "t={t}: sum={s}");
            assert!(
                vals.iter().all(|&v| v >= -1e-14),
                "negative basis value at t={t}"
            );
        }
    }

    #[test]
    fn local_support() {
        let b = cubic(10);
        // At most `order` non-zero values anywhere.
        for i in 0..=50 {
            let t = i as f64 / 50.0;
            let nz = b.eval(t, 0).iter().filter(|&&v| v.abs() > 1e-14).count();
            assert!(nz <= 4, "t={t}: {nz} non-zero");
        }
    }

    #[test]
    fn endpoint_interpolation() {
        // Open knot vector: first/last basis functions are 1 at the endpoints.
        let b = cubic(7);
        let v0 = b.eval(0.0, 0);
        assert!((v0[0] - 1.0).abs() < 1e-12);
        assert!(v0[1..].iter().all(|&v| v.abs() < 1e-12));
        let v1 = b.eval(1.0, 0);
        assert!((v1[6] - 1.0).abs() < 1e-12);
        assert!(v1[..6].iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn bernstein_special_case() {
        // L = k = 3 on [0,1]: quadratic Bernstein polynomials.
        let b = BSplineBasis::uniform(0.0, 1.0, 3, 3).unwrap();
        let t = 0.4;
        let vals = b.eval(t, 0);
        assert!((vals[0] - (1.0 - t) * (1.0 - t)).abs() < 1e-12);
        assert!((vals[1] - 2.0 * t * (1.0 - t)).abs() < 1e-12);
        assert!((vals[2] - t * t).abs() < 1e-12);
    }

    #[test]
    fn derivatives_sum_to_zero() {
        // D of a partition of unity is zero: Σ D^q φ_l = 0 for q >= 1.
        let b = cubic(11);
        for q in 1..=3 {
            for i in 1..20 {
                let t = i as f64 / 20.0;
                let s: f64 = b.eval(t, q).iter().sum();
                assert!(s.abs() < 1e-9, "q={q} t={t}: {s}");
            }
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let b = cubic(8);
        let h = 1e-6;
        for &t in &[0.13, 0.37, 0.61, 0.89] {
            let v_plus = b.eval(t + h, 0);
            let v_minus = b.eval(t - h, 0);
            let d = b.eval(t, 1);
            for l in 0..b.len() {
                let fd = (v_plus[l] - v_minus[l]) / (2.0 * h);
                assert!(
                    (d[l] - fd).abs() < 1e-5 * (1.0 + d[l].abs()),
                    "t={t} l={l}: analytic {} vs fd {}",
                    d[l],
                    fd
                );
            }
        }
    }

    #[test]
    fn second_derivative_matches_finite_difference() {
        let b = cubic(8);
        let h = 1e-4;
        for &t in &[0.21, 0.52, 0.77] {
            let v_plus = b.eval(t + h, 0);
            let v0 = b.eval(t, 0);
            let v_minus = b.eval(t - h, 0);
            let d2 = b.eval(t, 2);
            for l in 0..b.len() {
                let fd = (v_plus[l] - 2.0 * v0[l] + v_minus[l]) / (h * h);
                assert!(
                    (d2[l] - fd).abs() < 1e-3 * (1.0 + d2[l].abs()),
                    "t={t} l={l}: analytic {} vs fd {}",
                    d2[l],
                    fd
                );
            }
        }
    }

    #[test]
    fn derivative_above_degree_is_zero() {
        let b = cubic(8);
        let v = b.eval(0.5, 4);
        assert!(v.iter().all(|&x| x == 0.0));
        let v = b.eval(0.5, 10);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn spline_reproduces_linear_functions() {
        // Coefficients at the Greville abscissae reproduce f(t) = t exactly.
        let b = cubic(9);
        let d = b.degree();
        let greville: Vec<f64> = (0..b.len())
            .map(|l| b.knots()[l + 1..l + 1 + d].iter().sum::<f64>() / d as f64)
            .collect();
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            let vals = b.eval(t, 0);
            let f: f64 = vals.iter().zip(&greville).map(|(v, g)| v * g).sum();
            assert!((f - t).abs() < 1e-12, "t={t}: {f}");
        }
    }

    #[test]
    fn penalty_is_symmetric_psd() {
        let b = cubic(8);
        for q in 0..=2 {
            let r = b.penalty(q);
            assert_eq!(r.shape(), (8, 8));
            assert!(r.asymmetry() < 1e-10, "q={q}");
            // every eigenvalue above −1e-9 ⇔ R + 1e-9·I is positive definite
            let mut shifted = r.clone();
            for j in 0..8 {
                shifted[(j, j)] += 1e-9;
            }
            assert!(
                mfod_linalg::Cholesky::new(&shifted).is_ok(),
                "q={q}: penalty is not positive semi-definite"
            );
        }
    }

    #[test]
    fn penalty_order_zero_is_gram_matrix() {
        // For q=0 the penalty is the Gram matrix ∫φ_j φ_m; trace equals
        // Σ ∫ φ_l² > 0 and row sums integrate the partition of unity: Σ_jm
        // R[j,m] = ∫ (Σφ)² = |domain| = 1.
        let b = cubic(8);
        let r = b.penalty(0);
        let total: f64 = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| r[(i, j)])
            .sum();
        assert!((total - 1.0).abs() < 1e-10, "total={total}");
    }

    #[test]
    fn penalty_annihilates_constants_for_q1() {
        // D¹ of the constant function Σφ = 1 is 0 ⇒ R₁ 1 = 0.
        let b = cubic(8);
        let r = b.penalty(1);
        let ones = vec![1.0; 8];
        let v = r.matvec(&ones);
        assert!(v.iter().all(|&x| x.abs() < 1e-10), "{v:?}");
    }

    #[test]
    fn penalty_above_degree_is_zero() {
        let b = cubic(8);
        let r = b.penalty(4);
        assert_eq!(r.max_abs(), 0.0);
    }

    #[test]
    fn with_interior_knots_validation() {
        assert!(BSplineBasis::with_interior_knots(0.0, 1.0, &[0.5, 0.2], 4).is_err());
        assert!(BSplineBasis::with_interior_knots(0.0, 1.0, &[0.0], 4).is_err());
        assert!(BSplineBasis::with_interior_knots(0.0, 1.0, &[1.5], 4).is_err());
        let b = BSplineBasis::with_interior_knots(0.0, 1.0, &[0.3, 0.7], 4).unwrap();
        assert_eq!(b.len(), 6);
        // partition of unity still holds
        let s: f64 = b.eval(0.5, 0).iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamping_outside_domain() {
        let b = cubic(6);
        assert_eq!(b.eval(-0.5, 0), b.eval(0.0, 0));
        assert_eq!(b.eval(1.5, 0), b.eval(1.0, 0));
    }

    #[test]
    fn design_matrix_rows_are_evaluations() {
        let b = cubic(6);
        let ts = [0.0, 0.25, 0.5];
        let phi = b.design_matrix(&ts, 0);
        for (j, &t) in ts.iter().enumerate() {
            let row = b.eval(t, 0);
            for l in 0..6 {
                assert_eq!(phi[(j, l)], row[l]);
            }
        }
    }
}
