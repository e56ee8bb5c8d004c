//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! This is the workhorse of the penalized least-squares smoother: the system
//! `(ΦᵀΦ + λR) α = Φᵀy` is SPD (possibly only semi-definite for λ = 0 with
//! degenerate designs, which the jittered constructor handles).

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read. Fails with
    /// [`LinalgError::Singular`] if a non-positive pivot is encountered and
    /// with [`LinalgError::NotSquare`] for rectangular input.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // diagonal entry
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::Singular { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a + jitter·I`, growing `jitter` geometrically from
    /// `initial_jitter` until the factorization succeeds (at most 10 tries).
    ///
    /// Useful when `a` is SPD in exact arithmetic but borderline in floating
    /// point (e.g. an unpenalized Gram matrix with nearly collinear columns).
    pub fn new_jittered(a: &Matrix, initial_jitter: f64) -> Result<Self> {
        match Cholesky::new(a) {
            Ok(c) => return Ok(c),
            Err(LinalgError::Singular { .. }) => {}
            Err(e) => return Err(e),
        }
        let scale = a.max_abs().max(1.0);
        let mut jitter = initial_jitter.max(f64::EPSILON) * scale;
        for _ in 0..10 {
            let mut aj = a.clone();
            for i in 0..a.nrows() {
                aj[(i, i)] += jitter;
            }
            match Cholesky::new(&aj) {
                Ok(c) => return Ok(c),
                Err(LinalgError::Singular { .. }) => jitter *= 10.0,
                Err(e) => return Err(e),
            }
        }
        Err(LinalgError::Singular { pivot: 0 })
    }

    /// Rebuilds a factorization from a previously computed lower factor
    /// `L` (e.g. one restored from a model snapshot), validating that it
    /// is square, finite, strictly lower-triangular (zeros above the
    /// diagonal) and has positive pivots — exactly the invariants
    /// [`Cholesky::new`] guarantees, so every solve on the rebuilt
    /// factorization is bit-for-bit identical to one on the original.
    pub fn from_factor(l: Matrix) -> Result<Self> {
        if !l.is_square() {
            return Err(LinalgError::NotSquare { shape: l.shape() });
        }
        if !l.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        for i in 0..l.nrows() {
            if l[(i, i)] <= 0.0 {
                return Err(LinalgError::InvalidFactor {
                    reason: "Cholesky factor needs strictly positive diagonal entries",
                });
            }
            for j in (i + 1)..l.ncols() {
                if l[(i, j)] != 0.0 {
                    return Err(LinalgError::InvalidFactor {
                        reason: "Cholesky factor must be lower-triangular",
                    });
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solves `A x = b` given the factorization.
    ///
    /// # Panics
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.solve_into(b, &mut y);
        y
    }

    /// [`Cholesky::solve`] into a caller-owned buffer (cleared and
    /// refilled), so repeated solves — e.g. one per selection-ladder
    /// candidate per curve — reuse a single allocation.
    ///
    /// # Panics
    /// Panics if `b.len() != dim()`.
    pub fn solve_into(&self, b: &[f64], y: &mut Vec<f64>) {
        let n = self.dim();
        assert_eq!(b.len(), n, "cholesky solve dimension mismatch");
        y.clear();
        y.extend_from_slice(b);
        self.forward_sub(y);
        // backward substitution Lᵀ x = y
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
    }

    /// In-place forward substitution `L y = y`, walking each factor row
    /// as a contiguous slice (the same subtractions in the same ascending
    /// order as indexed access).
    fn forward_sub(&self, y: &mut [f64]) {
        let n = self.dim();
        let data = self.l.as_slice();
        for i in 0..n {
            let row = &data[i * n..i * n + i];
            let mut yi = y[i];
            for (k, &lik) in row.iter().enumerate() {
                yi -= lik * y[k];
            }
            y[i] = yi / data[i * n + i];
        }
    }

    /// Solves the lower-triangular half-system `L y = b` by forward
    /// substitution (`A = L Lᵀ`), in O(n²).
    ///
    /// # Panics
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.solve_lower_into(b, &mut y);
        y
    }

    /// [`Cholesky::solve_lower`] into a caller-owned buffer (cleared and
    /// refilled).
    ///
    /// # Panics
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower_into(&self, b: &[f64], y: &mut Vec<f64>) {
        assert_eq!(
            b.len(),
            self.dim(),
            "cholesky solve_lower dimension mismatch"
        );
        y.clear();
        y.extend_from_slice(b);
        self.forward_sub(y);
    }

    /// Solves `L Y = B` for **every column of `B` in one fused sweep**:
    /// the forward substitution walks the factor rows once, applying each
    /// `L_ik` to a whole row of right-hand sides, so `L` is streamed from
    /// memory once per sweep instead of once per column.
    ///
    /// Per column the operations — subtractions in ascending `k` order,
    /// then one division — are identical to [`Cholesky::solve_lower`] on
    /// that column, so the result is bit-for-bit the column-by-column
    /// loop. This is the kernel behind hat-matrix diagonals
    /// (`h_jj = ‖L⁻¹φ_j‖²` for all observations at once).
    ///
    /// Takes `b` by value and solves **in place** in its buffer — callers
    /// that build the right-hand sides fresh (e.g. a transposed design
    /// matrix) hand the matrix over without a second full-size copy;
    /// clone at the call site to keep the original.
    ///
    /// # Panics
    /// Panics if `b.nrows() != dim()`.
    pub fn solve_lower_multi(&self, b: Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(
            b.nrows(),
            n,
            "cholesky solve_lower_multi dimension mismatch"
        );
        let mut y = b;
        let width = y.ncols();
        let data = self.l.as_slice();
        for i in 0..n {
            let lrow = &data[i * n..i * n + i];
            // split so row i is mutable while rows 0..i are read
            let (solved, rest) = y.as_mut_slice().split_at_mut(i * width);
            let yrow = &mut rest[..width];
            for (k, &lik) in lrow.iter().enumerate() {
                let yk = &solved[k * width..(k + 1) * width];
                for (yi, &ykc) in yrow.iter_mut().zip(yk) {
                    *yi -= lik * ykc;
                }
            }
            let d = data[i * n + i];
            for yi in yrow.iter_mut() {
                *yi /= d;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
    }

    #[test]
    fn factor_known_matrix() {
        // Classic example: L = [[2,0,0],[6,1,0],[-8,5,3]]
        let c = Cholesky::new(&spd3()).unwrap();
        let l = c.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_factor_roundtrip_and_validation() {
        let c = Cholesky::new(&spd3()).unwrap();
        let rebuilt = Cholesky::from_factor(c.factor().clone()).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x1 = c.solve(&b);
        let x2 = rebuilt.solve(&b);
        for (a, b) in x1.iter().zip(&x2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // invalid factors are rejected with typed errors
        assert!(matches!(
            Cholesky::from_factor(Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Cholesky::from_factor(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, f64::NAN]])),
            Err(LinalgError::NonFinite)
        ));
        assert!(matches!(
            Cholesky::from_factor(Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0]])),
            Err(LinalgError::InvalidFactor { .. })
        ));
        assert!(matches!(
            Cholesky::from_factor(Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.0]])),
            Err(LinalgError::InvalidFactor { .. })
        ));
    }

    #[test]
    fn reconstruction() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let rec = l.matmul(&l.transpose());
        assert!(rec.sub(&a).max_abs() < 1e-10);
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_lower_matches_quadratic_form() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        // L y = b by construction: L yᵀy = ‖L⁻¹b‖² = bᵀ A⁻¹ b
        let b = [1.0, -2.0, 0.5];
        let y = c.solve_lower(&b);
        let rec = c.factor().matvec(&y);
        for (ri, bi) in rec.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
        let quad: f64 = y.iter().map(|v| v * v).sum();
        let direct = crate::vector::dot(&b, &c.solve(&b));
        assert!((quad - direct).abs() < 1e-9 * (1.0 + direct.abs()));
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_rectangular_and_nan() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = Matrix::from_rows(&[&[f64::NAN]]);
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::NonFinite)));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // rank-1 matrix, positive semi-definite but singular
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::new(&a).is_err());
        let c = Cholesky::new_jittered(&a, 1e-10).unwrap();
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn solve_lower_multi_is_bit_identical_to_columnwise() {
        let c = Cholesky::new(&spd3()).unwrap();
        // 5 columns exercise both the blocked width and odd shapes
        let b = Matrix::from_fn(3, 5, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
        let fused = c.solve_lower_multi(b.clone());
        for j in 0..b.ncols() {
            let col = c.solve_lower(&b.col(j));
            for i in 0..3 {
                assert_eq!(
                    fused[(i, j)].to_bits(),
                    col[i].to_bits(),
                    "column {j} row {i}"
                );
            }
        }
        // the into-variants reuse buffers without changing results
        let mut buf = vec![9.0; 17];
        c.solve_lower_into(&b.col(2), &mut buf);
        assert_eq!(buf, c.solve_lower(&b.col(2)));
        let mut buf2 = Vec::new();
        c.solve_into(&b.col(1), &mut buf2);
        assert_eq!(buf2, c.solve(&b.col(1)));
    }
}
