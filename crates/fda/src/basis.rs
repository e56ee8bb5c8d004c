//! The [`Basis`] trait: a finite family of differentiable functions
//! `φ_1 … φ_L` on a closed interval, supporting evaluation of any derivative
//! order and the roughness penalty matrices of Eq. 3 in the paper.

use mfod_linalg::Matrix;

/// A finite basis of real functions on a closed domain `[a, b]`.
///
/// Implementations must be deterministic and thread-safe; evaluation points
/// outside the domain are clamped onto it (functional data are only defined
/// on `T`, and clamping keeps downstream grid arithmetic robust against
/// floating-point drift at the endpoints).
pub trait Basis: Send + Sync {
    /// Number of basis functions `L`.
    fn len(&self) -> usize;

    /// True when the basis contains no functions (never, for valid bases).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The closed domain `[a, b]`.
    fn domain(&self) -> (f64, f64);

    /// Evaluates the `deriv`-th derivative of every basis function at `t`,
    /// writing into `out` (length `len()`).
    ///
    /// `deriv = 0` evaluates the functions themselves.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    fn eval_into(&self, t: f64, deriv: usize, out: &mut [f64]);

    /// Penalty matrix `R_q[j, m] = ∫ D^q φ_j (t) · D^q φ_m (t) dt` over the
    /// domain (positive semi-definite, symmetric).
    fn penalty(&self, q: usize) -> Matrix;

    /// Short human-readable name for diagnostics.
    fn name(&self) -> &'static str {
        "basis"
    }

    /// The concrete snapshot form of this basis, when it supports
    /// persistence (see `mfod-persist`).
    ///
    /// The default is `None`: a custom basis simply cannot be written to
    /// a model snapshot until it opts in. Implementations must return a
    /// snapshot whose [`crate::snapshot::BasisSnapshot::restore`] yields
    /// a basis that evaluates **bit-identically** to `self`.
    fn snapshot(&self) -> Option<crate::snapshot::BasisSnapshot> {
        None
    }

    /// Evaluates the `deriv`-th derivative of all basis functions at `t`
    /// into a fresh vector.
    fn eval(&self, t: f64, deriv: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.eval_into(t, deriv, &mut out);
        out
    }

    /// Builds the `m x L` design matrix `Φ[j, l] = D^deriv φ_l(t_j)`.
    fn design_matrix(&self, ts: &[f64], deriv: usize) -> Matrix {
        let mut out = Matrix::zeros(ts.len(), self.len());
        for (j, &t) in ts.iter().enumerate() {
            self.eval_into(t, deriv, out.row_mut(j));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial two-function basis {1, t} on [0, 1] for trait-level tests.
    struct LinearBasis;

    impl Basis for LinearBasis {
        fn len(&self) -> usize {
            2
        }
        fn domain(&self) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn eval_into(&self, t: f64, deriv: usize, out: &mut [f64]) {
            assert_eq!(out.len(), 2);
            let t = t.clamp(0.0, 1.0);
            match deriv {
                0 => {
                    out[0] = 1.0;
                    out[1] = t;
                }
                1 => {
                    out[0] = 0.0;
                    out[1] = 1.0;
                }
                _ => {
                    out[0] = 0.0;
                    out[1] = 0.0;
                }
            }
        }
        fn penalty(&self, q: usize) -> Matrix {
            // ∫₀¹ Dφ_j Dφ_m dt with Dφ = (0, 1): only R[1,1] = 1 for q=1.
            let mut r = Matrix::zeros(2, 2);
            match q {
                0 => {
                    r[(0, 0)] = 1.0;
                    r[(0, 1)] = 0.5;
                    r[(1, 0)] = 0.5;
                    r[(1, 1)] = 1.0 / 3.0;
                }
                1 => r[(1, 1)] = 1.0,
                _ => {}
            }
            r
        }
    }

    #[test]
    fn design_matrix_shapes_and_values() {
        let b = LinearBasis;
        let phi = b.design_matrix(&[0.0, 0.5, 1.0], 0);
        assert_eq!(phi.shape(), (3, 2));
        assert_eq!(phi[(1, 1)], 0.5);
        let dphi = b.design_matrix(&[0.3], 1);
        assert_eq!(dphi[(0, 0)], 0.0);
        assert_eq!(dphi[(0, 1)], 1.0);
    }

    #[test]
    fn is_empty_default() {
        assert!(!LinearBasis.is_empty());
    }
}
