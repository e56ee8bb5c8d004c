//! Row-major dense `f64` matrix.

use crate::error::LinalgError;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// Sized for the moderate problems in this workspace (smoothing systems,
/// kernel matrices); all operations are straightforward O(n³)-style loops
/// arranged for cache-friendly row-major traversal.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices. All rows must share a length.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the main diagonal as a vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if inner dimensions do not match; use [`Matrix::checked_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.checked_matmul(other)
            .expect("matmul dimension mismatch")
    }

    /// Fallible matrix product — a register-blocked i-k-j kernel.
    ///
    /// Four output rows are accumulated per pass, so each row of `other`
    /// is loaded from memory once per *four* rows of `self` instead of
    /// once per row, and the four independent accumulation chains give
    /// the CPU instruction-level parallelism. Every output element is
    /// still accumulated by exactly one `+= a·b` per `k`, in ascending
    /// `k` order, with zero `a` entries skipped per row — the identical
    /// floating-point operations of the unblocked kernel, so results are
    /// bit-for-bit unchanged.
    pub fn checked_matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, kk, nn) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, nn);
        if m == 0 || kk == 0 || nn == 0 {
            return Ok(out);
        }
        let mut out_rows = out.as_mut_slice().chunks_exact_mut(nn);
        let mut i = 0;
        while i + 4 <= m {
            let (o0, o1, o2, o3) = (
                out_rows.next().expect("row count"),
                out_rows.next().expect("row count"),
                out_rows.next().expect("row count"),
                out_rows.next().expect("row count"),
            );
            let (r0, r1, r2, r3) = (
                self.row(i),
                self.row(i + 1),
                self.row(i + 2),
                self.row(i + 3),
            );
            for k in 0..kk {
                let (a0, a1, a2, a3) = (r0[k], r1[k], r2[k], r3[k]);
                let brow = other.row(k);
                if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                    // dense fast path: one load of `brow[j]` feeds four
                    // separate accumulations (one add per output, as in
                    // the scalar kernel)
                    for (j, &b) in brow.iter().enumerate() {
                        o0[j] += a0 * b;
                        o1[j] += a1 * b;
                        o2[j] += a2 * b;
                        o3[j] += a3 * b;
                    }
                } else {
                    // preserve the per-row zero skip exactly
                    for (a, o) in [
                        (a0, &mut *o0),
                        (a1, &mut *o1),
                        (a2, &mut *o2),
                        (a3, &mut *o3),
                    ] {
                        if a != 0.0 {
                            crate::vector::axpy(a, brow, o);
                        }
                    }
                }
            }
            i += 4;
        }
        for (o, row) in out_rows.by_ref().zip(i..m) {
            let r = self.row(row);
            for k in 0..kk {
                let a = r[k];
                if a == 0.0 {
                    continue;
                }
                crate::vector::axpy(a, other.row(k), o);
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v` — a register-blocked kernel: four
    /// rows share each load of `v`, each row's dot product still
    /// accumulating sequentially in ascending column order, so the result
    /// is bit-identical to a per-row [`crate::vector::dot`] loop.
    ///
    /// # Panics
    /// Panics if `v.len() != ncols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out);
        out
    }

    /// [`Matrix::matvec`] into a caller-owned buffer (cleared and
    /// refilled), so steady-state batch scoring reuses one allocation.
    ///
    /// # Panics
    /// Panics if `v.len() != ncols`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        out.clear();
        out.reserve(self.rows);
        let mut i = 0;
        while i + 4 <= self.rows {
            let (r0, r1, r2, r3) = (
                self.row(i),
                self.row(i + 1),
                self.row(i + 2),
                self.row(i + 3),
            );
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for (k, &vk) in v.iter().enumerate() {
                s0 += r0[k] * vk;
                s1 += r1[k] * vk;
                s2 += r2[k] * vk;
                s3 += r3[k] * vk;
            }
            out.extend_from_slice(&[s0, s1, s2, s3]);
            i += 4;
        }
        for row in i..self.rows {
            out.push(crate::vector::dot(self.row(row), v));
        }
    }

    /// Transposed matrix-vector product `selfᵀ * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != nrows`.
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.tr_matvec_into(v, &mut out);
        out
    }

    /// [`Matrix::tr_matvec`] into a caller-owned buffer (cleared and
    /// refilled).
    ///
    /// # Panics
    /// Panics if `v.len() != nrows`.
    pub fn tr_matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows, "tr_matvec dimension mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        for i in 0..self.rows {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
    }

    /// Computes the Gram matrix `selfᵀ * self` exploiting symmetry (only
    /// the upper triangle is accumulated, then mirrored) and the zero
    /// patterns of banded designs such as B-spline evaluations (zero row
    /// entries contribute nothing and are skipped).
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let r = self.row(i);
            for j in 0..n {
                let a = r[j];
                if a == 0.0 {
                    continue;
                }
                // contiguous row-slice accumulation over k in j..n — the
                // same adds in the same order as indexed access, without
                // re-deriving `j*n + k` per element
                let orow = &mut out.as_mut_slice()[j * n + j..(j + 1) * n];
                for (o, &rk) in orow.iter_mut().zip(&r[j..]) {
                    *o += a * rk;
                }
            }
        }
        for j in 0..n {
            for k in 0..j {
                out[(j, k)] = out[(k, j)];
            }
        }
        out
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.as_slice().iter().map(|a| a * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place `self += s * other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, s: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Maximum absolute entry (∞-norm of the flattened data); 0 for empty.
    pub fn max_abs(&self) -> f64 {
        self.as_slice().iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }

    /// Maximum absolute asymmetry `max |A_ij - A_ji|`; 0 for square symmetric.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square(), "asymmetry requires a square matrix");
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Extracts the sub-matrix of the given row and column index sets.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            for (oj, &j) in col_idx.iter().enumerate() {
                out[(oi, oj)] = self[(i, j)];
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        assert_eq!(m.diag(), vec![1.0, 4.0]);
    }

    #[test]
    fn from_fn_matches_closure() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[3.5, 4.0, -1.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn checked_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.checked_matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_tr_matvec_agree_with_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let v = [1.0, 0.0, -1.0];
        assert_eq!(a.matvec(&v), vec![-2.0, -2.0]);
        let w = [1.0, 2.0];
        assert_eq!(a.tr_matvec(&w), vec![9.0, 12.0, 15.0]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!(g.sub(&explicit).max_abs() < 1e-12);
        assert!(g.asymmetry() == 0.0);
    }

    #[test]
    fn blocked_kernels_are_bit_identical_to_scalar_reference() {
        // The register-blocked matmul/matvec must execute the identical
        // floating-point operations as the unblocked i-k-j kernel with
        // per-row zero skips — including shapes that exercise the 4-row
        // blocks, the remainder rows, and zero entries (B-spline designs
        // are banded, so the skip path is the common case).
        for &(m, k, n) in &[(1, 3, 2), (4, 4, 4), (5, 3, 7), (9, 6, 5), (12, 8, 1)] {
            let a = Matrix::from_fn(m, k, |i, j| {
                if (i + 2 * j) % 3 == 0 {
                    0.0
                } else {
                    ((i * 31 + j * 17) as f64 * 0.61).sin()
                }
            });
            let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 7) as f64 * 0.37).cos());
            // scalar reference: i-k-j with the per-row zero skip
            let mut reference = Matrix::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    let av = a[(i, kk)];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        reference[(i, j)] += av * b[(kk, j)];
                    }
                }
            }
            let blocked = a.matmul(&b);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        blocked[(i, j)].to_bits(),
                        reference[(i, j)].to_bits(),
                        "matmul ({m}x{k})·({k}x{n}) at ({i},{j})"
                    );
                }
            }
            // matvec: per-row sequential dot is the reference
            let v: Vec<f64> = (0..k).map(|j| ((j * 5) as f64 * 0.29).sin()).collect();
            let blocked_v = a.matvec(&v);
            for i in 0..m {
                assert_eq!(
                    blocked_v[i].to_bits(),
                    crate::vector::dot(a.row(i), &v).to_bits(),
                    "matvec row {i}"
                );
            }
            // and the into-variant reuses a dirty buffer unchanged
            let mut buf = vec![99.0; 2];
            a.matvec_into(&v, &mut buf);
            assert_eq!(buf, blocked_v);
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[7.0, 12.0]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_finite());
        let bad = Matrix::from_rows(&[&[f64::NAN]]);
        assert!(!bad.is_finite());
    }

    #[test]
    fn submatrix_extraction() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(&[0, 2], &[1, 3]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 1.0);
        assert_eq!(s[(1, 1)], 11.0);
    }

    #[test]
    fn debug_output_is_truncated() {
        let m = Matrix::zeros(10, 10);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains('…'));
    }
}
