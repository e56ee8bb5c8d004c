//! Free-function kernels over `&[f64]` slices: inner products, norms,
//! elementary statistics and the robust location/scale estimators (median,
//! MAD) needed by projection depth.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (l2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dist2_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2_sq length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    dist2_sq(a, b).sqrt()
}

/// In-place `y += alpha * x`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
/// Panics if lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
/// Panics if lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        return f64::NAN;
    }
    a.iter().sum::<f64>() / a.len() as f64
}

/// Unbiased sample variance (divides by `n - 1`); `NaN` when `n < 2`.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return f64::NAN;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Population variance (divides by `n`); `NaN` for empty input.
pub fn variance_pop(a: &[f64]) -> f64 {
    if a.is_empty() {
        return f64::NAN;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Sample standard deviation; `NaN` when `n < 2`.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Minimum value; `NaN` for empty input. NaN entries are ignored.
pub fn min(a: &[f64]) -> f64 {
    a.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(f64::NAN, |m, v| if m.is_nan() || v < m { v } else { m })
}

/// Maximum value; `NaN` for empty input. NaN entries are ignored.
pub fn max(a: &[f64]) -> f64 {
    a.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(f64::NAN, |m, v| if m.is_nan() || v > m { v } else { m })
}

/// Median (average of the two central order statistics for even length);
/// `NaN` for empty input.
///
/// Uses `select_nth_unstable` for O(n) average complexity.
pub fn median(a: &[f64]) -> f64 {
    median_in_place(&mut a.to_vec())
}

/// [`median`] of a scratch buffer, reordering it in place instead of
/// copying it: bit-for-bit the value [`median`] returns for the same
/// slice.
pub fn median_in_place(buf: &mut [f64]) -> f64 {
    if buf.is_empty() {
        return f64::NAN;
    }
    let n = buf.len();
    let mid = n / 2;
    let (_, &mut hi, _) = buf.select_nth_unstable_by(mid, |x, y| x.total_cmp(y));
    if n % 2 == 1 {
        hi
    } else {
        // `select_nth_unstable` leaves elements < pivot in the left part, so
        // the lower central order statistic is the max of that part.
        let lo = max(&buf[..mid]);
        0.5 * (lo + hi)
    }
}

/// Median absolute deviation around the median, scaled by 1.4826 so it is a
/// consistent estimator of the standard deviation under normality.
///
/// Returns `NaN` for empty input.
pub fn mad(a: &[f64]) -> f64 {
    if a.is_empty() {
        return f64::NAN;
    }
    let med = median(a);
    let devs: Vec<f64> = a.iter().map(|x| (x - med).abs()).collect();
    1.4826 * median(&devs)
}

/// Unscaled median absolute deviation (no normal-consistency factor).
pub fn mad_raw(a: &[f64]) -> f64 {
    if a.is_empty() {
        return f64::NAN;
    }
    let med = median(a);
    let devs: Vec<f64> = a.iter().map(|x| (x - med).abs()).collect();
    median(&devs)
}

/// Linear-interpolation quantile (type 7, the R/NumPy default).
///
/// `q` is clamped to `[0, 1]`. Returns `NaN` for empty input.
pub fn quantile(a: &[f64], q: f64) -> f64 {
    if a.is_empty() {
        return f64::NAN;
    }
    let mut buf: Vec<f64> = a.to_vec();
    buf.sort_by(|x, y| x.total_cmp(y));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (buf.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        buf[lo]
    } else {
        let w = pos - lo as f64;
        buf[lo] * (1.0 - w) + buf[hi] * w
    }
}

/// True when every entry is finite.
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// Normalizes `x` to unit Euclidean norm in place.
///
/// Returns the original norm. If the norm is below `eps`, `x` is left
/// untouched and the (near-zero) norm is returned so callers can apply
/// their own convention for degenerate directions.
pub fn normalize(x: &mut [f64], eps: f64) -> f64 {
    let n = norm2(x);
    if n > eps {
        scale(1.0 / n, x);
    }
    n
}

/// Cumulative trapezoidal integral of `y` sampled at strictly increasing
/// abscissae `t`; output has the same length with `out[0] = 0`.
///
/// # Panics
/// Panics if lengths differ or fewer than 2 points are given.
pub fn cumtrapz(t: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(t.len(), y.len(), "cumtrapz length mismatch");
    assert!(t.len() >= 2, "cumtrapz needs at least two points");
    let mut out = Vec::with_capacity(t.len());
    out.push(0.0);
    let mut acc = 0.0;
    for i in 1..t.len() {
        acc += 0.5 * (y[i] + y[i - 1]) * (t[i] - t[i - 1]);
        out.push(acc);
    }
    out
}

/// Trapezoidal integral of `y` over `t`.
///
/// # Panics
/// Panics if lengths differ or fewer than 2 points are given.
pub fn trapz(t: &[f64], y: &[f64]) -> f64 {
    assert_eq!(t.len(), y.len(), "trapz length mismatch");
    assert!(t.len() >= 2, "trapz needs at least two points");
    let mut acc = 0.0;
    for i in 1..t.len() {
        acc += 0.5 * (y[i] + y[i - 1]) * (t[i] - t[i - 1]);
    }
    acc
}

/// Ranks with average tie-handling (1-based ranks, as in statistics).
pub fn average_ranks(a: &[f64]) -> Vec<f64> {
    let n = a.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| a[i].total_cmp(&a[j]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && a[idx[j + 1]] == a[idx[i]] {
            j += 1;
        }
        // positions i..=j share the same value; assign the average rank
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist2_sq(&[1.0], &[4.0]), 9.0);
    }

    #[test]
    fn axpy_scale_sub_add() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, 2.5]);
        assert_eq!(sub(&[3.0], &[1.0]), vec![2.0]);
        assert_eq!(add(&[3.0], &[1.0]), vec![4.0]);
    }

    #[test]
    fn mean_variance_std() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&a) - 5.0).abs() < 1e-12);
        assert!((variance_pop(&a) - 4.0).abs() < 1e-12);
        assert!((variance(&a) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&a) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_with_ties() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 9.0]), 1.0);
        assert_eq!(median(&[2.0, 2.0]), 2.0);
    }

    #[test]
    fn mad_of_symmetric_data() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        // median = 3, abs devs = [2,1,0,1,2], median dev = 1
        assert!((mad_raw(&a) - 1.0).abs() < 1e-12);
        assert!((mad(&a) - 1.4826).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&a, 0.0), 1.0);
        assert_eq!(quantile(&a, 1.0), 4.0);
        assert!((quantile(&a, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&a, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(min(&[3.0, f64::NAN, 1.0]), 1.0);
        assert_eq!(max(&[3.0, f64::NAN, 1.0]), 3.0);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn normalize_unit_vector() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v, 1e-12);
        assert_eq!(n, 5.0);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        let n = normalize(&mut z, 1e-12);
        assert_eq!(n, 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn trapz_linear_function_exact() {
        // ∫₀¹ 2t dt = 1 exactly under the trapezoid rule.
        let t: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = t.iter().map(|x| 2.0 * x).collect();
        assert!((trapz(&t, &y) - 1.0).abs() < 1e-12);
        let c = cumtrapz(&t, &y);
        assert_eq!(c[0], 0.0);
        assert!((c[10] - 1.0).abs() < 1e-12);
        // cumulative integral of 2t is t², check a midpoint
        assert!((c[5] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        let r = average_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
        let r = average_ranks(&[5.0, 5.0, 5.0]);
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
        let r = average_ranks(&[]);
        assert!(r.is_empty());
    }

    #[test]
    fn all_finite_detects_nan_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
