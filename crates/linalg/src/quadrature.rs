//! Gauss–Legendre quadrature.
//!
//! An `n`-point Gauss–Legendre rule integrates polynomials of degree
//! `2n − 1` exactly, which is what the B-spline penalty matrix
//! `R_q = ∫ D^q φ_j D^q φ_m dt` needs: on each knot span the integrand is a
//! polynomial of degree at most `2(k − 1 − q)`.

/// A quadrature rule: paired nodes and weights on a target interval.
#[derive(Debug, Clone)]
pub struct QuadratureRule {
    /// Quadrature nodes.
    pub nodes: Vec<f64>,
    /// Quadrature weights (positive, summing to the interval length).
    pub weights: Vec<f64>,
}

impl QuadratureRule {
    /// Integrates `f` with this rule.
    pub fn integrate(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }
}

/// Computes the `n`-point Gauss–Legendre rule on `[-1, 1]` by Newton
/// iteration on the Legendre polynomial `P_n` starting from the Chebyshev
/// approximation of its roots.
///
/// # Panics
/// Panics if `n == 0`.
pub fn gauss_legendre(n: usize) -> QuadratureRule {
    assert!(n > 0, "gauss_legendre requires n >= 1");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Chebyshev initial guess for the i-th root (descending order).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            let (p, d) = legendre_and_derivative(n, x);
            dp = d;
            let dx = p / d;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    if n % 2 == 1 {
        // middle node is exactly 0
        nodes[n / 2] = 0.0;
        let (_, d) = legendre_and_derivative(n, 0.0);
        weights[n / 2] = 2.0 / (d * d);
    }
    QuadratureRule { nodes, weights }
}

/// Gauss–Legendre rule mapped onto `[a, b]`.
///
/// # Panics
/// Panics if `n == 0` or `a > b`.
pub fn gauss_legendre_on(n: usize, a: f64, b: f64) -> QuadratureRule {
    assert!(a <= b, "interval must satisfy a <= b");
    let base = gauss_legendre(n);
    let mid = 0.5 * (a + b);
    let half = 0.5 * (b - a);
    QuadratureRule {
        nodes: base.nodes.iter().map(|&x| mid + half * x).collect(),
        weights: base.weights.iter().map(|&w| w * half).collect(),
    }
}

/// Evaluates the Legendre polynomial `P_n` and its derivative at `x` via the
/// three-term recurrence.
fn legendre_and_derivative(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0; // P_0
    let mut p1 = x; // P_1
    if n == 0 {
        return (1.0, 0.0);
    }
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // derivative identity: (1-x²) P_n' = n (P_{n-1} - x P_n)
    let d = if (1.0 - x * x).abs() > 1e-300 {
        n as f64 * (p0 - x * p1) / (1.0 - x * x)
    } else {
        0.0
    };
    (p1, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_interval_length() {
        for n in 1..=10 {
            let rule = gauss_legendre(n);
            let s: f64 = rule.weights.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "n={n}: {s}");
            let rule = gauss_legendre_on(n, 1.0, 4.0);
            let s: f64 = rule.weights.iter().sum();
            assert!((s - 3.0).abs() < 1e-12, "n={n}: {s}");
        }
    }

    #[test]
    fn nodes_are_symmetric_and_inside() {
        let rule = gauss_legendre(7);
        for (&a, &b) in rule.nodes.iter().zip(rule.nodes.iter().rev()) {
            assert!((a + b).abs() < 1e-12);
        }
        assert!(rule.nodes.iter().all(|&x| (-1.0..=1.0).contains(&x)));
        // strictly increasing
        for w in rule.nodes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn exact_for_polynomials_up_to_degree_2n_minus_1() {
        // ∫_{-1}^{1} x^d dx = 0 (odd) or 2/(d+1) (even)
        for n in 1..=8 {
            let rule = gauss_legendre(n);
            for d in 0..(2 * n) {
                let approx = rule.integrate(|x| x.powi(d as i32));
                let exact = if d % 2 == 1 {
                    0.0
                } else {
                    2.0 / (d as f64 + 1.0)
                };
                assert!(
                    (approx - exact).abs() < 1e-12,
                    "n={n} degree={d}: {approx} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn mapped_rule_integrates_cubic() {
        // ∫₁³ (x³ - 2x) dx = [x⁴/4 - x²]₁³ = (81/4 - 9) - (1/4 - 1) = 12
        let rule = gauss_legendre_on(2, 1.0, 3.0);
        let v = rule.integrate(|x| x * x * x - 2.0 * x);
        assert!((v - 12.0).abs() < 1e-12);
    }

    #[test]
    fn known_two_point_rule() {
        let rule = gauss_legendre(2);
        let expect = 1.0 / 3.0_f64.sqrt();
        assert!((rule.nodes[0] + expect).abs() < 1e-12);
        assert!((rule.nodes[1] - expect).abs() < 1e-12);
        assert!((rule.weights[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integrates_transcendental_accurately() {
        // ∫₀^π sin x dx = 2, a 10-point rule should nail it
        let rule = gauss_legendre_on(10, 0.0, std::f64::consts::PI);
        assert!((rule.integrate(f64::sin) - 2.0).abs() < 1e-10);
    }
}
