//! Property-based tests for the linear algebra kernels.

use mfod_linalg::{cholesky::Cholesky, matrix::Matrix, vector};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, n * n).prop_map(move |data| Matrix::from_vec(n, n, data))
}

/// Generates an SPD matrix as `AᵀA + I`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(move |a| {
        let mut g = a.gram();
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    })
}

proptest! {
    #[test]
    fn dot_is_symmetric(a in finite_vec(8), b in finite_vec(8)) {
        let d1 = vector::dot(&a, &b);
        let d2 = vector::dot(&b, &a);
        prop_assert!((d1 - d2).abs() <= 1e-9 * (1.0 + d1.abs()));
    }

    #[test]
    fn cauchy_schwarz(a in finite_vec(6), b in finite_vec(6)) {
        let lhs = vector::dot(&a, &b).abs();
        let rhs = vector::norm2(&a) * vector::norm2(&b);
        prop_assert!(lhs <= rhs * (1.0 + 1e-10) + 1e-9);
    }

    #[test]
    fn median_between_min_and_max(a in finite_vec(9)) {
        let m = vector::median(&a);
        prop_assert!(m >= vector::min(&a) - 1e-12);
        prop_assert!(m <= vector::max(&a) + 1e-12);
    }

    #[test]
    fn median_is_translation_equivariant(a in finite_vec(7), c in -100.0..100.0f64) {
        let shifted: Vec<f64> = a.iter().map(|x| x + c).collect();
        let m1 = vector::median(&a) + c;
        let m2 = vector::median(&shifted);
        prop_assert!((m1 - m2).abs() < 1e-9);
    }

    #[test]
    fn mad_is_translation_invariant(a in finite_vec(7), c in -100.0..100.0f64) {
        let shifted: Vec<f64> = a.iter().map(|x| x + c).collect();
        prop_assert!((vector::mad(&a) - vector::mad(&shifted)).abs() < 1e-9);
    }

    #[test]
    fn transpose_is_involution(m in square_matrix(4)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(m in square_matrix(4)) {
        let i = Matrix::identity(4);
        let left = i.matmul(&m);
        let right = m.matmul(&i);
        prop_assert!(left.sub(&m).max_abs() < 1e-12);
        prop_assert!(right.sub(&m).max_abs() < 1e-12);
    }

    #[test]
    fn gram_is_symmetric_psd_diag(m in square_matrix(4)) {
        let g = m.gram();
        prop_assert!(g.asymmetry() < 1e-9);
        for i in 0..4 {
            prop_assert!(g[(i, i)] >= -1e-9);
        }
    }

    #[test]
    fn cholesky_solve_residual_small(a in spd_matrix(5), b in finite_vec(5)) {
        let chol = Cholesky::new(&a).unwrap();
        let x = chol.solve(&b);
        let r = vector::sub(&a.matvec(&x), &b);
        let scale = vector::norm2(&b).max(1.0) * a.max_abs().max(1.0);
        prop_assert!(vector::norm2(&r) < 1e-7 * scale);
    }

    #[test]
    fn ranks_are_a_permutation_average(a in finite_vec(10)) {
        let r = vector::average_ranks(&a);
        let sum: f64 = r.iter().sum();
        // sum of ranks 1..=n is n(n+1)/2 regardless of ties
        prop_assert!((sum - 55.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_monotone_in_q(a in finite_vec(9), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(vector::quantile(&a, lo) <= vector::quantile(&a, hi) + 1e-12);
    }

    #[test]
    fn trapz_linearity(t_raw in prop::collection::vec(0.01..1.0f64, 5),
                       y1 in finite_vec(6), y2 in finite_vec(6), c in -5.0..5.0f64) {
        // build strictly increasing grid from positive increments
        let mut t = vec![0.0];
        for dt in t_raw { t.push(t.last().unwrap() + dt); }
        let comb: Vec<f64> = y1.iter().zip(&y2).map(|(a, b)| a + c * b).collect();
        let lhs = vector::trapz(&t, &comb);
        let rhs = vector::trapz(&t, &y1) + c * vector::trapz(&t, &y2);
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }
}

// ---- work-stealing scheduler invariants --------------------------------
//
// The scheduler splits every map into fine index-ordered sub-chunks that
// idle threads steal; these properties pin the determinism contract on
// exactly the workload shape stealing exists for — wildly unbalanced
// per-item cost — across pool sizes 1/2/8 and the global pool, and the
// panic-payload round-trip while other sub-chunks are mid-steal.

use mfod_linalg::par::{self, Pool};

/// Deliberately unbalanced work: item `i` burns `2^(i % spread)`
/// iterations of floating-point churn (exponential cost profile), then
/// returns a value that depends on every iteration — so any scheduling
/// bug that reorders, drops or duplicates an item changes the bits.
fn exponential_cost_item(i: usize, spread: u32, salt: f64) -> u64 {
    let iters = 1u32 << (i as u32 % spread);
    let mut acc = salt + i as f64;
    for k in 0..iters {
        acc = (acc * 1.000_000_3 + k as f64 * 1e-9)
            .sin()
            .mul_add(0.5, acc * 0.5);
    }
    acc.to_bits()
}

proptest! {
    #[test]
    fn stolen_maps_are_bit_identical_to_sequential(
        n in 1usize..120,
        spread in 1u32..12,
        salt in -10.0..10.0f64,
    ) {
        let work = |i: usize| exponential_cost_item(i, spread, salt);
        let sequential: Vec<u64> = (0..n).map(work).collect();
        for threads in [1usize, 2, 8] {
            let pool = Pool::with_threads(threads);
            prop_assert_eq!(&pool.map(n, work), &sequential);
            // the contiguous (split-1) schedule must agree too — scheduling
            // is a wall-clock decision, never an output decision
            let contiguous = Pool::with_config(threads, 1);
            prop_assert_eq!(&contiguous.map(n, work), &sequential);
        }
        prop_assert_eq!(&par::par_map(n, work), &sequential);
    }

    #[test]
    fn split_factor_never_changes_outputs(
        n in 1usize..80,
        split in 1usize..20,
        spread in 1u32..10,
    ) {
        let work = |i: usize| exponential_cost_item(i, spread, 0.25);
        let sequential: Vec<u64> = (0..n).map(work).collect();
        let pool = Pool::with_config(4, split);
        prop_assert_eq!(&pool.map(n, work), &sequential);
    }

    #[test]
    fn earliest_error_wins_under_stealing(
        n in 2usize..100,
        bad_a in 0usize..100,
        bad_b in 0usize..100,
        spread in 1u32..8,
    ) {
        let (bad_a, bad_b) = (bad_a % n, bad_b % n);
        let first_bad = bad_a.min(bad_b);
        let work = |i: usize| -> Result<u64, usize> {
            let bits = exponential_cost_item(i, spread, 1.5);
            if i == bad_a || i == bad_b { Err(i) } else { Ok(bits) }
        };
        for threads in [2usize, 8] {
            let pool = Pool::with_threads(threads);
            let got = pool.try_map(n, work);
            prop_assert_eq!(got.unwrap_err(), first_bad, "threads={}", threads);
        }
    }

    #[test]
    fn panic_payload_round_trips_under_stealing(
        n in 2usize..80,
        victim in 0usize..80,
        payload in 0u64..1_000_000,
        spread in 1u32..8,
    ) {
        let victim = victim % n;
        let pool = Pool::with_threads(8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(n, |i| {
                let bits = exponential_cost_item(i, spread, -0.75);
                if i == victim {
                    std::panic::panic_any(payload);
                }
                bits
            })
        }))
        .expect_err("the panic must surface on the caller");
        prop_assert_eq!(*caught.downcast::<u64>().expect("payload type"), payload);
        // the pool survives the panicked job
        let n_after = n.min(16);
        let after = pool.map(n_after, |i| i * 3);
        prop_assert_eq!(after, (0..n_after).map(|i| i * 3).collect::<Vec<_>>());
    }
}
