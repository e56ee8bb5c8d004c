//! Property-based tests for the evaluation utilities.

use mfod_eval::roc::auc_from_curve;
use mfod_eval::{auc, roc_curve, KFold};
use proptest::prelude::*;

/// Scores plus labels guaranteed to contain both classes.
fn scored_labels(n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    (
        prop::collection::vec(-100.0..100.0f64, n),
        prop::collection::vec(any::<bool>(), n - 2),
    )
        .prop_map(|(scores, mut labels)| {
            labels.push(true);
            labels.push(false);
            (scores, labels)
        })
}

proptest! {
    #[test]
    fn auc_in_unit_interval((scores, labels) in scored_labels(12)) {
        let a = auc(&scores, &labels).unwrap();
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn auc_flips_under_negation((scores, labels) in scored_labels(10)) {
        let a = auc(&scores, &labels).unwrap();
        let neg: Vec<f64> = scores.iter().map(|s| -s).collect();
        let b = auc(&neg, &labels).unwrap();
        prop_assert!((a + b - 1.0).abs() < 1e-10, "{a} + {b} != 1");
    }

    #[test]
    fn auc_flips_under_label_swap((scores, labels) in scored_labels(10)) {
        let a = auc(&scores, &labels).unwrap();
        let swapped: Vec<bool> = labels.iter().map(|l| !l).collect();
        let b = auc(&scores, &swapped).unwrap();
        prop_assert!((a + b - 1.0).abs() < 1e-10);
    }

    #[test]
    fn auc_invariant_under_monotone_map((scores, labels) in scored_labels(10)) {
        let a = auc(&scores, &labels).unwrap();
        let mapped: Vec<f64> = scores.iter().map(|s| (s * 0.01).tanh() * 3.0 + 7.0).collect();
        let b = auc(&mapped, &labels).unwrap();
        prop_assert!((a - b).abs() < 1e-10);
    }

    #[test]
    fn curve_area_equals_rank_auc((scores, labels) in scored_labels(14)) {
        let a = auc(&scores, &labels).unwrap();
        let curve = roc_curve(&scores, &labels).unwrap();
        prop_assert!((auc_from_curve(&curve) - a).abs() < 1e-10);
    }

    #[test]
    fn roc_curve_monotone((scores, labels) in scored_labels(12)) {
        let curve = roc_curve(&scores, &labels).unwrap();
        for w in curve.windows(2) {
            prop_assert!(w[1].fpr >= w[0].fpr - 1e-12);
            prop_assert!(w[1].tpr >= w[0].tpr - 1e-12);
        }
        prop_assert_eq!(curve.first().map(|p| (p.fpr, p.tpr)), Some((0.0, 0.0)));
        prop_assert_eq!(curve.last().map(|p| (p.fpr, p.tpr)), Some((1.0, 1.0)));
    }

    #[test]
    fn kfold_partitions(n in 6usize..60, k in 2usize..6, seed in 0u64..100) {
        prop_assume!(n >= k);
        let folds = KFold::new(k, seed).unwrap().folds(n).unwrap();
        let mut all: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        for (train, val) in &folds {
            prop_assert_eq!(train.len() + val.len(), n);
            // disjoint
            let mut t = train.clone();
            t.extend(val);
            t.sort_unstable();
            t.dedup();
            prop_assert_eq!(t.len(), n);
        }
    }
}
