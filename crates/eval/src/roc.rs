//! ROC analysis: AUC (tie-aware Mann–Whitney), the full ROC curve, and
//! threshold metrics.

use crate::error::EvalError;
use crate::Result;
use mfod_linalg::vector;

fn validate(scores: &[f64], labels: &[bool]) -> Result<()> {
    if scores.len() != labels.len() {
        return Err(EvalError::LengthMismatch {
            scores: scores.len(),
            labels: labels.len(),
        });
    }
    if scores.iter().any(|v| v.is_nan()) {
        return Err(EvalError::NonFinite);
    }
    let pos = labels.iter().filter(|&&l| l).count();
    if pos == 0 || pos == labels.len() {
        return Err(EvalError::SingleClass);
    }
    Ok(())
}

/// Area under the ROC curve by the rank (Mann–Whitney U) formula with
/// average ranks for ties. `labels[i] = true` marks an outlier; higher
/// scores must indicate stronger outlyingness.
///
/// `AUC = (Σ ranks of positives − n₊(n₊+1)/2) / (n₊ n₋)`.
pub fn auc(scores: &[f64], labels: &[bool]) -> Result<f64> {
    validate(scores, labels)?;
    let ranks = vector::average_ranks(scores);
    let n_pos = labels.iter().filter(|&&l| l).count() as f64;
    let n_neg = labels.len() as f64 - n_pos;
    let rank_sum: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|&(_, &l)| l)
        .map(|(r, _)| r)
        .sum();
    Ok((rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg))
}

/// One operating point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False-positive rate.
    pub fpr: f64,
    /// True-positive rate.
    pub tpr: f64,
    /// Score threshold achieving this point (predict outlier when
    /// `score >= threshold`).
    pub threshold: f64,
}

/// The full ROC curve, from (0,0) (threshold +∞) to (1,1) (threshold −∞),
/// with one point per distinct score.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> Result<Vec<RocPoint>> {
    validate(scores, labels)?;
    let n = scores.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a])); // descending
    let n_pos = labels.iter().filter(|&&l| l).count() as f64;
    let n_neg = n as f64 - n_pos;
    let mut curve = vec![RocPoint {
        fpr: 0.0,
        tpr: 0.0,
        threshold: f64::INFINITY,
    }];
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut i = 0;
    while i < n {
        // consume all samples tied at this score together
        let s = scores[order[i]];
        while i < n && scores[order[i]] == s {
            if labels[order[i]] {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        curve.push(RocPoint {
            fpr: fp / n_neg,
            tpr: tp / n_pos,
            threshold: s,
        });
    }
    Ok(curve)
}

/// Trapezoidal area under a ROC curve — matches [`auc`] up to floating
/// point, provided the curve came from [`roc_curve`].
pub fn auc_from_curve(curve: &[RocPoint]) -> f64 {
    let mut area = 0.0;
    for w in curve.windows(2) {
        area += 0.5 * (w[1].tpr + w[0].tpr) * (w[1].fpr - w[0].fpr);
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_gives_auc_one() {
        let scores = [0.1, 0.2, 0.3, 0.9, 0.95];
        let labels = [false, false, false, true, true];
        assert_eq!(auc(&scores, &labels).unwrap(), 1.0);
        // reversed scores: AUC 0
        let rev: Vec<f64> = scores.iter().map(|s| -s).collect();
        assert_eq!(auc(&rev, &labels).unwrap(), 0.0);
    }

    #[test]
    fn balanced_extremes_give_half() {
        // positives at ranks 1 and 4: rank sum 5 → AUC (5 − 3)/4 = 0.5
        let scores = [1.0, 2.0, 3.0, 4.0];
        let labels = [true, false, false, true];
        assert_eq!(auc(&scores, &labels).unwrap(), 0.5);
        // positives at ranks 2 and 4 → AUC 0.75
        let labels = [false, true, false, true];
        assert_eq!(auc(&scores, &labels).unwrap(), 0.75);
    }

    #[test]
    fn ties_are_averaged() {
        // all scores equal: AUC must be exactly 0.5
        let scores = [1.0; 6];
        let labels = [true, false, true, false, true, false];
        assert_eq!(auc(&scores, &labels).unwrap(), 0.5);
    }

    #[test]
    fn auc_invariant_under_monotone_transform() {
        let scores = [0.1, 0.5, 0.2, 0.9, 0.4, 0.7];
        let labels = [false, true, false, true, false, true];
        let a1 = auc(&scores, &labels).unwrap();
        let transformed: Vec<f64> = scores.iter().map(|s| (10.0 * s).exp()).collect();
        let a2 = auc(&transformed, &labels).unwrap();
        assert!((a1 - a2).abs() < 1e-12);
    }

    #[test]
    fn curve_endpoints_and_monotonicity() {
        let scores = [0.2, 0.8, 0.4, 0.6, 0.1, 0.9];
        let labels = [false, true, false, true, false, true];
        let curve = roc_curve(&scores, &labels).unwrap();
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        for w in curve.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
            assert!(w[1].threshold <= w[0].threshold);
        }
    }

    #[test]
    fn curve_area_matches_rank_auc() {
        let scores = [0.3, 0.1, 0.7, 0.5, 0.9, 0.2, 0.8, 0.4];
        let labels = [false, false, true, false, true, false, true, true];
        let a1 = auc(&scores, &labels).unwrap();
        let curve = roc_curve(&scores, &labels).unwrap();
        assert!((auc_from_curve(&curve) - a1).abs() < 1e-12);
    }

    #[test]
    fn curve_area_matches_rank_auc_with_ties() {
        let scores = [0.5, 0.5, 0.5, 0.9, 0.1, 0.9];
        let labels = [false, true, false, true, false, true];
        let a1 = auc(&scores, &labels).unwrap();
        let curve = roc_curve(&scores, &labels).unwrap();
        assert!((auc_from_curve(&curve) - a1).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            auc(&[1.0], &[true, false]),
            Err(EvalError::LengthMismatch { .. })
        ));
        assert!(matches!(
            auc(&[1.0, 2.0], &[true, true]),
            Err(EvalError::SingleClass)
        ));
        assert!(matches!(
            auc(&[f64::NAN, 2.0], &[true, false]),
            Err(EvalError::NonFinite)
        ));
    }
}
