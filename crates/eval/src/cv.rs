//! Seeded k-fold cross-validation index generation and parallel per-fold
//! evaluation.

use crate::error::EvalError;
use crate::Result;
use mfod_linalg::par;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// K-fold splitter with a reproducible shuffle.
#[derive(Debug, Clone)]
pub struct KFold {
    /// Number of folds (>= 2).
    pub k: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl KFold {
    /// Creates a splitter with `k >= 2` folds.
    pub fn new(k: usize, seed: u64) -> Result<Self> {
        if k < 2 {
            return Err(EvalError::InvalidParameter(format!(
                "k must be >= 2, got {k}"
            )));
        }
        Ok(KFold { k, seed })
    }

    /// Produces `k` `(train_indices, validation_indices)` pairs partitioning
    /// `0..n`. Fold sizes differ by at most one.
    pub fn folds(&self, n: usize) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
        if n < self.k {
            return Err(EvalError::InvalidParameter(format!(
                "cannot split {n} samples into {} folds",
                self.k
            )));
        }
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        let base = n / self.k;
        let extra = n % self.k;
        let mut folds = Vec::with_capacity(self.k);
        let mut start = 0;
        for f in 0..self.k {
            let size = base + usize::from(f < extra);
            let val: Vec<usize> = idx[start..start + size].to_vec();
            let train: Vec<usize> = idx[..start]
                .iter()
                .chain(&idx[start + size..])
                .copied()
                .collect();
            folds.push((train, val));
            start += size;
        }
        Ok(folds)
    }
}

/// Evaluates `eval(fold_index, train, val)` over pre-computed `folds` on
/// an explicit worker pool, collecting results **in fold order** — the
/// parallel drop-in for `folds.iter().enumerate().map(…).collect()`.
/// Error selection is deterministic: the earliest failing fold wins,
/// exactly as in the sequential loop. Folds of unequal cost (they fit on
/// different training subsets) ride the pool's work-stealing scheduler,
/// so a cheap fold's thread steals the next one instead of idling behind
/// an expensive fold.
pub fn par_eval_folds<T, E, F>(
    pool: &par::Pool,
    folds: &[(Vec<usize>, Vec<usize>)],
    eval: F,
) -> std::result::Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &[usize], &[usize]) -> std::result::Result<T, E> + Sync,
{
    pool.try_map(folds.len(), |f| eval(f, &folds[f].0, &folds[f].1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_exactly() {
        let kf = KFold::new(5, 42).unwrap();
        let folds = kf.folds(23).unwrap();
        assert_eq!(folds.len(), 5);
        // validation sets partition 0..23
        let mut all: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
        // each (train, val) pair partitions as well
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 23);
            let mut merged: Vec<usize> = train.iter().chain(val).copied().collect();
            merged.sort_unstable();
            assert_eq!(merged, (0..23).collect::<Vec<_>>());
        }
        // fold sizes differ by at most 1
        let sizes: Vec<usize> = folds.iter().map(|(_, v)| v.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = KFold::new(3, 1).unwrap().folds(10).unwrap();
        let b = KFold::new(3, 1).unwrap().folds(10).unwrap();
        let c = KFold::new(3, 2).unwrap().folds(10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn validations() {
        assert!(KFold::new(1, 0).is_err());
        assert!(KFold::new(5, 0).unwrap().folds(3).is_err());
        assert!(KFold::new(2, 0).unwrap().folds(2).is_ok());
    }

    #[test]
    fn par_eval_folds_matches_the_sequential_loop() {
        let kf = KFold::new(5, 11).unwrap();
        let n = 37;
        let folds = kf.folds(n).unwrap();
        let score = |f: usize, train: &[usize], val: &[usize]| -> f64 {
            let t: usize = train.iter().sum();
            let v: usize = val.iter().sum();
            (f as f64 + 1.0) * (t as f64).sqrt() - (v as f64).ln()
        };
        let sequential: Vec<f64> = folds
            .iter()
            .enumerate()
            .map(|(f, (tr, va))| score(f, tr, va))
            .collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // the global pool (the one the ν tuner uses) and explicit pools
        let explicit: Vec<par::Pool> = [1usize, 4].map(par::Pool::with_threads).into();
        for pool in std::iter::once(par::global()).chain(&explicit) {
            let on_pool: Vec<f64> = par_eval_folds(pool, &folds, |f, tr, va| {
                Ok::<_, EvalError>(score(f, tr, va))
            })
            .unwrap();
            assert_eq!(
                bits(&sequential),
                bits(&on_pool),
                "threads={}",
                pool.threads()
            );
        }
    }

    #[test]
    fn par_eval_folds_reports_earliest_fold_error() {
        let folds = KFold::new(4, 3).unwrap().folds(20).unwrap();
        for pool in [par::global(), &par::Pool::with_threads(4)] {
            let err = par_eval_folds::<usize, EvalError, _>(pool, &folds, |f, _, _| {
                if f >= 1 {
                    Err(EvalError::InvalidParameter(format!("fold {f}")))
                } else {
                    Ok(f)
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("fold 1"), "{err}");
        }
    }
}
