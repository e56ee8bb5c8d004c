//! ν-hyper-parameter tuning for the one-class SVM by k-fold
//! *self-consistency* cross-validation.
//!
//! The paper tunes ν with 5-fold CV on the (unlabeled) training set
//! (Sec. 4.3) without stating the criterion; the standard unsupervised
//! choice — used here — exploits the ν-property: ν upper-bounds the
//! fraction of training outliers and should therefore match the fraction of
//! *held-out* points flagged as outliers. The tuner selects the candidate
//! minimizing `|held-out flagged fraction − ν|`. As the true contamination
//! `c` grows past the candidate grid, no ν fits well and OCSVM degrades —
//! the effect visible in the paper's Fig. 3 discussion.

use crate::error::MfodError;
use crate::Result;
use mfod_detect::{FittedDetector, OcSvm};
use mfod_eval::{cv::par_eval_folds, KFold};
use mfod_linalg::{par, Matrix};
use std::convert::Infallible;

/// ν tuner configuration.
#[derive(Debug, Clone)]
pub struct NuTuner {
    /// Candidate ν values (each in `(0, 1]`).
    pub candidates: Vec<f64>,
    /// Number of CV folds (the paper uses 5).
    pub folds: usize,
    /// RNG seed for the fold shuffle.
    pub seed: u64,
}

impl Default for NuTuner {
    fn default() -> Self {
        NuTuner {
            candidates: vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.3],
            folds: 5,
            seed: 0x7E57,
        }
    }
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct NuSelection {
    /// The selected ν.
    pub nu: f64,
    /// Self-consistency objective `|flagged fraction − ν|` of the winner.
    pub objective: f64,
    /// `(ν, objective)` for every candidate, in candidate order.
    pub profile: Vec<(f64, f64)>,
}

impl NuTuner {
    /// Tunes ν on the training features (rows = samples) and returns the
    /// selection. The template's kernel settings are reused for every fold.
    ///
    /// The folds fan out across the global worker pool, and each fold
    /// fits every candidate with [`OcSvm::fit_nus_on`]: γ and the Gram
    /// matrix depend only on the fold's training rows, so they are built
    /// once per fold, not once per candidate. Each candidate's flagged
    /// counts are summed in fold order (integer sums), so the profile is
    /// exactly that of a candidate-by-candidate loop, and so is a failure:
    /// the first failing fold of the first failing candidate is the error
    /// reported.
    pub fn tune(&self, template: &OcSvm, train: &Matrix) -> Result<NuSelection> {
        if self.candidates.is_empty() {
            return Err(MfodError::Pipeline("no ν candidates supplied".into()));
        }
        for &nu in &self.candidates {
            if !(0.0 < nu && nu <= 1.0) {
                return Err(MfodError::Pipeline(format!(
                    "candidate ν {nu} out of (0, 1]"
                )));
            }
        }
        let n = train.nrows();
        let kf = KFold::new(self.folds, self.seed)?;
        let folds = kf.folds(n)?;
        let cols: Vec<usize> = (0..train.ncols()).collect();
        // Per fold, a (flagged, held-out) count or an error per candidate.
        // A failed kernel stage fails every candidate, so its fold holds
        // that one error, which the first candidate reaches and returns.
        let Ok(mut per_fold) = par_eval_folds(par::global(), &folds, |_, tr, va| {
            let tr_m = train.submatrix(tr, &cols);
            let counts = match template.fit_nus_on(par::global(), &tr_m, &self.candidates) {
                Err(e) => vec![Err(e.into())],
                Ok(models) => models
                    .into_iter()
                    .map(|model| {
                        let model = model?;
                        let mut flagged = 0usize;
                        for &i in va {
                            // score > 0 ⟺ decision f(x) < 0 ⟺ flagged as outlier
                            if model.score_one(train.row(i))? > 0.0 {
                                flagged += 1;
                            }
                        }
                        Ok((flagged, va.len()))
                    })
                    .collect::<Vec<Result<(usize, usize)>>>(),
            };
            Ok::<_, Infallible>(counts.into_iter())
        });
        let mut profile = Vec::with_capacity(self.candidates.len());
        for &nu in &self.candidates {
            let (mut flagged, mut total) = (0usize, 0usize);
            for counts in &mut per_fold {
                let (f, t) = counts.next().expect("a result per candidate")?;
                flagged += f;
                total += t;
            }
            let fraction = flagged as f64 / total.max(1) as f64;
            profile.push((nu, (fraction - nu).abs()));
        }
        let (nu, objective) = profile
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty candidates");
        Ok(NuSelection {
            nu,
            objective,
            profile,
        })
    }

    /// Tunes ν and fits the final model on the full training set with it.
    pub fn tune_and_fit(
        &self,
        template: &OcSvm,
        train: &Matrix,
    ) -> Result<(NuSelection, Box<dyn FittedDetector>)> {
        let selection = self.tune(template, train)?;
        let cfg = OcSvm {
            nu: selection.nu,
            ..template.clone()
        };
        let model = cfg.fit_concrete(train)?;
        Ok((selection, Box::new(model)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_detect::Detector;

    /// Ring of inliers with `frac` replaced by far-away outliers.
    fn contaminated(n: usize, frac: f64, spread: f64) -> Matrix {
        let n_out = (n as f64 * frac).round() as usize;
        let mut rows: Vec<Vec<f64>> = (0..n - n_out)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / (n - n_out) as f64;
                vec![a.cos(), a.sin()]
            })
            .collect();
        for i in 0..n_out {
            let a = i as f64 * 2.39996;
            rows.push(vec![spread * a.cos(), spread * a.sin()]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    #[test]
    fn selects_nu_near_contamination() {
        let x = contaminated(100, 0.10, 8.0);
        let tuner = NuTuner::default();
        let sel = tuner.tune(&OcSvm::default(), &x).unwrap();
        assert!(
            (0.02..=0.3).contains(&sel.nu),
            "selected ν {} outside candidate range",
            sel.nu
        );
        assert_eq!(sel.profile.len(), 6);
        assert!(
            sel.objective
                <= sel
                    .profile
                    .iter()
                    .map(|p| p.1)
                    .fold(f64::INFINITY, f64::min)
                    + 1e-12
        );
    }

    #[test]
    fn tune_and_fit_scores_outliers_high() {
        let x = contaminated(80, 0.1, 10.0);
        let tuner = NuTuner {
            folds: 4,
            ..Default::default()
        };
        let (sel, model) = tuner.tune_and_fit(&OcSvm::default(), &x).unwrap();
        assert!(sel.nu > 0.0);
        let inlier = model.score_one(&[1.0, 0.0]).unwrap();
        let outlier = model.score_one(&[12.0, 0.0]).unwrap();
        assert!(outlier > inlier);
    }

    #[test]
    fn validation_errors() {
        let x = contaminated(30, 0.1, 5.0);
        let t = NuTuner {
            candidates: vec![],
            ..Default::default()
        };
        assert!(t.tune(&OcSvm::default(), &x).is_err());
        let t = NuTuner {
            candidates: vec![1.5],
            ..Default::default()
        };
        assert!(t.tune(&OcSvm::default(), &x).is_err());
        let t = NuTuner {
            folds: 1,
            ..Default::default()
        };
        assert!(t.tune(&OcSvm::default(), &x).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let x = contaminated(60, 0.15, 6.0);
        let t = NuTuner::default();
        let a = t.tune(&OcSvm::default(), &x).unwrap();
        let b = t.tune(&OcSvm::default(), &x).unwrap();
        assert_eq!(a.nu, b.nu);
        assert_eq!(a.profile, b.profile);
    }

    /// The tuning loop as it stood before the shared kernel stage:
    /// candidate-major, every (candidate, fold) pair fitting from scratch.
    fn candidate_major(
        tuner: &NuTuner,
        template: &OcSvm,
        train: &Matrix,
    ) -> Result<Vec<(f64, f64)>> {
        let folds = KFold::new(tuner.folds, tuner.seed)?.folds(train.nrows())?;
        let cols: Vec<usize> = (0..train.ncols()).collect();
        let mut profile = Vec::new();
        for &nu in &tuner.candidates {
            let fold_counts: Vec<(usize, usize)> =
                par_eval_folds(par::global(), &folds, |_, tr, va| {
                    let cfg = OcSvm {
                        nu,
                        ..template.clone()
                    };
                    let model = cfg.fit_concrete(&train.submatrix(tr, &cols))?;
                    let mut flagged = 0usize;
                    for &i in va {
                        if model.score_one(train.row(i))? > 0.0 {
                            flagged += 1;
                        }
                    }
                    Ok::<_, MfodError>((flagged, va.len()))
                })?;
            let (flagged, total) = fold_counts
                .iter()
                .fold((0usize, 0usize), |(f, t), &(cf, ct)| (f + cf, t + ct));
            profile.push((nu, (flagged as f64 / total.max(1) as f64 - nu).abs()));
        }
        Ok(profile)
    }

    #[test]
    fn fold_fan_out_matches_the_candidate_major_loop() {
        let bits = |p: &[(f64, f64)]| {
            p.iter()
                .map(|(a, b)| (a.to_bits(), b.to_bits()))
                .collect::<Vec<_>>()
        };
        let scale = OcSvm {
            gamma: mfod_detect::GammaSpec::Scale,
            ..Default::default()
        };
        let cases = [
            (
                NuTuner::default(),
                OcSvm::default(),
                contaminated(100, 0.10, 8.0),
            ),
            (
                NuTuner {
                    candidates: vec![0.3, 0.02, 0.3, 0.5],
                    folds: 3,
                    seed: 9,
                },
                scale,
                contaminated(61, 0.2, 4.0),
            ),
        ];
        for (tuner, template, x) in &cases {
            let want = candidate_major(tuner, template, x).unwrap();
            let got = tuner.tune(template, x).unwrap();
            assert_eq!(bits(&got.profile), bits(&want));
            let best = want
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(
                (got.nu.to_bits(), got.objective.to_bits()),
                (best.0.to_bits(), best.1.to_bits())
            );
        }
        // Failures: a solve that runs out of iterations (ν = 1 starts at
        // its optimum, so the first candidate succeeds on every fold), and
        // a kernel stage that fails on every fold.
        let x = contaminated(60, 0.1, 6.0);
        let tight = OcSvm {
            max_iter: 2,
            ..Default::default()
        };
        let bad_kernel = OcSvm {
            kernel: Some(mfod_detect::Kernel::Rbf { gamma: 0.0 }),
            ..Default::default()
        };
        let tuner = NuTuner {
            candidates: vec![1.0, 0.1, 0.2],
            ..Default::default()
        };
        for template in [tight, bad_kernel] {
            let want = candidate_major(&tuner, &template, &x).unwrap_err();
            let got = tuner.tune(&template, &x).unwrap_err();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn template_kernel_respected() {
        // a template with a linear kernel must not fail
        let x = contaminated(40, 0.1, 5.0);
        let template = OcSvm {
            kernel: Some(mfod_detect::Kernel::Linear),
            ..Default::default()
        };
        assert_eq!(template.name(), "ocsvm");
        let sel = NuTuner {
            folds: 3,
            ..Default::default()
        }
        .tune(&template, &x)
        .unwrap();
        assert!(sel.nu > 0.0);
    }
}
