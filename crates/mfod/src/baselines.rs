//! Adapters running the depth-based baselines (FUNTA, Dir.out, …) under the
//! same train/test protocol as the pipeline.
//!
//! Depth methods have no fit/predict split: a sample's score is its
//! outlyingness *relative to a reference sample*. Following the paper's
//! protocol (the baselines "take the MFD as input"), a test sample is
//! scored against the training set: we build the joint dataset
//! `train ∪ test`, score it, and report the test part. Because the training
//! composition varies with the contamination level `c`, the baselines'
//! AUC degrades as `c` grows — the robustness effect Fig. 3 measures.
//!
//! [`DepthBaseline::fit`] captures the gridded training reference once in a
//! [`FittedDepthBaseline`], which — unlike the convenience
//! [`DepthBaseline::score_test`] that re-grids the training set on every
//! call — persists like the other serving artifacts
//! ([`DepthBaselineSnapshot`], kind tag
//! [`crate::snapshot::KIND_DEPTH_BASELINE`]) so a restart restores the
//! reference instead of refitting it.

use crate::error::MfodError;
use crate::snapshot::KIND_DEPTH_BASELINE;
use crate::Result;
use mfod_datasets::LabeledDataSet;
use mfod_depth::{DepthScorerSnapshot, FunctionalOutlierScorer, GriddedDataSet};
use mfod_linalg::Matrix;
use mfod_persist::{Decode, Decoder, Encode, Encoder, PersistError, Restorable, Snapshot};
use std::path::Path;
use std::sync::Arc;

/// A depth-based baseline bound to the joint-scoring protocol.
#[derive(Clone)]
pub struct DepthBaseline {
    scorer: Arc<dyn FunctionalOutlierScorer>,
}

impl std::fmt::Debug for DepthBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepthBaseline")
            .field("scorer", &self.scorer.name())
            .finish()
    }
}

impl DepthBaseline {
    /// Wraps a functional outlyingness scorer.
    pub fn new(scorer: Arc<dyn FunctionalOutlierScorer>) -> Self {
        DepthBaseline { scorer }
    }

    /// The scorer's name (e.g. `"funta"`, `"dir.out"`).
    pub fn name(&self) -> &'static str {
        self.scorer.name()
    }

    /// Converts raw labeled samples (sharing a common measurement grid)
    /// into the gridded format of the depth crate.
    pub fn gridded(data: &LabeledDataSet) -> Result<GriddedDataSet> {
        if data.is_empty() {
            return Err(MfodError::Pipeline("empty dataset".into()));
        }
        let grid = data.samples()[0].t.clone();
        let mut mats = Vec::with_capacity(data.len());
        for (i, s) in data.samples().iter().enumerate() {
            if s.t != grid {
                return Err(MfodError::Pipeline(format!(
                    "sample {i} uses a different measurement grid; depth \
                     baselines need a common grid"
                )));
            }
            let mut m = Matrix::zeros(s.len(), s.dim());
            for (k, c) in s.channels.iter().enumerate() {
                for (j, &v) in c.iter().enumerate() {
                    m[(j, k)] = v;
                }
            }
            mats.push(m);
        }
        Ok(GriddedDataSet::new(grid, mats)?)
    }

    /// Scores the test samples against the training reference (the paper's
    /// protocol: methods are fit on the — possibly contaminated — training
    /// set) and returns test scores (higher = more outlying) in test order.
    pub fn score_test(&self, train: &LabeledDataSet, test: &LabeledDataSet) -> Result<Vec<f64>> {
        let train_g = Self::gridded(train)?;
        let test_g = Self::gridded(test)?;
        Ok(self.scorer.score_against(&train_g, &test_g)?)
    }

    /// Convenience: test AUC under the joint-scoring protocol.
    pub fn auc(&self, train: &LabeledDataSet, test: &LabeledDataSet) -> Result<f64> {
        let scores = self.score_test(train, test)?;
        Ok(mfod_eval::auc(&scores, test.labels())?)
    }

    /// Grids the training reference once and binds it to the scorer.
    ///
    /// The resulting [`FittedDepthBaseline`] scores test batches without
    /// re-converting the training set and, unlike this unfitted adapter,
    /// can be snapshotted and restored without refitting.
    pub fn fit(&self, train: &LabeledDataSet) -> Result<FittedDepthBaseline> {
        Ok(FittedDepthBaseline {
            scorer: Arc::clone(&self.scorer),
            reference: Self::gridded(train)?,
        })
    }
}

/// A depth baseline with its gridded training reference captured.
///
/// Scores are bit-identical to [`DepthBaseline::score_test`] on the same
/// training set: fitting only hoists the train-side gridding out of the
/// per-call path.
#[derive(Clone)]
pub struct FittedDepthBaseline {
    scorer: Arc<dyn FunctionalOutlierScorer>,
    reference: GriddedDataSet,
}

impl std::fmt::Debug for FittedDepthBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedDepthBaseline")
            .field("scorer", &self.scorer.name())
            .field("reference_n", &self.reference.n())
            .finish()
    }
}

impl FittedDepthBaseline {
    /// The scorer's name (e.g. `"funta"`, `"dir.out"`).
    pub fn name(&self) -> &'static str {
        self.scorer.name()
    }

    /// The gridded training reference the baseline was fitted on.
    pub fn reference(&self) -> &GriddedDataSet {
        &self.reference
    }

    /// Scores the test samples against the captured training reference
    /// (higher = more outlying), in test order.
    pub fn score_test(&self, test: &LabeledDataSet) -> Result<Vec<f64>> {
        let test_g = DepthBaseline::gridded(test)?;
        Ok(self.scorer.score_against(&self.reference, &test_g)?)
    }

    /// Convenience: test AUC against the captured reference.
    pub fn auc(&self, test: &LabeledDataSet) -> Result<f64> {
        let scores = self.score_test(test)?;
        Ok(mfod_eval::auc(&scores, test.labels())?)
    }

    /// Converts this baseline into its persistable snapshot form.
    ///
    /// Fails with a typed error when the scorer is a custom
    /// [`FunctionalOutlierScorer`] without a snapshot hook.
    pub fn snapshot(&self) -> Result<DepthBaselineSnapshot> {
        let scorer = self.scorer.snapshot().ok_or_else(|| {
            MfodError::Pipeline(format!(
                "depth scorer '{}' does not support snapshots",
                self.scorer.name()
            ))
        })?;
        Ok(DepthBaselineSnapshot {
            scorer,
            grid: self.reference.grid().to_vec(),
            samples: self.reference.samples().to_vec(),
        })
    }

    /// Snapshots this baseline and writes it to `path` atomically.
    pub fn save(&self, path: &Path) -> Result<()> {
        Ok(mfod_persist::save(&self.snapshot()?, path)?)
    }

    /// Loads a baseline saved with [`FittedDepthBaseline::save`],
    /// re-running all restore validation. The result scores bit-identically
    /// to the baseline that was saved.
    pub fn load(path: &Path) -> Result<FittedDepthBaseline> {
        mfod_persist::load::<DepthBaselineSnapshot>(path)?.restore()
    }
}

/// The on-disk form of a [`FittedDepthBaseline`]: the scorer's constructor
/// parameters plus the gridded training reference.
///
/// `mfod-depth` stays free of a persistence dependency, so the
/// [`DepthScorerSnapshot`] enum is encoded field-by-field here (a `u8`
/// variant tag followed by the constructor parameters) rather than via a
/// trait impl on the foreign type.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthBaselineSnapshot {
    /// Constructor parameters of the scorer.
    pub scorer: DepthScorerSnapshot,
    /// Common measurement grid of the training reference.
    pub grid: Vec<f64>,
    /// Training samples, one `m × dim` matrix per curve.
    pub samples: Vec<Matrix>,
}

const TAG_FUNTA: u8 = 0;
const TAG_DIROUT: u8 = 1;

impl Encode for DepthBaselineSnapshot {
    fn encode(&self, w: &mut Encoder) {
        match self.scorer {
            DepthScorerSnapshot::Funta { trim } => {
                w.put_u8(TAG_FUNTA);
                w.put_f64(trim);
            }
            DepthScorerSnapshot::DirOut { n_directions, seed } => {
                w.put_u8(TAG_DIROUT);
                w.put_usize(n_directions);
                w.put_u64(seed);
            }
        }
        self.grid.encode(w);
        self.samples.encode(w);
    }
}

impl Decode for DepthBaselineSnapshot {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        let scorer = match r.take_u8()? {
            TAG_FUNTA => DepthScorerSnapshot::Funta {
                trim: r.take_f64()?,
            },
            TAG_DIROUT => DepthScorerSnapshot::DirOut {
                n_directions: r.take_usize()?,
                seed: r.take_u64()?,
            },
            tag => {
                return Err(PersistError::UnknownTag {
                    what: "depth scorer",
                    tag: u32::from(tag),
                })
            }
        };
        Ok(DepthBaselineSnapshot {
            scorer,
            grid: Vec::decode(r)?,
            samples: Vec::decode(r)?,
        })
    }
}

impl Snapshot for DepthBaselineSnapshot {
    const KIND: u32 = KIND_DEPTH_BASELINE;
    const NAME: &'static str = "depth-baseline";
}

impl DepthBaselineSnapshot {
    /// Rebuilds the live baseline. The scorer constructor re-runs its
    /// parameter validation (e.g. the rFUNTA trim range) and
    /// [`GriddedDataSet::new`] re-validates the reference (finite,
    /// strictly increasing grid; consistent sample shapes), so a
    /// tampered-but-checksummed file still fails with a typed error.
    pub fn restore(self) -> Result<FittedDepthBaseline> {
        Ok(FittedDepthBaseline {
            scorer: self.scorer.restore()?,
            reference: GriddedDataSet::new(self.grid, self.samples)?,
        })
    }
}

impl Restorable for FittedDepthBaseline {
    type Snapshot = DepthBaselineSnapshot;

    fn restore(snapshot: DepthBaselineSnapshot) -> std::result::Result<Self, String> {
        snapshot.restore().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_datasets::{OutlierType, SplitConfig, TaxonomyConfig};
    use mfod_depth::{DirOut, Funta};

    fn shape_data() -> LabeledDataSet {
        TaxonomyConfig {
            m: 40,
            noise_std: 0.03,
        }
        .generate(OutlierType::ShapePersistent, 40, 10, 11)
        .unwrap()
    }

    #[test]
    fn gridded_conversion_shapes() {
        let data = shape_data();
        let g = DepthBaseline::gridded(&data).unwrap();
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 40);
        assert_eq!(g.dim(), 1);
        // values survive the conversion
        assert_eq!(g.sample(0)[(3, 0)], data.samples()[0].channels[0][3]);
    }

    #[test]
    fn funta_baseline_detects_shape_outliers() {
        let data = shape_data();
        let split = SplitConfig {
            train_size: 25,
            contamination: 0.08,
        };
        let (train, test) = split.split_datasets(&data, 3).unwrap();
        let b = DepthBaseline::new(Arc::new(Funta::new()));
        assert_eq!(b.name(), "funta");
        let auc = b.auc(&train, &test).unwrap();
        assert!(auc > 0.8, "FUNTA AUC on pure shape outliers: {auc}");
    }

    #[test]
    fn dirout_baseline_runs() {
        let data = TaxonomyConfig {
            m: 30,
            noise_std: 0.03,
        }
        .generate(OutlierType::MagnitudeIsolated, 40, 10, 5)
        .unwrap();
        let split = SplitConfig {
            train_size: 25,
            contamination: 0.08,
        };
        let (train, test) = split.split_datasets(&data, 1).unwrap();
        let b = DepthBaseline::new(Arc::new(DirOut::new()));
        let auc = b.auc(&train, &test).unwrap();
        assert!(auc > 0.8, "Dir.out AUC on magnitude outliers: {auc}");
        assert!(format!("{b:?}").contains("dir.out"));
    }

    #[test]
    fn score_order_matches_test_order() {
        let data = shape_data();
        let split = SplitConfig {
            train_size: 30,
            contamination: 0.1,
        };
        let (train, test) = split.split_datasets(&data, 9).unwrap();
        let b = DepthBaseline::new(Arc::new(Funta::new()));
        let s = b.score_test(&train, &test).unwrap();
        assert_eq!(s.len(), test.len());
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: score {i}");
        }
    }

    #[test]
    fn fitted_baseline_matches_unfitted_scores() {
        let data = shape_data();
        let split = SplitConfig {
            train_size: 25,
            contamination: 0.08,
        };
        let (train, test) = split.split_datasets(&data, 3).unwrap();
        for scorer in [
            Arc::new(Funta::robust(0.1).unwrap()) as Arc<dyn FunctionalOutlierScorer>,
            Arc::new(DirOut::new()),
        ] {
            let b = DepthBaseline::new(Arc::clone(&scorer));
            let fitted = b.fit(&train).unwrap();
            assert_eq!(fitted.name(), b.name());
            assert_eq!(fitted.reference().n(), train.len());
            assert_bits_eq(
                &b.score_test(&train, &test).unwrap(),
                &fitted.score_test(&test).unwrap(),
                fitted.name(),
            );
            assert_eq!(
                b.auc(&train, &test).unwrap().to_bits(),
                fitted.auc(&test).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn fitted_baseline_roundtrip_scores_bit_identically() {
        let data = shape_data();
        let split = SplitConfig {
            train_size: 25,
            contamination: 0.08,
        };
        let (train, test) = split.split_datasets(&data, 7).unwrap();
        for scorer in [
            Arc::new(Funta::robust(0.15).unwrap()) as Arc<dyn FunctionalOutlierScorer>,
            Arc::new(DirOut::new()),
        ] {
            let fitted = DepthBaseline::new(scorer).fit(&train).unwrap();
            let bytes = mfod_persist::to_bytes(&fitted.snapshot().unwrap());
            let snap: DepthBaselineSnapshot = mfod_persist::from_bytes(&bytes).unwrap();
            // re-encode is byte-identical
            assert_eq!(mfod_persist::to_bytes(&snap), bytes);
            let restored = snap.restore().unwrap();
            assert_eq!(restored.name(), fitted.name());
            // no refit on restore, and scores are bit-identical
            assert_bits_eq(
                &fitted.score_test(&test).unwrap(),
                &restored.score_test(&test).unwrap(),
                fitted.name(),
            );
            // a restored baseline re-snapshots to the same bytes again
            assert_eq!(mfod_persist::to_bytes(&restored.snapshot().unwrap()), bytes);
        }
    }

    #[test]
    fn fitted_baseline_file_and_registry_roundtrip() {
        use mfod_persist::ModelRegistry;
        let data = shape_data();
        let split = SplitConfig {
            train_size: 25,
            contamination: 0.08,
        };
        let (train, test) = split.split_datasets(&data, 5).unwrap();
        let fitted = DepthBaseline::new(Arc::new(Funta::new()))
            .fit(&train)
            .unwrap();
        let expected = fitted.score_test(&test).unwrap();
        let dir = std::env::temp_dir().join(format!("mfod-depth-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("funta.mfod");
        fitted.save(&path).unwrap();
        let restored = FittedDepthBaseline::load(&path).unwrap();
        assert_bits_eq(&expected, &restored.score_test(&test).unwrap(), "file");
        // loading the wrong artifact kind is typed
        assert!(matches!(
            crate::FittedPipeline::load(&path),
            Err(MfodError::Persist(
                mfod_persist::PersistError::WrongKind { .. }
            ))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        // hot-swap through the registry restores the same scores
        let reg: ModelRegistry<FittedDepthBaseline> = ModelRegistry::new();
        reg.install_bytes(&mfod_persist::to_bytes(&fitted.snapshot().unwrap()))
            .unwrap();
        let active = reg.active().unwrap();
        assert_bits_eq(&expected, &active.score_test(&test).unwrap(), "registry");
    }

    #[test]
    fn tampered_depth_snapshots_are_rejected() {
        let data = shape_data();
        let split = SplitConfig {
            train_size: 20,
            contamination: 0.1,
        };
        let (train, _) = split.split_datasets(&data, 2).unwrap();
        let snap = DepthBaseline::new(Arc::new(Funta::new()))
            .fit(&train)
            .unwrap()
            .snapshot()
            .unwrap();
        // a trim the constructor would reject cannot be resurrected
        let mut bad = snap.clone();
        bad.scorer = mfod_depth::DepthScorerSnapshot::Funta { trim: 0.7 };
        assert!(matches!(bad.restore(), Err(MfodError::Depth(_))));
        // a non-increasing grid fails the dataset re-validation
        let mut bad = snap.clone();
        bad.grid[1] = bad.grid[0];
        assert!(matches!(bad.restore(), Err(MfodError::Depth(_))));
        // a sample with the wrong shape fails too
        let mut bad = snap.clone();
        bad.samples[0] = Matrix::zeros(2, 1);
        assert!(bad.restore().is_err());
        // unknown scorer tags and truncation/corruption are typed
        let bytes = mfod_persist::to_bytes(&snap);
        for n in [0, 4, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(mfod_persist::from_bytes::<DepthBaselineSnapshot>(&bytes[..n]).is_err());
        }
    }

    #[test]
    fn mismatched_grids_rejected() {
        use mfod_fda::RawSample;
        let s1 = RawSample::new(vec![0.0, 0.5, 1.0], vec![vec![0.0, 1.0, 2.0]]).unwrap();
        let s2 = RawSample::new(vec![0.0, 0.6, 1.0], vec![vec![0.0, 1.0, 2.0]]).unwrap();
        let data = LabeledDataSet::new(vec![s1, s2], vec![false, true]).unwrap();
        assert!(matches!(
            DepthBaseline::gridded(&data),
            Err(MfodError::Pipeline(_))
        ));
    }
}
