//! Snapshot forms of the serving artifacts: [`FittedPipeline`] and
//! [`FittedMappingEnsemble`].
//!
//! A fitted pipeline owns two trait objects (the mapping and the fitted
//! detector); its snapshot replaces both with the concrete tagged unions
//! from `mfod-geometry` / `mfod-detect`. Restoring re-runs the domain
//! validation the fit path enforced, rebuilds the trait objects, and
//! re-checks cross-field consistency (detector dimension vs grid length,
//! stored label vs stage names, winsorize state vs the transform) so a
//! tampered-but-checksummed file still fails with a typed error.
//!
//! **Bit-exactness.** All numeric state travels as raw bit patterns, and
//! scoring is a pure function of that state (per-sample re-selection
//! runs the same fp ops on the same selector configuration), so a
//! reloaded pipeline scores **bit-for-bit identically** to the in-memory
//! original.
//!
//! **Retired kind 2.** Artifact kind 2 belonged to the frozen scorer, a
//! serving-only path that reused the training-time basis selection. The
//! tag is retired and never reused: a kind-2 file fails every loader
//! here with [`PersistError::WrongKind`] instead of being decoded.

use crate::ensemble::FittedMappingEnsemble;
use crate::error::MfodError;
use crate::pipeline::{FeatureTransform, FittedPipeline, PipelineConfig};
use crate::Result;
use mfod_detect::DetectorSnapshot;
use mfod_fda::BasisSelector;
use mfod_geometry::{snapshot_mapping, MappingSnapshot};
use mfod_persist::{Decode, Decoder, Encode, Encoder, PersistError, Restorable, Snapshot};
use std::path::Path;

/// Artifact-kind tag of [`PipelineSnapshot`] files.
pub const KIND_FITTED_PIPELINE: u32 = 1;
// Kind 2 is retired and never reused (see the module docs).
/// Artifact-kind tag reserved by `mfod-stream` for calibrator files.
pub const KIND_THRESHOLD_CALIBRATOR: u32 = 3;
/// Artifact-kind tag of [`EnsembleSnapshot`] files.
pub const KIND_MAPPING_ENSEMBLE: u32 = 4;
/// Artifact-kind tag of [`crate::baselines::DepthBaselineSnapshot`] files.
pub const KIND_DEPTH_BASELINE: u32 = 5;

impl Encode for FeatureTransform {
    fn encode(&self, w: &mut Encoder) {
        match *self {
            FeatureTransform::None => w.put_u8(0),
            FeatureTransform::Log1p => w.put_u8(1),
            FeatureTransform::SignedSqrt => w.put_u8(2),
            FeatureTransform::Winsorize(q) => {
                w.put_u8(3);
                w.put_f64(q);
            }
        }
    }
}

impl Decode for FeatureTransform {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(match r.take_u8()? {
            0 => FeatureTransform::None,
            1 => FeatureTransform::Log1p,
            2 => FeatureTransform::SignedSqrt,
            3 => FeatureTransform::Winsorize(r.take_f64()?),
            tag => {
                return Err(PersistError::UnknownTag {
                    what: "feature transform",
                    tag: u32::from(tag),
                })
            }
        })
    }
}

impl Encode for PipelineConfig {
    fn encode(&self, w: &mut Encoder) {
        self.selector.encode(w);
        w.put_usize(self.grid_len);
        self.transform.encode(w);
    }
}

impl Decode for PipelineConfig {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(PipelineConfig {
            selector: BasisSelector::decode(r)?,
            grid_len: r.take_usize()?,
            transform: FeatureTransform::decode(r)?,
        })
    }
}

/// The on-disk form of a [`FittedPipeline`].
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    /// Smoothing/mapping configuration the model was fitted under.
    pub config: PipelineConfig,
    /// Concrete form of the mapping stage.
    pub mapping: MappingSnapshot,
    /// Concrete form of the fitted detector.
    pub detector: DetectorSnapshot,
    /// The `"<detector>(<mapping>)"` label.
    pub label: String,
    /// Training-set winsorization cap, when the transform winsorizes.
    pub winsorize_cap: Option<f64>,
    /// Observation domain the model was trained on.
    pub domain: (f64, f64),
    /// Per-channel `(basis size, λ)` winning selection.
    pub selected: Vec<(usize, f64)>,
}

impl Encode for PipelineSnapshot {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        self.mapping.encode(w);
        self.detector.encode(w);
        self.label.encode(w);
        self.winsorize_cap.encode(w);
        w.put_f64(self.domain.0);
        w.put_f64(self.domain.1);
        self.selected.encode(w);
    }
}

impl Decode for PipelineSnapshot {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(PipelineSnapshot {
            config: PipelineConfig::decode(r)?,
            mapping: MappingSnapshot::decode(r)?,
            detector: DetectorSnapshot::decode(r)?,
            label: String::decode(r)?,
            winsorize_cap: Option::decode(r)?,
            domain: (r.take_f64()?, r.take_f64()?),
            selected: Vec::decode(r)?,
        })
    }
}

impl Snapshot for PipelineSnapshot {
    const KIND: u32 = KIND_FITTED_PIPELINE;
    const NAME: &'static str = "fitted-pipeline";
}

impl PipelineSnapshot {
    /// Rebuilds the live pipeline, re-validating every cross-field
    /// invariant the fit path established.
    pub fn restore(self) -> Result<FittedPipeline> {
        // the fit path's own config validation (grid_len floor, winsorize
        // quantile range) — a snapshot must not resurrect a config the
        // fit path would have rejected
        self.config.validate()?;
        let (a, b) = self.domain;
        if !(a.is_finite() && b.is_finite() && a < b) {
            return Err(MfodError::Pipeline(format!(
                "snapshot domain [{a}, {b}] is not a valid interval"
            )));
        }
        if self.selected.is_empty() {
            return Err(MfodError::Pipeline(
                "snapshot records no per-channel selection".into(),
            ));
        }
        let mapping = self.mapping.restore();
        let expected_label = format!("{}({})", self.detector.name(), mapping.name());
        if self.label != expected_label {
            return Err(MfodError::Pipeline(format!(
                "snapshot label '{}' disagrees with its stages '{expected_label}'",
                self.label
            )));
        }
        match self.config.transform {
            FeatureTransform::Winsorize(_) => {
                if !self.winsorize_cap.is_some_and(f64::is_finite) {
                    return Err(MfodError::Pipeline(
                        "winsorizing snapshot is missing a finite training cap".into(),
                    ));
                }
            }
            _ => {
                if self.winsorize_cap.is_some() {
                    return Err(MfodError::Pipeline(
                        "non-winsorizing snapshot carries a winsorize cap".into(),
                    ));
                }
            }
        }
        let model = self.detector.into_fitted();
        if model.dim() != self.config.grid_len {
            return Err(MfodError::Pipeline(format!(
                "snapshot detector expects {} features, grid length is {}",
                model.dim(),
                self.config.grid_len
            )));
        }
        Ok(FittedPipeline::from_snapshot_parts(
            self.config,
            mapping,
            model,
            self.label,
            self.winsorize_cap,
            self.domain,
            self.selected,
        ))
    }
}

impl Restorable for FittedPipeline {
    type Snapshot = PipelineSnapshot;

    fn restore(snapshot: PipelineSnapshot) -> std::result::Result<Self, String> {
        snapshot.restore().map_err(|e| e.to_string())
    }
}

impl FittedPipeline {
    /// Converts this pipeline into its persistable snapshot form.
    ///
    /// Fails with a typed error when either trait-object stage (a custom
    /// mapping or detector) does not implement its snapshot hook.
    pub fn snapshot(&self) -> Result<PipelineSnapshot> {
        let mapping = snapshot_mapping(self.mapping().as_ref())?;
        let detector = self.detector().snapshot().ok_or_else(|| {
            MfodError::Pipeline(format!(
                "detector of pipeline '{}' does not support snapshots",
                self.label()
            ))
        })?;
        Ok(PipelineSnapshot {
            config: self.config().clone(),
            mapping,
            detector,
            label: self.label().to_string(),
            winsorize_cap: self.winsorize_cap(),
            domain: self.domain(),
            selected: self.selected_bases().to_vec(),
        })
    }

    /// Snapshots this pipeline and writes it to `path` atomically.
    pub fn save(&self, path: &Path) -> Result<()> {
        Ok(mfod_persist::save(&self.snapshot()?, path)?)
    }

    /// Loads a pipeline saved with [`FittedPipeline::save`], re-running
    /// all restore validation. The result scores bit-identically to the
    /// pipeline that was saved.
    pub fn load(path: &Path) -> Result<FittedPipeline> {
        mfod_persist::load::<PipelineSnapshot>(path)?.restore()
    }
}

/// The on-disk form of a [`FittedMappingEnsemble`]
/// (`crate::ensemble`): one [`PipelineSnapshot`] per member, in member
/// order.
///
/// The *unfitted* [`crate::MappingEnsemble`] carries unfitted detector
/// trait objects with no configuration codec, so — like everywhere else
/// in the persistence subsystem — it is the **fitted** serving artifact
/// that persists: a restored ensemble scores without refitting any
/// member, which is exactly the restart cost the ROADMAP called out.
#[derive(Debug, Clone)]
pub struct EnsembleSnapshot {
    /// Member snapshots, in member order.
    pub members: Vec<PipelineSnapshot>,
}

impl Encode for EnsembleSnapshot {
    fn encode(&self, w: &mut Encoder) {
        self.members.encode(w);
    }
}

impl Decode for EnsembleSnapshot {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(EnsembleSnapshot {
            members: Vec::decode(r)?,
        })
    }
}

impl Snapshot for EnsembleSnapshot {
    const KIND: u32 = KIND_MAPPING_ENSEMBLE;
    const NAME: &'static str = "mapping-ensemble";
}

impl EnsembleSnapshot {
    /// Rebuilds the live ensemble, running every member's full restore
    /// validation plus the ensemble's own invariant (at least one
    /// member, exactly like [`crate::MappingEnsemble::fit`] enforces).
    pub fn restore(self) -> Result<FittedMappingEnsemble> {
        if self.members.is_empty() {
            return Err(MfodError::Pipeline(
                "ensemble snapshot has no members".into(),
            ));
        }
        let members = self
            .members
            .into_iter()
            .map(PipelineSnapshot::restore)
            .collect::<Result<Vec<_>>>()?;
        Ok(FittedMappingEnsemble::from_members(members))
    }
}

impl Restorable for FittedMappingEnsemble {
    type Snapshot = EnsembleSnapshot;

    fn restore(snapshot: EnsembleSnapshot) -> std::result::Result<Self, String> {
        snapshot.restore().map_err(|e| e.to_string())
    }
}

impl FittedMappingEnsemble {
    /// Converts this ensemble into its persistable snapshot form; fails
    /// with a typed error if any member's stage lacks a snapshot hook.
    pub fn snapshot(&self) -> Result<EnsembleSnapshot> {
        Ok(EnsembleSnapshot {
            members: self
                .members()
                .iter()
                .map(FittedPipeline::snapshot)
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// Snapshots this ensemble and writes it to `path` atomically.
    pub fn save(&self, path: &Path) -> Result<()> {
        Ok(mfod_persist::save(&self.snapshot()?, path)?)
    }

    /// Loads an ensemble saved with [`FittedMappingEnsemble::save`],
    /// re-running all member restore validation. The result scores
    /// bit-identically to the ensemble that was saved.
    pub fn load(path: &Path) -> Result<FittedMappingEnsemble> {
        mfod_persist::load::<EnsembleSnapshot>(path)?.restore()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GeomOutlierPipeline;
    use mfod_datasets::{EcgConfig, EcgSimulator, LabeledDataSet};
    use mfod_detect::{IsolationForest, OcSvm};
    use mfod_geometry::{Curvature, Speed};
    use std::sync::Arc;

    fn ecg(n_norm: usize, n_abn: usize, seed: u64) -> LabeledDataSet {
        EcgSimulator::new(EcgConfig {
            m: 32,
            ..Default::default()
        })
        .unwrap()
        .generate(n_norm, n_abn, seed)
        .unwrap()
        .augment_with(0, |y| y * y)
        .unwrap()
    }

    fn fitted(data: &LabeledDataSet) -> FittedPipeline {
        GeomOutlierPipeline::new(
            PipelineConfig::fast(),
            Arc::new(Curvature),
            Arc::new(IsolationForest {
                n_trees: 20,
                ..Default::default()
            }),
        )
        .fit(data.samples())
        .unwrap()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: score {i}");
        }
    }

    #[test]
    fn pipeline_roundtrip_scores_bit_identically() {
        let data = ecg(14, 4, 5);
        let pipeline = fitted(&data);
        let bytes = mfod_persist::to_bytes(&pipeline.snapshot().unwrap());
        let snap: PipelineSnapshot = mfod_persist::from_bytes(&bytes).unwrap();
        let restored = snap.restore().unwrap();
        assert_eq!(restored.label(), pipeline.label());
        assert_eq!(restored.domain(), pipeline.domain());
        assert_eq!(restored.selected_bases(), pipeline.selected_bases());
        let a = pipeline.score(data.samples()).unwrap();
        let b = restored.score(data.samples()).unwrap();
        assert_bits_eq(&a, &b, "exact path");
        let pa = pipeline.par_score(data.samples()).unwrap();
        let pb = restored.par_score(data.samples()).unwrap();
        assert_bits_eq(&pa, &pb, "parallel exact path");
    }

    #[test]
    fn pipeline_reencode_is_byte_identical() {
        let data = ecg(10, 2, 9);
        let pipeline = fitted(&data);
        let bytes = mfod_persist::to_bytes(&pipeline.snapshot().unwrap());
        let snap: PipelineSnapshot = mfod_persist::from_bytes(&bytes).unwrap();
        assert_eq!(mfod_persist::to_bytes(&snap), bytes);
        // and a restored pipeline re-snapshots to the same bytes again
        let restored = snap.restore().unwrap();
        assert_eq!(mfod_persist::to_bytes(&restored.snapshot().unwrap()), bytes);
    }

    /// A container of the retired kind 2, laid out as its old writer left
    /// it: a pipeline body followed by the observation times.
    fn retired_kind_2_bytes(pipeline: &FittedPipeline, ts: &[f64]) -> Vec<u8> {
        let mut w = mfod_persist::SnapshotWriter::new(2);
        w.section(mfod_persist::SECTION_BODY, |enc| {
            pipeline.snapshot().unwrap().encode(enc);
            ts.to_vec().encode(enc);
        });
        w.finish()
    }

    fn is_retired_kind<T>(r: Result<T>) -> bool {
        matches!(
            r,
            Err(MfodError::Persist(PersistError::WrongKind {
                got: 2,
                expected: KIND_FITTED_PIPELINE
            }))
        )
    }

    #[test]
    fn save_load_roundtrip_and_retired_kind_is_typed() {
        let dir = std::env::temp_dir().join(format!("mfod-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = ecg(10, 3, 3);
        let pipeline = fitted(&data);
        let path = dir.join("pipeline.mfod");
        pipeline.save(&path).unwrap();
        let restored = FittedPipeline::load(&path).unwrap();
        assert_bits_eq(
            &pipeline.score(data.samples()).unwrap(),
            &restored.score(data.samples()).unwrap(),
            "file roundtrip",
        );
        // a kind-2 file left on disk by an older build is rejected, typed,
        // by the eager loader and by the registry — never decoded
        let retired = retired_kind_2_bytes(&pipeline, &data.samples()[0].t);
        let rpath = dir.join("retired.mfod");
        mfod_persist::save_bytes(&rpath, &retired).unwrap();
        assert!(is_retired_kind(FittedPipeline::load(&rpath)));
        let reg: mfod_persist::ModelRegistry<FittedPipeline> = mfod_persist::ModelRegistry::new();
        assert!(matches!(
            reg.install_bytes(&retired),
            Err(PersistError::WrongKind {
                got: 2,
                expected: KIND_FITTED_PIPELINE
            })
        ));
        assert!(reg.active().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_pipeline_outlives_its_file_and_scores_bit_identically() {
        let dir = std::env::temp_dir().join(format!("mfod-snap-gone-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = ecg(12, 3, 21);
        // OcSvm carries a support-vector `Matrix` through the snapshot.
        let pipeline = GeomOutlierPipeline::new(
            PipelineConfig::fast(),
            Arc::new(Curvature),
            Arc::new(OcSvm::with_nu(0.2).unwrap()),
        )
        .fit(data.samples())
        .unwrap();
        let path = dir.join("pipeline.mfod");
        pipeline.save(&path).unwrap();
        let loaded = FittedPipeline::load(&path).unwrap();
        // A load reads the whole file, so deleting it (and its
        // directory) leaves the restored model whole.
        std::fs::remove_dir_all(&dir).unwrap();
        assert_bits_eq(
            &pipeline.score(data.samples()).unwrap(),
            &loaded.score(data.samples()).unwrap(),
            "load",
        );
        assert_bits_eq(
            &pipeline.par_score(data.samples()).unwrap(),
            &loaded.par_score(data.samples()).unwrap(),
            "parallel",
        );
    }

    #[test]
    fn ocsvm_pipeline_roundtrips_too() {
        let data = ecg(12, 3, 11);
        let pipeline = GeomOutlierPipeline::new(
            PipelineConfig::fast(),
            Arc::new(Speed),
            Arc::new(OcSvm::with_nu(0.2).unwrap()),
        )
        .fit(data.samples())
        .unwrap();
        let bytes = mfod_persist::to_bytes(&pipeline.snapshot().unwrap());
        let restored = mfod_persist::from_bytes::<PipelineSnapshot>(&bytes)
            .unwrap()
            .restore()
            .unwrap();
        assert_bits_eq(
            &pipeline.score(data.samples()).unwrap(),
            &restored.score(data.samples()).unwrap(),
            "ocsvm(speed)",
        );
    }

    #[test]
    fn ensemble_roundtrip_scores_bit_identically() {
        use crate::ensemble::MappingEnsemble;
        let data = ecg(14, 4, 23);
        let member = |mapping: Arc<dyn mfod_geometry::MappingFunction>| {
            GeomOutlierPipeline::new(
                PipelineConfig::fast(),
                mapping,
                Arc::new(IsolationForest {
                    n_trees: 20,
                    ..Default::default()
                }),
            )
        };
        let fitted = MappingEnsemble::new()
            .with_member(member(Arc::new(Curvature)))
            .with_member(member(Arc::new(Speed)))
            .fit(data.samples())
            .unwrap();
        let bytes = mfod_persist::to_bytes(&fitted.snapshot().unwrap());
        let snap: EnsembleSnapshot = mfod_persist::from_bytes(&bytes).unwrap();
        assert_eq!(snap.members.len(), 2);
        let restored = snap.restore().unwrap();
        assert_eq!(restored.member_labels(), fitted.member_labels());
        // no member refits on restore, and the scores are bit-identical
        let (a, contrib_a) = fitted.score_decomposed(data.samples()).unwrap();
        let (b, contrib_b) = restored.score_decomposed(data.samples()).unwrap();
        assert_bits_eq(&a, &b, "ensemble scores");
        assert_eq!(contrib_a, contrib_b);
        // re-encode is byte-identical
        assert_eq!(mfod_persist::to_bytes(&restored.snapshot().unwrap()), bytes);
        // file helpers + wrong-kind rejection
        let dir = std::env::temp_dir().join(format!("mfod-ens-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ensemble.mfod");
        fitted.save(&path).unwrap();
        let from_file = crate::ensemble::FittedMappingEnsemble::load(&path).unwrap();
        assert_bits_eq(
            &a,
            &from_file.score(data.samples()).unwrap(),
            "ensemble file roundtrip",
        );
        assert!(matches!(
            FittedPipeline::load(&path),
            Err(MfodError::Persist(PersistError::WrongKind { .. }))
        ));
        // empty member list is rejected
        assert!(matches!(
            EnsembleSnapshot { members: vec![] }.restore(),
            Err(MfodError::Pipeline(_))
        ));
        // a tampered member fails the member's own restore validation
        let mut bad: EnsembleSnapshot = mfod_persist::from_bytes(&bytes).unwrap();
        bad.members[1].label = "lof(torsion)".into();
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
        // corruption/truncation is typed, never a panic
        for n in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(mfod_persist::from_bytes::<EnsembleSnapshot>(&bytes[..n]).is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ensemble_registry_hot_swap() {
        use crate::ensemble::{FittedMappingEnsemble, MappingEnsemble};
        use mfod_persist::ModelRegistry;
        let data = ecg(12, 3, 29);
        let fitted = MappingEnsemble::new()
            .with_member(GeomOutlierPipeline::new(
                PipelineConfig::fast(),
                Arc::new(Curvature),
                Arc::new(IsolationForest {
                    n_trees: 15,
                    ..Default::default()
                }),
            ))
            .fit(data.samples())
            .unwrap();
        let reg: ModelRegistry<FittedMappingEnsemble> = ModelRegistry::new();
        reg.install_bytes(&mfod_persist::to_bytes(&fitted.snapshot().unwrap()))
            .unwrap();
        let active = reg.active().unwrap();
        assert_bits_eq(
            &fitted.score(data.samples()).unwrap(),
            &active.score(data.samples()).unwrap(),
            "registry-restored ensemble",
        );
    }

    #[test]
    fn tampered_cross_field_state_is_rejected() {
        let data = ecg(10, 2, 13);
        let pipeline = fitted(&data);
        let snap = pipeline.snapshot().unwrap();
        // inconsistent label
        let mut bad = snap.clone();
        bad.label = "lof(torsion)".into();
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
        // spurious winsorize cap under a non-winsorizing transform
        let mut bad = snap.clone();
        bad.winsorize_cap = Some(1.0);
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
        // inverted domain
        let mut bad = snap.clone();
        bad.domain = (1.0, 0.0);
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
        // empty channel selection
        let mut bad = snap.clone();
        bad.selected.clear();
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
        // grid length no longer matching the detector's feature dim
        let mut bad = snap.clone();
        bad.config.grid_len += 1;
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
        // a config the fit path would reject (grid_len floor)
        let mut bad = snap.clone();
        bad.config.grid_len = 3;
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
        // an out-of-range winsorize quantile fails config validation even
        // with a superficially consistent cap
        let mut bad = snap;
        bad.config.transform = FeatureTransform::Winsorize(5.0);
        bad.winsorize_cap = Some(1.0);
        assert!(matches!(bad.restore(), Err(MfodError::Pipeline(_))));
    }

    #[test]
    fn truncated_and_corrupted_pipeline_bytes_are_typed() {
        let data = ecg(10, 2, 17);
        let pipeline = fitted(&data);
        let bytes = mfod_persist::to_bytes(&pipeline.snapshot().unwrap());
        for n in [0, 4, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(mfod_persist::from_bytes::<PipelineSnapshot>(&bytes[..n]).is_err());
        }
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(matches!(
            mfod_persist::from_bytes::<PipelineSnapshot>(&corrupt),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }
}
