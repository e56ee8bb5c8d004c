//! Snapshot forms of the mapping functions.
//!
//! Mappings are trait objects inside a fitted pipeline, so persistence
//! goes through the concrete tagged union [`MappingSnapshot`], produced
//! by the [`MappingFunction::snapshot`] hook. Every mapping shipped by
//! this crate opts in; a custom mapping that keeps the default `None`
//! fails with a typed error at snapshot time instead of writing a model
//! it could never restore. All shipped mappings are pure functions of
//! their (few) parameters, so restore is trivially bit-faithful.

use crate::component::ComponentMapping;
use crate::curvature::{Curvature, CurvatureEq5, RadiusOfCurvature};
use crate::kinematics::{Acceleration, ArcLength, LogSpeed, Speed, SrvfNorm, TurningAngle};
use crate::mapping::MappingFunction;
use crate::torsion::Torsion;
use crate::{GeometryError, Result};
use mfod_persist::{Decode, Decoder, Encode, Encoder, PersistError};
use std::sync::Arc;

/// Concrete, persistable form of every mapping shipped by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingSnapshot {
    /// [`Curvature`] (closed form).
    Curvature,
    /// [`CurvatureEq5`] (definitional form).
    CurvatureEq5,
    /// [`RadiusOfCurvature`].
    RadiusOfCurvature,
    /// [`Speed`].
    Speed,
    /// [`LogSpeed`].
    LogSpeed,
    /// [`ArcLength`].
    ArcLength,
    /// [`Acceleration`].
    Acceleration,
    /// [`SrvfNorm`].
    SrvfNorm,
    /// [`TurningAngle`].
    TurningAngle,
    /// [`Torsion`].
    Torsion,
    /// [`ComponentMapping`] with its channel and derivative order.
    Component {
        /// Extracted channel index.
        channel: usize,
        /// Derivative order.
        deriv: usize,
    },
}

impl MappingSnapshot {
    /// Rebuilds the live mapping.
    pub fn restore(&self) -> Arc<dyn MappingFunction> {
        match *self {
            MappingSnapshot::Curvature => Arc::new(Curvature),
            MappingSnapshot::CurvatureEq5 => Arc::new(CurvatureEq5),
            MappingSnapshot::RadiusOfCurvature => Arc::new(RadiusOfCurvature),
            MappingSnapshot::Speed => Arc::new(Speed),
            MappingSnapshot::LogSpeed => Arc::new(LogSpeed),
            MappingSnapshot::ArcLength => Arc::new(ArcLength),
            MappingSnapshot::Acceleration => Arc::new(Acceleration),
            MappingSnapshot::SrvfNorm => Arc::new(SrvfNorm),
            MappingSnapshot::TurningAngle => Arc::new(TurningAngle),
            MappingSnapshot::Torsion => Arc::new(Torsion),
            MappingSnapshot::Component { channel, deriv } => {
                Arc::new(ComponentMapping::derivative(channel, deriv))
            }
        }
    }
}

/// Takes the snapshot of a dyn mapping, failing with a typed error when
/// the implementation does not support persistence.
pub fn snapshot_mapping(mapping: &dyn MappingFunction) -> Result<MappingSnapshot> {
    mapping
        .snapshot()
        .ok_or_else(|| GeometryError::Unsupported {
            mapping: mapping.name(),
            what: "snapshots",
        })
}

const TAG_CURVATURE: u32 = 1;
const TAG_CURVATURE_EQ5: u32 = 2;
const TAG_RADIUS: u32 = 3;
const TAG_SPEED: u32 = 4;
const TAG_LOG_SPEED: u32 = 5;
const TAG_ARC_LENGTH: u32 = 6;
const TAG_ACCELERATION: u32 = 7;
const TAG_SRVF_NORM: u32 = 8;
const TAG_TURNING_ANGLE: u32 = 9;
const TAG_TORSION: u32 = 10;
const TAG_COMPONENT: u32 = 11;

impl Encode for MappingSnapshot {
    fn encode(&self, w: &mut Encoder) {
        match *self {
            MappingSnapshot::Curvature => w.put_u32(TAG_CURVATURE),
            MappingSnapshot::CurvatureEq5 => w.put_u32(TAG_CURVATURE_EQ5),
            MappingSnapshot::RadiusOfCurvature => w.put_u32(TAG_RADIUS),
            MappingSnapshot::Speed => w.put_u32(TAG_SPEED),
            MappingSnapshot::LogSpeed => w.put_u32(TAG_LOG_SPEED),
            MappingSnapshot::ArcLength => w.put_u32(TAG_ARC_LENGTH),
            MappingSnapshot::Acceleration => w.put_u32(TAG_ACCELERATION),
            MappingSnapshot::SrvfNorm => w.put_u32(TAG_SRVF_NORM),
            MappingSnapshot::TurningAngle => w.put_u32(TAG_TURNING_ANGLE),
            MappingSnapshot::Torsion => w.put_u32(TAG_TORSION),
            MappingSnapshot::Component { channel, deriv } => {
                w.put_u32(TAG_COMPONENT);
                w.put_usize(channel);
                w.put_usize(deriv);
            }
        }
    }
}

impl Decode for MappingSnapshot {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(match r.take_u32()? {
            TAG_CURVATURE => MappingSnapshot::Curvature,
            TAG_CURVATURE_EQ5 => MappingSnapshot::CurvatureEq5,
            TAG_RADIUS => MappingSnapshot::RadiusOfCurvature,
            TAG_SPEED => MappingSnapshot::Speed,
            TAG_LOG_SPEED => MappingSnapshot::LogSpeed,
            TAG_ARC_LENGTH => MappingSnapshot::ArcLength,
            TAG_ACCELERATION => MappingSnapshot::Acceleration,
            TAG_SRVF_NORM => MappingSnapshot::SrvfNorm,
            TAG_TURNING_ANGLE => MappingSnapshot::TurningAngle,
            TAG_TORSION => MappingSnapshot::Torsion,
            TAG_COMPONENT => MappingSnapshot::Component {
                channel: r.take_usize()?,
                deriv: r.take_usize()?,
            },
            tag => {
                return Err(PersistError::UnknownTag {
                    what: "mapping",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<MappingSnapshot> {
        vec![
            MappingSnapshot::Curvature,
            MappingSnapshot::CurvatureEq5,
            MappingSnapshot::RadiusOfCurvature,
            MappingSnapshot::Speed,
            MappingSnapshot::LogSpeed,
            MappingSnapshot::ArcLength,
            MappingSnapshot::Acceleration,
            MappingSnapshot::SrvfNorm,
            MappingSnapshot::TurningAngle,
            MappingSnapshot::Torsion,
            MappingSnapshot::Component {
                channel: 1,
                deriv: 2,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_and_restores() {
        for snap in all_variants() {
            let mut w = Encoder::new();
            snap.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Decoder::new(&bytes);
            let back = MappingSnapshot::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(snap, back);
            let live = back.restore();
            // the hook and the restore agree: snapshot(restore(s)) == s
            assert_eq!(live.snapshot(), Some(snap));
        }
    }

    #[test]
    fn component_parameters_survive() {
        let m = ComponentMapping::derivative(3, 1);
        let snap = snapshot_mapping(&m).unwrap();
        let live = snap.restore();
        assert_eq!(live.name(), "component");
        assert_eq!(
            live.snapshot(),
            Some(MappingSnapshot::Component {
                channel: 3,
                deriv: 1
            })
        );
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut w = Encoder::new();
        w.put_u32(0xDEAD);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert!(matches!(
            MappingSnapshot::decode(&mut r),
            Err(PersistError::UnknownTag {
                what: "mapping",
                ..
            })
        ));
    }

    #[test]
    fn custom_mapping_without_hook_fails_typed() {
        struct Custom;
        impl MappingFunction for Custom {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn orders(&self) -> std::ops::RangeInclusive<usize> {
                0..=0
            }
            fn formula(&self, d: &crate::PathDerivatives) -> Result<Vec<f64>> {
                Ok(vec![0.0; d.grid().len()])
            }
        }
        assert!(matches!(
            snapshot_mapping(&Custom),
            Err(GeometryError::Unsupported { .. })
        ));
    }
}
