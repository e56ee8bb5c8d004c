//! Snapshot forms of the fda layer: basis configurations and the
//! cross-validated selector.
//!
//! Bases are trait objects at runtime, so persistence goes through a
//! concrete tagged union, [`BasisSnapshot`], produced by the
//! [`Basis::snapshot`] hook (custom bases that do not override the hook
//! simply cannot be persisted — the failure is a typed error at snapshot
//! time, never at encode time). Restoring re-runs the ordinary
//! constructors, so every invariant of a hand-built basis also holds for
//! a restored one, and the rebuilt basis evaluates **bit-identically**:
//! the constructors derive all state deterministically from the stored
//! parameters.

use crate::basis::Basis;
use crate::bspline::BSplineBasis;
use crate::fourier::FourierBasis;
use crate::polynomial::PolynomialBasis;
use crate::smooth::{BasisSelector, SelectionCriterion};
use crate::Result;
use mfod_persist::{Decode, Decoder, Encode, Encoder, PersistError};
use std::sync::Arc;

/// Concrete, persistable form of every basis shipped by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum BasisSnapshot {
    /// An open-uniform-boundary B-spline basis, reconstructed from its
    /// interior knots (boundary knots are implied by `order`).
    BSpline {
        /// Domain start.
        a: f64,
        /// Domain end.
        b: f64,
        /// Spline order `k`.
        order: usize,
        /// Interior knots, strictly inside `(a, b)`.
        interior: Vec<f64>,
    },
    /// A Fourier basis of `len` functions.
    Fourier {
        /// Domain start.
        a: f64,
        /// Domain end.
        b: f64,
        /// Number of basis functions (odd).
        len: usize,
    },
    /// A monomial basis of `len` functions.
    Polynomial {
        /// Domain start.
        a: f64,
        /// Domain end.
        b: f64,
        /// Number of basis functions.
        len: usize,
    },
}

impl BasisSnapshot {
    /// Rebuilds the live basis through its ordinary constructor.
    pub fn restore(&self) -> Result<Arc<dyn Basis>> {
        Ok(match *self {
            BasisSnapshot::BSpline {
                a,
                b,
                order,
                ref interior,
            } => Arc::new(BSplineBasis::with_interior_knots(a, b, interior, order)?),
            BasisSnapshot::Fourier { a, b, len } => Arc::new(FourierBasis::new(a, b, len)?),
            BasisSnapshot::Polynomial { a, b, len } => Arc::new(PolynomialBasis::new(a, b, len)?),
        })
    }
}

const TAG_BSPLINE: u32 = 1;
const TAG_FOURIER: u32 = 2;
const TAG_POLYNOMIAL: u32 = 3;

impl Encode for BasisSnapshot {
    fn encode(&self, w: &mut Encoder) {
        match self {
            BasisSnapshot::BSpline {
                a,
                b,
                order,
                interior,
            } => {
                w.put_u32(TAG_BSPLINE);
                w.put_f64(*a);
                w.put_f64(*b);
                w.put_usize(*order);
                interior.encode(w);
            }
            BasisSnapshot::Fourier { a, b, len } => {
                w.put_u32(TAG_FOURIER);
                w.put_f64(*a);
                w.put_f64(*b);
                w.put_usize(*len);
            }
            BasisSnapshot::Polynomial { a, b, len } => {
                w.put_u32(TAG_POLYNOMIAL);
                w.put_f64(*a);
                w.put_f64(*b);
                w.put_usize(*len);
            }
        }
    }
}

impl Decode for BasisSnapshot {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        match r.take_u32()? {
            TAG_BSPLINE => Ok(BasisSnapshot::BSpline {
                a: r.take_f64()?,
                b: r.take_f64()?,
                order: r.take_usize()?,
                interior: Vec::decode(r)?,
            }),
            TAG_FOURIER => Ok(BasisSnapshot::Fourier {
                a: r.take_f64()?,
                b: r.take_f64()?,
                len: r.take_usize()?,
            }),
            TAG_POLYNOMIAL => Ok(BasisSnapshot::Polynomial {
                a: r.take_f64()?,
                b: r.take_f64()?,
                len: r.take_usize()?,
            }),
            tag => Err(PersistError::UnknownTag { what: "basis", tag }),
        }
    }
}

impl Encode for SelectionCriterion {
    fn encode(&self, w: &mut Encoder) {
        w.put_u8(match self {
            SelectionCriterion::Loocv => 0,
            SelectionCriterion::Gcv => 1,
        });
    }
}

impl Decode for SelectionCriterion {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        match r.take_u8()? {
            0 => Ok(SelectionCriterion::Loocv),
            1 => Ok(SelectionCriterion::Gcv),
            tag => Err(PersistError::UnknownTag {
                what: "selection criterion",
                tag: u32::from(tag),
            }),
        }
    }
}

impl Encode for BasisSelector {
    fn encode(&self, w: &mut Encoder) {
        self.sizes.encode(w);
        self.lambdas.encode(w);
        w.put_usize(self.order);
        w.put_usize(self.penalty_order);
        self.criterion.encode(w);
    }
}

impl Decode for BasisSelector {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(BasisSelector {
            sizes: Vec::decode(r)?,
            lambdas: Vec::decode(r)?,
            order: r.take_usize()?,
            penalty_order: r.take_usize()?,
            criterion: SelectionCriterion::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bytes<T: Encode + Decode>(v: &T) -> T {
        let mut w = Encoder::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn bspline_snapshot_restores_bit_identical_basis() {
        let basis = BSplineBasis::uniform(0.0, 2.0, 11, 4).unwrap();
        let snap = basis.snapshot().unwrap();
        let back = roundtrip_bytes(&snap);
        assert_eq!(snap, back);
        let restored = back.restore().unwrap();
        assert_eq!(restored.len(), basis.len());
        assert_eq!(restored.domain(), basis.domain());
        for &t in &[0.0, 0.37, 1.2, 2.0] {
            for deriv in 0..3 {
                let a = basis.eval(t, deriv);
                let b = restored.eval(t, deriv);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "t={t} deriv={deriv}");
                }
            }
        }
        // the penalty matrix — quadrature over the same knots — matches too
        let pa = basis.penalty(2);
        let pb = restored.penalty(2);
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fourier_and_polynomial_snapshots_roundtrip() {
        let f = FourierBasis::new(-1.0, 3.0, 7).unwrap();
        let restored = f.snapshot().unwrap().restore().unwrap();
        assert_eq!(restored.len(), 7);
        let a = f.eval(0.5, 1);
        let b = restored.eval(0.5, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let p = PolynomialBasis::new(0.0, 1.0, 4).unwrap();
        let restored = p.snapshot().unwrap().restore().unwrap();
        assert_eq!(restored.len(), 4);
    }

    #[test]
    fn invalid_restored_parameters_fail_typed() {
        // a tampered snapshot (NaN domain) fails through the ordinary
        // constructor validation
        let bad = BasisSnapshot::Fourier {
            a: f64::NAN,
            b: 1.0,
            len: 5,
        };
        assert!(bad.restore().is_err());
        let bad = BasisSnapshot::BSpline {
            a: 0.0,
            b: 1.0,
            order: 4,
            interior: vec![2.0], // outside (a, b)
        };
        assert!(bad.restore().is_err());
    }

    #[test]
    fn unknown_basis_tag_is_typed() {
        let mut w = Encoder::new();
        w.put_u32(99);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert!(matches!(
            BasisSnapshot::decode(&mut r),
            Err(PersistError::UnknownTag { what: "basis", .. })
        ));
    }

    #[test]
    fn selector_roundtrips_exactly() {
        let sel = BasisSelector {
            sizes: vec![6, 8, 12],
            lambdas: vec![0.0, 1e-8, 1e-2],
            order: 4,
            penalty_order: 2,
            criterion: SelectionCriterion::Gcv,
        };
        let back = roundtrip_bytes(&sel);
        assert_eq!(sel, back);
    }
}
