//! Snapshot form of the cross-validated selector: the
//! [`SelectionCriterion`] and [`BasisSelector`] codecs a pipeline snapshot
//! writes. A restored selector rebuilds its B-spline ladder through the
//! ordinary constructors, so no basis is ever persisted.

use crate::smooth::{BasisSelector, SelectionCriterion};
use mfod_persist::{Decode, Decoder, Encode, Encoder, PersistError};

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

    #[test]
    fn selector_roundtrips_exactly() {
        let sel = BasisSelector {
            sizes: vec![6, 8, 12],
            lambdas: vec![0.0, 1e-8, 1e-2],
            order: 4,
            penalty_order: 2,
            criterion: SelectionCriterion::Gcv,
        };
        let mut w = Encoder::new();
        sel.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = BasisSelector::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(sel, back);
    }
}
