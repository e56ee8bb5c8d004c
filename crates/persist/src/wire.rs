//! Little-endian wire primitives and the [`Encode`]/[`Decode`] trait pair.
//!
//! Every multi-byte integer is little-endian; every `f64` is stored as its
//! raw IEEE-754 bit pattern (`to_bits`), so round-trips are **bit-exact**
//! for any value, including negative zero, subnormals and NaN payloads.
//! Decoding is defensive: every read is bounds-checked
//! ([`PersistError::Truncated`]) and length-prefixed collections verify
//! that the declared element count actually fits in the remaining bytes
//! before allocating, so a corrupted length field cannot force a huge
//! allocation.

use crate::error::PersistError;
use crate::Result;
use mfod_linalg::Matrix;

/// Append-only byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    #[inline]
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An empty encoder with room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the encoder, returning the encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (sizes are machine-independent on disk).
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its raw bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes raw bytes with no length prefix.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes `n` zero bytes (container padding).
    pub(crate) fn put_zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked reader over snapshot payload bytes.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Reads from the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    #[inline]
    pub fn take_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take_bytes(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.take_bytes(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.take_bytes(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that do
    /// not fit the host.
    #[inline]
    pub fn take_usize(&mut self) -> Result<usize> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::Malformed(format!("size {v} exceeds host usize")))
    }

    /// Reads an `f64` from its raw bit pattern.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    #[inline]
    pub fn take_bool(&mut self) -> Result<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(PersistError::Malformed(format!("bool byte {v}"))),
        }
    }

    /// Reads a collection length and verifies `len * elem_size` fits in
    /// the remaining bytes — the guard that keeps corrupted lengths from
    /// turning into multi-gigabyte allocations.
    #[inline]
    pub fn take_len(&mut self, elem_size: usize, context: &'static str) -> Result<usize> {
        let len = self.take_usize()?;
        let needed = len
            .checked_mul(elem_size)
            .ok_or_else(|| PersistError::Malformed(format!("{context}: length {len} overflows")))?;
        if needed > self.remaining() {
            return Err(PersistError::Truncated {
                context,
                needed,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        let len = self.take_len(1, "string")?;
        let bytes = self.take_bytes(len, "string bytes")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed("string is not UTF-8".into()))
    }

    /// Asserts the decoder consumed the whole buffer (trailing garbage is
    /// corruption, not padding).
    #[inline]
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(PersistError::Malformed(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A value that can serialize itself onto an [`Encoder`].
///
/// Encoding is infallible by design: anything that can fail (an
/// un-snapshottable trait object, an invalid parameter) must be resolved
/// *before* encoding, by converting the live object into a concrete
/// snapshot type first.
pub trait Encode {
    /// Appends this value's wire form to `w`.
    fn encode(&self, w: &mut Encoder);
}

/// A value that can reconstruct itself from a [`Decoder`].
pub trait Decode: Sized {
    /// Reads one value, consuming exactly the bytes [`Encode::encode`]
    /// wrote for it.
    fn decode(r: &mut Decoder<'_>) -> Result<Self>;
}

impl Encode for u8 {
    #[inline]
    fn encode(&self, w: &mut Encoder) {
        w.put_u8(*self);
    }
}

impl Decode for u8 {
    #[inline]
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        r.take_u8()
    }
}

impl Encode for u32 {
    #[inline]
    fn encode(&self, w: &mut Encoder) {
        w.put_u32(*self);
    }
}

impl Decode for u32 {
    #[inline]
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        r.take_u32()
    }
}

impl Encode for u64 {
    #[inline]
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    #[inline]
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        r.take_u64()
    }
}

impl Encode for usize {
    #[inline]
    fn encode(&self, w: &mut Encoder) {
        w.put_usize(*self);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        r.take_usize()
    }
}

impl Encode for f64 {
    #[inline]
    fn encode(&self, w: &mut Encoder) {
        w.put_f64(*self);
    }
}

impl Decode for f64 {
    #[inline]
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        r.take_f64()
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, w: &mut Encoder) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        r.take_bool()
    }
}

impl Encode for String {
    #[inline]
    fn encode(&self, w: &mut Encoder) {
        w.put_str(self);
    }
}

impl Decode for String {
    #[inline]
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        r.take_str()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Encoder) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        // Elements occupy at least one byte each on the wire, which is
        // enough of a bound to reject absurd lengths outright…
        let len = r.take_len(1, "vec")?;
        // …but a corrupted length that fits the remaining *wire* bytes
        // could still demand size_of::<T>() times that in heap if it were
        // pre-allocated wholesale. Cap the up-front reservation so the
        // heap committed before decoding is bounded by the bytes actually
        // present; a truncated stream then fails in `T::decode` long
        // before the vector grows anywhere near the claimed length.
        let cap = len.min(r.remaining() / std::mem::size_of::<T>().max(1) + 1);
        let mut out = Vec::with_capacity(cap);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Encoder) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            v => Err(PersistError::Malformed(format!("option byte {v}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Encoder) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Encode for Matrix {
    fn encode(&self, w: &mut Encoder) {
        w.put_usize(self.nrows());
        w.put_usize(self.ncols());
        for &v in self.as_slice() {
            w.put_f64(v);
        }
    }
}

impl Decode for Matrix {
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        let rows = r.take_usize()?;
        let cols = r.take_usize()?;
        let n = rows.checked_mul(cols).ok_or_else(|| {
            PersistError::Malformed(format!("matrix shape {rows}x{cols} overflows"))
        })?;
        if n.checked_mul(8).is_none_or(|bytes| bytes > r.remaining()) {
            return Err(PersistError::Truncated {
                context: "matrix data",
                needed: n.saturating_mul(8),
                available: r.remaining(),
            });
        }
        let data = r
            .take_bytes(n * 8, "matrix data")?
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl Encode for mfod_linalg::Cholesky {
    fn encode(&self, w: &mut Encoder) {
        self.factor().encode(w);
    }
}

impl Decode for mfod_linalg::Cholesky {
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        let l = Matrix::decode(r)?;
        mfod_linalg::Cholesky::from_factor(l)
            .map_err(|e| PersistError::Malformed(format!("cholesky factor: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Encoder::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("mfod κ snapshot"));
        roundtrip(vec![1.0f64, -0.0, f64::INFINITY]);
        roundtrip(Some(3.5f64));
        roundtrip(Option::<f64>::None);
        roundtrip((7usize, -2.5f64));
    }

    #[test]
    fn f64_bit_patterns_survive() {
        for bits in [
            0u64,
            0x8000_0000_0000_0000, // -0.0
            0x7FF0_0000_0000_0001, // signalling NaN payload
            0x7FF8_0000_0000_0000, // quiet NaN
            0x0000_0000_0000_0001, // smallest subnormal
            f64::MAX.to_bits(),
        ] {
            let mut w = Encoder::new();
            w.put_f64(f64::from_bits(bits));
            let bytes = w.into_bytes();
            let mut r = Decoder::new(&bytes);
            assert_eq!(r.take_f64().unwrap().to_bits(), bits);
        }
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let mut w = Encoder::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes[..5]);
        assert!(matches!(r.take_u64(), Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn corrupted_length_rejected_before_allocation() {
        let mut w = Encoder::new();
        w.put_u64(u64::MAX); // absurd vec length
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let err = Vec::<f64>::decode(&mut r).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. } | PersistError::Malformed(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn bad_bool_and_option_bytes_rejected() {
        let mut r = Decoder::new(&[7]);
        assert!(matches!(r.take_bool(), Err(PersistError::Malformed(_))));
        let mut r = Decoder::new(&[9]);
        assert!(matches!(
            Option::<u8>::decode(&mut r),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Encoder::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let _ = r.take_u8().unwrap();
        assert!(matches!(r.finish(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn matrix_roundtrip_and_guards() {
        let m = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, f64::MIN_POSITIVE]]);
        let mut w = Encoder::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = Matrix::decode(&mut r).unwrap();
        assert_eq!(m, back);
        // a shape promising more data than present is typed, not a panic
        let mut w = Encoder::new();
        w.put_usize(1000);
        w.put_usize(1000);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert!(matches!(
            Matrix::decode(&mut r),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn cholesky_roundtrip_solves_bit_identically() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let c = mfod_linalg::Cholesky::new(&a).unwrap();
        let mut w = Encoder::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = mfod_linalg::Cholesky::decode(&mut r).unwrap();
        r.finish().unwrap();
        let x1 = c.solve(&[1.0, -1.0]);
        let x2 = back.solve(&[1.0, -1.0]);
        assert_eq!(x1[0].to_bits(), x2[0].to_bits());
        assert_eq!(x1[1].to_bits(), x2[1].to_bits());
        // a tampered factor (upper-triangular junk) is typed
        let junk = Matrix::from_rows(&[&[1.0, 7.0], &[0.0, 1.0]]);
        let mut w = Encoder::new();
        junk.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert!(matches!(
            mfod_linalg::Cholesky::decode(&mut r),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut w = Encoder::new();
        w.put_usize(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert!(matches!(r.take_str(), Err(PersistError::Malformed(_))));
    }
}
