//! Stable 64-bit content hashing (FNV-1a) for grid-identity keys.
//!
//! The hash is **not** cryptographic — it keys caches, with full
//! equality checks guarding against collisions (e.g.
//! `SelectionPlan::covers` in `mfod-fda`'s plan cache). It is
//! deterministic across platforms: all inputs are reduced to
//! little-endian bytes first. Store generations are named by their
//! container's CRC-32 instead ([`crate::format::ContentId`]), which every
//! open already computes.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Feeds raw bytes.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds one `u64` as little-endian bytes.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Feeds one `usize` (widened to `u64` for platform independence).
    pub fn update_usize(&mut self, v: usize) -> &mut Self {
        self.update_u64(v as u64)
    }

    /// Feeds one `f64` as its raw bit pattern, so `-0.0` and `0.0` (and
    /// distinct NaN payloads) hash differently — hash identity matches
    /// the bit-exactness contract of the snapshot format.
    pub fn update_f64(&mut self, v: f64) -> &mut Self {
        self.update_u64(v.to_bits())
    }

    /// Feeds a slice of `f64` bit patterns.
    pub fn update_f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.update_usize(vs.len());
        for &v in vs {
            self.update_f64(v);
        }
        self
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot hash of an `f64` slice by bit pattern (length-prefixed).
pub fn hash_f64s(vs: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    h.update_f64s(vs);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a64(bytes: &[u8]) -> u64 {
        Fnv1a::new().update(bytes).finish()
    }

    #[test]
    fn known_fnv_vectors() {
        // canonical FNV-1a 64 test vectors
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn f64_hashing_is_bitwise() {
        assert_ne!(hash_f64s(&[0.0]), hash_f64s(&[-0.0]));
        assert_eq!(hash_f64s(&[1.5, 2.5]), hash_f64s(&[1.5, 2.5]));
        assert_ne!(hash_f64s(&[1.5, 2.5]), hash_f64s(&[2.5, 1.5]));
        // length prefix separates [0.0] from [0.0, 0.0] even though the
        // extra element hashes the same bytes as the prefix of nothing
        assert_ne!(hash_f64s(&[0.0]), hash_f64s(&[0.0, 0.0]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
