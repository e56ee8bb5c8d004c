//! Synthetic persist-layer fixtures: multi-section **tenant fleet**
//! snapshots.
//!
//! Tests of lazy section decode need snapshots that are split across
//! many independently addressable sections, so a lazy reader can touch
//! one tenant without decoding the rest, and fully deterministic, so
//! per-section digests can be asserted bit-for-bit. A fitted pipeline
//! holds one body section, so this module builds a synthetic fleet: one
//! section per tenant, each holding one [`Matrix`] of generated values.

use mfod_linalg::Matrix;
use mfod_persist::{hash_f64s, Encode, LazySnapshot, SnapshotWriter};

/// Artifact-kind tag for tenant-fleet fixture snapshots. Far above the
/// production kinds (1–5) so a fixture file fed to a real loader fails
/// with `WrongKind` instead of decoding garbage.
pub const TENANT_FLEET_KIND: u32 = 900;

/// Shape of a synthetic tenant-fleet snapshot.
#[derive(Debug, Clone)]
pub struct TenantFleetConfig {
    /// Number of tenants, i.e. independently addressable sections.
    pub tenants: usize,
    /// Rows of each tenant's matrix.
    pub rows: usize,
    /// Columns of each tenant's matrix.
    pub cols: usize,
    /// Base seed for the deterministic value stream.
    pub seed: u64,
}

impl Default for TenantFleetConfig {
    /// Four tenants of 64 × 48 values each, about 96 KiB of `f64` payload.
    fn default() -> Self {
        TenantFleetConfig {
            tenants: 4,
            rows: 64,
            cols: 48,
            seed: 0x5EED_1EAF,
        }
    }
}

/// Section id carrying tenant `i`'s matrix (ids are 1-based; 0 is
/// reserved by convention for whole-artifact bodies).
pub fn tenant_section_id(i: usize) -> u32 {
    1 + i as u32
}

/// Deterministic matrix for tenant `i`: an splitmix64-style stream
/// mapped into `[-1, 1)`, keyed by `(seed, i)` so every tenant differs.
pub fn tenant_matrix(config: &TenantFleetConfig, i: usize) -> Matrix {
    let mut state = config
        .seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + i as u64));
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = config.rows * config.cols;
    let data: Vec<f64> = (0..n)
        .map(|_| (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        .collect();
    Matrix::from_vec(config.rows, config.cols, data)
}

/// Serializes a full tenant fleet: one section per tenant, each body a
/// wire-encoded [`Matrix`]. Deterministic — same config, same bytes.
pub fn tenant_fleet_bytes(config: &TenantFleetConfig) -> Vec<u8> {
    let mut w = SnapshotWriter::new(TENANT_FLEET_KIND);
    for i in 0..config.tenants {
        let m = tenant_matrix(config, i);
        w.section(tenant_section_id(i), |enc| m.encode(enc));
    }
    w.finish()
}

/// Stable content digest of a matrix (shape + `f64` bit patterns) for
/// asserting bit-for-bit equality without holding both copies.
pub fn matrix_digest(m: &Matrix) -> u64 {
    hash_f64s(m.as_slice()) ^ ((m.nrows() as u64) << 32 | m.ncols() as u64)
}

/// Touches tenant `i` of an opened lazy fleet snapshot and returns its
/// digest.
pub fn lazy_tenant_digest(snap: &LazySnapshot<'_>, i: usize) -> mfod_persist::Result<u64> {
    let m: &Matrix = snap.section_value(tenant_section_id(i))?;
    Ok(matrix_digest(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_lazy_touches_decode_each_tenant() {
        let config = TenantFleetConfig {
            tenants: 3,
            rows: 7,
            cols: 5,
            seed: 41,
        };
        let bytes = tenant_fleet_bytes(&config);
        assert_eq!(
            bytes,
            tenant_fleet_bytes(&config),
            "same config, same bytes"
        );
        let snap = LazySnapshot::open(&bytes).unwrap();
        let digests: Vec<u64> = (0..config.tenants)
            .map(|i| lazy_tenant_digest(&snap, i).unwrap())
            .collect();
        for (i, &d) in digests.iter().enumerate() {
            assert_eq!(d, matrix_digest(&tenant_matrix(&config, i)), "tenant {i}");
        }
        let distinct: std::collections::HashSet<u64> = digests.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            config.tenants,
            "tenant payloads must differ"
        );
    }
}
