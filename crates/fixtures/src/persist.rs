//! Synthetic persist-layer fixtures: multi-section **tenant fleet**
//! snapshots.
//!
//! The zero-copy decode work needs snapshots that are (a) large enough
//! to make eager-vs-lazy install costs measurable, (b) split across many
//! independently addressable sections so a lazy reader can touch one
//! tenant without decoding the rest, and (c) fully deterministic so
//! per-section digests can be asserted bit-for-bit across eager and lazy
//! decodes.
//! Real fitted pipelines satisfy none of these at controllable scale, so
//! this module builds a synthetic fleet: one section per tenant, each
//! holding one [`Matrix`] of LCG-generated values.
//!
//! Section bodies start with the matrix header (two `u64` dims = 16
//! bytes), and the container pads every section to an 8-aligned file
//! offset, so the `f64` payload of every tenant lands 8-byte aligned in
//! a mapped file — a mapped open serves all of them in place.

use mfod_linalg::Matrix;
use mfod_persist::{hash_f64s, Decode, Encode, LazySnapshot, PersistError, SnapshotWriter};
use std::path::Path;

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

impl TenantFleetConfig {
    /// A fleet sized in multiples of the saved ECG acceptance pipeline
    /// (~100 KiB of `f64` payload at `1×`). Scale multiplies the tenant
    /// count, so larger fleets have more sections of the same size —
    /// the shape a lazy reader exploits.
    pub fn ecg_scale(mult: usize) -> Self {
        TenantFleetConfig {
            tenants: 4 * mult.max(1),
            rows: 64,
            cols: 48,
            seed: 0x5EED_1EAF,
        }
    }
}

impl Default for TenantFleetConfig {
    fn default() -> Self {
        TenantFleetConfig::ecg_scale(1)
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

/// Writes a tenant fleet snapshot to `path` (atomic rename, like the
/// production save path).
pub fn write_tenant_fleet(path: &Path, config: &TenantFleetConfig) -> mfod_persist::Result<()> {
    mfod_persist::save_bytes(path, &tenant_fleet_bytes(config))
}

/// Eagerly decodes every tenant of a fleet snapshot, in section order —
/// the eager arm of eager-vs-lazy comparisons: one open, then every
/// section decoded whole into owned matrices.
pub fn decode_fleet_eager(bytes: &[u8]) -> mfod_persist::Result<Vec<Matrix>> {
    let snap = LazySnapshot::open(bytes)?;
    if snap.kind() != TENANT_FLEET_KIND {
        return Err(PersistError::WrongKind {
            got: snap.kind(),
            expected: TENANT_FLEET_KIND,
        });
    }
    let mut out = Vec::new();
    for id in snap.section_ids() {
        let mut dec = snap.section(id)?;
        let m = Matrix::decode(&mut dec)?;
        dec.finish()?;
        out.push(m);
    }
    Ok(out)
}

/// Stable content digest of a matrix (shape + `f64` bit patterns) for
/// asserting bit-for-bit equality across eager and lazy decodes without holding
/// both copies.
pub fn matrix_digest(m: &Matrix) -> u64 {
    hash_f64s(m.as_slice()) ^ ((m.nrows() as u64) << 32 | m.ncols() as u64)
}

/// Touches tenant `i` of an opened lazy fleet snapshot and returns its
/// digest — the lazy arm of eager-vs-lazy comparisons.
pub fn lazy_tenant_digest(snap: &LazySnapshot<'_>, i: usize) -> mfod_persist::Result<u64> {
    let m: &Matrix = snap.section_value(tenant_section_id(i))?;
    Ok(matrix_digest(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_persist::SharedBytes;

    #[test]
    fn fleet_is_deterministic_and_tenant_sections_are_distinct() {
        let config = TenantFleetConfig::ecg_scale(1);
        let a = tenant_fleet_bytes(&config);
        let b = tenant_fleet_bytes(&config);
        assert_eq!(a, b, "same config must produce identical bytes");
        let fleet = decode_fleet_eager(&a).unwrap();
        assert_eq!(fleet.len(), config.tenants);
        let digests: std::collections::HashSet<u64> = fleet.iter().map(matrix_digest).collect();
        assert_eq!(digests.len(), config.tenants, "tenant payloads must differ");
    }

    #[test]
    fn lazy_tenant_digests_match_the_eager_decode() {
        let config = TenantFleetConfig {
            tenants: 3,
            rows: 7,
            cols: 5,
            seed: 41,
        };
        let bytes = tenant_fleet_bytes(&config);
        let eager = decode_fleet_eager(&bytes).unwrap();
        let shared = SharedBytes::from_vec(bytes);
        let snap = LazySnapshot::open_shared(&shared).unwrap();
        for (i, m) in eager.iter().enumerate() {
            assert_eq!(lazy_tenant_digest(&snap, i).unwrap(), matrix_digest(m));
        }
    }

    #[test]
    fn mapped_fleet_serves_tenants_zero_copy() {
        let dir = std::env::temp_dir().join(format!("mfod-fixture-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.mfod");
        let config = TenantFleetConfig::ecg_scale(1);
        write_tenant_fleet(&path, &config).unwrap();
        let shared = SharedBytes::map(&path).unwrap();
        let snap = LazySnapshot::open_shared(&shared).unwrap();
        let m: &Matrix = snap.section_value(tenant_section_id(0)).unwrap();
        assert!(
            m.is_borrowed(),
            "8-aligned sections must decode zero-copy from a mapping"
        );
        assert_eq!(matrix_digest(m), matrix_digest(&tenant_matrix(&config, 0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
