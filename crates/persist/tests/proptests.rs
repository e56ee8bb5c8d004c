//! Property tests for the snapshot wire format and container.
//!
//! The two contracts under test:
//!
//! 1. **Bit-exact round-trips** — for arbitrary payloads (including NaN
//!    bit patterns, `-0.0`, subnormals), `encode → decode → re-encode`
//!    reproduces the original bytes exactly.
//! 2. **No panic on untrusted bytes** — arbitrary truncation and byte
//!    corruption of a valid snapshot always yield a typed
//!    [`PersistError`], never a panic, wrong value or unbounded
//!    allocation.

use mfod_linalg::Matrix;
use mfod_persist::{
    crc32, from_bytes, to_bytes, Decode, Decoder, Encode, Encoder, LazySnapshot, PersistError,
    Snapshot, SnapshotWriter, FORMAT_VERSION, MAGIC, SECTION_BODY,
};
use proptest::prelude::*;

/// A payload exercising every wire primitive at once.
#[derive(Debug, Clone, PartialEq)]
struct Mixed {
    xs: Vec<f64>,
    shape: (usize, usize),
    matrix: Matrix,
    tag: String,
    flag: bool,
    maybe: Option<f64>,
}

impl Encode for Mixed {
    fn encode(&self, w: &mut Encoder) {
        self.xs.encode(w);
        self.shape.encode(w);
        self.matrix.encode(w);
        self.tag.encode(w);
        self.flag.encode(w);
        self.maybe.encode(w);
    }
}

impl Decode for Mixed {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(Mixed {
            xs: Vec::decode(r)?,
            shape: <(usize, usize)>::decode(r)?,
            matrix: Matrix::decode(r)?,
            tag: String::decode(r)?,
            flag: bool::decode(r)?,
            maybe: Option::decode(r)?,
        })
    }
}

impl Snapshot for Mixed {
    const KIND: u32 = 0x4D49;
    const NAME: &'static str = "mixed";
}

/// Builds a deterministic payload from fuzzable scalars. Raw `u64` bits
/// reinterpreted as `f64` cover NaNs, infinities, subnormals and both
/// zeros — exactly the values a lossy text format would mangle.
fn mixed_from(bits: Vec<u64>, rows: usize, cols: usize, tag: String, flag: bool) -> Mixed {
    let xs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| f64::from_bits(bits[i % bits.len().max(1)].wrapping_mul(i as u64 | 1)))
        .collect();
    Mixed {
        maybe: xs.first().copied(),
        matrix: Matrix::from_vec(rows, cols, data),
        shape: (rows, cols),
        xs,
        tag,
        flag,
    }
}

fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_bit_exact_and_reencode_is_byte_identical(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..40),
        rows in 1usize..8,
        cols in 1usize..8,
        flag in proptest::arbitrary::any::<bool>(),
    ) {
        let original = mixed_from(bits, rows, cols, String::from("κ-payload"), flag);
        let bytes = to_bytes(&original);
        let decoded: Mixed = from_bytes(&bytes).unwrap();
        // bit-exact field round-trips
        prop_assert_eq!(bits_of(&original.xs), bits_of(&decoded.xs));
        prop_assert_eq!(
            bits_of(original.matrix.as_slice()),
            bits_of(decoded.matrix.as_slice())
        );
        prop_assert_eq!(original.matrix.shape(), decoded.matrix.shape());
        prop_assert_eq!(&original.tag, &decoded.tag);
        prop_assert_eq!(original.flag, decoded.flag);
        prop_assert_eq!(
            original.maybe.map(f64::to_bits),
            decoded.maybe.map(f64::to_bits)
        );
        // re-encoding the decoded value reproduces the file byte for byte
        prop_assert_eq!(to_bytes(&decoded), bytes);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..16),
        cut_permille in 0usize..1000,
    ) {
        let original = mixed_from(bits, 2, 3, String::from("t"), true);
        let bytes = to_bytes(&original);
        let cut = cut_permille * bytes.len() / 1000;
        let result = from_bytes::<Mixed>(&bytes[..cut]);
        prop_assert!(result.is_err(), "truncation to {} bytes decoded", cut);
    }

    #[test]
    fn byte_corruption_never_panics_and_never_decodes_silently(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..16),
        at_permille in 0usize..1000,
        flip in 1u32..256,
    ) {
        let flip = flip as u8;
        let original = mixed_from(bits, 3, 2, String::from("c"), false);
        let mut bytes = to_bytes(&original);
        let at = at_permille * (bytes.len() - 1) / 1000;
        bytes[at] ^= flip;
        // every single-byte corruption is caught (CRC-32 detects all
        // 1-byte errors; header errors are typed before the CRC check)
        let result = from_bytes::<Mixed>(&bytes);
        prop_assert!(result.is_err(), "corrupt byte {} (xor {:#x}) decoded", at, flip);
    }

    #[test]
    fn lazy_tier_decodes_bit_identically_to_eager(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..40),
        rows in 1usize..8,
        cols in 1usize..8,
        flag in proptest::arbitrary::any::<bool>(),
    ) {
        let original = mixed_from(bits, rows, cols, String::from("λ-payload"), flag);
        let bytes = to_bytes(&original);
        let eager: Mixed = from_bytes(&bytes).unwrap();
        let snap = LazySnapshot::open(&bytes).unwrap();
        let lazy: &Mixed = snap.section_value(SECTION_BODY).unwrap();
        // field-by-field bit equality between the memoized touch and the
        // one-shot decode
        prop_assert_eq!(bits_of(&eager.xs), bits_of(&lazy.xs));
        prop_assert_eq!(
            bits_of(eager.matrix.as_slice()),
            bits_of(lazy.matrix.as_slice())
        );
        prop_assert_eq!(eager.matrix.shape(), lazy.matrix.shape());
        prop_assert_eq!(&eager.tag, &lazy.tag);
        prop_assert_eq!(eager.flag, lazy.flag);
        prop_assert_eq!(eager.maybe.map(f64::to_bits), lazy.maybe.map(f64::to_bits));
        // and the lazy-decoded value re-encodes to the original file
        prop_assert_eq!(to_bytes(lazy), bytes);
    }

    #[test]
    fn lazy_tier_rejects_exactly_what_eager_rejects(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..16),
        at_permille in 0usize..1000,
        flip in 1u32..256,
    ) {
        let original = mixed_from(bits, 3, 2, String::from("e"), false);
        let mut bytes = to_bytes(&original);
        let at = at_permille * (bytes.len() - 1) / 1000;
        bytes[at] ^= flip as u8;
        let eager = from_bytes::<Mixed>(&bytes);
        let lazy = LazySnapshot::open(&bytes)
            .and_then(|snap| snap.section_value::<Mixed>(SECTION_BODY).map(|_| ()));
        // both paths reject, with the same typed error family
        prop_assert!(eager.is_err() && lazy.is_err());
        prop_assert_eq!(
            std::mem::discriminant(&eager.unwrap_err()),
            std::mem::discriminant(&lazy.unwrap_err())
        );
    }

    #[test]
    fn random_garbage_is_rejected_with_typed_errors(
        words in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..50),
    ) {
        let garbage: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        match from_bytes::<Mixed>(&garbage) {
            Ok(_) => prop_assert!(false, "garbage decoded as a snapshot"),
            Err(
                PersistError::BadMagic { .. }
                | PersistError::Truncated { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::UnsupportedVersion { .. }
                | PersistError::WrongKind { .. }
                | PersistError::Malformed(_)
                | PersistError::MissingSection { .. }
                | PersistError::UnknownTag { .. },
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error family: {e}"),
        }
    }
}

/// The container writer as it stood before `SnapshotWriter::finish`
/// wrote into one allocation: the payload gathered in its own buffer,
/// then header, table and payload copied into a second. Kept here to pin
/// the bytes the one-allocation writer must reproduce.
fn two_copy_container(kind: u32, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let payload_base = 16 + 20 * sections.len();
    let mut payload: Vec<u8> = Vec::new();
    let mut entries = Vec::with_capacity(sections.len());
    for (id, body) in sections {
        let file_offset = payload_base + payload.len();
        let pad = (8 - file_offset % 8) % 8;
        payload.resize(payload.len() + pad, 0);
        entries.push((*id, payload.len() as u64, body.len() as u64));
        payload.extend_from_slice(body);
    }
    let mut out = Encoder::new();
    out.put_bytes(&MAGIC);
    out.put_u32(FORMAT_VERSION);
    out.put_u32(kind);
    out.put_u32(sections.len() as u32);
    for (id, offset, len) in entries {
        out.put_u32(id);
        out.put_u64(offset);
        out.put_u64(len);
    }
    out.put_bytes(&payload);
    let mut bytes = out.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one-allocation writer produces the two-copy writer's bytes for
    /// any set of sections: ids, body lengths (hence every padding) and
    /// contents drawn at random, empty bodies and zero sections included.
    #[test]
    fn one_allocation_finish_writes_the_two_copy_bytes(
        kind in proptest::arbitrary::any::<u32>(),
        ids in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..7),
        lens in proptest::collection::vec(0usize..70, 7),
        fill in proptest::arbitrary::any::<u64>(),
    ) {
        let sections: Vec<(u32, Vec<u8>)> = ids
            .iter()
            .zip(&lens)
            .enumerate()
            .map(|(i, (&id, &len))| {
                let body = (0..len)
                    .map(|j| (fill.rotate_left((i * 7 + j) as u32 % 64) >> 3) as u8 ^ j as u8)
                    .collect();
                (id, body)
            })
            .collect();
        let mut w = SnapshotWriter::new(kind);
        for (id, body) in &sections {
            w.section(*id, |enc| enc.put_bytes(body));
        }
        prop_assert_eq!(w.finish(), two_copy_container(kind, &sections));
    }
}

/// A small multi-section container for the exhaustive lazy-tier sweeps:
/// three independently addressable `Vec<f64>` sections.
fn multi_section_bytes() -> Vec<u8> {
    let mut w = SnapshotWriter::new(0x4C5A);
    for id in 1u32..=3 {
        let payload: Vec<f64> = (0..9)
            .map(|i| f64::from_bits(0x3FF0_0000_0000_0000 ^ (u64::from(id) << 40) ^ i))
            .collect();
        w.section(id, |enc| payload.encode(enc));
    }
    w.finish()
}

/// Exhaustive sweep: **every** single-byte corruption of a multi-section
/// snapshot is rejected by [`LazySnapshot::open`] — up front, before any
/// section is touched. This is the "tamper in a section you never
/// decode" guarantee: validation is CRC-whole-file, not per-touch.
#[test]
fn every_byte_flip_is_rejected_at_lazy_open() {
    let good = multi_section_bytes();
    for at in 0..good.len() {
        let mut bad = good.clone();
        bad[at] ^= 0x01;
        assert!(
            LazySnapshot::open(&bad).is_err(),
            "flip at byte {at} survived open"
        );
    }
    // and the pristine bytes still open, with all sections reachable
    let snap = LazySnapshot::open(&good).unwrap();
    for id in 1u32..=3 {
        let xs: &Vec<f64> = snap.section_value(id).unwrap();
        assert_eq!(xs.len(), 9);
    }
}

/// Exhaustive sweep: **every** truncation of a multi-section snapshot is
/// rejected by [`LazySnapshot::open`].
#[test]
fn every_truncation_is_rejected_at_lazy_open() {
    let good = multi_section_bytes();
    for n in 0..good.len() {
        assert!(
            LazySnapshot::open(&good[..n]).is_err(),
            "truncation to {n} bytes survived open"
        );
    }
}

/// A tiny store artifact for the recovery-idempotence property.
#[derive(Debug, Clone, PartialEq)]
struct Probe {
    v: Vec<f64>,
}

impl Encode for Probe {
    fn encode(&self, w: &mut Encoder) {
        self.v.encode(w);
    }
}

impl Decode for Probe {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(Probe { v: Vec::decode(r)? })
    }
}

impl Snapshot for Probe {
    const KIND: u32 = 0x5052;
    const NAME: &'static str = "probe";
}

/// Directory listing minus the quarantine subdir contents ordering
/// noise: sorted names of everything in the store dir and quarantine.
fn store_footprint(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for base in [dir.to_path_buf(), dir.join(mfod_persist::QUARANTINE_DIR)] {
        let Ok(entries) = std::fs::read_dir(&base) else {
            continue;
        };
        for e in entries.filter_map(|e| e.ok()) {
            if e.file_type().map(|t| t.is_file()).unwrap_or(false) {
                let prefix = if base.ends_with(mfod_persist::QUARANTINE_DIR) {
                    "quarantine/"
                } else {
                    ""
                };
                names.push(format!("{prefix}{}", e.file_name().to_string_lossy()));
            }
        }
    }
    names.sort();
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery is idempotent: whatever mess a seeded crash schedule
    /// leaves behind, opening the store twice yields the same catalog,
    /// the same active generation and the same on-disk footprint as
    /// opening it once.
    #[test]
    fn recovery_is_idempotent_across_seeded_crash_schedules(
        seed in proptest::arbitrary::any::<u64>(),
        promotions in 1usize..5,
        crash_point in 0usize..4,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "mfod-recovery-prop-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let point = [
            mfod_faultline::points::PERSIST_FSYNC,
            mfod_faultline::points::PERSIST_RENAME,
            mfod_faultline::points::MANIFEST_APPEND_TORN,
            mfod_faultline::points::STORE_COMMIT,
        ][crash_point];
        {
            let (mut store, _) = mfod_persist::ModelStore::open(&dir).unwrap();
            for i in 0..promotions {
                let probe = Probe {
                    v: (0..16).map(|j| seed as f64 + (i * 16 + j) as f64).collect(),
                };
                store.promote(&probe, seed, &format!("p{i}")).unwrap();
            }
            // crash the final promotion at the seeded point
            mfod_faultline::install(
                mfod_faultline::FaultPlan::new(seed)
                    .rule(point, mfod_faultline::FaultRule::once()),
            );
            let doomed = Probe { v: vec![seed as f64; 8] };
            let _ = store.promote(&doomed, seed, "doomed");
            mfod_faultline::disarm();
        }
        let (once, _) = mfod_persist::ModelStore::open(&dir).unwrap();
        let once_manifest = once.manifest().clone();
        let once_footprint = store_footprint(&dir);
        drop(once);
        let (twice, report) = mfod_persist::ModelStore::open(&dir).unwrap();
        prop_assert_eq!(twice.manifest(), &once_manifest);
        prop_assert_eq!(store_footprint(&dir), once_footprint);
        prop_assert!(
            report.quarantined.is_empty(),
            "second recovery re-quarantined: {:?}",
            report.quarantined
        );
        // and the recovered active generation always fscks clean
        prop_assert!(twice.fsck().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
