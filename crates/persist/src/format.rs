//! The snapshot container: magic, format version, artifact kind, section
//! table, payload, CRC-32 trailer.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MFOD"
//! 4       4     format version (u32, currently 1)
//! 8       4     artifact kind  (u32, see [`Snapshot::KIND`])
//! 12      4     section count  (u32)
//! 16      20·k  section table: k × { id: u32, offset: u64, len: u64 }
//! …       n     payload (section bodies, each padded to an 8-aligned
//!               file offset with deterministic zero gaps)
//! end−4   4     CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! Section offsets are relative to the payload start and are validated
//! against the payload bounds before any section is handed to a decoder.
//! Table offsets are authoritative, so the inter-section alignment gaps
//! are invisible to readers (they are covered by the CRC). Every section
//! starts at an 8-aligned file offset; the gaps are part of the version-1
//! layout, so the bytes a writer emits never change.
//!
//! ## One reader
//!
//! [`LazySnapshot`] is the only container reader, opened over a byte
//! slice. [`from_bytes`] (and [`load`], which reads the file first) opens
//! it and runs the body decode: kind check, decode, exact consumption.
//!
//! ## Versioning policy
//!
//! The version is bumped when the container layout or any section wire
//! format changes incompatibly. Readers accept only versions
//! `<=` [`FORMAT_VERSION`] and fail on newer files with
//! [`PersistError::UnsupportedVersion`] — old binaries never misread new
//! snapshots. Additive evolution (new optional sections) does not bump
//! the version: unknown section ids are ignored by readers, and decoders
//! treat a missing optional section as its default.

use crate::error::PersistError;
use crate::wire::{Decode, Decoder, Encode, Encoder};
use crate::Result;
use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Snapshot file magic.
pub const MAGIC: [u8; 4] = *b"MFOD";

/// Newest container version this build reads and the version it writes.
pub const FORMAT_VERSION: u32 = 1;

/// Conventional file extension for snapshot files.
pub const SNAPSHOT_EXT: &str = "mfod";

/// Section id for the single-section body written by [`to_bytes`].
pub const SECTION_BODY: u32 = 1;

/// Slice-by-16 lookup tables for [`crc32`], generated at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; table `k` maps a
/// byte to its CRC contribution when it sits `k` positions deeper in a
/// 16-byte block.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// One slice-by-16 step: folds a 16-byte block into the running state.
/// The sixteen lookups have no chain between them, so the core can
/// overlap them across the block.
#[inline(always)]
fn crc32_step16(crc: u32, c: &[u8]) -> u32 {
    let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    let d = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
    let e = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
    CRC_TABLES[15][(a & 0xFF) as usize]
        ^ CRC_TABLES[14][((a >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[13][((a >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[12][(a >> 24) as usize]
        ^ CRC_TABLES[11][(b & 0xFF) as usize]
        ^ CRC_TABLES[10][((b >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[9][((b >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[8][(b >> 24) as usize]
        ^ CRC_TABLES[7][(d & 0xFF) as usize]
        ^ CRC_TABLES[6][((d >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((d >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(d >> 24) as usize]
        ^ CRC_TABLES[3][(e & 0xFF) as usize]
        ^ CRC_TABLES[2][((e >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((e >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(e >> 24) as usize]
}

/// Raw state update (no init/final conditioning) over `bytes`.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for c in chunks.by_ref() {
        crc = crc32_step16(crc, c);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// The checksum is the one pass over a snapshot's bytes that every open
/// makes (everything else is header + section-table validation,
/// O(sections) not O(bytes)), and a deployment makes three: to seal the
/// encoded snapshot, to validate it at promotion and at install. On
/// x86-64 with carry-less multiply (`pclmulqdq`) it folds 16 bytes per
/// instruction pair, about ten times the throughput of the portable
/// slice-by-16 table walk, which covers other targets, short inputs and
/// the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` checked that the CPU has the instructions
        // `fold` is compiled for, and `bytes` holds at least `MIN_LEN`.
        let (crc, tail) = unsafe { clmul::fold(!0, bytes) };
        return !crc32_update(crc, tail);
    }
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// CRC-32 by carry-less multiplication (Intel, "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", 2009): four 128-bit
/// lanes fold the input 64 bytes at a time, fold into one lane, and a
/// Barrett reduction takes the remainder to 32 bits. The constants are
/// the paper's for the bit-reflected polynomial `0xEDB88320`, the same
/// Linux's `crc32-pclmul` uses.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Folding constants for a 512-bit stride (four lanes apart).
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Folding constants for a 128-bit stride (the next lane).
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// Folds the last 64 bits down to 32 plus the reduction's input.
    const K5: i64 = 0x1_63CD_6124;
    /// The polynomial with its x³² term and Barrett's μ = ⌊x⁶⁴ / P⌋, both
    /// bit-reflected like the constants above.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The four lanes need one 64-byte block to start from.
    pub(super) const MIN_LEN: usize = 64;

    /// Whether this CPU has the instructions [`fold`] uses (the answer is
    /// detected once and cached by the standard library).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Takes the raw CRC state `crc` over every whole 16-byte block of
    /// `bytes` and returns the new raw state with the bytes left over.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]), and
    /// `bytes` must hold at least [`MIN_LEN`] bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, mut bytes: &[u8]) -> (u32, &[u8]) {
        debug_assert!(bytes.len() >= MIN_LEN);
        let b = &mut bytes;
        let mut x3 = _mm_xor_si128(next(b), _mm_cvtsi32_si128(crc as i32));
        let (mut x2, mut x1, mut x0) = (next(b), next(b), next(b));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while b.len() >= 64 {
            x3 = fold_into(x3, next(b), k1k2);
            x2 = fold_into(x2, next(b), k1k2);
            x1 = fold_into(x1, next(b), k1k2);
            x0 = fold_into(x0, next(b), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(fold_into(fold_into(x3, x2, k3k4), x1, k3k4), x0, k3k4);
        while b.len() >= 16 {
            x = fold_into(x, next(b), k3k4);
        }
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (crc, bytes)
    }

    /// Loads the next 16 bytes and steps past them.
    #[inline(always)]
    fn next(bytes: &mut &[u8]) -> __m128i {
        let (block, rest) = bytes.split_at(16);
        *bytes = rest;
        // SAFETY: `block` holds 16 bytes, and the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Folds lane `a` forward by the stride `k` encodes and adds `b`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }
}

/// A typed artifact with a stable on-disk identity.
///
/// `KIND` distinguishes artifact families inside the shared container
/// (a pipeline file fed to a calibrator loader fails with
/// [`PersistError::WrongKind`] instead of garbage), and `NAME` labels the
/// artifact in diagnostics.
pub trait Snapshot: Encode + Decode {
    /// Artifact-kind tag stored in the header.
    const KIND: u32;
    /// Human-readable artifact name for error messages.
    const NAME: &'static str;
}

/// What names a container's bytes: their length, the artifact kind in
/// the header and the CRC-32 trailer.
///
/// Reading it is O(1) and proves nothing by itself; the CRC pass every
/// open makes ([`LazySnapshot::open`]) is what ties the trailer to the
/// bytes. So a store compares a file's claimed identity with its catalog
/// entry first, and then opens it. The CRC is 32 bits and not
/// cryptographic: it tells a wrong or damaged file from the committed
/// one, not a forgery, and length and kind must match as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentId {
    /// Byte length of the container.
    pub len: u64,
    /// Artifact kind in the header.
    pub kind: u32,
    /// CRC-32 trailer: the container's checksum over every byte before it.
    pub crc: u32,
}

impl ContentId {
    /// The identity `bytes` claim, read without validating them. Bytes
    /// too short for a header claim kind 0, and too short for a trailer
    /// CRC 0; their length alone already tells them from any container.
    pub fn claimed(bytes: &[u8]) -> ContentId {
        let word = |at: usize| {
            bytes
                .get(at..at + 4)
                .map_or(0, |w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
        };
        ContentId {
            len: bytes.len() as u64,
            kind: word(8),
            crc: bytes.len().checked_sub(4).map_or(0, word),
        }
    }
}

impl std::fmt::Display for ContentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} bytes of kind {} with CRC-32 {:#010X}",
            self.len, self.kind, self.crc
        )
    }
}

/// Builds a multi-section snapshot.
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot of the given artifact kind.
    pub fn new(kind: u32) -> Self {
        SnapshotWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section, encoding its body with `f`.
    pub fn section(&mut self, id: u32, f: impl FnOnce(&mut Encoder)) {
        let mut enc = Encoder::new();
        f(&mut enc);
        self.sections.push((id, enc.into_bytes()));
    }

    /// Serializes the container: header, table, payload, CRC trailer.
    ///
    /// Each section body is padded to start at a **file offset that is a
    /// multiple of 8**. The padding is deterministic zero bytes living in
    /// the gaps *between* table-addressed sections — readers never see it
    /// (table offsets are authoritative) and the CRC covers it.
    ///
    /// The container is sized first and written into one allocation:
    /// each section body is copied once, straight to its place.
    pub fn finish(self) -> Vec<u8> {
        // header (16 bytes) + table (20 bytes per section) precede the payload
        let payload_base = 16 + 20 * self.sections.len();
        let end = self.sections.iter().fold(payload_base, |end, (_, body)| {
            end.next_multiple_of(8) + body.len()
        });
        let mut out = Encoder::with_capacity(end + 4);
        out.put_bytes(&MAGIC);
        out.put_u32(FORMAT_VERSION);
        out.put_u32(self.kind);
        out.put_u32(self.sections.len() as u32);
        let mut at = payload_base;
        for (id, body) in &self.sections {
            at = at.next_multiple_of(8);
            out.put_u32(*id);
            out.put_usize(at - payload_base);
            out.put_usize(body.len());
            at += body.len();
        }
        for (_, body) in &self.sections {
            out.put_zeros(out.len().next_multiple_of(8) - out.len());
            out.put_bytes(body);
        }
        let mut bytes = out.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }
}

/// The one container reader: validated once, decoded on touch.
///
/// Opening validates magic, CRC, version and section-table bounds
/// **once** over the whole byte slice — O(file) for the checksum scan
/// and nothing else — and after that no decoding happens until a section
/// is touched. A tampered section that is *never* touched is still
/// rejected up front by the CRC gate, and a touched one fails with a
/// typed error (decode failures are never cached — every touch of a
/// corrupt section re-fails identically).
///
/// It borrows the caller's bytes, and every decoded value owns copies of
/// what it read. [`from_bytes`] is an open followed by one body decode.
///
/// A section is touched either whole through [`LazySnapshot::section`]
/// (counted as `persist_sections_eager`) or memoized through
/// [`LazySnapshot::section_value`] (counted as `persist_sections_lazy`),
/// which pays the decode once per section.
#[derive(Debug)]
pub struct LazySnapshot<'a> {
    kind: u32,
    version: u32,
    /// `(id, body)` in file order.
    sections: Vec<(u32, &'a [u8])>,
    cells: Vec<OnceLock<Box<dyn Any + Send + Sync>>>,
}

impl<'a> LazySnapshot<'a> {
    /// Opens a container over caller-held bytes (CRC, magic, version and
    /// table validated now; sections decoded on touch).
    pub fn open(bytes: &'a [u8]) -> Result<Self> {
        // trailer first: without an intact CRC nothing else is trusted
        if bytes.len() < MAGIC.len() + 4 {
            return Err(PersistError::Truncated {
                context: "snapshot header",
                needed: MAGIC.len() + 4,
                available: bytes.len(),
            });
        }
        let got: [u8; 4] = bytes[..4].try_into().expect("4 bytes");
        if got != MAGIC {
            return Err(PersistError::BadMagic { got });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let mut computed = crc32(body);
        if mfod_faultline::should_fire(mfod_faultline::points::PERSIST_CRC) {
            // Injected CRC corruption: invert the computed checksum so an
            // otherwise valid snapshot fails the integrity gate.
            computed = !computed;
        }
        if stored != computed {
            return Err(PersistError::ChecksumMismatch { stored, computed });
        }
        let mut r = Decoder::new(&body[4..]);
        let version = r.take_u32()?;
        if version > FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                got: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = r.take_u32()?;
        let count = r.take_u32()? as usize;
        // Each table entry is 20 bytes; reject counts the buffer cannot hold.
        if count.checked_mul(20).is_none_or(|n| n > r.remaining()) {
            return Err(PersistError::Truncated {
                context: "section table",
                needed: count.saturating_mul(20),
                available: r.remaining(),
            });
        }
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            let id = r.take_u32()?;
            let offset = r.take_usize()?;
            let len = r.take_usize()?;
            table.push((id, offset, len));
        }
        let payload = r.take_bytes(r.remaining(), "payload")?;
        let mut sections = Vec::with_capacity(count);
        for (id, offset, len) in table {
            let end = offset
                .checked_add(len)
                .ok_or_else(|| PersistError::Malformed(format!("section {id} bounds overflow")))?;
            if end > payload.len() {
                return Err(PersistError::Truncated {
                    context: "section body",
                    needed: end,
                    available: payload.len(),
                });
            }
            sections.push((id, &payload[offset..end]));
        }
        Ok(LazySnapshot {
            kind,
            version,
            cells: (0..sections.len()).map(|_| OnceLock::new()).collect(),
            sections,
        })
    }

    /// Artifact kind from the header.
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// Container version the file was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Ids of every section present, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|&(id, _)| id).collect()
    }

    /// Index and decoder of a required section.
    fn find(&self, id: u32) -> Result<(usize, Decoder<'a>)> {
        let idx = self
            .sections
            .iter()
            .position(|&(sid, _)| sid == id)
            .ok_or(PersistError::MissingSection { id })?;
        Ok((idx, Decoder::new(self.sections[idx].1)))
    }

    /// Decoder over a required section's body.
    pub fn section(&self, id: u32) -> Result<Decoder<'a>> {
        let (_, dec) = self.find(id)?;
        if let Some(m) = mfod_obs::active() {
            m.persist_sections_eager.add(1);
        }
        Ok(dec)
    }

    /// Decodes a required section on first touch and memoizes the
    /// result; later calls return the cached value without re-decoding.
    /// Only successes are cached: a corrupt section fails with the same
    /// typed error on every touch.
    ///
    /// The decoder must consume the section exactly (trailing bytes are
    /// corruption). Requesting the same section as two different types
    /// is a caller bug and reported as [`PersistError::Malformed`].
    pub fn section_value<T: Decode + Send + Sync + 'static>(&self, id: u32) -> Result<&T> {
        let (idx, mut dec) = self.find(id)?;
        if self.cells[idx].get().is_none() {
            let started = mfod_obs::active().map(|_| std::time::Instant::now());
            let value = T::decode(&mut dec)?;
            dec.finish()?;
            if let (Some(m), Some(t)) = (mfod_obs::active(), started) {
                m.persist_sections_lazy.add(1);
                m.persist_first_touch.record(t.elapsed().as_nanos() as u64);
            }
            // under a concurrent first touch, the winner's value is kept
            let _ = self.cells[idx].set(Box::new(value));
        }
        self.cells[idx]
            .get()
            .expect("cell initialized above")
            .downcast_ref::<T>()
            .ok_or_else(|| {
                PersistError::Malformed(format!("section {id} touched as two different types"))
            })
    }

    /// The body of a [`to_bytes`]-shaped snapshot: artifact kind, body
    /// decode, exact consumption.
    fn decode_body<T: Snapshot>(&self) -> Result<T> {
        if self.kind != T::KIND {
            return Err(PersistError::WrongKind {
                got: self.kind,
                expected: T::KIND,
            });
        }
        let mut dec = self.section(SECTION_BODY)?;
        let value = T::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

/// Encodes `value` into a complete single-section snapshot byte buffer.
pub fn to_bytes<T: Snapshot>(value: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new(T::KIND);
    w.section(SECTION_BODY, |enc| value.encode(enc));
    w.finish()
}

/// Decodes a [`to_bytes`]-shaped snapshot, validating container
/// integrity, artifact kind and exact body consumption.
pub fn from_bytes<T: Snapshot>(bytes: &[u8]) -> Result<T> {
    LazySnapshot::open(bytes)?.decode_body()
}

/// Infix every writer-unique temp file carries between the original file
/// name and its per-writer suffix — recovery and fsck treat any sibling
/// whose name contains this marker as a stray crashed-writer temp.
pub const TMP_INFIX: &str = ".mfod-tmp-";

/// A temp path unique per writer: `<name>.mfod-tmp-<pid>-<seq>` next to
/// the final path. Two concurrent savers targeting one path each get
/// their own temp file, so neither can clobber or rename the other's
/// half-written bytes (the old fixed `.mfod.tmp` name raced).
fn unique_tmp(path: &Path) -> PathBuf {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".into());
    path.with_file_name(format!("{name}{TMP_INFIX}{}-{seq}", std::process::id()))
}

/// Opens `path`'s parent directory and fsyncs it, making a just-renamed
/// directory entry durable. A path with no parent component syncs the
/// current directory.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// Writes `bytes` to `path` atomically **and durably**: the data lands
/// in a writer-unique sibling temp file, is fsynced, renamed into place,
/// and the parent directory is fsynced — so a reader never observes a
/// half-written snapshot, and a SIGKILL at any step leaves either the
/// old file or the complete new one, never a torn tail at the final
/// path. Crash points: [`mfod_faultline::points::PERSIST_FSYNC`] before
/// the data is durable, [`mfod_faultline::points::PERSIST_RENAME`]
/// between durability and visibility.
pub fn save_bytes(path: &Path, bytes: &[u8]) -> Result<()> {
    let io = |source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    };
    if mfod_faultline::should_fire(mfod_faultline::points::PERSIST_TORN_WRITE) {
        // Injected torn write: a truncated file lands at the *final*
        // path, as if a crashed writer had bypassed the atomic rename.
        // Readers must reject it via the CRC/truncation gates.
        let keep = bytes.len().saturating_mul(2) / 3;
        let _ = std::fs::write(path, &bytes[..keep]);
        return Err(io(std::io::Error::other(
            "injected fault: persist.torn_write",
        )));
    }
    use std::io::Write as _;
    let tmp = unique_tmp(path);
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    file.write_all(bytes).map_err(io)?;
    if mfod_faultline::should_fire(mfod_faultline::points::PERSIST_FSYNC) {
        mfod_faultline::park_if_requested(mfod_faultline::points::PERSIST_FSYNC);
        return Err(io(std::io::Error::other("injected fault: persist.fsync")));
    }
    file.sync_all().map_err(io)?;
    drop(file);
    if mfod_faultline::should_fire(mfod_faultline::points::PERSIST_RENAME) {
        mfod_faultline::park_if_requested(mfod_faultline::points::PERSIST_RENAME);
        return Err(io(std::io::Error::other("injected fault: persist.rename")));
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    sync_parent_dir(path).map_err(io)
}

/// Saves `value` as a snapshot file (atomic write, see [`save_bytes`]).
pub fn save<T: Snapshot>(value: &T, path: &Path) -> Result<()> {
    save_bytes(path, &to_bytes(value))
}

/// Loads a snapshot file written by [`save`].
pub fn load<T: Snapshot>(path: &Path) -> Result<T> {
    let bytes = std::fs::read(path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Blob {
        xs: Vec<f64>,
        tag: String,
    }

    impl Encode for Blob {
        fn encode(&self, w: &mut Encoder) {
            self.xs.encode(w);
            self.tag.encode(w);
        }
    }

    impl Decode for Blob {
        fn decode(r: &mut Decoder<'_>) -> Result<Self> {
            Ok(Blob {
                xs: Vec::decode(r)?,
                tag: String::decode(r)?,
            })
        }
    }

    impl Snapshot for Blob {
        const KIND: u32 = 0xB10B;
        const NAME: &'static str = "blob";
    }

    fn blob() -> Blob {
        Blob {
            xs: vec![1.0, -0.0, f64::NAN, 2.5e-308],
            tag: "hello".into(),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The carry-less-multiply path and the portable table walk must agree
    /// with a byte-at-a-time reference at every structural edge: below,
    /// at and above the 64-byte minimum, every tail length past whole
    /// 16- and 64-byte blocks, unaligned starts, and a snapshot-sized and
    /// a multi-megabyte input.
    #[test]
    fn crc32_paths_match_the_reference() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        }
        // deterministic pseudo-random fill, no RNG dependency
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..(3 << 20) + 64)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let lens = (0..=300).chain([1023, 1024, 1025, 85_697, 3 << 20]);
        for len in lens {
            for offset in [0, 1, 7, 13] {
                let bytes = &data[offset..offset + len];
                let want = reference(bytes);
                assert_eq!(crc32(bytes), want, "len {len} offset {offset}");
                assert_eq!(!crc32_update(!0, bytes), want, "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn roundtrip_and_reencode_identical() {
        let b = blob();
        let bytes = to_bytes(&b);
        let back: Blob = from_bytes(&bytes).unwrap();
        assert_eq!(back.tag, b.tag);
        let rebits: Vec<u64> = back.xs.iter().map(|v| v.to_bits()).collect();
        let bits: Vec<u64> = b.xs.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, rebits);
        assert_eq!(to_bytes(&back), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = to_bytes(&blob());
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes::<Blob>(&bytes),
            Err(PersistError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = to_bytes(&blob());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // fix the CRC so the version check (not the checksum) fires
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            from_bytes::<Blob>(&bytes),
            Err(PersistError::UnsupportedVersion { got: 99, .. })
        ));
    }

    #[test]
    fn wrong_kind_rejected() {
        #[derive(Debug)]
        struct Other;
        impl Encode for Other {
            fn encode(&self, _w: &mut Encoder) {}
        }
        impl Decode for Other {
            fn decode(_r: &mut Decoder<'_>) -> Result<Self> {
                Ok(Other)
            }
        }
        impl Snapshot for Other {
            const KIND: u32 = 0x07E4;
            const NAME: &'static str = "other";
        }
        let bytes = to_bytes(&blob());
        assert!(matches!(
            from_bytes::<Other>(&bytes),
            Err(PersistError::WrongKind { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let bytes = to_bytes(&blob());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                from_bytes::<Blob>(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = to_bytes(&blob());
        for n in 0..bytes.len() {
            assert!(
                from_bytes::<Blob>(&bytes[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let w = SnapshotWriter::new(Blob::KIND);
        let bytes = w.finish(); // zero sections
        let snap = LazySnapshot::open(&bytes).unwrap();
        assert_eq!(snap.version(), FORMAT_VERSION);
        assert!(snap.section_ids().is_empty());
        assert!(matches!(
            snap.section(SECTION_BODY),
            Err(PersistError::MissingSection { id: SECTION_BODY })
        ));
    }

    #[test]
    fn unknown_extra_sections_are_ignored() {
        let b = blob();
        let mut w = SnapshotWriter::new(Blob::KIND);
        w.section(SECTION_BODY, |enc| b.encode(enc));
        w.section(0xFFFF, |enc| enc.put_u64(123)); // future addition
        let bytes = w.finish();
        let back: Blob = from_bytes(&bytes).unwrap();
        assert_eq!(back.tag, b.tag);
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let mut x = 0x9E37_79B9_u64;
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let buf: Vec<u8> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 33) as u8
                })
                .collect();
            assert_eq!(crc32(&buf), reference(&buf), "len {n}");
        }
    }

    #[test]
    fn sections_start_at_8_aligned_file_offsets() {
        let mut w = SnapshotWriter::new(7);
        w.section(1, |enc| enc.put_u8(0xAA)); // odd length forces padding
        w.section(2, |enc| enc.put_u64(0xDEAD_BEEF));
        w.section(3, |enc| enc.put_bytes(&[1, 2, 3]));
        let bytes = w.finish();
        let snap = LazySnapshot::open(&bytes).unwrap();
        let payload_base = 16 + 20 * 3;
        let mut r = Decoder::new(&bytes[16..payload_base]);
        for expect_id in [1u32, 2, 3] {
            let id = r.take_u32().unwrap();
            let offset = r.take_u64().unwrap() as usize;
            let len = r.take_u64().unwrap();
            assert_eq!(id, expect_id);
            assert_eq!((payload_base + offset) % 8, 0, "section {id} misaligned");
            assert!(len > 0);
        }
        // padding is invisible to section readers
        assert_eq!(snap.section(2).unwrap().take_u64().unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn lazy_snapshot_decodes_on_touch_and_memoizes() {
        let b = blob();
        let bytes = to_bytes(&b);
        let snap = LazySnapshot::open(&bytes).unwrap();
        assert_eq!(snap.kind(), Blob::KIND);
        assert_eq!(snap.version(), FORMAT_VERSION);
        assert_eq!(snap.section_ids(), vec![SECTION_BODY]);

        let first = snap.section_value::<Blob>(SECTION_BODY).unwrap();
        assert_eq!(first.tag, b.tag);
        let second = snap.section_value::<Blob>(SECTION_BODY).unwrap();
        assert!(
            std::ptr::eq(first, second),
            "second touch must return the memoized value"
        );
        // same section under a different type is a typed caller bug
        assert!(matches!(
            snap.section_value::<u64>(SECTION_BODY),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            snap.section_value::<Blob>(0x7777),
            Err(PersistError::MissingSection { id: 0x7777 })
        ));
    }

    #[test]
    fn lazy_and_eager_paths_are_bit_identical() {
        let b = blob();
        let bytes = to_bytes(&b);
        let eager: Blob = from_bytes(&bytes).unwrap();
        let snap = LazySnapshot::open(&bytes).unwrap();
        let touched = snap.section_value::<Blob>(SECTION_BODY).unwrap();
        for variant in [&eager, touched] {
            assert_eq!(variant.tag, b.tag);
            let bits: Vec<u64> = variant.xs.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = b.xs.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want);
        }
    }

    #[test]
    fn tampering_is_caught_at_open_even_if_never_touched() {
        let mut w = SnapshotWriter::new(9);
        w.section(1, |enc| enc.put_u64(1));
        w.section(2, |enc| enc.put_u64(2));
        let mut bytes = w.finish();
        // corrupt section 2's payload only
        let n = bytes.len();
        bytes[n - 5] ^= 0xFF;
        // the CRC gate fires at open — before any section is touched
        assert!(matches!(
            LazySnapshot::open(&bytes),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn touched_corruption_fails_typed_like_the_eager_path() {
        let b = blob();
        let mut w = SnapshotWriter::new(Blob::KIND);
        // a body section that lies about its vec length
        w.section(SECTION_BODY, |enc| {
            enc.put_usize(1_000_000);
            enc.put_f64(1.0);
        });
        let bytes = w.finish();
        // both paths agree: typed truncation, no panic, repeated on every touch
        let eager_err = from_bytes::<Blob>(&bytes).unwrap_err();
        assert!(matches!(eager_err, PersistError::Truncated { .. }));
        let snap = LazySnapshot::open(&bytes).unwrap();
        for _ in 0..2 {
            let lazy_err = snap.section_value::<Blob>(SECTION_BODY).unwrap_err();
            assert!(
                matches!(lazy_err, PersistError::Truncated { .. }),
                "lazy touch must re-fail typed: {lazy_err}"
            );
        }
        drop(b);
    }

    #[test]
    fn file_roundtrip_is_atomic_and_typed_on_io_error() {
        let dir = std::env::temp_dir().join(format!("mfod-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.mfod");
        let b = blob();
        save(&b, &path).unwrap();
        // a clean save leaves no writer temp behind, under any naming scheme
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(TMP_INFIX) || n.ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty(), "stray temp files after save: {strays:?}");
        let back: Blob = load(&path).unwrap();
        assert_eq!(back.tag, b.tag);
        let missing = dir.join("missing.mfod");
        assert!(matches!(
            load::<Blob>(&missing),
            Err(PersistError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_savers_to_one_path_never_clobber_each_other() {
        let dir = std::env::temp_dir().join(format!("mfod-persist-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.mfod");
        // each saver writes a distinct payload; with unique temp names no
        // writer can rename another's half-written temp into place, so the
        // final file is always one of the complete payloads
        let payloads: Vec<Vec<u8>> = (0u8..4)
            .map(|i| {
                let mut w = SnapshotWriter::new(Blob::KIND);
                w.section(SECTION_BODY, |enc| {
                    let body: Vec<f64> = (0..512).map(|j| f64::from(i) + j as f64).collect();
                    enc.put_usize(body.len());
                    for v in &body {
                        enc.put_f64(*v);
                    }
                });
                w.finish()
            })
            .collect();
        std::thread::scope(|scope| {
            for p in &payloads {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..8 {
                        save_bytes(path, p).unwrap();
                    }
                });
            }
        });
        let on_disk = std::fs::read(&path).unwrap();
        assert!(
            payloads.contains(&on_disk),
            "final file must be one complete payload, got {} bytes",
            on_disk.len()
        );
        // and the winner still parses as a valid snapshot
        LazySnapshot::open(&on_disk).unwrap();
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(TMP_INFIX))
            .collect();
        assert!(strays.is_empty(), "stray temp files after race: {strays:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
