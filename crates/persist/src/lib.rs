//! # mfod-persist
//!
//! Versioned, checksummed, deterministic **binary model snapshots** and
//! the hot-swap serving registry — the fit-once / serve-many layer of the
//! workspace. No registry crate (serde, bincode) is reachable in this
//! environment, so the format is hand-rolled and owned end to end.
//!
//! * [`wire`] — little-endian primitives and the [`Encode`]/[`Decode`]
//!   trait pair. `f64`s travel as raw IEEE-754 bit patterns, so
//!   round-trips are **bit-exact** (including `-0.0` and NaN payloads);
//!   every read is bounds-checked and length fields are validated before
//!   allocation, so untrusted bytes produce typed errors, never panics.
//! * [`mod@format`] — the container: `MFOD` magic, format version, artifact
//!   kind, section table, CRC-32 trailer ([`Snapshot`],
//!   [`to_bytes`]/[`from_bytes`], atomic [`save`]/[`load`]). One reader,
//!   [`LazySnapshot`], opens every container over a byte slice.
//! * [`registry`] — [`ModelRegistry`]: atomic hot-swap of the active
//!   `Arc<T>` under live traffic, and a watcher thread that serves what a
//!   model store's deployment log commits ([`Restorable`] bridges decoded
//!   snapshots back to live artifacts). Every install reads its file
//!   into memory and decodes it with [`from_bytes`].
//! * [`store`] — [`ModelStore`]: crash-consistent promotion, recovery,
//!   rollback and `fsck` over one directory. Its append-only deployment
//!   log ([`wal`]) is the only deployment state on disk; the catalog
//!   ([`Manifest`]) is what a replay of it yields, and it names each
//!   generation by its container's length, kind and CRC-32 trailer
//!   ([`ContentId`]).
//! * [`hash`] — stable FNV-1a hashing of byte and `f64`-bit content for
//!   `mfod-fda`'s grid-keyed selection-plan cache.
//!
//! Downstream crates implement [`Encode`]/[`Decode`] for their own types
//! (`Matrix` is covered here since `mfod-linalg` sits below this crate)
//! and declare top-level artifacts via [`Snapshot`] + [`Restorable`]:
//! `FittedPipeline`, `FittedMappingEnsemble` and `FittedDepthBaseline`
//! in `mfod`, `ThresholdCalibrator` in `mfod-stream`.
//!
//! ```
//! use mfod_persist::prelude::*;
//!
//! #[derive(PartialEq, Debug)]
//! struct Mean(f64);
//!
//! impl Encode for Mean {
//!     fn encode(&self, w: &mut Encoder) { w.put_f64(self.0) }
//! }
//! impl Decode for Mean {
//!     fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
//!         Ok(Mean(r.take_f64()?))
//!     }
//! }
//! impl Snapshot for Mean {
//!     const KIND: u32 = 42;
//!     const NAME: &'static str = "mean";
//! }
//!
//! let bytes = to_bytes(&Mean(1.25));
//! assert_eq!(from_bytes::<Mean>(&bytes).unwrap(), Mean(1.25));
//! assert!(from_bytes::<Mean>(&bytes[..bytes.len() - 1]).is_err());
//! ```

pub mod error;
pub mod format;
pub mod hash;
pub mod manifest;
pub mod registry;
pub mod store;
pub mod wal;
pub mod wire;

pub use error::PersistError;
pub use format::{
    crc32, from_bytes, load, save, save_bytes, to_bytes, ContentId, LazySnapshot, Snapshot,
    SnapshotWriter, FORMAT_VERSION, MAGIC, SECTION_BODY, SNAPSHOT_EXT,
};
pub use hash::{hash_f64s, Fnv1a};
pub use manifest::{Manifest, ManifestEntry};
pub use registry::{ModelRegistry, RegistryHealth, Restorable, WatchConfig, WatchHandle};
pub use store::{
    fsck_dir, generation_file, FsckIssue, FsckReport, ModelStore, QuarantineReason, RecoveryReport,
    DEPLOY_LOG_FILE, QUARANTINE_DIR,
};
pub use wal::{append_record, replay, LogRecord, Replay, TornTail};
pub use wire::{Decode, Decoder, Encode, Encoder};

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::error::PersistError;
    pub use crate::format::{from_bytes, load, save, to_bytes, LazySnapshot, Snapshot};
    pub use crate::hash::{hash_f64s, Fnv1a};
    pub use crate::manifest::{Manifest, ManifestEntry};
    pub use crate::registry::{
        ModelRegistry, RegistryHealth, Restorable, WatchConfig, WatchHandle,
    };
    pub use crate::store::{FsckIssue, FsckReport, ModelStore, QuarantineReason, RecoveryReport};
    pub use crate::wire::{Decode, Decoder, Encode, Encoder};
}
