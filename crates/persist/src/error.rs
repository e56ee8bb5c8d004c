//! Typed failure modes of the snapshot subsystem.
//!
//! Snapshot bytes are untrusted input (a serving box loads whatever lands
//! in its model directory), so every malformed input maps to a variant
//! here — decoding never panics and never allocates unbounded memory on
//! attacker-controlled lengths.

use crate::format::ContentId;
use std::fmt;
use std::path::PathBuf;

/// Errors raised while encoding, decoding or managing model snapshots.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with the `MFOD` snapshot magic.
    BadMagic {
        /// The four bytes actually found.
        got: [u8; 4],
    },
    /// The snapshot was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// Version found in the header.
        got: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// The snapshot holds a different artifact kind than the caller
    /// requested (e.g. a calibrator file fed to the pipeline registry).
    WrongKind {
        /// Kind tag found in the header.
        got: u32,
        /// Kind tag the caller expected.
        expected: u32,
    },
    /// The buffer ended before a read completed — a truncated file or a
    /// length field pointing past the end.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload checksum does not match the stored CRC — bit rot or a
    /// torn write.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// A tagged-union tag has no corresponding variant in this build.
    UnknownTag {
        /// Which union was being decoded.
        what: &'static str,
        /// The unrecognized tag value.
        tag: u32,
    },
    /// A section id required by the decoder is absent from the table.
    MissingSection {
        /// The absent section id.
        id: u32,
    },
    /// Structurally valid bytes that violate a documented invariant
    /// (e.g. a matrix whose data length disagrees with its shape).
    Malformed(String),
    /// The decoded snapshot could not be turned back into a live model
    /// (e.g. an unknown mapping, or parameters failing re-validation).
    Restore(String),
    /// A deployment log holds a record of a retired format: the intent +
    /// commit protocol (tags 1 and 2) or a commit naming its snapshot by
    /// an FNV-1a hash (tag 4). Such a log is refused whole and left as it
    /// is: nothing is truncated, moved or quarantined.
    RetiredLogRecord {
        /// The log file.
        path: PathBuf,
        /// Byte offset of the retired record's frame.
        offset: u64,
        /// The retired tag.
        tag: u8,
    },
    /// A snapshot file claims another identity than the catalog entry
    /// that names it (length, kind or CRC-32 trailer differ): the file is
    /// not the generation the store committed. Found before any decode.
    ContentMismatch {
        /// The snapshot file.
        path: PathBuf,
        /// Length, kind and CRC-32 the catalog records.
        expected: ContentId,
        /// Length, kind and CRC-32 trailer of the bytes on disk.
        actual: ContentId,
    },
    /// Filesystem failure while reading or writing a snapshot.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic { got } => {
                write!(f, "not a snapshot: bad magic {got:02x?}")
            }
            PersistError::UnsupportedVersion { got, supported } => write!(
                f,
                "snapshot format version {got} is newer than the supported {supported}"
            ),
            PersistError::WrongKind { got, expected } => {
                write!(f, "snapshot holds artifact kind {got}, expected {expected}")
            }
            PersistError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated snapshot while reading {context}: needed {needed} bytes, \
                 {available} available"
            ),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag {tag} in snapshot")
            }
            PersistError::MissingSection { id } => {
                write!(f, "snapshot is missing required section {id}")
            }
            PersistError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            PersistError::Restore(msg) => write!(f, "snapshot restore failed: {msg}"),
            PersistError::RetiredLogRecord { path, offset, tag } => write!(
                f,
                "deploy log {} holds a retired record (tag {tag} at offset {offset}) \
                 of an earlier log format; refusing to replay it",
                path.display()
            ),
            PersistError::ContentMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{} is not the committed snapshot: it holds {actual}, catalog says {expected}",
                path.display(),
            ),
            PersistError::Io { path, source } => {
                write!(f, "snapshot io on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<PersistError> = vec![
            PersistError::BadMagic { got: *b"NOPE" },
            PersistError::UnsupportedVersion {
                got: 9,
                supported: 1,
            },
            PersistError::WrongKind {
                got: 2,
                expected: 1,
            },
            PersistError::Truncated {
                context: "f64",
                needed: 8,
                available: 3,
            },
            PersistError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            PersistError::UnknownTag {
                what: "detector",
                tag: 77,
            },
            PersistError::MissingSection { id: 3 },
            PersistError::Malformed("shape".into()),
            PersistError::Restore("mapping".into()),
            PersistError::RetiredLogRecord {
                path: PathBuf::from("/tmp/deploy.log"),
                offset: 0,
                tag: 1,
            },
            PersistError::ContentMismatch {
                path: PathBuf::from("/tmp/gen-000001.mfod"),
                expected: ContentId {
                    len: 10,
                    kind: 1,
                    crc: 1,
                },
                actual: ContentId {
                    len: 10,
                    kind: 1,
                    crc: 2,
                },
            },
            PersistError::Io {
                path: PathBuf::from("/tmp/x"),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
            },
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
        }
        use std::error::Error;
        assert!(cases.last().unwrap().source().is_some());
        assert!(cases[0].source().is_none());
    }
}
