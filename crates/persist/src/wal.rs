//! The append-only **deployment log** (`deploy.log`) behind
//! [`crate::store::ModelStore`]: the only deployment state on disk.
//!
//! Every record is framed `[len: u32][crc32(payload): u32][payload]`,
//! appended with an fsync, so the log on disk is always a valid prefix
//! of what was written plus at most one torn frame at the tail. Replay
//! stops at the first frame that fails its length or CRC gate and
//! reports the torn tail's offset instead of erroring — recovery copies
//! the tail into quarantine and truncates, it never guesses at partial
//! frames.
//!
//! Three records make up the protocol. A [`LogRecord::Commit`] lands
//! once the snapshot file is durable and carries its catalog entry: the
//! generation is committed and active the moment its fsync returns.
//! [`LogRecord::Rollback`] re-points the active generation without
//! touching any snapshot bytes. [`LogRecord::Quarantine`] records that
//! recovery moved a damaged committed snapshot aside, which drops it
//! from the catalog.
//!
//! Retired tags are refused, never reused. Tags 1 and 2 belonged to an
//! earlier two-record protocol (an intent, then a bare commit marker);
//! tag 4 was a commit whose entry named the snapshot by a 64-bit FNV-1a
//! hash of its bytes, where a commit (tag 6) now names it by the
//! container's CRC-32 trailer. A CRC-valid frame with a retired tag makes
//! [`replay`] fail with [`PersistError::RetiredLogRecord`] instead of
//! reading it as a torn tail, so recovery never quarantines such a log
//! together with the snapshots it names.

use crate::error::PersistError;
use crate::format::crc32;
use crate::manifest::ManifestEntry;
use crate::wire::{Decode, Decoder, Encode, Encoder};
use crate::Result;
use std::io::Write as _;
use std::path::Path;

/// Retired tag of the earlier protocol's intent record.
const TAG_RETIRED_INTENT: u8 = 1;
/// Retired tag of the earlier protocol's bare commit marker.
const TAG_RETIRED_COMMIT: u8 = 2;
/// Record tag for [`LogRecord::Rollback`].
const TAG_ROLLBACK: u8 = 3;
/// Retired tag of the commit whose entry carried an FNV-1a content hash.
const TAG_RETIRED_FNV_COMMIT: u8 = 4;
/// Record tag for [`LogRecord::Quarantine`].
const TAG_QUARANTINE: u8 = 5;
/// Record tag for [`LogRecord::Commit`].
const TAG_COMMIT: u8 = 6;

/// One deployment-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// The entry's snapshot file is durable; the generation is now
    /// cataloged, committed and active.
    Commit(ManifestEntry),
    /// The active generation was re-pointed at a prior committed one.
    Rollback {
        /// Generation that was active before the rollback.
        from: u64,
        /// Committed generation now active.
        to: u64,
    },
    /// Recovery moved a committed generation's damaged snapshot into
    /// quarantine; the generation leaves the catalog, and if it was
    /// active the newest remaining generation takes over.
    Quarantine {
        /// The generation dropped from the catalog.
        generation: u64,
    },
}

impl Encode for LogRecord {
    fn encode(&self, w: &mut Encoder) {
        match self {
            LogRecord::Commit(entry) => {
                w.put_u8(TAG_COMMIT);
                entry.encode(w);
            }
            LogRecord::Rollback { from, to } => {
                w.put_u8(TAG_ROLLBACK);
                w.put_u64(*from);
                w.put_u64(*to);
            }
            LogRecord::Quarantine { generation } => {
                w.put_u8(TAG_QUARANTINE);
                w.put_u64(*generation);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        match r.take_u8()? {
            TAG_COMMIT => Ok(LogRecord::Commit(ManifestEntry::decode(r)?)),
            TAG_ROLLBACK => Ok(LogRecord::Rollback {
                from: r.take_u64()?,
                to: r.take_u64()?,
            }),
            TAG_QUARANTINE => Ok(LogRecord::Quarantine {
                generation: r.take_u64()?,
            }),
            tag => Err(PersistError::UnknownTag {
                what: "deploy log record",
                tag: u32::from(tag),
            }),
        }
    }
}

/// A torn or corrupt tail found during [`replay`]: everything from
/// `offset` on is untrusted and should be quarantined, then truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the last fully valid record ends.
    pub offset: u64,
    /// Number of untrusted bytes from `offset` to end of file.
    pub len: u64,
    /// What failed: a short frame header, a frame length past EOF, a
    /// CRC mismatch, or a CRC-valid payload that would not decode.
    pub reason: String,
}

/// Outcome of replaying a deployment log.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every fully valid record, in append order.
    pub records: Vec<LogRecord>,
    /// The torn tail, if the file does not end on a frame boundary.
    pub torn: Option<TornTail>,
    /// Length of the valid prefix: where the next record belongs.
    pub valid_len: u64,
}

/// Frames one record payload for the log: length, CRC, payload.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Appends one record to the log at `path` (created if missing) and
/// fsyncs it, so a returned `Ok` means the record is durable. Returns
/// the number of bytes appended.
///
/// Crash point [`mfod_faultline::points::MANIFEST_APPEND_TORN`] writes
/// only a durable *prefix* of the frame before failing — the exact state
/// a power cut mid-append leaves behind — which [`replay`] must detect
/// as a torn tail.
pub fn append_record(path: &Path, record: &LogRecord) -> Result<u64> {
    let io = |source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut enc = Encoder::new();
    record.encode(&mut enc);
    let bytes = frame(&enc.into_bytes());
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    if mfod_faultline::should_fire(mfod_faultline::points::MANIFEST_APPEND_TORN) {
        // Injected torn append: a durable partial frame lands at the
        // tail, exactly as if the writer died mid-write. Persist it
        // *before* parking so a SIGKILL freezes the authentic state.
        let keep = (bytes.len() * 2 / 3).max(1);
        let _ = file.write_all(&bytes[..keep]);
        let _ = file.sync_all();
        mfod_faultline::park_if_requested(mfod_faultline::points::MANIFEST_APPEND_TORN);
        return Err(io(std::io::Error::other(
            "injected fault: manifest.append.torn",
        )));
    }
    file.write_all(&bytes).map_err(io)?;
    file.sync_all().map_err(io)?;
    Ok(bytes.len() as u64)
}

/// Replays the log at `path`, returning every valid record plus the
/// torn tail, if any. A missing file is an empty log, not an error.
/// Read-only: it fails only on a read error or a record of the retired
/// format ([`PersistError::RetiredLogRecord`]).
pub fn replay(path: &Path) -> Result<Replay> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(source) => {
            return Err(PersistError::Io {
                path: path.to_path_buf(),
                source,
            })
        }
    };
    let mut replay = Replay::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let torn = |reason: String| TornTail {
            offset: offset as u64,
            len: (bytes.len() - offset) as u64,
            reason,
        };
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            replay.torn = Some(torn(format!("short frame header: {} bytes", rest.len())));
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let Some(payload) = rest.get(8..8 + len) else {
            replay.torn = Some(torn(format!(
                "frame length {len} past end of file ({} bytes left)",
                rest.len() - 8
            )));
            break;
        };
        let computed = crc32(payload);
        if computed != stored_crc {
            replay.torn = Some(torn(format!(
                "frame CRC mismatch: stored {stored_crc:#010X}, computed {computed:#010X}"
            )));
            break;
        }
        if let Some(&tag @ (TAG_RETIRED_INTENT | TAG_RETIRED_COMMIT | TAG_RETIRED_FNV_COMMIT)) =
            payload.first()
        {
            return Err(PersistError::RetiredLogRecord {
                path: path.to_path_buf(),
                offset: offset as u64,
                tag,
            });
        }
        let mut dec = Decoder::new(payload);
        let record = match LogRecord::decode(&mut dec).and_then(|r| dec.finish().map(|()| r)) {
            Ok(r) => r,
            Err(e) => {
                replay.torn = Some(torn(format!("undecodable record: {e}")));
                break;
            }
        };
        replay.records.push(record);
        offset += 8 + len;
    }
    replay.valid_len = offset as u64;
    Ok(replay)
}

/// A commit frame payload of the retired FNV-1a format: tag 4, then the
/// entry with a 64-bit content hash where the CRC-32 now sits.
#[cfg(test)]
pub(crate) fn retired_fnv_commit(entry: &ManifestEntry, fnv: u64) -> Vec<u8> {
    let mut w = Encoder::new();
    w.put_u8(TAG_RETIRED_FNV_COMMIT);
    w.put_u64(entry.generation);
    w.put_str(&entry.file);
    w.put_u32(entry.kind);
    w.put_u64(fnv);
    w.put_u64(entry.len);
    w.put_u64(entry.config_fingerprint);
    entry.parent.encode(&mut w);
    w.put_str(&entry.tag);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(generation: u64) -> ManifestEntry {
        ManifestEntry {
            generation,
            file: format!("gen-{generation:06}.mfod"),
            kind: 1,
            content_hash: generation as u32 * 7,
            len: 100,
            config_fingerprint: 5,
            parent: generation.checked_sub(1).filter(|&p| p > 0),
            tag: "t".into(),
        }
    }

    fn tmplog(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mfod-wal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("deploy.log")
    }

    #[test]
    fn append_then_replay_roundtrips_in_order() {
        let path = tmplog("roundtrip");
        let records = vec![
            LogRecord::Commit(entry(1)),
            LogRecord::Commit(entry(2)),
            LogRecord::Rollback { from: 2, to: 1 },
            LogRecord::Quarantine { generation: 2 },
        ];
        for r in &records {
            append_record(&path, r).unwrap();
        }
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records, records);
        assert!(replay.torn.is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_log_is_empty_not_an_error() {
        let replay = replay(Path::new("/nonexistent/deploy.log")).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.torn.is_none());
    }

    #[test]
    fn every_truncation_of_the_tail_frame_is_a_torn_tail() {
        let path = tmplog("trunc");
        append_record(&path, &LogRecord::Commit(entry(1))).unwrap();
        append_record(&path, &LogRecord::Commit(entry(2))).unwrap();
        let full = std::fs::read(&path).unwrap();
        let first_len = 8 + u32::from_le_bytes(full[..4].try_into().unwrap()) as usize;
        // cut anywhere strictly inside the second frame: first record
        // must survive, the rest must be reported torn, never panic
        for cut in first_len + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = replay(&path).unwrap();
            assert_eq!(replay.records, vec![LogRecord::Commit(entry(1))]);
            let torn = replay.torn.expect("torn tail");
            assert_eq!(torn.offset, first_len as u64);
            assert_eq!(torn.len, (cut - first_len) as u64);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn every_byte_flip_in_a_frame_is_caught() {
        let path = tmplog("flip");
        for record in [
            LogRecord::Commit(entry(3)),
            LogRecord::Rollback { from: 3, to: 2 },
            LogRecord::Quarantine { generation: 3 },
        ] {
            std::fs::write(&path, b"").unwrap();
            append_record(&path, &record).unwrap();
            let full = std::fs::read(&path).unwrap();
            for i in 0..full.len() {
                let mut bad = full.clone();
                bad[i] ^= 0x01;
                std::fs::write(&path, &bad).unwrap();
                let replay = replay(&path).unwrap();
                // a flipped byte may enlarge the len field (frame past
                // EOF), break the CRC, or corrupt the payload — all are
                // torn, and the record never silently decodes to
                // something else
                assert!(
                    replay.records.is_empty(),
                    "{record:?}: flip at {i} silently accepted: {:?}",
                    replay.records
                );
                assert!(
                    replay.torn.is_some(),
                    "{record:?}: flip at {i} not reported"
                );
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn retired_records_are_a_typed_error_not_a_torn_tail() {
        let path = tmplog("retired");
        append_record(&path, &LogRecord::Commit(entry(1))).unwrap();
        let offset = std::fs::metadata(&path).unwrap().len();
        let mut intent = vec![TAG_RETIRED_INTENT];
        let mut enc = Encoder::new();
        entry(2).encode(&mut enc);
        intent.extend(enc.into_bytes());
        let mut marker = vec![TAG_RETIRED_COMMIT];
        marker.extend(2u64.to_le_bytes());
        for (payload, tag) in [
            (intent, TAG_RETIRED_INTENT),
            (marker, TAG_RETIRED_COMMIT),
            (retired_fnv_commit(&entry(2), 14), TAG_RETIRED_FNV_COMMIT),
        ] {
            let mut log = std::fs::read(&path).unwrap()[..offset as usize].to_vec();
            log.extend(frame(&payload));
            std::fs::write(&path, &log).unwrap();
            match replay(&path) {
                Err(PersistError::RetiredLogRecord {
                    offset: at,
                    tag: got,
                    ..
                }) => assert_eq!((at, got), (offset, tag)),
                other => panic!("tag {tag}: expected RetiredLogRecord, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn injected_torn_append_is_durable_and_detected() {
        let path = tmplog("inject");
        let first = append_record(&path, &LogRecord::Commit(entry(1))).unwrap();
        mfod_faultline::install(mfod_faultline::FaultPlan::new(7).rule(
            mfod_faultline::points::MANIFEST_APPEND_TORN,
            mfod_faultline::FaultRule::once(),
        ));
        let err = append_record(&path, &LogRecord::Commit(entry(2))).unwrap_err();
        mfod_faultline::disarm();
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records, vec![LogRecord::Commit(entry(1))]);
        assert!(replay.torn.is_some(), "partial frame must read as torn");
        assert_eq!(
            replay.valid_len, first,
            "the valid prefix is the acknowledged append"
        );
        // the log is append-only: a later healthy append lands after the
        // torn bytes, so recovery must truncate the tail first. mimic it.
        let torn = replay.torn.unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..torn.offset as usize]).unwrap();
        append_record(&path, &LogRecord::Commit(entry(2))).unwrap();
        let healed = super::replay(&path).unwrap();
        assert_eq!(healed.records.len(), 2);
        assert!(healed.torn.is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
