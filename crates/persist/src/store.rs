//! Crash-consistent **model store**: transactional promotion, startup
//! recovery, one-call rollback, and an `fsck`-style verifier over one
//! directory.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   gen-000001.mfod     snapshot files, one per promoted generation
//!   gen-000002.mfod     (zero-padded so lexicographic == numeric order)
//!   ...
//!   deploy.log          append-only deployment log: the only deployment state
//!   quarantine/         torn/uncommitted artifacts, moved, never deleted
//! ```
//!
//! The store serves what a replay of `deploy.log` says: folding its
//! records yields the catalog, the active generation and the highest
//! generation ever committed. [`ModelStore::open`], [`fsck_dir`],
//! [`ModelStore::install_active`] and the registry's log watcher
//! ([`ModelRegistry::watch_store`]) all derive that state the same way,
//! so none of them can disagree about what is committed.
//!
//! ## Durability contract
//!
//! [`ModelStore::promote_bytes`] runs three steps, one fsync each:
//!
//! 1. **snapshot durable** — the bytes go to a writer-unique temp file,
//!    then fsync(file). A kill here leaves at worst a stray temp,
//!    quarantined on recovery.
//! 2. **snapshot visible** — rename to `gen-NNNNNN.mfod`, fsync(dir). A
//!    kill after this leaves a snapshot no commit names: an orphan,
//!    quarantined on recovery. The log is opened (on the first promotion:
//!    created) before step 1, so this directory fsync covers its name too.
//! 3. **commit** — append one [`LogRecord::Commit`] carrying the catalog
//!    entry, fsync(log). The generation is committed and active the
//!    moment this returns; a torn append is a torn log tail.
//!
//! A store handle remembers how long the log's valid prefix is. After
//! one of its appends fails, its next append first cuts whatever the
//! failed one left past that length (the torn-tail step of
//! [`ModelStore::open`]), so an acknowledged record never lands behind
//! torn bytes that replay would stop at.
//!
//! [`ModelStore::rollback`] is one [`LogRecord::Rollback`] append: one
//! fsync, no snapshot bytes touched.
//!
//! [`ModelStore::open`] replays the log, quarantines every torn log
//! tail, stray temp and snapshot the catalog does not name (moved into
//! `quarantine/`, never deleted), and validates every cataloged
//! generation's bytes identity-first: the length and CRC-32 trailer its
//! catalog entry records (an O(1) compare), then one open, whose CRC
//! pass proves the trailer. A damaged generation's snapshot is
//! quarantined and a [`LogRecord::Quarantine`] record drops it from the
//! catalog; if it was active, the newest remaining generation takes
//! over. Recovery is idempotent: a second open finds nothing to move and
//! appends nothing.
//!
//! [`ModelRegistry::watch_store`]: crate::registry::ModelRegistry::watch_store

use crate::error::PersistError;
use crate::format::{crc32, to_bytes, ContentId, LazySnapshot, Snapshot, SNAPSHOT_EXT, TMP_INFIX};
use crate::manifest::{Manifest, ManifestEntry};
use crate::registry::{ModelRegistry, Restorable};
use crate::wal::{append_record, replay, LogRecord, TornTail};
use crate::Result;
use std::path::{Path, PathBuf};

/// File name of the append-only deployment log.
pub const DEPLOY_LOG_FILE: &str = "deploy.log";
/// Subdirectory quarantined artifacts are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Snapshot file name for a generation, zero-padded so lexicographic
/// order is numeric order.
pub fn generation_file(generation: u64) -> String {
    format!("gen-{generation:06}.{SNAPSHOT_EXT}")
}

/// Why an artifact was moved to `quarantine/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Snapshot file no committed catalog entry names (a promotion that
    /// died before its commit, or a file nobody promoted).
    Orphan,
    /// A crashed writer's temp file.
    StrayTemp,
    /// Committed snapshot whose bytes no longer match its catalog entry
    /// (length/CRC-32 mismatch or unreadable container).
    Damaged(String),
    /// Bytes past the last valid deployment-log record.
    TornLogTail(String),
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Orphan => write!(f, "orphan snapshot (not committed)"),
            QuarantineReason::StrayTemp => write!(f, "stray writer temp"),
            QuarantineReason::Damaged(why) => write!(f, "damaged committed snapshot: {why}"),
            QuarantineReason::TornLogTail(why) => write!(f, "torn deploy-log tail: {why}"),
        }
    }
}

/// What [`ModelStore::open`] found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Valid deployment-log records replayed.
    pub replayed_records: usize,
    /// Committed generations whose snapshot survived validation.
    pub committed: Vec<u64>,
    /// The generation now active, if any survived.
    pub active: Option<u64>,
    /// Artifacts moved into `quarantine/`, with why.
    pub quarantined: Vec<(PathBuf, QuarantineReason)>,
    /// Whether a torn log tail was copied aside and truncated.
    pub torn_log_tail: bool,
    /// Whether the active generation had to fall back past a damaged
    /// snapshot to an older committed one.
    pub fell_back: bool,
}

/// One problem found by [`ModelStore::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckIssue {
    /// A catalog entry's file is missing from the directory.
    MissingFile {
        /// The committed generation affected.
        generation: u64,
        /// The file the catalog expected.
        file: String,
    },
    /// A file's bytes carry another CRC-32 than the catalog records.
    HashMismatch {
        /// The generation affected.
        generation: u64,
        /// The file checked.
        file: String,
        /// CRC-32 recorded at promotion.
        expected: u32,
        /// The CRC-32 trailer of the file on disk or, where the trailer
        /// matches, the CRC-32 computed over the bytes before it.
        actual: u32,
    },
    /// A file's length differs from the catalog record.
    LengthMismatch {
        /// The generation affected.
        generation: u64,
        /// The file checked.
        file: String,
        /// Length recorded at promotion.
        expected: u64,
        /// Length on disk now.
        actual: u64,
    },
    /// A file no longer parses as an MFOD container of the cataloged
    /// artifact kind.
    BadContainer {
        /// The file checked.
        file: String,
        /// The typed parse error (or kind mismatch), stringified.
        error: String,
    },
    /// A `.mfod` file in the directory that no catalog entry names.
    Orphan {
        /// The unexpected file.
        file: String,
    },
    /// A crashed writer's temp file.
    StrayTemp {
        /// The temp file found.
        file: String,
    },
    /// Bytes past the last valid deployment-log record.
    TornLogTail {
        /// Offset where the valid prefix ends.
        offset: u64,
        /// What failed to parse.
        reason: String,
    },
    /// The active generation has no usable snapshot.
    ActiveMissing {
        /// The active generation with no valid bytes behind it.
        generation: u64,
    },
}

impl std::fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckIssue::MissingFile { generation, file } => {
                write!(f, "generation {generation}: file {file} missing")
            }
            FsckIssue::HashMismatch {
                generation,
                file,
                expected,
                actual,
            } => write!(
                f,
                "generation {generation}: {file} CRC-32 {actual:#010X}, catalog says {expected:#010X}"
            ),
            FsckIssue::LengthMismatch {
                generation,
                file,
                expected,
                actual,
            } => write!(
                f,
                "generation {generation}: {file} is {actual} bytes, catalog says {expected}"
            ),
            FsckIssue::BadContainer { file, error } => {
                write!(f, "{file}: container invalid: {error}")
            }
            FsckIssue::Orphan { file } => write!(f, "{file}: no catalog entry"),
            FsckIssue::StrayTemp { file } => write!(f, "{file}: stray writer temp"),
            FsckIssue::TornLogTail { offset, reason } => {
                write!(f, "deploy log torn at offset {offset}: {reason}")
            }
            FsckIssue::ActiveMissing { generation } => {
                write!(f, "active generation {generation} has no valid snapshot")
            }
        }
    }
}

/// Outcome of an [`ModelStore::fsck`] walk.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Generations whose file, length, CRC-32 and container all check out.
    pub clean: Vec<u64>,
    /// Every problem found, in walk order.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// No issues at all?
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// The committed deployment state: what a replay of `deploy.log` yields.
#[derive(Debug)]
pub(crate) struct LogState {
    /// Catalog, active generation and highest generation ever committed.
    pub(crate) manifest: Manifest,
    /// Valid records replayed.
    records: usize,
    /// Bytes past the last valid record, if any.
    torn: Option<TornTail>,
    /// Length of the valid prefix.
    log_len: u64,
}

/// Derives the committed state of the store at `dir` from a replay of
/// its log. Read-only; a log of a retired format is a typed error.
pub(crate) fn read_log(dir: &Path) -> Result<LogState> {
    let replay = replay(&dir.join(DEPLOY_LOG_FILE))?;
    let mut manifest = Manifest::new();
    for record in &replay.records {
        apply(&mut manifest, record);
    }
    Ok(LogState {
        manifest,
        records: replay.records.len(),
        torn: replay.torn,
        log_len: replay.valid_len,
    })
}

/// Applies one log record to the catalog: the one rule for what the
/// store serves. A commit catalogs its entry and makes it active, a
/// rollback re-points the active generation, and a quarantine drops a
/// generation, handing an active one's place to the newest remaining.
fn apply(manifest: &mut Manifest, record: &LogRecord) {
    match record {
        LogRecord::Commit(entry) => {
            manifest.upsert(entry.clone());
            manifest.active = Some(entry.generation);
        }
        LogRecord::Rollback { to, .. } => manifest.active = Some(*to),
        LogRecord::Quarantine { generation } => {
            manifest.entries.retain(|e| e.generation != *generation);
            if manifest.active == Some(*generation) {
                manifest.active = manifest.entries.last().map(|e| e.generation);
            }
        }
    }
}

/// Maps an I/O error on `path` into [`PersistError::Io`].
fn io(path: &Path) -> impl FnOnce(std::io::Error) -> PersistError + '_ {
    move |source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// A path in `dir/quarantine/` for `name` that no earlier evidence
/// holds: quarantine never overwrites.
fn quarantine_path(dir: &Path, name: &str) -> Result<PathBuf> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir).map_err(io(&qdir))?;
    let mut dest = qdir.join(name);
    let mut bump = 0u32;
    while dest.exists() {
        bump += 1;
        dest = qdir.join(format!("{name}.{bump}"));
    }
    Ok(dest)
}

/// The torn-tail step of [`ModelStore::open`], shared with the first
/// append after a failed one: copies the log bytes past `valid_len` into
/// `quarantine/`, truncates the log back to `valid_len` and fsyncs it.
/// Returns where the tail went, or `None` if the log had nothing past
/// `valid_len`.
fn cut_log_tail(dir: &Path, valid_len: u64) -> Result<Option<PathBuf>> {
    use std::io::{Read as _, Seek as _};
    let log_path = dir.join(DEPLOY_LOG_FILE);
    let mut log = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&log_path)
        .map_err(io(&log_path))?;
    let mut tail = Vec::new();
    log.seek(std::io::SeekFrom::Start(valid_len))
        .and_then(|_| log.read_to_end(&mut tail))
        .map_err(io(&log_path))?;
    if tail.is_empty() {
        return Ok(None);
    }
    let tail_path = quarantine_path(dir, &format!("{DEPLOY_LOG_FILE}.tail-{valid_len}"))?;
    std::fs::write(&tail_path, &tail).map_err(io(&tail_path))?;
    log.set_len(valid_len)
        .and_then(|()| log.sync_all())
        .map_err(io(&log_path))?;
    Ok(Some(tail_path))
}

/// Moves `path` into `dir/quarantine/` under a name no earlier evidence
/// holds, and records why in `report`.
fn quarantine(
    dir: &Path,
    path: &Path,
    reason: QuarantineReason,
    report: &mut RecoveryReport,
) -> Result<()> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let dest = quarantine_path(dir, &name)?;
    std::fs::rename(path, &dest).map_err(io(path))?;
    if let Some(m) = mfod_obs::active() {
        m.store_quarantined.add(1);
        mfod_obs::journal::instant("store.quarantine");
    }
    report.quarantined.push((dest, reason));
    Ok(())
}

/// A crash-consistent model store over one directory.
///
/// All mutation goes through the deployment log first, so any SIGKILL
/// leaves a state [`ModelStore::open`] recovers from; see the module
/// docs for the step-by-step contract.
#[derive(Debug)]
pub struct ModelStore {
    dir: PathBuf,
    manifest: Manifest,
    /// Length of the log's valid prefix as of `open` and this handle's
    /// acknowledged appends.
    log_len: u64,
    /// Whether an append failed since, possibly leaving torn bytes past
    /// `log_len`.
    append_failed: bool,
}

impl ModelStore {
    /// Opens (and if necessary recovers) the store at `dir`, creating
    /// the directory if missing. Never deletes data: suspect artifacts
    /// move to `quarantine/`, torn log tails are copied there before
    /// the log is truncated. A log of a retired format fails with
    /// [`PersistError::RetiredLogRecord`] before anything is touched.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(ModelStore, RecoveryReport)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io(&dir))?;
        let log_path = dir.join(DEPLOY_LOG_FILE);
        let LogState {
            mut manifest,
            records,
            torn,
            mut log_len,
        } = read_log(&dir)?;
        let mut report = RecoveryReport {
            replayed_records: records,
            ..RecoveryReport::default()
        };

        // 1. Copy a torn log tail into quarantine, then truncate it.
        if let Some(torn) = torn {
            if let Some(tail_path) = cut_log_tail(&dir, log_len)? {
                report.torn_log_tail = true;
                report
                    .quarantined
                    .push((tail_path, QuarantineReason::TornLogTail(torn.reason)));
            }
        }

        // 2. Sweep the directory: quarantine stray temps and every
        //    snapshot the catalog does not name.
        for entry in std::fs::read_dir(&dir).map_err(io(&dir))? {
            let entry = entry.map_err(io(&dir))?;
            if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                continue;
            }
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.contains(TMP_INFIX) {
                quarantine(&dir, &path, QuarantineReason::StrayTemp, &mut report)?;
            } else if path.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT)
                && !manifest.entries.iter().any(|e| e.file == name)
            {
                quarantine(&dir, &path, QuarantineReason::Orphan, &mut report)?;
            }
        }

        // 3. Validate cataloged snapshots identity-first. A damaged one is
        //    quarantined and logged out of the catalog, which walks the
        //    active generation back to the newest remaining one.
        let before = manifest.active;
        let damaged: Vec<(ManifestEntry, FsckIssue)> = manifest
            .entries
            .iter()
            .filter_map(|e| {
                check_entry(&dir, e)
                    .into_iter()
                    .next()
                    .map(|i| (e.clone(), i))
            })
            .collect();
        for (entry, issue) in damaged {
            let path = dir.join(&entry.file);
            if path.exists() {
                let reason = QuarantineReason::Damaged(issue.to_string());
                quarantine(&dir, &path, reason, &mut report)?;
            }
            let record = LogRecord::Quarantine {
                generation: entry.generation,
            };
            log_len += append_record(&log_path, &record)?;
            apply(&mut manifest, &record);
        }
        report.fell_back = manifest.active != before;
        report.committed = manifest.entries.iter().map(|e| e.generation).collect();
        report.active = manifest.active;
        if let Some(m) = mfod_obs::active() {
            m.store_recoveries.add(1);
            mfod_obs::journal::instant("store.recover");
        }
        let store = ModelStore {
            dir,
            manifest,
            log_len,
            append_failed: false,
        };
        Ok((store, report))
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The catalog as of the last replay plus this handle's own appends.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The active committed generation, if any.
    pub fn active_generation(&self) -> Option<u64> {
        self.manifest.active
    }

    /// Absolute path of a generation's snapshot file, if cataloged.
    pub fn generation_path(&self, generation: u64) -> Option<PathBuf> {
        self.manifest
            .entry(generation)
            .map(|e| self.dir.join(&e.file))
    }

    /// Promotes already-encoded snapshot bytes as the next generation:
    /// write the snapshot (fsync file, rename, fsync dir), then append
    /// one commit record carrying its catalog entry (fsync log). Returns
    /// the catalog entry on success. On any error the store's committed
    /// truth is unchanged — a later [`ModelStore::open`] quarantines
    /// whatever half-promotion is on disk. Crash point
    /// [`mfod_faultline::points::STORE_COMMIT`] sits between the durable
    /// snapshot and the commit append.
    ///
    /// The bytes are validated *before* anything touches disk: committed
    /// means servable, so a non-MFOD blob or a container of the wrong
    /// kind is rejected with a typed error and zero side effects. The
    /// catalog names the generation by the identity that validation just
    /// proved: length, kind and CRC-32 trailer.
    pub fn promote_bytes(
        &mut self,
        bytes: &[u8],
        kind: u32,
        config_fingerprint: u64,
        tag: &str,
    ) -> Result<ManifestEntry> {
        let snap = LazySnapshot::open(bytes)?;
        if snap.kind() != kind {
            return Err(PersistError::WrongKind {
                got: snap.kind(),
                expected: kind,
            });
        }
        let id = ContentId::claimed(bytes);
        let generation = self.manifest.next_generation();
        let entry = ManifestEntry {
            generation,
            file: generation_file(generation),
            kind,
            content_hash: id.crc,
            len: id.len,
            config_fingerprint,
            parent: self.manifest.active,
            tag: tag.to_string(),
        };
        let log_path = self.dir.join(DEPLOY_LOG_FILE);
        // Open the log (the first promotion creates it) before the
        // snapshot write, whose directory fsync then covers its name too.
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(io(&log_path))?;
        // 1–2. snapshot durable and visible (fsync file, rename, fsync dir)
        crate::format::save_bytes(&self.dir.join(&entry.file), bytes)?;
        if mfod_faultline::should_fire(mfod_faultline::points::STORE_COMMIT) {
            mfod_faultline::park_if_requested(mfod_faultline::points::STORE_COMMIT);
            return Err(PersistError::Io {
                path: log_path,
                source: std::io::Error::other("injected fault: store.commit"),
            });
        }
        // 3. commit — the generation exists the moment this lands
        self.append(LogRecord::Commit(entry.clone()))?;
        if let Some(m) = mfod_obs::active() {
            m.store_promotions.add(1);
            mfod_obs::journal::instant("store.promote");
        }
        Ok(entry)
    }

    /// Promotes a typed artifact ([`crate::format::to_bytes`] +
    /// [`ModelStore::promote_bytes`]).
    pub fn promote<T: Snapshot>(
        &mut self,
        value: &T,
        config_fingerprint: u64,
        tag: &str,
    ) -> Result<ManifestEntry> {
        self.promote_bytes(&to_bytes(value), T::KIND, config_fingerprint, tag)
    }

    /// Re-points the active generation at a prior committed one: one
    /// log append, no snapshot bytes touched. The target must be
    /// cataloged, and its file must still claim the identity its catalog
    /// entry records (else [`PersistError::ContentMismatch`]) and pass
    /// the open's CRC pass (else its typed container error).
    pub fn rollback(&mut self, generation: u64) -> Result<ManifestEntry> {
        let entry = self.manifest.entry(generation).cloned().ok_or_else(|| {
            PersistError::Malformed(format!(
                "rollback target generation {generation} is not in the catalog"
            ))
        })?;
        let path = self.dir.join(&entry.file);
        let bytes = std::fs::read(&path).map_err(io(&path))?;
        entry.check_claimed(&path, &bytes)?;
        LazySnapshot::open(&bytes)?;
        self.append(LogRecord::Rollback {
            from: self.manifest.active.unwrap_or(0),
            to: generation,
        })?;
        if let Some(m) = mfod_obs::active() {
            m.store_rollbacks.add(1);
            mfod_obs::journal::instant("store.rollback");
        }
        Ok(entry)
    }

    /// Appends `record` to the log and applies it to the catalog. The
    /// first append after a failed one first cuts the bytes the failed
    /// one left past the valid prefix, so the record lands right after
    /// the last acknowledged one.
    fn append(&mut self, record: LogRecord) -> Result<()> {
        if self.append_failed {
            cut_log_tail(&self.dir, self.log_len)?;
            self.append_failed = false;
        }
        match append_record(&self.dir.join(DEPLOY_LOG_FILE), &record) {
            Ok(len) => {
                self.log_len += len;
                apply(&mut self.manifest, &record);
                Ok(())
            }
            Err(e) => {
                self.append_failed = true;
                Err(e)
            }
        }
    }

    /// Installs the generation the log commits as active into `registry`:
    /// reads its file, which must still claim the length, kind and CRC-32
    /// trailer of its catalog entry (else
    /// [`PersistError::ContentMismatch`] before any decode, and the
    /// registry keeps what it serves) and the open's CRC pass agrees.
    /// Returns the installed **store** generation, or `None` when the
    /// store has nothing committed.
    pub fn install_active<T: Restorable>(
        &self,
        registry: &ModelRegistry<T>,
    ) -> Result<Option<u64>> {
        let state = read_log(&self.dir)?;
        let Some(entry) = state.manifest.active_entry() else {
            return Ok(None);
        };
        registry.install_committed(&self.dir, entry)?;
        Ok(Some(entry.generation))
    }

    /// Verifies the whole directory against the log-derived catalog
    /// without mutating anything: checks every cataloged artifact's
    /// length and CRC-32, re-parses containers, and reports orphans,
    /// stray temps and torn log tails — every problem typed, never a
    /// panic.
    pub fn fsck(&self) -> Result<FsckReport> {
        fsck_dir(&self.dir)
    }
}

/// Checks one cataloged snapshot identity-first: present, the cataloged
/// length and CRC-32 trailer, then one open — the CRC pass that proves
/// the trailer — of a valid container of the cataloged kind. Returns
/// every problem found; empty means clean.
fn check_entry(dir: &Path, entry: &ManifestEntry) -> Vec<FsckIssue> {
    let (generation, file) = (entry.generation, entry.file.clone());
    let Ok(bytes) = std::fs::read(dir.join(&entry.file)) else {
        return vec![FsckIssue::MissingFile { generation, file }];
    };
    let mut issues = Vec::new();
    let claimed = ContentId::claimed(&bytes);
    if claimed.len != entry.len {
        issues.push(FsckIssue::LengthMismatch {
            generation,
            file: file.clone(),
            expected: entry.len,
            actual: claimed.len,
        });
    }
    let opened = LazySnapshot::open(&bytes);
    // The bytes are the committed ones only if they claim the cataloged
    // CRC-32 and the CRC pass over them agrees.
    let actual = match &opened {
        _ if claimed.crc != entry.content_hash => claimed.crc,
        Err(PersistError::ChecksumMismatch { computed, .. }) => *computed,
        // refused before its CRC pass (a damaged magic): make that pass here
        Err(_) => crc32(&bytes[..bytes.len().saturating_sub(4)]),
        Ok(_) => entry.content_hash,
    };
    if actual != entry.content_hash {
        issues.push(FsckIssue::HashMismatch {
            generation,
            file: file.clone(),
            expected: entry.content_hash,
            actual,
        });
    }
    let error = match opened {
        Err(e) => Some(e.to_string()),
        Ok(snap) if snap.kind() != entry.kind => Some(format!(
            "artifact kind {} != catalog kind {}",
            snap.kind(),
            entry.kind
        )),
        Ok(_) => None,
    };
    if let Some(error) = error {
        issues.push(FsckIssue::BadContainer { file, error });
    }
    issues
}

/// [`ModelStore::fsck`] as a free function — verifies any directory
/// (the store need not be open, so an operator can point it at a copy).
pub fn fsck_dir(dir: &Path) -> Result<FsckReport> {
    let state = read_log(dir)?;
    let catalog = &state.manifest;
    let mut report = FsckReport::default();
    if let Some(torn) = state.torn {
        report.issues.push(FsckIssue::TornLogTail {
            offset: torn.offset,
            reason: torn.reason,
        });
    }

    // walk the directory
    let mut orphans: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io(dir))? {
        let entry = entry.map_err(io(dir))?;
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains(TMP_INFIX) {
            report.issues.push(FsckIssue::StrayTemp { file: name });
        } else if entry.path().extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT)
            && !catalog.entries.iter().any(|e| e.file == name)
        {
            orphans.push(name);
        }
    }
    orphans.sort();
    report
        .issues
        .extend(orphans.into_iter().map(|file| FsckIssue::Orphan { file }));

    // check every cataloged artifact
    for entry in &catalog.entries {
        let issues = check_entry(dir, entry);
        if issues.is_empty() {
            report.clean.push(entry.generation);
        }
        report.issues.extend(issues);
    }

    // the active pointer must have a clean snapshot behind it
    if let Some(generation) = catalog.active {
        if !report.clean.contains(&generation) {
            report.issues.push(FsckIssue::ActiveMissing { generation });
        }
    }
    if let Some(m) = mfod_obs::active() {
        m.store_fsck_issues.add(report.issues.len() as u64);
        mfod_obs::journal::instant("store.fsck");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{WatchConfig, WatchHandle};
    use crate::wire::{Decode, Decoder, Encode, Encoder};
    use mfod_faultline::{points, FaultPlan, FaultRule};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq)]
    struct Weights {
        w: Vec<f64>,
    }

    impl Encode for Weights {
        fn encode(&self, w: &mut Encoder) {
            self.w.encode(w);
        }
    }

    impl Decode for Weights {
        fn decode(r: &mut Decoder<'_>) -> crate::Result<Self> {
            Ok(Weights {
                w: Vec::<f64>::decode(r)?,
            })
        }
    }

    impl Snapshot for Weights {
        const KIND: u32 = 0x57;
        const NAME: &'static str = "weights";
    }

    /// The served form of [`Weights`].
    struct Live(Weights);

    impl Restorable for Live {
        type Snapshot = Weights;
        fn restore(s: Weights) -> std::result::Result<Self, String> {
            Ok(Live(s))
        }
    }

    fn weights(seed: u64) -> Weights {
        Weights {
            w: (0..32).map(|i| (seed as f64) + i as f64 * 0.5).collect(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfod-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn manifest_state(store: &ModelStore) -> (Option<u64>, Vec<u64>) {
        (
            store.active_generation(),
            store
                .manifest()
                .entries
                .iter()
                .map(|e| e.generation)
                .collect(),
        )
    }

    /// Flips one payload byte of a generation's snapshot (same length).
    fn damage(dir: &Path, generation: u64) {
        let path = dir.join(generation_file(generation));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn promoting_invalid_bytes_is_rejected_before_any_disk_mutation() {
        let dir = tmpdir("promote-garbage");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        // not a container at all
        assert!(store
            .promote_bytes(b"not a container", 1, 0, "bad")
            .is_err());
        // a valid container of the wrong kind
        let weights_bytes = crate::format::to_bytes(&weights(1));
        assert!(matches!(
            store.promote_bytes(&weights_bytes, 99, 0, "wrong-kind"),
            Err(PersistError::WrongKind { got, expected: 99 }) if got == Weights::KIND
        ));
        // zero side effects: empty catalog, no files, clean fsck
        assert_eq!(manifest_state(&store), (None, vec![]));
        assert!(!dir.join(generation_file(1)).exists());
        assert!(!dir.join(DEPLOY_LOG_FILE).exists());
        assert!(store.fsck().unwrap().is_clean());
        // and the store still works after the rejections
        store.promote(&weights(1), 0, "good").unwrap();
        assert_eq!(store.active_generation(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promote_open_promote_assigns_monotone_generations() {
        let dir = tmpdir("promote");
        let (mut store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, None);
        let e1 = store.promote(&weights(1), 0xC0FFEE, "a").unwrap();
        assert_eq!((e1.generation, e1.parent), (1, None));
        let e2 = store.promote(&weights(2), 0xC0FFEE, "b").unwrap();
        assert_eq!((e2.generation, e2.parent), (2, Some(1)));
        drop(store);
        let (mut reopened, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(2));
        assert_eq!(report.committed, vec![1, 2]);
        assert!(report.quarantined.is_empty());
        let e3 = reopened.promote(&weights(3), 0xC0FFEE, "c").unwrap();
        assert_eq!((e3.generation, e3.parent), (3, Some(2)));
        // lineage survives in the reloaded catalog
        assert_eq!(reopened.manifest().entry(2).unwrap().parent, Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_commit_append_is_cut_before_the_next_append_on_the_same_handle() {
        let dir = tmpdir("torn-append");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "one").unwrap();
        mfod_faultline::install(
            FaultPlan::new(19).rule(points::MANIFEST_APPEND_TORN, FaultRule::once()),
        );
        let err = store.promote(&weights(2), 1, "torn").unwrap_err();
        mfod_faultline::disarm();
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
        assert!(replay(&dir.join(DEPLOY_LOG_FILE)).unwrap().torn.is_some());

        // the next promotion on the same handle is acknowledged and served
        let e2 = store.promote(&weights(2), 1, "two").unwrap();
        assert_eq!(e2.generation, 2);
        let registry = ModelRegistry::<Live>::new();
        assert_eq!(store.install_active(&registry).unwrap(), Some(2));
        assert_eq!(registry.active().unwrap().0, weights(2));
        // and so is a rollback after it
        store.rollback(1).unwrap();
        assert_eq!(store.install_active(&registry).unwrap(), Some(1));
        assert_eq!(registry.active().unwrap().0, weights(1));

        let replayed = replay(&dir.join(DEPLOY_LOG_FILE)).unwrap();
        assert!(replayed.torn.is_none(), "{:?}", replayed.torn);
        assert_eq!(replayed.records.len(), 3);
        // the torn bytes were moved aside, not lost
        let tails = std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count();
        assert_eq!(tails, 1);

        drop(store);
        let (reopened, report) = ModelStore::open(&dir).unwrap();
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert!(!report.torn_log_tail);
        assert_eq!(manifest_state(&reopened), (Some(1), vec![1, 2]));
        assert!(reopened.fsck().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_snapshot_and_commit_quarantines_the_snapshot() {
        let dir = tmpdir("uncommitted");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "ok").unwrap();
        mfod_faultline::install(FaultPlan::new(3).rule(points::STORE_COMMIT, FaultRule::once()));
        let err = store.promote(&weights(2), 1, "doomed").unwrap_err();
        mfod_faultline::disarm();
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
        drop(store);
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert_eq!(report.committed, vec![1]);
        assert_eq!(report.quarantined.len(), 1);
        let (path, reason) = &report.quarantined[0];
        assert_eq!(*reason, QuarantineReason::Orphan);
        assert!(path.starts_with(dir.join(QUARANTINE_DIR)), "{path:?}");
        assert!(path.exists(), "quarantined file must be moved, not deleted");
        assert!(!dir.join(generation_file(2)).exists());
        assert!(store.fsck().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_leaves_a_stray_temp_that_recovery_quarantines() {
        let dir = tmpdir("stray");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "ok").unwrap();
        mfod_faultline::install(FaultPlan::new(5).rule(points::PERSIST_RENAME, FaultRule::once()));
        let err = store.promote(&weights(2), 1, "doomed").unwrap_err();
        mfod_faultline::disarm();
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
        drop(store);
        let (_, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert!(report
            .quarantined
            .iter()
            .any(|(_, r)| *r == QuarantineReason::StrayTemp));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphans_and_torn_log_tails_are_preserved_in_quarantine() {
        let dir = tmpdir("orphan");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "ok").unwrap();
        // an orphan snapshot nobody promoted, plus torn bytes on the log
        std::fs::write(dir.join("rogue.mfod"), b"not a snapshot").unwrap();
        use std::io::Write as _;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(DEPLOY_LOG_FILE))
            .unwrap();
        log.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop((store, log));
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert!(report.torn_log_tail);
        assert!(report
            .quarantined
            .iter()
            .any(|(_, r)| *r == QuarantineReason::Orphan));
        let tail = report
            .quarantined
            .iter()
            .find(|(_, r)| matches!(r, QuarantineReason::TornLogTail(_)))
            .expect("torn tail quarantined");
        assert_eq!(std::fs::read(&tail.0).unwrap(), vec![0xAB, 0xCD, 0xEF]);
        // the log itself is clean again, and the store keeps promoting
        assert!(replay(&dir.join(DEPLOY_LOG_FILE)).unwrap().torn.is_none());
        let mut store = store;
        store.promote(&weights(2), 1, "after").unwrap();
        assert!(store.fsck().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_active_generation_falls_back_to_previous_committed() {
        let dir = tmpdir("fallback");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "good").unwrap();
        store.promote(&weights(2), 1, "bad-later").unwrap();
        damage(&dir, 2);
        drop(store);
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert!(report.fell_back);
        assert_eq!(report.active, Some(1));
        assert_eq!(report.committed, vec![1]);
        assert!(report
            .quarantined
            .iter()
            .any(|(_, r)| matches!(r, QuarantineReason::Damaged(_))));
        assert_eq!(store.active_generation(), Some(1));
        // the quarantine was logged, so a recovered store fscks clean
        assert!(store.fsck().unwrap().is_clean());
        // and a second open finds nothing to do and appends nothing
        let log = std::fs::read(dir.join(DEPLOY_LOG_FILE)).unwrap();
        drop(store);
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert!(!report.fell_back);
        assert!(report.quarantined.is_empty());
        assert_eq!(store.active_generation(), Some(1));
        assert_eq!(std::fs::read(dir.join(DEPLOY_LOG_FILE)).unwrap(), log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_re_points_without_touching_snapshots_and_survives_reopen() {
        let dir = tmpdir("rollback");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "v1").unwrap();
        store.promote(&weights(2), 1, "v2").unwrap();
        let before = std::fs::read(dir.join(generation_file(1))).unwrap();
        let entry = store.rollback(1).unwrap();
        assert_eq!(entry.generation, 1);
        assert_eq!(store.active_generation(), Some(1));
        assert_eq!(std::fs::read(dir.join(generation_file(1))).unwrap(), before);
        // both generations stay on disk: roll forward works too
        store.rollback(2).unwrap();
        assert_eq!(store.active_generation(), Some(2));
        store.rollback(1).unwrap();
        drop(store);
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert_eq!(store.active_generation(), Some(1));
        // rolling back to an unknown generation is a typed error
        let mut store = store;
        let err = store.rollback(42).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_idempotent() {
        let dir = tmpdir("idempotent");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "a").unwrap();
        mfod_faultline::install(FaultPlan::new(11).rule(points::STORE_COMMIT, FaultRule::once()));
        let _ = store.promote(&weights(2), 1, "b");
        mfod_faultline::disarm();
        drop(store);
        let (first, _) = ModelStore::open(&dir).unwrap();
        let first_state = manifest_state(&first);
        let mut listing: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        listing.sort();
        drop(first);
        let (second, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(manifest_state(&second), first_state);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        let mut relisting: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        relisting.sort();
        assert_eq!(relisting, listing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_every_mismatch_with_typed_issues_and_never_panics() {
        let dir = tmpdir("fsck");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "a").unwrap();
        store.promote(&weights(2), 1, "b").unwrap();
        store.promote(&weights(3), 1, "c").unwrap();
        assert!(store.fsck().unwrap().is_clean());
        // tamper gen 1 (hash + container), remove gen 2, orphan + temp
        damage(&dir, 1);
        std::fs::rename(dir.join(generation_file(2)), dir.join("elsewhere")).unwrap();
        std::fs::write(dir.join("orphan.mfod"), b"junk").unwrap();
        std::fs::write(dir.join(format!("x{TMP_INFIX}999-0")), b"half").unwrap();
        let report = store.fsck().unwrap();
        assert_eq!(report.clean, vec![3]);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::HashMismatch { generation: 1, .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::BadContainer { .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::MissingFile { generation: 2, .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::Orphan { file } if file == "orphan.mfod")));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::StrayTemp { .. })));
        // every issue renders without panicking
        for issue in &report.issues {
            assert!(!issue.to_string().is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn install_active_threads_the_store_into_the_registry() {
        let dir = tmpdir("install");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        let registry = ModelRegistry::<Live>::new();
        assert_eq!(store.install_active(&registry).unwrap(), None);
        store.promote(&weights(7), 1, "v").unwrap();
        let gen = store.install_active(&registry).unwrap();
        assert_eq!(gen, Some(1));
        assert_eq!(registry.active().unwrap().0, weights(7));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed read of the active generation's file (injected, then a
    /// real missing file) is a typed I/O error that leaves the registry
    /// serving what it served; after the injected one, the next install
    /// reads the file and installs the generation.
    #[test]
    fn a_failed_snapshot_read_keeps_the_served_model() {
        let dir = tmpdir("read-fault");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        let registry = ModelRegistry::<Live>::new();
        store.promote(&weights(1), 1, "v1").unwrap();
        assert_eq!(store.install_active(&registry).unwrap(), Some(1));
        store.promote(&weights(2), 1, "v2").unwrap();

        mfod_faultline::install(
            FaultPlan::new(1).rule(points::PERSIST_READ, FaultRule::always().times(1)),
        );
        match store.install_active(&registry).unwrap_err() {
            PersistError::Io { path, .. } => assert_eq!(path, dir.join(generation_file(2))),
            other => panic!("expected Io, got {other:?}"),
        }
        assert_eq!(registry.generation(), 1);
        assert_eq!(registry.active().unwrap().0, weights(1));

        assert_eq!(store.install_active(&registry).unwrap(), Some(2));
        let report = mfod_faultline::disarm().unwrap();
        assert_eq!(report.fires(points::PERSIST_READ), 1, "{report:?}");
        assert_eq!(registry.generation(), 2);
        assert_eq!(registry.active().unwrap().0, weights(2));

        // a file gone from the directory fails the same way
        std::fs::remove_file(dir.join(generation_file(2))).unwrap();
        assert!(matches!(
            store.install_active(&registry),
            Err(PersistError::Io { .. })
        ));
        assert_eq!(registry.generation(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Another container of the same length and kind written over a
    /// generation's file claims another CRC-32: `install_active` and
    /// `rollback` refuse it with `ContentMismatch` before any open (an
    /// armed CRC fault never fires), and fsck names both CRCs.
    #[test]
    fn another_crc_of_the_same_length_and_kind_is_refused_before_any_open() {
        let dir = tmpdir("other-crc");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        let e1 = store.promote(&weights(1), 1, "v1").unwrap();
        store.promote(&weights(2), 1, "v2").unwrap();
        let registry = ModelRegistry::<Live>::new();
        assert_eq!(store.install_active(&registry).unwrap(), Some(2));
        let other = crate::format::to_bytes(&weights(3));
        let claimed = ContentId::claimed(&other);
        assert_eq!((claimed.len, claimed.kind), (e1.len, e1.kind));
        assert_ne!(claimed.crc, e1.content_hash);
        for g in [1, 2] {
            std::fs::write(dir.join(generation_file(g)), &other).unwrap();
        }

        mfod_faultline::install(FaultPlan::new(1).rule(points::PERSIST_CRC, FaultRule::always()));
        let install = store.install_active(&registry).unwrap_err();
        let rollback = store.rollback(1).unwrap_err();
        let report = mfod_faultline::disarm().unwrap();
        assert_eq!(report.fires(points::PERSIST_CRC), 0, "{report:?}");
        for err in [install, rollback] {
            match err {
                PersistError::ContentMismatch {
                    expected, actual, ..
                } => {
                    assert_eq!(actual, claimed);
                    assert_eq!((expected.len, expected.kind), (claimed.len, claimed.kind));
                }
                other => panic!("expected ContentMismatch, got {other:?}"),
            }
        }
        assert_eq!(registry.active().unwrap().0, weights(2));
        assert_eq!(registry.generation(), 1);
        assert_eq!(store.active_generation(), Some(2));

        let fsck = store.fsck().unwrap();
        assert!(fsck.clean.is_empty());
        assert!(fsck.issues.iter().any(|i| matches!(
            i,
            FsckIssue::HashMismatch { generation: 1, expected, actual, .. }
                if *expected == e1.content_hash && *actual == claimed.crc
        )));
        assert!(fsck
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::ActiveMissing { generation: 2 })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A body bit-flip leaves the trailer, length and kind the catalog
    /// records: the O(1) compare passes and the open's CRC pass refuses
    /// the bytes, for `install_active` and `rollback` alike, and fsck
    /// reports the CRC computed over the damaged bytes.
    #[test]
    fn a_body_flip_under_a_matching_trailer_is_refused_by_the_crc_pass() {
        let dir = tmpdir("body-flip");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        let e1 = store.promote(&weights(1), 1, "v1").unwrap();
        let registry = ModelRegistry::<Live>::new();
        assert_eq!(store.install_active(&registry).unwrap(), Some(1));
        store.promote(&weights(2), 1, "v2").unwrap();
        let path = dir.join(generation_file(1));
        let committed = std::fs::read(&path).unwrap();
        // a flip in the body, and one in the magic, which `open` refuses
        // before its CRC pass
        for at in [committed.len() - 12, 0] {
            let mut bytes = committed.clone();
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(ContentId::claimed(&bytes), e1.content_id());

            let err = store.rollback(1).unwrap_err();
            match (at, &err) {
                (0, PersistError::BadMagic { .. }) => {}
                (1.., PersistError::ChecksumMismatch { stored, .. })
                    if *stored == e1.content_hash => {}
                _ => panic!("flip at {at}: {err}"),
            }
            assert_eq!(store.active_generation(), Some(2));
            let fsck = store.fsck().unwrap();
            assert_eq!(fsck.clean, vec![2]);
            let computed = crc32(&bytes[..bytes.len() - 4]);
            assert!(
                fsck.issues.iter().any(|i| matches!(
                    i,
                    FsckIssue::HashMismatch { generation: 1, expected, actual, .. }
                        if *expected == e1.content_hash && *actual == computed
                )),
                "flip at {at}: {:?}",
                fsck.issues
            );
            assert!(fsck
                .issues
                .iter()
                .any(|i| matches!(i, FsckIssue::BadContainer { .. })));
        }

        // the active generation damaged the same way is not installed
        let path = dir.join(generation_file(2));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.install_active(&registry).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert_eq!(registry.active().unwrap().0, weights(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file name under `dir` (recursively) with its bytes.
    fn footprint(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(footprint(&path));
            } else {
                out.push((path.clone(), std::fs::read(&path).unwrap()));
            }
        }
        out.sort();
        out
    }

    /// A log of a retired format — the intent + commit framing of the
    /// earlier protocol, or a commit naming its snapshot by an FNV-1a
    /// hash — is refused with a typed error by `open`, `fsck_dir` and the
    /// watcher, and every file stays in place byte for byte.
    #[test]
    fn a_log_of_a_retired_format_is_refused_and_left_in_place() {
        let bytes = crate::format::to_bytes(&weights(1));
        let entry = ManifestEntry {
            generation: 1,
            file: generation_file(1),
            kind: Weights::KIND,
            content_hash: ContentId::claimed(&bytes).crc,
            len: bytes.len() as u64,
            config_fingerprint: 0,
            parent: None,
            tag: "v1".into(),
        };
        let mut intent = Encoder::new();
        intent.put_u8(1);
        entry.encode(&mut intent);
        let mut commit = Encoder::new();
        commit.put_u8(2);
        commit.put_u64(1);
        let mut intent_log = crate::wal::frame(&intent.into_bytes());
        intent_log.extend(crate::wal::frame(&commit.into_bytes()));
        let fnv_log = crate::wal::frame(&crate::wal::retired_fnv_commit(&entry, 0x1234));
        for (name, log, tag) in [("intent", intent_log, 1), ("fnv", fnv_log, 4)] {
            let dir = tmpdir(&format!("retired-{name}"));
            std::fs::write(dir.join(generation_file(1)), &bytes).unwrap();
            std::fs::write(dir.join(DEPLOY_LOG_FILE), &log).unwrap();
            let before = footprint(&dir);

            let retired = |r: Result<()>| match r {
                Err(PersistError::RetiredLogRecord {
                    offset: 0, tag: t, ..
                }) if t == tag => {}
                other => panic!("{name}: expected RetiredLogRecord, got {other:?}"),
            };
            retired(ModelStore::open(&dir).map(|_| ()));
            retired(fsck_dir(&dir).map(|_| ()));
            let registry = Arc::new(ModelRegistry::<Live>::new());
            let handle: WatchHandle =
                registry.watch_store(&dir, WatchConfig::new(Duration::from_millis(2)));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while handle.health().consecutive_failures < 2 {
                assert!(std::time::Instant::now() < deadline, "watcher never failed");
                std::thread::sleep(Duration::from_millis(1));
            }
            let error = handle.health().last_error.unwrap();
            assert!(error.contains("retired record"), "{error}");
            assert!(registry.active().is_none());
            handle.stop();
            assert_eq!(footprint(&dir), before, "{name}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
