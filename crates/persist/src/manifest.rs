//! The deployment **catalog** of a [`crate::store::ModelStore`]: every
//! committed generation it can serve, and the active one.
//!
//! Each [`ManifestEntry`] records the artifact's identity — file name,
//! byte length, artifact kind and the container's CRC-32 trailer (its
//! [`ContentId`]) — plus its provenance: the fit-config fingerprint, the
//! parent generation it was refit from (model lineage), and a free-form
//! tag. The manifest itself
//! names the **active** generation, so promotion and rollback are both
//! "re-point the manifest", and an auditor can answer *which model
//! scored this batch* from the registry generation alone.
//!
//! The manifest lives in memory only. It is what a replay of the
//! deployment log yields, and each commit record carries its entry in
//! [`ManifestEntry`]'s wire form; see the module docs of [`crate::store`]
//! for the durability contract.

use crate::error::PersistError;
use crate::format::ContentId;
use crate::wire::{Decode, Decoder, Encode, Encoder};
use crate::Result;
use std::path::Path;

/// One promoted generation: identity + provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Store generation, assigned monotonically from 1 at promotion.
    pub generation: u64,
    /// Snapshot file name relative to the store directory
    /// (e.g. `gen-000003.mfod`).
    pub file: String,
    /// Artifact KIND of the snapshot the entry points at.
    pub kind: u32,
    /// CRC-32 trailer of the snapshot file: the container's checksum over
    /// every byte before it, verified when the generation was promoted.
    pub content_hash: u32,
    /// Byte length of the snapshot file.
    pub len: u64,
    /// Fingerprint of the fit configuration that produced the model
    /// (caller-defined; hash of the config, not of the data).
    pub config_fingerprint: u64,
    /// Generation this model was refit from, if any — the lineage link.
    pub parent: Option<u64>,
    /// Free-form label (experiment name, variant id).
    pub tag: String,
}

impl Encode for ManifestEntry {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.generation);
        w.put_str(&self.file);
        w.put_u32(self.kind);
        w.put_u32(self.content_hash);
        w.put_u64(self.len);
        w.put_u64(self.config_fingerprint);
        match self.parent {
            Some(p) => {
                w.put_bool(true);
                w.put_u64(p);
            }
            None => w.put_bool(false),
        }
        w.put_str(&self.tag);
    }
}

impl ManifestEntry {
    /// The identity the generation's file must still claim: the
    /// cataloged length, kind and CRC-32 trailer.
    pub fn content_id(&self) -> ContentId {
        ContentId {
            len: self.len,
            kind: self.kind,
            crc: self.content_hash,
        }
    }

    /// Checks in O(1) that `bytes`, read from `path`, claim this entry's
    /// identity, else [`PersistError::ContentMismatch`]. Only the CRC
    /// pass of an open proves the claim; this check runs first.
    pub(crate) fn check_claimed(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let (expected, actual) = (self.content_id(), ContentId::claimed(bytes));
        if actual != expected {
            return Err(PersistError::ContentMismatch {
                path: path.to_path_buf(),
                expected,
                actual,
            });
        }
        Ok(())
    }
}

impl Decode for ManifestEntry {
    fn decode(r: &mut Decoder<'_>) -> Result<Self> {
        let generation = r.take_u64()?;
        let file = r.take_str()?;
        let kind = r.take_u32()?;
        let content_hash = r.take_u32()?;
        let len = r.take_u64()?;
        let config_fingerprint = r.take_u64()?;
        let parent = if r.take_bool()? {
            Some(r.take_u64()?)
        } else {
            None
        };
        let tag = r.take_str()?;
        Ok(ManifestEntry {
            generation,
            file,
            kind,
            content_hash,
            len,
            config_fingerprint,
            parent,
            tag,
        })
    }
}

/// The deployment catalog: every servable committed generation plus the
/// active one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// The committed generation the store currently serves, if any.
    pub active: Option<u64>,
    /// Servable committed generations in ascending generation order.
    pub entries: Vec<ManifestEntry>,
    /// Highest generation ever committed, counting generations that
    /// recovery has since quarantined out of `entries`.
    pub last_generation: u64,
}

impl Manifest {
    /// An empty manifest (no generations, nothing active).
    pub fn new() -> Self {
        Manifest::default()
    }

    /// The entry for `generation`, if the manifest knows it.
    pub fn entry(&self, generation: u64) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.generation == generation)
    }

    /// The entry behind [`Manifest::active`], if any.
    pub fn active_entry(&self) -> Option<&ManifestEntry> {
        self.active.and_then(|g| self.entry(g))
    }

    /// The generation a fresh promotion would get: one past the highest
    /// generation ever committed (generations start at 1), so a number
    /// names exactly one model even after its snapshot was quarantined.
    pub fn next_generation(&self) -> u64 {
        self.last_generation + 1
    }

    /// Inserts or replaces the entry for its generation, keeping the
    /// entry list sorted by generation.
    pub fn upsert(&mut self, entry: ManifestEntry) {
        self.last_generation = self.last_generation.max(entry.generation);
        match self
            .entries
            .binary_search_by_key(&entry.generation, |e| e.generation)
        {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(generation: u64, parent: Option<u64>) -> ManifestEntry {
        ManifestEntry {
            generation,
            file: format!("gen-{generation:06}.mfod"),
            kind: 1,
            content_hash: 0xDEAD_BEEF ^ generation as u32,
            len: 1024 + generation,
            config_fingerprint: 42,
            parent,
            tag: format!("variant-{generation}"),
        }
    }

    fn manifest() -> Manifest {
        let mut m = Manifest::new();
        m.upsert(entry(1, None));
        m.upsert(entry(2, Some(1)));
        m.upsert(entry(3, Some(2)));
        m.active = Some(3);
        m
    }

    #[test]
    fn lineage_and_lookup() {
        let m = manifest();
        assert_eq!(m.active_entry().unwrap().generation, 3);
        assert_eq!(m.entry(2).unwrap().parent, Some(1));
        assert_eq!(m.next_generation(), 4);
        assert!(m.entry(9).is_none());
        assert_eq!(Manifest::new().next_generation(), 1);
    }

    #[test]
    fn next_generation_outlives_dropped_entries() {
        let mut m = manifest();
        m.entries.retain(|e| e.generation != 3);
        assert_eq!(m.next_generation(), 4);
    }

    #[test]
    fn upsert_replaces_in_place_and_keeps_order() {
        let mut m = manifest();
        let mut replacement = entry(2, Some(1));
        replacement.tag = "rewritten".into();
        m.upsert(replacement);
        assert_eq!(m.entries.len(), 3);
        assert_eq!(m.entry(2).unwrap().tag, "rewritten");
        let gens: Vec<u64> = m.entries.iter().map(|e| e.generation).collect();
        assert_eq!(gens, vec![1, 2, 3]);
    }
}
