//! Content-addressed corpus of killer test cases, durable across
//! campaigns.
//!
//! Amplification (DESIGN.md §14) discovers candidate cases that kill
//! surviving mutants, but each campaign rediscovers them from scratch.
//! The corpus store persists those killers so future campaigns on the
//! same — or a derived — component replay them as a seed tier before
//! paying for fresh synthesis (the paper's §3.4 "test retrieval"
//! economy; cf. persisted fuzz corpora).
//!
//! Layout under the store directory:
//!
//! ```text
//! <dir>/manifest.journal          checksum-framed, append-only index
//! <dir>/<hash>.case               one file per case, hash = crc32(body)
//! ```
//!
//! Each manifest record is `case <hash> <campaign fingerprint> <class>`.
//! The hash is the content address (dedup key, and the integrity check a
//! reader re-verifies before trusting a case file); the fingerprint
//! records which campaign deposited the case — provenance, not a replay
//! precondition, since the whole point is seeding *changed* components
//! whose fingerprints differ. Case files are written atomically and the
//! manifest record is appended (fsynced) only after the case file is
//! committed, so a kill at any instant leaves either a complete,
//! indexed case or an unindexed orphan file — never a torn entry. A torn
//! manifest tail from a mid-append kill is dropped by the journal
//! scanner like any other torn record.

use crate::atomic_io::{crc32, recover_journal, write_atomic, Journal};
use crate::record::Fields;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One manifest entry: a content-addressed case and its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// CRC-32 of the case payload — the content address.
    pub hash: u32,
    /// Fingerprint of the campaign that deposited the case.
    pub fingerprint: u32,
    /// Subject class the case was discovered against.
    pub class: String,
}

impl CorpusEntry {
    /// The manifest record: `case <hash> <fingerprint> <class>`.
    pub fn encode(&self) -> String {
        format!(
            "case {:08x} {:08x} {}",
            self.hash, self.fingerprint, self.class
        )
    }

    /// Decodes a manifest record; `None` for anything
    /// [`CorpusEntry::encode`] would not write.
    pub fn decode(record: &str) -> Option<CorpusEntry> {
        let mut fields = Fields::new(record, ' ');
        fields.expect("case")?;
        Some(CorpusEntry {
            hash: fields.hex()?,
            fingerprint: fields.hex()?,
            class: fields.rest()?.to_owned(),
        })
    }
}

/// What [`CorpusStore::load`] recovered for one class.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorpusLoad {
    /// Case payloads in deposit order, each re-verified against its
    /// content hash.
    pub payloads: Vec<String>,
    /// Indexed cases whose file was missing or unreadable.
    pub missing: usize,
    /// Indexed cases whose file content no longer matched its hash
    /// (corruption or tampering) — rejected, never returned.
    pub rejected: usize,
}

/// A durable, content-addressed store of killer cases (see the module
/// docs for the on-disk layout and crash-safety argument).
///
/// # Examples
///
/// ```
/// let dir = std::env::temp_dir().join("concat-corpus-doc");
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut store = concat_runtime::CorpusStore::open(&dir).unwrap();
/// assert!(store.deposit("Stack", 0xABCD, "case body").unwrap());
/// assert!(!store.deposit("Stack", 0xABCD, "case body").unwrap(), "dedup");
/// let load = store.load("Stack");
/// assert_eq!(load.payloads, vec!["case body".to_owned()]);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct CorpusStore {
    dir: PathBuf,
    manifest: Journal,
    entries: Vec<CorpusEntry>,
}

impl CorpusStore {
    /// Opens (creating if missing) the corpus at `dir`, recovering the
    /// manifest: a torn tail is truncated, malformed records are skipped.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and manifest-recovery errors.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<CorpusStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let (manifest, scan) = recover_journal(dir.join("manifest.journal"))?;
        let entries = scan
            .records
            .iter()
            .filter_map(|record| CorpusEntry::decode(record))
            .collect();
        Ok(CorpusStore {
            dir,
            manifest,
            entries,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the manifest journal lives.
    pub fn manifest_path(&self) -> &Path {
        self.manifest.path()
    }

    /// Every indexed entry, in deposit order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of indexed cases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the corpus holds no cases.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn case_path(&self, hash: u32) -> PathBuf {
        self.dir.join(format!("{hash:08x}.case"))
    }

    /// Deposits one case payload for `class`, stamped with the depositing
    /// campaign's `fingerprint`. Returns `true` when the case was new,
    /// `false` when the same content was already indexed for this class
    /// (content-hash dedup; nothing is written).
    ///
    /// # Errors
    ///
    /// Propagates case-file write and manifest-append errors; on error
    /// the manifest never indexes a case file that was not committed.
    pub fn deposit(&mut self, class: &str, fingerprint: u32, payload: &str) -> io::Result<bool> {
        if class.is_empty() || class.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "corpus class names must be non-empty and newline-free",
            ));
        }
        let hash = crc32(payload.as_bytes());
        if self
            .entries
            .iter()
            .any(|e| e.hash == hash && e.class == class)
        {
            return Ok(false);
        }
        // Case file first, manifest second: the index never points at a
        // file that might not exist.
        write_atomic(self.case_path(hash), payload.as_bytes())?;
        let entry = CorpusEntry {
            hash,
            fingerprint,
            class: class.to_owned(),
        };
        self.manifest.append(&entry.encode())?;
        self.entries.push(entry);
        Ok(true)
    }

    /// Loads every case deposited for `class`, in deposit order,
    /// re-verifying each file against its content hash. Missing files
    /// and hash mismatches are counted and skipped, never returned —
    /// a corrupt corpus degrades to a smaller seed tier, not a wrong one.
    pub fn load(&self, class: &str) -> CorpusLoad {
        let mut load = CorpusLoad::default();
        for entry in self.entries.iter().filter(|e| e.class == class) {
            let Ok(bytes) = fs::read(self.case_path(entry.hash)) else {
                load.missing += 1;
                continue;
            };
            if crc32(&bytes) != entry.hash {
                load.rejected += 1;
                continue;
            }
            match String::from_utf8(bytes) {
                Ok(payload) => load.payloads.push(payload),
                Err(_) => load.rejected += 1,
            }
        }
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("concat-corpus-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn deposit_load_round_trips_in_order() {
        let dir = scratch("roundtrip");
        let mut store = CorpusStore::open(&dir).unwrap();
        assert!(store.deposit("Acc", 0x1111, "first case\nbody").unwrap());
        assert!(store.deposit("Acc", 0x1111, "second case").unwrap());
        assert!(store.deposit("Other", 0x2222, "foreign class").unwrap());
        drop(store);

        let store = CorpusStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        let load = store.load("Acc");
        assert_eq!(load.payloads, vec!["first case\nbody", "second case"]);
        assert_eq!((load.missing, load.rejected), (0, 0));
        assert_eq!(store.load("Other").payloads, vec!["foreign class"]);
        assert!(store.load("Nobody").payloads.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_content_dedups_per_class() {
        let dir = scratch("dedup");
        let mut store = CorpusStore::open(&dir).unwrap();
        assert!(store.deposit("Acc", 0x1111, "same body").unwrap());
        // Same content, same class: dedup even across campaigns.
        assert!(!store.deposit("Acc", 0x9999, "same body").unwrap());
        // Same content, different class: a distinct entry.
        assert!(store.deposit("Other", 0x9999, "same body").unwrap());
        assert_eq!(store.len(), 2);
        assert_eq!(store.load("Acc").payloads.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_tail_is_tolerated() {
        let dir = scratch("torn");
        let mut store = CorpusStore::open(&dir).unwrap();
        store.deposit("Acc", 0x1111, "kept").unwrap();
        let manifest = store.manifest_path().to_path_buf();
        drop(store);
        // Simulate a kill mid-append: an unterminated manifest record.
        let mut raw = fs::OpenOptions::new().append(true).open(&manifest).unwrap();
        raw.write_all(b"01234567 case deadbeef torn").unwrap();
        drop(raw);

        let store = CorpusStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "torn tail dropped, prefix survives");
        assert_eq!(store.load("Acc").payloads, vec!["kept"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_case_file_is_rejected_on_load() {
        let dir = scratch("corrupt");
        let mut store = CorpusStore::open(&dir).unwrap();
        store.deposit("Acc", 0x1111, "will corrupt").unwrap();
        store.deposit("Acc", 0x1111, "stays good").unwrap();
        let bad = store.entries()[0].hash;
        fs::write(dir.join(format!("{bad:08x}.case")), b"tampered").unwrap();

        let load = store.load("Acc");
        assert_eq!(load.payloads, vec!["stays good"]);
        assert_eq!(load.rejected, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_case_file_is_counted_not_fatal() {
        let dir = scratch("missing");
        let mut store = CorpusStore::open(&dir).unwrap();
        store.deposit("Acc", 0x1111, "vanishes").unwrap();
        let hash = store.entries()[0].hash;
        fs::remove_file(dir.join(format!("{hash:08x}.case"))).unwrap();
        let load = store.load("Acc");
        assert!(load.payloads.is_empty());
        assert_eq!(load.missing, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_manifest_records_are_skipped() {
        let dir = scratch("malformed");
        let mut store = CorpusStore::open(&dir).unwrap();
        store.deposit("Acc", 0x1111, "good").unwrap();
        drop(store);
        // A checksum-valid but semantically bogus record.
        let mut journal = Journal::open(dir.join("manifest.journal")).unwrap();
        journal.append("case nothex 00000000 Acc").unwrap();
        journal.append("not-a-case-record").unwrap();
        drop(journal);
        let store = CorpusStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
