//! Crash-safe filesystem primitives: atomic replace-on-commit writes and
//! a checksummed, corruption-tolerant append-only journal.
//!
//! Everything the harness persists — `Result.txt` logs, suites, telemetry
//! traces, mutation-verdict journals — must survive a process kill at any
//! instant without leaving a torn file behind (DESIGN.md §11). Two
//! primitives cover the two write shapes:
//!
//! * **Replace-on-commit** ([`write_atomic`], [`AtomicFile`]): the new
//!   contents are written to a temporary file in the destination's
//!   directory, fsynced, then renamed over the destination. A kill before
//!   the rename leaves the old file intact; a kill after leaves the new
//!   one. Readers never observe a partial write.
//! * **Checksummed journal** ([`Journal`], [`scan_journal`],
//!   [`recover_journal`]): append-only records, one per line, each
//!   prefixed with the CRC-32 of its payload. The reader verifies every
//!   record and stops at the first bad one — a torn tail from a mid-append
//!   kill (or a flipped byte from corruption) costs only the records from
//!   that point on, never the verified prefix.
//!
//! Record layout (one line per record, `\n`-terminated):
//!
//! ```text
//! <crc32 of payload, 8 lowercase hex digits> <payload>\n
//! ```

use crate::record::hex8;
use std::fmt::{self, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) lookup tables for
/// slicing-by-8, built at compile time so the checksum needs no
/// dependency and no runtime init. `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC32_TABLES[k][b]` is `CRC32_TABLES[0][b]`
/// advanced through `k` further zero bytes, so one step folds 8 input
/// bytes with 8 independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A streaming CRC-32 (IEEE): feeding a byte string in any split gives
/// the same checksum as [`crc32`] over the whole. It implements
/// [`fmt::Write`], so `write!` can hash formatted text without building
/// the string.
///
/// # Examples
///
/// ```
/// use concat_runtime::{crc32, Crc32};
/// use std::fmt::Write as _;
///
/// let mut hasher = Crc32::new();
/// hasher.update(b"1234");
/// write!(hasher, "{}", 56789).unwrap();
/// assert_eq!(hasher.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A hasher that has seen no bytes.
    pub const fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes`, 8 at a time, then the tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            c = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[((hi >> 8) & 0xFF) as usize]
                ^ t1[((hi >> 16) & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t0[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of every byte fed so far.
    pub const fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl fmt::Write for Crc32 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// The CRC-32 (IEEE) checksum of `bytes`.
///
/// # Examples
///
/// ```
/// // The standard check value for this polynomial.
/// assert_eq!(concat_runtime::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

/// Process-unique suffix counter for temp names, so concurrent atomic
/// writes to the same destination never collide on the temp file.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(dest: &Path) -> PathBuf {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = dest
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_owned());
    dest.with_file_name(format!(".{name}.{pid}.{n}.tmp"))
}

/// Best-effort directory sync after a rename: the rename itself is already
/// atomic with respect to readers; syncing the parent only strengthens
/// durability across power loss, so failures (e.g. on filesystems that
/// refuse to open directories) are deliberately ignored.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
}

/// A file that becomes visible only on [`AtomicFile::commit`]: writes go
/// to a temporary sibling, and commit fsyncs then renames it over the
/// destination. Dropped uncommitted, the temporary is removed and the
/// destination is untouched — a kill mid-write can never leave a torn
/// file under the destination name.
///
/// # Examples
///
/// ```
/// use std::io::Write;
/// let dir = std::env::temp_dir().join("concat-atomic-file-doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let dest = dir.join("out.txt");
/// let mut file = concat_runtime::AtomicFile::create(&dest).unwrap();
/// file.write_all(b"whole or nothing").unwrap();
/// file.commit().unwrap();
/// assert_eq!(std::fs::read_to_string(&dest).unwrap(), "whole or nothing");
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct AtomicFile {
    file: Option<File>,
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
}

impl AtomicFile {
    /// Opens a temporary file next to `dest`; nothing is visible at
    /// `dest` until [`AtomicFile::commit`].
    ///
    /// # Errors
    ///
    /// Propagates the temporary-file creation error.
    pub fn create(dest: impl AsRef<Path>) -> io::Result<AtomicFile> {
        let dest = dest.as_ref().to_path_buf();
        let tmp = temp_path(&dest);
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            file: Some(file),
            tmp,
            dest,
            committed: false,
        })
    }

    /// The destination the commit will rename onto.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Fsyncs the temporary and renames it over the destination, making
    /// the new contents visible atomically. Returns the destination path.
    ///
    /// # Errors
    ///
    /// Propagates fsync/rename errors; on error the temporary is removed
    /// and the destination keeps its previous contents.
    pub fn commit(mut self) -> io::Result<PathBuf> {
        if let Some(file) = self.file.take() {
            file.sync_all()?;
        }
        fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        sync_parent_dir(&self.dest);
        Ok(self.dest.clone())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &mut self.file {
            Some(file) => file.write(buf),
            None => Err(io::Error::other("atomic file already committed")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.file {
            Some(file) => file.flush(),
            None => Ok(()),
        }
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            drop(self.file.take());
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Atomically replaces the contents of `path` with `bytes`: write a
/// temporary sibling, fsync, rename into place. Readers observe either
/// the old contents or the new — never a prefix.
///
/// # Errors
///
/// Propagates I/O errors; the destination is untouched on error.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let mut file = AtomicFile::create(path)?;
    file.write_all(bytes)?;
    file.commit()?;
    Ok(())
}

/// An append-only journal of checksummed records, fsynced per append.
///
/// Each record is one line: the CRC-32 of the payload in eight hex
/// digits, a space, the payload. Appends are durable when they return —
/// the write-ahead property resumable campaigns rely on.
///
/// # Examples
///
/// ```
/// let dir = std::env::temp_dir().join("concat-journal-doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("j.journal");
/// let mut journal = concat_runtime::Journal::open(&path).unwrap();
/// journal.append("verdict 0 survived").unwrap();
/// let scan = concat_runtime::scan_journal(&path).unwrap();
/// assert_eq!(scan.records, vec!["verdict 0 survived".to_owned()]);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if missing) a journal for appending.
    ///
    /// # Errors
    ///
    /// Propagates the open/create error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { file, path })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one checksummed record and fsyncs it: when this returns
    /// `Ok`, the record survives a kill.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the payload contains a newline (records are
    /// line-framed); otherwise the underlying write/sync error.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        self.append_all(&[payload])
    }

    /// Appends a batch of checksummed records with a single fsync: every
    /// payload is validated first, then the whole batch is written and
    /// synced once. When this returns `Ok` the entire batch survives a
    /// kill; a kill mid-write tears at most the batch's tail, which the
    /// scanner drops record-by-record like any torn append.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when any payload contains a newline (nothing is
    /// written in that case); otherwise the underlying write/sync error.
    pub fn append_all<S: AsRef<str>>(&mut self, payloads: &[S]) -> io::Result<()> {
        let batch = frame_records(payloads)?;
        if batch.is_empty() {
            return Ok(());
        }
        self.file.write_all(batch.as_bytes())?;
        self.file.sync_data()
    }

    /// Replaces the journal at `path` with exactly `payloads` through
    /// [`write_atomic`] and opens it for appending: a kill at any instant
    /// leaves the old journal or the new one, never an empty file.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when a payload contains a newline (the old journal
    /// is untouched); otherwise the write, rename or open error.
    pub fn rewrite<S: AsRef<str>>(path: impl AsRef<Path>, payloads: &[S]) -> io::Result<Journal> {
        let path = path.as_ref();
        write_atomic(path, frame_records(payloads)?.as_bytes())?;
        Journal::open(path)
    }
}

/// Frames `payloads` as journal lines: `<crc32> <payload>\n` each.
pub(crate) fn frame_records<S: AsRef<str>>(payloads: &[S]) -> io::Result<String> {
    let mut batch = String::new();
    for payload in payloads {
        let payload = payload.as_ref();
        if payload.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal records are line-framed and cannot contain newlines",
            ));
        }
        let _ = writeln!(batch, "{:08x} {payload}", crc32(payload.as_bytes()));
    }
    Ok(batch)
}

/// What [`scan_journal`] verified: the records of the longest valid
/// prefix, and how many trailing bytes failed verification (a torn final
/// append, or corruption anywhere after the prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Payloads of the verified records, in append order.
    pub records: Vec<String>,
    /// Length in bytes of the verified prefix.
    pub valid_bytes: u64,
    /// Bytes after the verified prefix that failed verification; `0` for
    /// a clean journal.
    pub truncated_bytes: u64,
}

impl JournalScan {
    /// True when every byte of the journal verified.
    pub fn is_clean(&self) -> bool {
        self.truncated_bytes == 0
    }
}

/// Verifies one framed line (sans `\n`); returns its payload when the
/// frame and checksum hold.
pub(crate) fn verify_record(line: &[u8]) -> Option<String> {
    if line.len() < 9 || line[8] != b' ' {
        return None;
    }
    let expected = hex8(&line[..8])?;
    let payload = &line[9..];
    if crc32(payload) != expected {
        return None;
    }
    String::from_utf8(payload.to_vec()).ok()
}

/// Reads a journal, verifying record checksums, and returns the longest
/// valid prefix. Verification stops at the first bad record — an
/// unterminated final line (torn append) or a checksum mismatch — and
/// everything from there on is reported as truncated, not returned. A
/// missing file scans as an empty, clean journal.
///
/// # Errors
///
/// Propagates read errors other than `NotFound`.
pub fn scan_journal(path: impl AsRef<Path>) -> io::Result<JournalScan> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // no terminator: a torn final append
        };
        let Some(payload) = verify_record(&bytes[offset..offset + nl]) else {
            break; // bad frame or checksum: drop this record and the rest
        };
        records.push(payload);
        offset += nl + 1;
    }
    Ok(JournalScan {
        records,
        valid_bytes: offset as u64,
        truncated_bytes: (bytes.len() - offset) as u64,
    })
}

/// Scans a journal, truncates any torn/corrupt tail off the file so
/// future appends extend the verified prefix, and opens it for appending.
/// Returns the journal and the scan of what survived.
///
/// # Errors
///
/// Propagates scan, truncate and open errors.
pub fn recover_journal(path: impl AsRef<Path>) -> io::Result<(Journal, JournalScan)> {
    let path = path.as_ref();
    let scan = scan_journal(path)?;
    if scan.truncated_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(scan.valid_bytes)?;
        file.sync_data()?;
    }
    Ok((Journal::open(path)?, scan))
}

/// What [`open_headered`] found at a journal path.
#[derive(Debug)]
pub enum Headered {
    /// The header matched: the recovered journal, open for appending, and
    /// the records after the header.
    Matched(Journal, Vec<String>),
    /// A missing, empty or foreign journal's verified records, header
    /// included. The file is untouched; [`Journal::rewrite`] replaces it.
    Foreign(Vec<String>),
}

/// Opens a journal whose first record names its owner (a campaign
/// header): a match replays, anything else hands back the old records
/// for salvage.
///
/// # Errors
///
/// Propagates scan, truncate and open errors.
pub fn open_headered(path: impl AsRef<Path>, header: &str) -> io::Result<Headered> {
    let (journal, mut scan) = recover_journal(path)?;
    if scan.records.first().map(String::as_str) != Some(header) {
        return Ok(Headered::Foreign(scan.records));
    }
    scan.records.remove(0);
    Ok(Headered::Matched(journal, scan.records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("concat-atomic-io-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The byte-at-a-time loop over the classic table: the reference
    /// the sliced, streaming hasher must agree with.
    fn crc32_oracle(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        for crc in [crc32, crc32_oracle] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn streaming_crc32_matches_the_byte_oracle_under_random_chunking() {
        let mut rng = crate::Rng::seed_from_u64(0xC4C32);
        for _ in 0..500 {
            let len = rng.index(300);
            let bytes: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
            let mut hasher = Crc32::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.index(rest.len() + 1));
                hasher.update(chunk);
                rest = tail;
            }
            assert_eq!(hasher.finish(), crc32_oracle(&bytes), "{bytes:?}");
            assert_eq!(crc32(&bytes), crc32_oracle(&bytes));
        }
        let mut formatted = Crc32::default();
        write!(formatted, "case {:?} {}", [1, 2], 3.5).unwrap();
        assert_eq!(formatted.finish(), crc32_oracle(b"case [1, 2] 3.5"));
    }

    #[test]
    fn write_atomic_creates_and_replaces() {
        let dir = scratch("write");
        let path = dir.join("out.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp litter: the directory holds exactly the destination.
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_atomic_file_leaves_destination_untouched() {
        let dir = scratch("uncommitted");
        let path = dir.join("out.txt");
        write_atomic(&path, b"original").unwrap();
        {
            let mut file = AtomicFile::create(&path).unwrap();
            file.write_all(b"half-writ").unwrap();
            // dropped without commit
        }
        assert_eq!(fs::read_to_string(&path).unwrap(), "original");
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "temp file cleaned up");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_round_trips_records() {
        let dir = scratch("roundtrip");
        let path = dir.join("j.journal");
        let mut journal = Journal::open(&path).unwrap();
        journal.append("alpha").unwrap();
        journal.append("beta gamma").unwrap();
        journal.append("").unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.is_clean());
        assert_eq!(scan.records, vec!["alpha", "beta gamma", ""]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_all_writes_a_verifiable_batch() {
        let dir = scratch("batch");
        let path = dir.join("j.journal");
        let mut journal = Journal::open(&path).unwrap();
        journal.append("single").unwrap();
        journal.append_all(&["batch one", "batch two", ""]).unwrap();
        journal.append_all::<&str>(&[]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.is_clean());
        assert_eq!(scan.records, vec!["single", "batch one", "batch two", ""]);
        // A newline anywhere in the batch rejects the whole batch.
        let err = journal.append_all(&["fine", "two\nlines"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 4, "rejected batch wrote nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newline_payloads_are_rejected() {
        let dir = scratch("newline");
        let mut journal = Journal::open(dir.join("j.journal")).unwrap();
        let err = journal.append("two\nlines").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = scratch("torn");
        let path = dir.join("j.journal");
        let mut journal = Journal::open(&path).unwrap();
        journal.append("kept one").unwrap();
        journal.append("kept two").unwrap();
        // Simulate a kill mid-append: a record without its terminator.
        let mut raw = OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(b"01234567 torn rec").unwrap();
        drop(raw);
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records, vec!["kept one", "kept two"]);
        assert!(!scan.is_clean());
        // Recovery chops the torn tail; subsequent appends verify.
        let (mut journal, scan) = recover_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        journal.append("after recovery").unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.is_clean());
        assert_eq!(scan.records, vec!["kept one", "kept two", "after recovery"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_truncates_everything_after_it() {
        let dir = scratch("corrupt");
        let path = dir.join("j.journal");
        let mut journal = Journal::open(&path).unwrap();
        for i in 0..4 {
            journal.append(&format!("record {i}")).unwrap();
        }
        // Flip one payload byte of the second record.
        let mut bytes = fs::read(&path).unwrap();
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let offset = lines[0].len() + 1 + 9; // second line, first payload byte
        bytes[offset] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(
            scan.records,
            vec!["record 0"],
            "prefix before corruption survives"
        );
        assert!(scan.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_scans_empty_and_clean() {
        let dir = scratch("missing");
        let scan = scan_journal(dir.join("nope.journal")).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_every_record() {
        let dir = scratch("rewrite");
        let path = dir.join("j.journal");
        let mut journal = Journal::open(&path).unwrap();
        journal.append("old campaign").unwrap();
        let mut journal = Journal::rewrite(&path, &["new campaign", "kept"]).unwrap();
        journal.append("appended").unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records, vec!["new campaign", "kept", "appended"]);
        // A newline payload rejects the rewrite and keeps the old journal.
        let err = Journal::rewrite(&path, &["two\nlines"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(scan_journal(&path).unwrap().records.len(), 3);
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "no temp litter");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_headered_replays_a_match_and_hands_back_a_foreign_journal() {
        let dir = scratch("headered");
        let path = dir.join("j.journal");
        let mut journal = Journal::rewrite(&path, &["campaign a", "one"]).unwrap();
        journal.append("two").unwrap();
        let mut raw = OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(b"torn").unwrap();
        drop(raw);
        match open_headered(&path, "campaign a").unwrap() {
            Headered::Matched(mut journal, records) => {
                assert_eq!(records, vec!["one", "two"]);
                journal.append("three").unwrap();
            }
            Headered::Foreign(_) => panic!("header matches"),
        }
        assert!(scan_journal(&path).unwrap().is_clean(), "torn tail cut");
        match open_headered(&path, "campaign b").unwrap() {
            Headered::Foreign(records) => {
                assert_eq!(records, vec!["campaign a", "one", "two", "three"]);
            }
            Headered::Matched(..) => panic!("header differs"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
