//! The on-disk store: an append-only journal plus an atomically-compacted
//! snapshot, both built from checksummed frames.
//!
//! # File layout
//!
//! A store directory holds up to three files:
//!
//! * `snapshot.astra` — the compacted state, rewritten atomically by
//!   [`Store::compact`] (write `snapshot.astra.tmp`, fsync, rename).
//! * `journal.astra` — records appended since the last compaction.
//! * `store.corrupt` — the quarantine sidecar: one structured text line
//!   per rejected record (file, offset, reason, hex prefix), appended on
//!   recovery, never read back by the store itself.
//!
//! Both data files start with an 8-byte magic (`ASTORE01`) followed by
//! frames: `[len: u32][fnv1a64(payload): u64][payload]`, payload being a
//! tagged, versioned record body ([`crate::record`]).
//!
//! # Recovery
//!
//! [`Store::open`] replays snapshot then journal. Each frame is checked in
//! order: a frame that doesn't fully fit is a *torn tail* (the expected
//! `kill -9` shape) and ends the file; an implausible length means the
//! framing itself can't be trusted and also ends the file; a complete
//! frame whose checksum or body fails is *quarantined individually* and
//! the scan continues, so one flipped byte loses one record, not the
//! store. After a lossy recovery the journal is rewritten in place
//! (temp + fsync + rename) to contain exactly the surviving records, so
//! corruption is reported once and the next append lands on a clean tail.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::codec::fnv1a64;
use crate::record::Record;

/// Magic bytes opening every store data file.
pub const MAGIC: &[u8; 8] = b"ASTORE01";

/// Frames longer than this are treated as framing corruption, not records.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

const SNAPSHOT: &str = "snapshot.astra";
const JOURNAL: &str = "journal.astra";
const SIDECAR: &str = "store.corrupt";

/// Environment variable the CLI-level crash hook reads: after this many
/// bytes of store writes, every further write is silently dropped,
/// simulating the process dying mid-write.
pub const CRASH_AFTER_ENV: &str = "ASTRA_STORE_CRASH_AFTER";

/// Store behaviour knobs, including the crash-injection hook the recovery
/// tests drive.
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Write-fault hook: after this many bytes have been written (across
    /// journal appends and compactions), drop everything — partial final
    /// write included — exactly like a `kill -9` mid-write. `None` writes
    /// normally.
    pub fail_after_bytes: Option<u64>,
}

impl StoreOptions {
    /// Reads the crash hook from [`CRASH_AFTER_ENV`], for CLI-level
    /// crash-injection gates. Unset or unparsable means no fault.
    pub fn from_env() -> Self {
        let fail_after_bytes =
            std::env::var(CRASH_AFTER_ENV).ok().and_then(|v| v.parse::<u64>().ok());
        StoreOptions { fail_after_bytes }
    }
}

/// One quarantined record's diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptDiag {
    /// File the record was found in (`snapshot.astra` / `journal.astra`).
    pub file: String,
    /// Byte offset of the frame start.
    pub offset: u64,
    /// Why the record was rejected.
    pub reason: String,
    /// Whether the scan stopped here (torn tail / untrusted framing) or
    /// continued to the next frame (checksum/body failure).
    pub fatal: bool,
}

impl CorruptDiag {
    /// Renders the sidecar line: stable `key=value` fields plus a hex
    /// prefix of the rejected bytes.
    fn sidecar_line(&self, bytes: &[u8]) -> String {
        let mut hex = String::new();
        for b in bytes.iter().take(64) {
            let _ = write!(hex, "{b:02x}");
        }
        format!(
            "file={} offset={} fatal={} reason=\"{}\" hex={}\n",
            self.file, self.offset, self.fatal, self.reason, hex
        )
    }
}

/// What [`Store::open`] recovered.
#[derive(Debug, Default)]
pub struct LoadSummary {
    /// Records that decoded cleanly.
    pub records: u64,
    /// Records quarantined into the sidecar.
    pub corrupt_records: u64,
    /// Snapshot file size at open, bytes.
    pub snapshot_bytes: u64,
    /// Journal file size at open, bytes.
    pub journal_bytes: u64,
}

/// Read-only integrity report from [`fsck`].
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Clean record counts by kind name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Total bytes across snapshot and journal.
    pub bytes: u64,
    /// Corruption found in the data files (empty for a healthy store).
    pub corrupt: Vec<CorruptDiag>,
    /// Lines already quarantined in the sidecar by past recoveries.
    pub quarantined_lines: u64,
}

impl FsckReport {
    /// Total clean records.
    pub fn total_records(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Result of scanning one data file.
struct Scan {
    records: Vec<Record>,
    diags: Vec<(CorruptDiag, Vec<u8>)>,
    /// Byte ranges of surviving frames, for lossless rewrite.
    clean_frames: Vec<(u64, u64)>,
}

/// Scans `bytes` (a whole data file) into records and diagnostics.
fn scan(file: &str, bytes: &[u8]) -> Scan {
    let mut out = Scan { records: Vec::new(), diags: Vec::new(), clean_frames: Vec::new() };
    if bytes.is_empty() {
        return out;
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        out.diags.push((
            CorruptDiag {
                file: file.to_string(),
                offset: 0,
                reason: "bad or missing file magic".to_string(),
                fatal: true,
            },
            bytes[..bytes.len().min(64)].to_vec(),
        ));
        return out;
    }
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        let frame_start = pos as u64;
        let left = bytes.len() - pos;
        if left < 12 {
            out.diags.push((
                CorruptDiag {
                    file: file.to_string(),
                    offset: frame_start,
                    reason: format!("torn tail: {left} bytes, frame header needs 12"),
                    fatal: true,
                },
                bytes[pos..].to_vec(),
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            out.diags.push((
                CorruptDiag {
                    file: file.to_string(),
                    offset: frame_start,
                    reason: format!("implausible frame length {len}; framing untrusted"),
                    fatal: true,
                },
                bytes[pos..(pos + 64).min(bytes.len())].to_vec(),
            ));
            break;
        }
        let len = len as usize;
        if left < 12 + len {
            out.diags.push((
                CorruptDiag {
                    file: file.to_string(),
                    offset: frame_start,
                    reason: format!(
                        "torn tail: frame claims {len} payload bytes, {} remain",
                        left - 12
                    ),
                    fatal: true,
                },
                bytes[pos..].to_vec(),
            ));
            break;
        }
        let stored =
            u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let payload = &bytes[pos + 12..pos + 12 + len];
        let computed = fnv1a64(payload);
        pos += 12 + len;
        if stored != computed {
            out.diags.push((
                CorruptDiag {
                    file: file.to_string(),
                    offset: frame_start,
                    reason: format!(
                        "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                    ),
                    fatal: false,
                },
                payload[..payload.len().min(64)].to_vec(),
            ));
            continue;
        }
        match Record::decode(payload) {
            Ok(r) => {
                out.records.push(r);
                out.clean_frames.push((frame_start, (12 + len) as u64));
            }
            Err(e) => out.diags.push((
                CorruptDiag {
                    file: file.to_string(),
                    offset: frame_start,
                    reason: format!("body rejected: {e}"),
                    fatal: false,
                },
                payload[..payload.len().min(64)].to_vec(),
            )),
        }
    }
    out
}

/// Frames a payload: length, checksum, bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A crash-safe record store rooted at one directory.
///
/// All writes honour the [`StoreOptions::fail_after_bytes`] crash hook:
/// once the byte budget is exhausted the store behaves as if the process
/// died — the in-flight write is truncated at the budget boundary and
/// every subsequent write, fsync, and rename is silently skipped.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    journal: Option<File>,
    /// Remaining write budget under the crash hook; `None` = unlimited.
    budget: Option<u64>,
    crashed: bool,
    journal_appends: u64,
    /// Records the journal holds now: its clean records at open plus
    /// every append, back to zero at compaction.
    journal_records: u64,
    compactions: u64,
    load: LoadSummary,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, recovering whatever
    /// state survives. Returns the store and every clean record, snapshot
    /// first then journal in append order.
    ///
    /// # Errors
    ///
    /// Propagates real I/O failures (permissions, `dir` is a file, ...).
    /// Corrupt *contents* are never an error — they are quarantined.
    pub fn open(dir: &Path, opts: &StoreOptions) -> io::Result<(Store, Vec<Record>)> {
        fs::create_dir_all(dir)?;
        // Stale temp files are debris from a crash mid-compaction or
        // mid-recovery; the rename never happened, so they carry nothing.
        for name in [SNAPSHOT, JOURNAL] {
            let _ = fs::remove_file(dir.join(format!("{name}.tmp")));
        }
        let mut records = Vec::new();
        let mut load = LoadSummary::default();
        let mut journal_records = 0;
        let mut sidecar: Vec<String> = Vec::new();

        for (name, is_journal) in [(SNAPSHOT, false), (JOURNAL, true)] {
            let path = dir.join(name);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            let scanned = scan(name, &bytes);
            if is_journal {
                load.journal_bytes = bytes.len() as u64;
                journal_records = scanned.records.len() as u64;
            } else {
                load.snapshot_bytes = bytes.len() as u64;
            }
            load.records += scanned.records.len() as u64;
            load.corrupt_records += scanned.diags.len() as u64;
            for (diag, raw) in &scanned.diags {
                sidecar.push(diag.sidecar_line(raw));
            }
            if !scanned.diags.is_empty() {
                // Lossy recovery: rewrite the file with exactly the
                // surviving frames so corruption is reported once and the
                // next append lands on a clean tail.
                let mut clean = Vec::with_capacity(bytes.len());
                clean.extend_from_slice(MAGIC);
                for &(off, len) in &scanned.clean_frames {
                    clean.extend_from_slice(&bytes[off as usize..(off + len) as usize]);
                }
                let tmp = dir.join(format!("{name}.tmp"));
                fs::write(&tmp, &clean)?;
                File::open(&tmp)?.sync_data()?;
                fs::rename(&tmp, &path)?;
            }
            records.extend(scanned.records);
        }

        if !sidecar.is_empty() {
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(SIDECAR))?;
            for line in &sidecar {
                f.write_all(line.as_bytes())?;
            }
            f.sync_data()?;
        }

        let journal_path = dir.join(JOURNAL);
        let fresh = !journal_path.exists();
        let mut journal =
            OpenOptions::new().create(true).append(true).open(&journal_path)?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            journal: None,
            budget: opts.fail_after_bytes,
            crashed: false,
            journal_appends: 0,
            journal_records,
            compactions: 0,
            load,
        };
        if fresh {
            // New journal: write the magic through the budgeted path so a
            // crash hook can even tear the header.
            store.budgeted_write(&mut journal, MAGIC)?;
        }
        store.journal = Some(journal);
        Ok((store, records))
    }

    /// What recovery found at open time.
    pub fn load_summary(&self) -> &LoadSummary {
        &self.load
    }

    /// Records appended since open.
    pub fn journal_appends(&self) -> u64 {
        self.journal_appends
    }

    /// Records in the journal: those it held at open plus every append
    /// since, reset by compaction. Unlike [`Store::journal_appends`] this
    /// spans sessions, so it measures what the next open has to replay.
    pub fn journal_records(&self) -> u64 {
        self.journal_records
    }

    /// Compactions performed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether the crash hook has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes through the crash hook: consumes budget, truncates the write
    /// at the boundary, and goes silent once the budget is spent.
    fn budgeted_write(&mut self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Ok(());
        }
        let allowed = match self.budget {
            None => bytes.len(),
            Some(left) => {
                let allowed = (left as usize).min(bytes.len());
                let left = left - allowed as u64;
                self.budget = Some(left);
                if left == 0 {
                    self.crashed = true;
                }
                allowed
            }
        };
        if allowed > 0 {
            file.write_all(&bytes[..allowed])?;
        }
        Ok(())
    }

    /// Appends one record to the journal.
    ///
    /// # Errors
    ///
    /// Real I/O failures only; a fired crash hook swallows writes silently
    /// (that is the point of the hook).
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        let framed = frame(&rec.encode());
        let mut journal = self.journal.take().expect("journal is open");
        let r = self.budgeted_write(&mut journal, &framed);
        self.journal = Some(journal);
        r?;
        self.journal_appends += 1;
        self.journal_records += 1;
        Ok(())
    }

    /// Forces journal bytes to disk (no-op after a crash-hook fire).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Ok(());
        }
        if let Some(j) = &mut self.journal {
            j.sync_data()?;
        }
        Ok(())
    }

    /// Replaces the snapshot with `records` and truncates the journal —
    /// the atomic compaction step: write `snapshot.astra.tmp`, fsync,
    /// rename over `snapshot.astra`, then reset the journal. A crash
    /// anywhere in between leaves either the old state (rename not yet
    /// done) or the new snapshot plus a journal whose replay is harmless
    /// (records are idempotent re-applications of the same state).
    ///
    /// # Errors
    ///
    /// Real I/O failures only.
    pub fn compact(&mut self, records: &[Record]) -> io::Result<()> {
        if self.crashed {
            return Ok(());
        }
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        for r in records {
            body.extend_from_slice(&frame(&r.encode()));
        }
        let tmp = self.dir.join(format!("{SNAPSHOT}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            let r = self.budgeted_write(&mut f, &body);
            if !self.crashed {
                f.sync_data()?;
            }
            r?;
        }
        if self.crashed {
            // Died mid-snapshot-write: the temp file stays, the real
            // snapshot and journal are untouched.
            return Ok(());
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT))?;
        // Reset the journal to just its header. Recreate rather than
        // truncate the shared handle: append mode keeps its own cursor.
        let journal_path = self.dir.join(JOURNAL);
        let mut f = File::create(&journal_path)?;
        f.write_all(MAGIC)?;
        f.sync_data()?;
        self.journal = Some(OpenOptions::new().append(true).open(&journal_path)?);
        self.journal_records = 0;
        self.compactions += 1;
        Ok(())
    }
}

/// Read-only integrity check of the store at `dir` — nothing is written,
/// quarantined, or repaired.
///
/// # Errors
///
/// Real I/O failures only; corruption lands in [`FsckReport::corrupt`].
pub fn fsck(dir: &Path) -> io::Result<FsckReport> {
    let mut report = FsckReport::default();
    for name in [SNAPSHOT, JOURNAL] {
        let bytes = match fs::read(dir.join(name)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        report.bytes += bytes.len() as u64;
        let scanned = scan(name, &bytes);
        for r in &scanned.records {
            *report.counts.entry(r.kind_name()).or_insert(0) += 1;
        }
        report.corrupt.extend(scanned.diags.into_iter().map(|(d, _)| d));
    }
    match fs::read_to_string(dir.join(SIDECAR)) {
        Ok(s) => report.quarantined_lines = s.lines().count() as u64,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ProfileSampleRec, VerdictKind, VerdictRec};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("astra-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample(i: u64) -> Record {
        Record::ProfileSample(ProfileSampleRec {
            contexts: vec![format!("ctx{i}")],
            entity: format!("fuse:{i}"),
            choice: i,
            value_ns: 100.0 + i as f64,
        })
    }

    #[test]
    fn append_reopen_roundtrips() {
        let dir = tmpdir("roundtrip");
        let (mut s, loaded) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert!(loaded.is_empty());
        for i in 0..10 {
            s.append(&sample(i)).unwrap();
        }
        s.sync().unwrap();
        drop(s);
        let (s2, loaded) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(loaded.len(), 10);
        assert_eq!(loaded[3], sample(3));
        assert_eq!(s2.load_summary().corrupt_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_crash_point_recovers_a_consistent_prefix() {
        // Write 20 records cleanly to learn the byte length, then replay
        // with the crash hook at every byte boundary.
        let dir = tmpdir("crashpoints");
        let (mut s, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        for i in 0..20 {
            s.append(&sample(i)).unwrap();
        }
        s.sync().unwrap();
        let total = fs::metadata(dir.join(JOURNAL)).unwrap().len();
        fs::remove_dir_all(&dir).unwrap();

        for cut in 0..=total {
            let dir = tmpdir(&format!("crash{cut}"));
            let (mut s, _) =
                Store::open(&dir, &StoreOptions { fail_after_bytes: Some(cut) }).unwrap();
            for i in 0..20 {
                s.append(&sample(i)).unwrap();
            }
            drop(s);
            let (s2, loaded) = Store::open(&dir, &StoreOptions::default()).unwrap();
            // The recovered prefix must be exactly the first k records.
            for (i, rec) in loaded.iter().enumerate() {
                assert_eq!(*rec, sample(i as u64), "cut={cut}");
            }
            assert!(s2.load_summary().corrupt_records <= 1, "cut={cut}");
            // Recovery rewrote the tail: reopening again is clean.
            drop(s2);
            let (s3, loaded2) = Store::open(&dir, &StoreOptions::default()).unwrap();
            assert_eq!(loaded2.len(), loaded.len(), "cut={cut}");
            assert_eq!(s3.load_summary().corrupt_records, 0, "cut={cut}");
            drop(s3);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn flipped_byte_quarantines_one_record_and_keeps_the_rest() {
        let dir = tmpdir("flip");
        let (mut s, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        for i in 0..8 {
            s.append(&sample(i)).unwrap();
        }
        s.sync().unwrap();
        drop(s);
        // Flip one payload byte in the middle of the journal.
        let path = dir.join(JOURNAL);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.corrupt.len(), 1);
        assert!(report.corrupt[0].reason.contains("checksum"));

        let (s2, loaded) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(s2.load_summary().corrupt_records, 1);
        assert_eq!(loaded.len(), 7, "one record lost, the rest survive");
        assert_eq!(s2.journal_records(), 7, "quarantined records are not counted");
        assert!(fs::read_to_string(dir.join(SIDECAR)).unwrap().contains("checksum"));
        drop(s2);
        // The rewrite scrubbed the corruption: fsck is clean now.
        let report = fsck(&dir).unwrap();
        assert!(report.corrupt.is_empty());
        assert_eq!(report.quarantined_lines, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_moves_state_to_the_snapshot_atomically() {
        let dir = tmpdir("compact");
        let (mut s, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        for i in 0..5 {
            s.append(&sample(i)).unwrap();
        }
        let state: Vec<Record> = (0..5).map(sample).collect();
        s.compact(&state).unwrap();
        assert_eq!(s.compactions(), 1);
        s.append(&sample(5)).unwrap();
        s.sync().unwrap();
        drop(s);
        let (_, loaded) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(loaded.len(), 6);
        assert_eq!(loaded[5], sample(5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_records_span_sessions_and_reset_at_compaction() {
        let dir = tmpdir("journal-records");
        let (mut s, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        for i in 0..4 {
            s.append(&sample(i)).unwrap();
        }
        assert_eq!((s.journal_appends(), s.journal_records()), (4, 4));
        drop(s);
        // A later session starts its append count at zero but still sees
        // what the journal holds.
        let (mut s, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!((s.journal_appends(), s.journal_records()), (0, 4));
        s.append(&sample(4)).unwrap();
        assert_eq!((s.journal_appends(), s.journal_records()), (1, 5));
        let state: Vec<Record> = (0..5).map(sample).collect();
        s.compact(&state).unwrap();
        assert_eq!(s.journal_records(), 0);
        s.append(&sample(5)).unwrap();
        drop(s);
        // Snapshot records do not count as journal records.
        let (s, loaded) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(loaded.len(), 6);
        assert_eq!(s.journal_records(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_during_compaction_preserves_old_state() {
        let dir = tmpdir("compact-crash");
        let (mut s, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        for i in 0..5 {
            s.append(&sample(i)).unwrap();
        }
        s.sync().unwrap();
        let journal_len = fs::metadata(dir.join(JOURNAL)).unwrap().len();
        drop(s);
        // Budget covers the existing journal is irrelevant on reopen (no
        // rewrite); give just enough to die inside the snapshot body.
        let (mut s, loaded) =
            Store::open(&dir, &StoreOptions { fail_after_bytes: Some(40) }).unwrap();
        assert_eq!(loaded.len(), 5);
        s.compact(&loaded).unwrap();
        assert!(s.crashed());
        drop(s);
        let (_, reloaded) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(reloaded.len(), 5, "old state intact after compaction crash");
        assert_eq!(fs::metadata(dir.join(JOURNAL)).unwrap().len(), journal_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_counts_kinds() {
        let dir = tmpdir("fsck");
        let (mut s, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        s.append(&sample(0)).unwrap();
        s.append(&Record::Verdict(VerdictRec {
            kind: VerdictKind::Lint,
            plan_fp: 9,
            clean: true,
        }))
        .unwrap();
        s.sync().unwrap();
        drop(s);
        let report = fsck(&dir).unwrap();
        assert_eq!(report.counts["profile_sample"], 1);
        assert_eq!(report.counts["verdict"], 1);
        assert_eq!(report.total_records(), 2);
        assert!(report.corrupt.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
