//! Fixed-header binary segment files: the persistent store format whose
//! re-hydration is a sequential scan, not a parse.
//!
//! A segment file holds [`PointRecord`]s in the [`crate::codec`] binary
//! encoding behind a fixed per-record header:
//!
//! ```text
//! file   := magic record*
//! magic  := "SRRASEG1"                 (8 bytes)
//! record := len:u32le key:u64le payload[len]
//! ```
//!
//! `len` is the payload byte count, `key` duplicates the record's FNV-1a
//! key so the startup scan can build the key index without decoding a
//! record it only needs to route, and `payload` is the record's binary
//! [`Wire`](crate::codec::Wire) encoding (whose own first field is
//! the key — the scan verifies the two agree, so a misaligned or corrupt
//! record cannot be silently indexed under the wrong key).
//!
//! Appends write one header+payload and flush, the same crash contract as
//! [`crate::JsonlStore`]: a killed process loses at most the record being
//! written.  On open, a torn or corrupt tail is truncated away and counted
//! ([`SegmentStore::torn_records`]) instead of failing the store — corruption
//! in an append-only, flush-per-record file is realistically tail-only, and
//! a record that *does* fail mid-file marks everything after it unreachable
//! anyway (the scan cannot resynchronize), so truncation at the first bad
//! header is the honest recovery.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::codec::{from_bytes, write_bytes};
use crate::store::{JsonlError, JsonlStore, PointRecord, RecordArena, ResultStore, StoreBase};

/// The 8-byte file magic opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SRRASEG1";

/// Largest payload a segment record header may claim (64 MiB); larger is
/// corruption, not data (a typical record payload is ~300 bytes).
pub const MAX_SEGMENT_RECORD_LEN: usize = 64 << 20;

/// A persistent [`ResultStore`] over one binary segment file, with optional
/// read-side fallback to a legacy JSONL sibling.
///
/// `open` scans the segment file sequentially into an in-memory key index;
/// `put` appends one fixed-header record and flushes.  When a legacy `.jsonl`
/// file is supplied (see [`SegmentStore::open_with_legacy`]) its records are
/// folded into the index read-only — new appends always go to the segment
/// file, and a later `compact` (see `srra-serve`'s `ShardedStore`) rewrites
/// everything into pure segment form.
#[derive(Debug)]
pub struct SegmentStore {
    path: PathBuf,
    arena: RecordArena,
    /// Raw records sitting in the segment file, duplicates included — what
    /// the opening scan saw plus every append since.
    scanned: usize,
    torn: usize,
    writer: BufWriter<File>,
    scratch: Vec<u8>,
}

impl SegmentStore {
    /// Opens (creating if needed) the segment store at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonlError::Io`] if the file cannot be read or created and
    /// [`JsonlError::Parse`] if the file does not start with the segment
    /// magic (`line` is then 0 — the file is not a segment file at all; for
    /// record-level corruption see [`SegmentStore::torn_records`], which is
    /// recovery, not an error).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JsonlError> {
        Self::open_with_legacy(path, None::<&Path>)
    }

    /// Opens the segment store at `path`, additionally folding the records of
    /// a legacy JSONL file into the in-memory index (read-side fallback for
    /// pre-segment cache dirs).
    ///
    /// The legacy file is only read (with the same torn-tail repair as
    /// [`JsonlStore::open`]); it is never appended to and never deleted here
    /// — rewriting it into segment form is `compact`'s job.
    ///
    /// # Errors
    ///
    /// As [`SegmentStore::open`]; a corrupt legacy file surfaces its own
    /// [`JsonlError`].
    pub fn open_with_legacy(
        path: impl AsRef<Path>,
        legacy: Option<impl AsRef<Path>>,
    ) -> Result<Self, JsonlError> {
        let path = path.as_ref().to_path_buf();
        let mut arena = match legacy {
            Some(legacy) if legacy.as_ref().exists() => JsonlStore::open(legacy)?.into_arena(),
            _ => RecordArena::default(),
        };
        let mut scanned = 0;
        let mut torn = 0;

        if path.exists() {
            let data = std::fs::read(&path)?;
            if data.len() < SEGMENT_MAGIC.len() && SEGMENT_MAGIC.starts_with(&data) {
                // An empty file or a strict prefix of the magic (a crashed
                // run before the magic landed) is adopted: the torn magic is
                // truncated away and (re)written below.
                if !data.is_empty() {
                    OpenOptions::new().write(true).open(&path)?.set_len(0)?;
                    torn += 1;
                }
            } else if !data.starts_with(SEGMENT_MAGIC) {
                return Err(JsonlError::Parse {
                    line: 0,
                    message: format!("`{}` is not a segment file (bad magic)", path.display()),
                });
            }
            let mut offset = SEGMENT_MAGIC.len().min(data.len());
            loop {
                let rest = &data[offset..];
                if rest.is_empty() {
                    break;
                }
                let Some((record, consumed)) = scan_record(rest) else {
                    // Torn or corrupt tail: truncate it away so future
                    // appends extend a consistent file, and count the event.
                    OpenOptions::new()
                        .write(true)
                        .open(&path)?
                        .set_len(offset as u64)?;
                    torn += 1;
                    break;
                };
                arena.insert(record);
                scanned += 1;
                offset += consumed;
            }
        }

        let mut writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(&path)?);
        if writer.get_ref().metadata()?.len() == 0 {
            writer.write_all(SEGMENT_MAGIC)?;
            writer.flush()?;
        }
        Ok(Self {
            path,
            arena,
            scanned,
            torn,
            writer,
            scratch: Vec::with_capacity(512),
        })
    }

    /// Raw records in the segment file, duplicates included — what the
    /// opening scan saw plus every append since.  Compaction uses the gap
    /// between this and [`len`](StoreBase::len) to report dropped
    /// duplicates.
    pub fn segment_records(&self) -> usize {
        self.scanned
    }

    /// The segment file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many torn/corrupt trailing records the opening scan truncated
    /// away (0 on a clean file; at most 1 per open in practice).
    pub fn torn_records(&self) -> usize {
        self.torn
    }

    /// Iterates over every held record, in insertion order: the legacy
    /// JSONL records, then the segment file's, then appends.
    pub fn records(&self) -> impl Iterator<Item = &PointRecord> {
        self.arena.iter()
    }

    /// Writes `records` as a fresh segment file at `path` (truncating any
    /// existing file) and returns how many were written.  This is the
    /// rewrite primitive `compact` builds on: over fixed-header records,
    /// compaction is a copy, not a parse.
    ///
    /// # Errors
    ///
    /// Returns [`JsonlError::Io`] on any file error.
    pub fn write_records<'a>(
        path: impl AsRef<Path>,
        records: impl IntoIterator<Item = &'a PointRecord>,
    ) -> Result<usize, JsonlError> {
        let mut writer = BufWriter::new(File::create(path.as_ref())?);
        writer.write_all(SEGMENT_MAGIC)?;
        let mut scratch = Vec::with_capacity(512);
        let mut written = 0;
        for record in records {
            append_record(&mut writer, &mut scratch, record)?;
            written += 1;
        }
        writer.flush()?;
        Ok(written)
    }
}

/// Decodes the record at the head of `bytes`; `None` means torn/corrupt.
fn scan_record(bytes: &[u8]) -> Option<(PointRecord, usize)> {
    let header = bytes.get(..12)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    if len > MAX_SEGMENT_RECORD_LEN {
        return None;
    }
    let key = u64::from_le_bytes(header[4..12].try_into().ok()?);
    let payload = bytes.get(12..12 + len)?;
    let record: PointRecord = from_bytes(payload).ok()?;
    if record.key != key {
        return None;
    }
    Some((record, 12 + len))
}

/// Appends one `[len][key][payload]` record through `writer`, using
/// `scratch` for the payload encoding (no flush — callers own the flush
/// policy).
fn append_record(
    writer: &mut impl Write,
    scratch: &mut Vec<u8>,
    record: &PointRecord,
) -> Result<(), JsonlError> {
    scratch.clear();
    write_bytes(scratch, record).map_err(|err| JsonlError::Parse {
        line: 0,
        message: format!("record does not encode: {err}"),
    })?;
    let len = u32::try_from(scratch.len()).map_err(|_| JsonlError::Parse {
        line: 0,
        message: format!(
            "record payload of {} bytes overflows the header",
            scratch.len()
        ),
    })?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&record.key.to_le_bytes())?;
    writer.write_all(scratch)?;
    Ok(())
}

impl StoreBase for SegmentStore {
    type Error = JsonlError;

    fn contains(&self, key: u64) -> Result<bool, JsonlError> {
        Ok(self.arena.contains_key(key))
    }

    fn len(&self) -> Result<usize, JsonlError> {
        Ok(self.arena.len())
    }
}

impl ResultStore for SegmentStore {
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, JsonlError> {
        Ok(self.arena.get(key, canonical).cloned())
    }

    fn put(&mut self, record: &PointRecord) -> Result<bool, JsonlError> {
        if self.arena.get(record.key, &record.canonical).is_some() {
            return Ok(false);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = append_record(&mut self.writer, &mut scratch, record);
        self.scratch = scratch;
        outcome?;
        self.writer.flush()?;
        self.arena.insert(record.clone());
        self.scanned += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::to_bytes;

    fn sample_record(key: u64) -> PointRecord {
        PointRecord {
            key,
            canonical: format!("kernel=fir;algo=CPA-RA;budget={key};latency=2;device=XCV1000"),
            kernel: "fir".to_owned(),
            algorithm: "CPA-RA".to_owned(),
            version: "v3".to_owned(),
            budget: key,
            ram_latency: 2,
            device: "XCV1000-BG560".to_owned(),
            feasible: true,
            fits: true,
            registers_used: 32,
            total_cycles: 123_456,
            compute_cycles: 100_000,
            memory_cycles: 20_000,
            transfer_cycles: 3_456,
            clock_period_ns: 10.573,
            execution_time_us: 1_305.312_048,
            slices: 471,
            block_rams: 3,
            distribution: "a:30 b:1 \"c\":1".to_owned(),
        }
    }

    fn scratch_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srra-segment-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.seg")
    }

    #[test]
    fn segment_store_persists_across_reopen() {
        let path = scratch_path("reopen");
        let _ = std::fs::remove_file(&path);
        let first = sample_record(1);
        let second = sample_record(2);
        {
            let mut store = SegmentStore::open(&path).unwrap();
            assert!(store.is_empty().unwrap());
            assert!(store.put(&first).unwrap());
            assert!(store.put(&second).unwrap());
            assert!(!store.put(&second).unwrap(), "dedupe by canonical");
        }
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 2);
        assert_eq!(store.torn_records(), 0);
        assert_eq!(store.get(1, &first.canonical).unwrap(), Some(first));
        assert_eq!(store.get(2, &second.canonical).unwrap(), Some(second));
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], SEGMENT_MAGIC);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted_not_a_panic() {
        // A crash can stop the file at any byte: inside the magic, inside a
        // record header or payload, or on a record boundary.
        let path = scratch_path("torn");
        let _ = std::fs::remove_file(&path);
        let records = [sample_record(1), sample_record(2), sample_record(3)];
        SegmentStore::write_records(&path, records.iter()).unwrap();
        let full = std::fs::read(&path).unwrap();
        let mut boundaries = vec![SEGMENT_MAGIC.len()];
        for record in &records {
            let end = boundaries.last().unwrap() + 12 + to_bytes(record).unwrap().len();
            boundaries.push(end);
        }
        assert_eq!(*boundaries.last().unwrap(), full.len());
        for cut in 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let complete = boundaries[1..].iter().filter(|&&end| end <= cut).count();
            {
                let mut store = SegmentStore::open(&path).expect("opens despite the cut");
                assert_eq!(store.len().unwrap(), complete, "cut {cut}");
                let torn = usize::from(!boundaries.contains(&cut));
                assert_eq!(store.torn_records(), torn, "cut {cut}");
                // The tail was truncated, so a fresh append lands cleanly.
                assert!(store.put(&sample_record(9)).unwrap(), "cut {cut}");
            }
            let store = SegmentStore::open(&path).unwrap();
            assert_eq!(store.len().unwrap(), complete + 1, "cut {cut}");
            assert_eq!(store.torn_records(), 0, "cut {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_key_mismatch_is_treated_as_corruption() {
        let path = scratch_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SegmentStore::open(&path).unwrap();
            assert!(store.put(&sample_record(1)).unwrap());
        }
        // Append a record whose header key disagrees with its payload.
        let bad = sample_record(9);
        let payload = to_bytes(&bad).unwrap();
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&(payload.len() as u32).to_le_bytes())
                .unwrap();
            file.write_all(&777u64.to_le_bytes()).unwrap();
            file.write_all(&payload).unwrap();
        }
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 1, "mismatched record dropped");
        assert_eq!(store.torn_records(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_segment_file_is_rejected_with_a_parse_error() {
        let path = scratch_path("badmagic");
        std::fs::write(&path, b"{\"key\":\"0x1\"}\n").unwrap();
        match SegmentStore::open(&path) {
            Err(JsonlError::Parse { line: 0, .. }) => {}
            other => panic!("expected bad-magic error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_jsonl_records_are_visible_and_appends_go_binary() {
        let path = scratch_path("legacy");
        let legacy = path.with_extension("jsonl");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&legacy);
        let old = sample_record(1);
        std::fs::write(&legacy, format!("{}\n", old.to_json_line())).unwrap();
        {
            let mut store = SegmentStore::open_with_legacy(&path, Some(&legacy)).unwrap();
            assert_eq!(store.len().unwrap(), 1, "legacy record visible");
            assert_eq!(store.get(1, &old.canonical).unwrap(), Some(old.clone()));
            assert!(!store.put(&old).unwrap(), "legacy record dedupes appends");
            assert!(store.put(&sample_record(2)).unwrap());
        }
        // The legacy file was not rewritten; the new record went to the
        // segment file.
        assert_eq!(std::fs::read_to_string(&legacy).unwrap().lines().count(), 1);
        let store = SegmentStore::open_with_legacy(&path, Some(&legacy)).unwrap();
        assert_eq!(store.len().unwrap(), 2);
        // Without the legacy file only the binary append remains.
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 1);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&legacy).unwrap();
    }

    #[test]
    fn write_records_builds_a_clean_segment_file() {
        let path = scratch_path("rewrite");
        let records = [sample_record(1), sample_record(2), sample_record(3)];
        let written = SegmentStore::write_records(&path, records.iter()).unwrap();
        assert_eq!(written, 3);
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 3);
        assert_eq!(store.torn_records(), 0);
        for record in &records {
            assert_eq!(
                store.get(record.key, &record.canonical).unwrap().as_ref(),
                Some(record)
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
