//! Content-addressed result stores: an in-memory map and a persistent
//! JSON-lines backend.
//!
//! The layering follows the `StorageBase` / `Storage` split common in embedded
//! storage APIs: [`StoreBase`] carries the error type and the cheap queries,
//! [`ResultStore`] adds typed get/put.  Records are keyed by the FNV-1a hash of
//! the design point's canonical string.  Every store keeps its records in one
//! arena, in insertion order, with a map from each key to its first record's
//! position and a side list for later records whose key collides with a
//! different canonical string.  Lookups match on the canonical string, so a
//! (vanishingly unlikely) hash collision stores both colliding records instead
//! of silently dropping — and forever re-evaluating — the second one.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::codec::{from_json, to_json, write_json};

/// The persisted outcome of evaluating one design point.
///
/// `feasible` is `false` when the allocator rejected the point (register budget
/// below the kernel's reference count); all metric fields are zero in that
/// case.  `fits` records whether the design's slice and BlockRAM usage fits the
/// evaluated device.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// FNV-1a hash of `canonical` — the store key.
    pub key: u64,
    /// The canonical design-point string (see `DesignPoint::canonical`).
    pub canonical: String,
    /// Kernel name.
    pub kernel: String,
    /// Algorithm label (`FR-RA`, `PR-RA`, `CPA-RA`, ...).
    pub algorithm: String,
    /// Table 1 version name (`v1`, `v2`, `v3`, ...).
    pub version: String,
    /// Register budget the point was evaluated with.
    pub budget: u64,
    /// RAM access latency in cycles.
    pub ram_latency: u64,
    /// Device name.
    pub device: String,
    /// Whether the allocator accepted the point.
    pub feasible: bool,
    /// Whether the design fits on the device.
    pub fits: bool,
    /// Registers consumed by the allocation.
    pub registers_used: u64,
    /// Total execution cycles.
    pub total_cycles: u64,
    /// Datapath / loop-control cycles.
    pub compute_cycles: u64,
    /// Steady-state RAM access cycles (at `ram_latency`).
    pub memory_cycles: u64,
    /// Prologue/epilogue transfer cycles.
    pub transfer_cycles: u64,
    /// Achievable clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Wall-clock execution time in microseconds.
    pub execution_time_us: f64,
    /// Logic slices occupied.
    pub slices: u64,
    /// BlockRAMs occupied.
    pub block_rams: u64,
    /// Per-reference register distribution.
    pub distribution: String,
}

impl PointRecord {
    /// Encodes the record as one line of JSON (no trailing newline).
    ///
    /// The field list is the record's [`Wire`](crate::codec::Wire) impl, fixed-order, so
    /// identical records encode to identical bytes.
    pub fn to_json_line(&self) -> String {
        to_json(self)
    }

    /// Appends the record's JSON line (no trailing newline) to `out` —
    /// the allocation-free twin of [`PointRecord::to_json_line`] for callers
    /// embedding records into a reused buffer.
    pub fn write_json_line(&self, out: &mut String) {
        write_json(out, self);
    }

    /// Decodes a record from one JSON line produced by
    /// [`PointRecord::to_json_line`]; anything after the record's closing
    /// brace but whitespace is an error.  Numbers are read from their source
    /// text, so the f64 fields decode bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem or missing field.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        from_json(line)
    }
}

/// Base layer of the store stack: the error type and cheap queries.
pub trait StoreBase {
    /// Errors the backend can produce.
    type Error: std::fmt::Debug;

    /// Whether a record for `key` exists.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn contains(&self, key: u64) -> Result<bool, Self::Error>;

    /// Number of records held.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn len(&self) -> Result<usize, Self::Error>;

    /// Whether the store holds no records.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn is_empty(&self) -> Result<bool, Self::Error> {
        Ok(self.len()? == 0)
    }
}

/// Typed layer: content-addressed get/put of [`PointRecord`]s.
pub trait ResultStore: StoreBase {
    /// Looks up the record for `key`, verifying `canonical` to rule out hash
    /// collisions.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, Self::Error>;

    /// Inserts a record; returns `false` if a record with the same canonical
    /// string was already present (the stored record wins — results are
    /// immutable).  A record whose key collides with a *different* canonical
    /// string is stored alongside the existing one, not dropped.
    ///
    /// The record is readable through [`get`](Self::get) at once.  A
    /// persistent store may leave it in a write buffer (the segment store
    /// does): it then reaches the file at the next [`flush`](Self::flush),
    /// when the buffer fills, or when the store is dropped.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn put(&mut self, record: &PointRecord) -> Result<bool, Self::Error>;

    /// Writes every record put since the last flush to the store's file.  A
    /// failed flush keeps the unwritten bytes, so the next flush retries
    /// them.  The default does nothing, for a store with no file
    /// ([`MemoryStore`]) or whose puts write through ([`JsonlStore`]).
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn flush(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The owned-record arena behind every store: records in insertion order,
/// a map from each key to the position of its first record, and a side list
/// of the positions of later records whose key collides with an earlier
/// record's different canonical string (almost always empty).
#[derive(Debug, Default)]
pub(crate) struct RecordArena {
    records: Vec<PointRecord>,
    positions: HashMap<u64, usize>,
    collisions: Vec<usize>,
}

impl RecordArena {
    /// The record stored under `key` with this canonical string: the key's
    /// first record, else one on the side list.
    pub(crate) fn get(&self, key: u64, canonical: &str) -> Option<&PointRecord> {
        let first = *self.positions.get(&key)?;
        std::iter::once(first)
            .chain(self.collisions.iter().copied())
            .map(|position| &self.records[position])
            .find(|record| record.key == key && record.canonical == canonical)
    }

    /// Appends `record` unless its canonical string is already stored (the
    /// stored record wins); returns whether it was appended.
    pub(crate) fn insert(&mut self, record: PointRecord) -> bool {
        if self.get(record.key, &record.canonical).is_some() {
            return false;
        }
        let position = self.records.len();
        if *self.positions.entry(record.key).or_insert(position) != position {
            self.collisions.push(position);
        }
        self.records.push(record);
        true
    }

    /// Whether any record is stored under `key`.
    pub(crate) fn contains_key(&self, key: u64) -> bool {
        self.positions.contains_key(&key)
    }

    /// Number of records held.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Every record, in insertion order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, PointRecord> {
        self.records.iter()
    }
}

/// A purely in-memory store.
#[derive(Debug, Default)]
pub struct MemoryStore {
    arena: RecordArena,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over every held record, in insertion order.
    pub fn records(&self) -> impl Iterator<Item = &PointRecord> {
        self.arena.iter()
    }
}

impl StoreBase for MemoryStore {
    type Error = Infallible;

    fn contains(&self, key: u64) -> Result<bool, Infallible> {
        Ok(self.arena.contains_key(key))
    }

    fn len(&self) -> Result<usize, Infallible> {
        Ok(self.arena.len())
    }
}

impl ResultStore for MemoryStore {
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, Infallible> {
        Ok(self.arena.get(key, canonical).cloned())
    }

    fn put(&mut self, record: &PointRecord) -> Result<bool, Infallible> {
        Ok(self.arena.insert(record.clone()))
    }
}

/// Errors of the [`JsonlStore`] backend.
#[derive(Debug)]
pub enum JsonlError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A line of the store file is not a valid record.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(err) => write!(f, "cache I/O error: {err}"),
            JsonlError::Parse { line, message } => {
                write!(f, "cache parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for JsonlError {}

impl From<std::io::Error> for JsonlError {
    fn from(err: std::io::Error) -> Self {
        JsonlError::Io(err)
    }
}

/// A persistent store: one JSON record per line, append-only.
///
/// On open, any existing file is loaded into an in-memory index; `put` appends
/// a line and flushes, so a crashed run loses at most the record being written
/// and concurrent readers always see complete lines.
#[derive(Debug)]
pub struct JsonlStore {
    path: PathBuf,
    arena: RecordArena,
    writer: BufWriter<File>,
}

impl JsonlStore {
    /// Opens (creating if needed) the store at `path`.
    ///
    /// A complete `put` always ends its line with `\n`, so a final line
    /// without one is the half-written record of a killed run: it is dropped
    /// and truncated away, keeping the crash-safety promise above.  A
    /// malformed line *with* a terminator is genuine corruption and an error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonlError::Io`] if the file cannot be read or created and
    /// [`JsonlError::Parse`] if a newline-terminated line is corrupt.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JsonlError> {
        let path = path.as_ref().to_path_buf();
        let mut arena = RecordArena::default();
        let mut terminate_valid_tail = false;
        if path.exists() {
            let data = std::fs::read_to_string(&path)?;
            let mut offset = 0;
            let mut number = 0;
            let mut truncate_at: Option<u64> = None;
            while offset < data.len() {
                let rest = &data[offset..];
                let (line, consumed, terminated) = match rest.find('\n') {
                    Some(pos) => (&rest[..pos], pos + 1, true),
                    None => (rest, rest.len(), false),
                };
                number += 1;
                if !line.trim().is_empty() {
                    match PointRecord::from_json_line(line) {
                        Ok(record) => {
                            // Duplicate lines (e.g. a merged file) keep the
                            // first occurrence; distinct canonicals sharing a
                            // key are all kept.
                            arena.insert(record);
                            // A parseable but unterminated tail stays; the
                            // writer adds the missing newline before appending.
                            terminate_valid_tail = !terminated;
                        }
                        Err(_) if !terminated => {
                            truncate_at = Some(offset as u64);
                        }
                        Err(message) => {
                            return Err(JsonlError::Parse {
                                line: number,
                                message,
                            });
                        }
                    }
                }
                offset += consumed;
            }
            if let Some(len) = truncate_at {
                OpenOptions::new().write(true).open(&path)?.set_len(len)?;
            }
        }
        let mut writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(&path)?);
        if terminate_valid_tail {
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        Ok(Self {
            path,
            arena,
            writer,
        })
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Iterates over every held record, in insertion order: file order,
    /// then appends.
    pub fn records(&self) -> impl Iterator<Item = &PointRecord> {
        self.arena.iter()
    }

    /// The store's records, moved out for a caller that folds them into its
    /// own arena.
    pub(crate) fn into_arena(self) -> RecordArena {
        self.arena
    }
}

impl StoreBase for JsonlStore {
    type Error = JsonlError;

    fn contains(&self, key: u64) -> Result<bool, JsonlError> {
        Ok(self.arena.contains_key(key))
    }

    fn len(&self) -> Result<usize, JsonlError> {
        Ok(self.arena.len())
    }
}

impl ResultStore for JsonlStore {
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, JsonlError> {
        Ok(self.arena.get(key, canonical).cloned())
    }

    fn put(&mut self, record: &PointRecord) -> Result<bool, JsonlError> {
        if self.arena.get(record.key, &record.canonical).is_some() {
            return Ok(false);
        }
        let mut line = record.to_json_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.arena.insert(record.clone());
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentStore;

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

    #[test]
    fn json_round_trip_is_exact() {
        let record = sample_record(42);
        let line = record.to_json_line();
        let back = PointRecord::from_json_line(&line).expect("parses");
        assert_eq!(back, record);
        // Re-encoding is byte-identical.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PointRecord::from_json_line("").is_err());
        assert!(PointRecord::from_json_line("{}").is_err());
        assert!(PointRecord::from_json_line("not json").is_err());
        assert!(PointRecord::from_json_line("{\"key\":\"0x1\"").is_err());
        // Bytes after the record are not silently dropped: two records glued
        // onto one line would otherwise lose the second.
        let line = sample_record(1).to_json_line();
        assert!(PointRecord::from_json_line(&format!("{line} garbage")).is_err());
        assert!(PointRecord::from_json_line(&format!("{line}}}{{\"x\":1}}")).is_err());
    }

    #[test]
    fn memory_store_is_content_addressed() {
        let mut store = MemoryStore::new();
        let record = sample_record(7);
        assert!(!store.contains(7).unwrap());
        assert!(store.put(&record).unwrap());
        assert!(!store.put(&record).unwrap(), "second put is a no-op");
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(
            store.get(7, &record.canonical).unwrap(),
            Some(record.clone())
        );
        // A colliding key with a different canonical string is a miss.
        assert_eq!(store.get(7, "other").unwrap(), None);
    }

    #[test]
    fn colliding_keys_store_both_records_instead_of_dropping_one() {
        // Two *distinct* design points whose canonical strings FNV-hash to the
        // same 64-bit key.  A store keyed only by the hash would return
        // Ok(false) for the second `put` without storing anything, so the
        // point would be re-evaluated on every run.
        let first = sample_record(7);
        let mut second = sample_record(7);
        second.canonical = "kernel=mat;algo=FR-RA;budget=9;latency=1;device=XCV300".to_owned();
        second.total_cycles = 999;

        let mut memory = MemoryStore::new();
        assert!(memory.put(&first).unwrap());
        assert!(
            memory.put(&second).unwrap(),
            "a colliding key must not silently drop the record"
        );
        assert!(!memory.put(&second).unwrap(), "identical canonical dedupes");
        assert_eq!(memory.len().unwrap(), 2);
        assert_eq!(
            memory.get(7, &first.canonical).unwrap(),
            Some(first.clone())
        );
        assert_eq!(
            memory.get(7, &second.canonical).unwrap(),
            Some(second.clone())
        );
        assert_eq!(memory.records().count(), 2);

        // Same contract for the persistent backend, across a reopen.
        let dir = std::env::temp_dir().join(format!("srra-store-collide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = JsonlStore::open(&path).unwrap();
            assert!(store.put(&first).unwrap());
            assert!(store.put(&second).unwrap());
            assert!(!store.put(&second).unwrap());
        }
        let store = JsonlStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 2);
        assert_eq!(store.get(7, &first.canonical).unwrap(), Some(first.clone()));
        assert_eq!(
            store.get(7, &second.canonical).unwrap(),
            Some(second.clone())
        );

        // And for the segment backend: across a reopen, and through the
        // legacy-JSONL fallback (the file written above).
        let segment = dir.join("shard.seg");
        let _ = std::fs::remove_file(&segment);
        {
            let mut store = SegmentStore::open(&segment).unwrap();
            assert!(store.put(&first).unwrap());
            assert!(store.put(&second).unwrap());
            assert!(!store.put(&second).unwrap());
        }
        let legacy_only = dir.join("legacy.seg");
        let _ = std::fs::remove_file(&legacy_only);
        for mut store in [
            SegmentStore::open(&segment).unwrap(),
            SegmentStore::open_with_legacy(&legacy_only, Some(&path)).unwrap(),
        ] {
            assert_eq!(store.len().unwrap(), 2);
            assert_eq!(store.get(7, &first.canonical).unwrap(), Some(first.clone()));
            assert_eq!(
                store.get(7, &second.canonical).unwrap(),
                Some(second.clone())
            );
            assert!(!store.put(&first).unwrap(), "each still dedupes");
            assert!(!store.put(&second).unwrap(), "each still dedupes");
        }
        assert_eq!(SegmentStore::open(&legacy_only).unwrap().len().unwrap(), 0);
        for file in [&path, &segment, &legacy_only] {
            std::fs::remove_file(file).unwrap();
        }
    }

    #[test]
    fn records_iterate_in_insertion_order() {
        fn canonicals<'a>(records: impl IntoIterator<Item = &'a PointRecord>) -> Vec<&'a str> {
            records
                .into_iter()
                .map(|record| record.canonical.as_str())
                .collect()
        }
        let records: Vec<PointRecord> = [5, 3, 9, 1].into_iter().map(sample_record).collect();
        let expected = canonicals(&records);

        let mut memory = MemoryStore::new();
        for record in &records {
            memory.put(record).unwrap();
        }
        assert!(!memory.put(&records[0]).unwrap());
        assert_eq!(canonicals(memory.records()), expected);

        // A persistent store iterates legacy JSONL records, then the segment
        // file's, then appends.
        let dir = std::env::temp_dir().join(format!("srra-store-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let legacy = dir.join("cache.jsonl");
        let segment = dir.join("shard.seg");
        let _ = std::fs::remove_file(&legacy);
        let _ = std::fs::remove_file(&segment);
        {
            let mut store = JsonlStore::open(&legacy).unwrap();
            store.put(&records[0]).unwrap();
            store.put(&records[1]).unwrap();
            assert_eq!(canonicals(store.records()), expected[..2]);
        }
        SegmentStore::write_records(&segment, &records[2..3]).unwrap();
        let mut store = SegmentStore::open_with_legacy(&segment, Some(&legacy)).unwrap();
        store.put(&records[3]).unwrap();
        assert_eq!(canonicals(store.records()), expected);
        std::fs::remove_file(&legacy).unwrap();
        std::fs::remove_file(&segment).unwrap();
    }

    #[test]
    fn jsonl_store_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("srra-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let _ = std::fs::remove_file(&path);

        let first = sample_record(1);
        let second = sample_record(2);
        {
            let mut store = JsonlStore::open(&path).unwrap();
            assert!(store.is_empty().unwrap());
            assert!(store.put(&first).unwrap());
            assert!(store.put(&second).unwrap());
        }
        {
            let mut store = JsonlStore::open(&path).unwrap();
            assert_eq!(store.len().unwrap(), 2);
            assert_eq!(store.get(1, &first.canonical).unwrap(), Some(first.clone()));
            assert!(!store.put(&second).unwrap(), "reloaded keys dedupe puts");
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2, "no duplicate lines written");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_dropped_and_the_cache_stays_usable() {
        let dir = std::env::temp_dir().join(format!("srra-store-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let full = sample_record(1);
        let half = sample_record(2).to_json_line();
        // Simulate a killed run: a complete record plus half of the next one,
        // with no trailing newline.
        std::fs::write(
            &path,
            format!("{}\n{}", full.to_json_line(), &half[..half.len() / 2]),
        )
        .unwrap();
        {
            let mut store = JsonlStore::open(&path).expect("opens despite the torn tail");
            assert_eq!(store.len().unwrap(), 1);
            assert!(store.put(&sample_record(3)).unwrap());
        }
        // The torn tail was truncated away, so the appended record parses on
        // reopen and nothing was lost but the half-written line.
        let store = JsonlStore::open(&path).expect("reopens cleanly");
        assert_eq!(store.len().unwrap(), 2);
        assert!(store.contains(1).unwrap());
        assert!(store.contains(3).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn valid_unterminated_tail_is_kept_and_newline_repaired() {
        let dir = std::env::temp_dir().join(format!("srra-store-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        // A complete record whose newline never made it to disk.
        std::fs::write(&path, sample_record(1).to_json_line()).unwrap();
        {
            let mut store = JsonlStore::open(&path).expect("opens");
            assert_eq!(store.len().unwrap(), 1);
            assert!(store.put(&sample_record(2)).unwrap());
        }
        let store = JsonlStore::open(&path).expect("reopens");
        assert_eq!(
            store.len().unwrap(),
            2,
            "records did not merge into one line"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_cache_lines_are_reported_with_line_numbers() {
        let dir = std::env::temp_dir().join(format!("srra-store-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        std::fs::write(
            &path,
            format!("{}\nnot json\n", sample_record(1).to_json_line()),
        )
        .unwrap();
        match JsonlStore::open(&path) {
            Err(JsonlError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
