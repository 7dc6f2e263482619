//! [`ShardedStore`]: a result store split across N binary segment shard
//! files.
//!
//! Records are routed to shard `key % N`.  Each shard is an independent
//! [`SegmentStore`] behind its own **read/write lock**: lookups hit the
//! shard's in-memory record arena under a shared read guard, so any
//! number of concurrent warm `get`s proceed in parallel without touching the
//! filesystem and without contending with each other; appends take the
//! exclusive write guard and tee the record to the shard's segment file
//! (fixed-header binary records — startup re-hydration is a sequential
//! scan, not a JSON parse).  A legacy `shard-NNN.jsonl` sibling, when
//! present, is folded into the index read-only so pre-segment cache
//! directories work unmodified; [`compact`] rewrites everything into pure
//! segment form and retires the JSONL files.  A lock file in the cache
//! directory keeps concurrent *processes* from interleaving appends.
//! [`merge_file`] folds a legacy single-file cache into the shards and
//! [`compact`] also drops duplicate disk records and re-routes records that
//! sit in the wrong shard.
//!
//! [`merge_file`]: ShardedStore::merge_file
//! [`compact`]: ShardedStore::compact

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use srra_explore::{
    fnv1a_64, JsonlError, JsonlStore, MemoryStore, PointRecord, ResultStore, SegmentStore,
    StoreBase,
};
use srra_obs::{Counter, Histogram, Registry};

use crate::protocol::ShardDigest;

/// Handles into [`Registry::global`] for the shard-level instruments,
/// resolved once so the hot read path never takes the registry's name map.
struct ShardMetrics {
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    read_wait: Arc<Histogram>,
    write_wait: Arc<Histogram>,
    /// Wall time of one full store open (all shards re-hydrated).
    rehydrate: Arc<Histogram>,
    /// Torn/corrupt trailing segment records truncated away at open.
    torn_segments: Arc<Counter>,
}

fn shard_metrics() -> &'static ShardMetrics {
    static METRICS: OnceLock<ShardMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        ShardMetrics {
            reads: registry.counter("store_shard_reads_total"),
            writes: registry.counter("store_shard_writes_total"),
            read_wait: registry.histogram("store_shard_read_wait_us"),
            write_wait: registry.histogram("store_shard_write_wait_us"),
            rehydrate: registry.histogram("store_rehydrate_us"),
            torn_segments: registry.counter("store_torn_segments_total"),
        }
    })
}

/// Errors of the sharded backend.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A shard file failed to open or parse.
    Store(JsonlError),
    /// Another process holds the cache directory's lock file.
    Locked(PathBuf),
    /// The directory already holds a different number of shard files.
    ShardCount {
        /// Shard files found on disk.
        found: usize,
        /// Shard count requested by the caller.
        requested: usize,
    },
    /// A shard count of zero was requested.
    EmptyShardCount,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(err) => write!(f, "shard I/O error: {err}"),
            ShardError::Store(err) => write!(f, "shard store error: {err}"),
            ShardError::Locked(path) => write!(
                f,
                "cache directory is locked by another process (remove `{}` if it is stale)",
                path.display()
            ),
            ShardError::ShardCount { found, requested } => write!(
                f,
                "cache directory holds {found} shard files but {requested} were requested"
            ),
            ShardError::EmptyShardCount => write!(f, "shard count must be at least 1"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(err: std::io::Error) -> Self {
        ShardError::Io(err)
    }
}

impl From<JsonlError> for ShardError {
    fn from(err: JsonlError) -> Self {
        ShardError::Store(err)
    }
}

/// An exclusive lock on a cache directory, held for the lifetime of the value.
///
/// The lock is a `LOCK` file created with `create_new` (O_EXCL) semantics and
/// removed on drop, which is portable to every platform std supports.  A
/// crashed process leaves the file behind; the [`ShardError::Locked`] message
/// tells the operator which file to remove.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<Self, ShardError> {
        let path = dir.join("LOCK");
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                // Best-effort breadcrumb for the operator; the lock works
                // whether or not the write succeeds.
                let _ = writeln!(file, "{}", std::process::id());
                Ok(Self { path })
            }
            Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(ShardError::Locked(path))
            }
            Err(err) => Err(err.into()),
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What [`ShardedStore::merge_file`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Records copied into the shards.
    pub merged: usize,
    /// Records skipped because an identical canonical was already stored.
    pub duplicates: usize,
}

/// What [`ShardedStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Records kept across all shards after the rewrite.
    pub kept: usize,
    /// Disk lines dropped (duplicate lines within or across shards).
    pub duplicates_dropped: usize,
    /// Records moved to the shard their key routes to.
    pub rerouted: usize,
}

/// A [`ResultStore`] sharded over `N` binary segment files under one cache
/// directory (legacy JSONL shard files are read transparently).
///
/// Routing is `key % N`.  All read/write methods take `&self` (each shard sits
/// behind its own `RwLock`), so one `ShardedStore` can be shared across server
/// worker threads: reads of the same shard run concurrently against the
/// in-memory index, and only appends serialise against other users of that
/// shard.  The [`ResultStore`] impl forwards to the same methods, so the store
/// also drops into [`srra_explore::Explorer::explore`] unchanged.
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    shards: Vec<RwLock<SegmentStore>>,
    _lock: DirLock,
}

/// SplitMix64-style finalizer applied to each record hash before the
/// commutative digest fold, so the fold discriminates record *sets* instead
/// of degenerating into a sum of correlated FNV values.
fn mix_digest(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Segment file name of shard `index`.
fn shard_file_name(index: usize) -> String {
    format!("shard-{index:03}.seg")
}

/// Legacy JSONL file name of shard `index` — read-side fallback only; new
/// appends always go to the segment file and `compact` retires the JSONL.
fn legacy_file_name(index: usize) -> String {
    format!("shard-{index:03}.jsonl")
}

impl ShardedStore {
    /// Opens (creating if needed) a store of `shard_count` shards under `dir`.
    ///
    /// # Errors
    ///
    /// [`ShardError::Locked`] if another process holds the directory,
    /// [`ShardError::ShardCount`] if the directory already holds a different
    /// number of shard files, [`ShardError::EmptyShardCount`] for
    /// `shard_count == 0`, and I/O / parse errors from the shard files.
    pub fn open(dir: impl AsRef<Path>, shard_count: usize) -> Result<Self, ShardError> {
        if shard_count == 0 {
            return Err(ShardError::EmptyShardCount);
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = DirLock::acquire(&dir)?;
        let existing = Self::existing_shard_files(&dir)?;
        if !existing.is_empty() && existing.len() != shard_count {
            return Err(ShardError::ShardCount {
                found: existing.len(),
                requested: shard_count,
            });
        }
        let metrics = shard_metrics();
        let rehydrate_started = Instant::now();
        let mut shards = Vec::with_capacity(shard_count);
        let mut torn = 0;
        for index in 0..shard_count {
            let store = SegmentStore::open_with_legacy(
                dir.join(shard_file_name(index)),
                Some(dir.join(legacy_file_name(index))),
            )?;
            torn += store.torn_records();
            shards.push(RwLock::new(store));
        }
        metrics.rehydrate.record(rehydrate_started.elapsed());
        if torn > 0 {
            metrics.torn_segments.add(torn as u64);
        }
        Ok(Self {
            dir,
            shards,
            _lock: lock,
        })
    }

    /// The distinct shard file stems (either extension) already present
    /// under `dir`, sorted — a shard counts as present whether it exists as
    /// a segment file, a legacy JSONL file, or both.
    fn existing_shard_files(dir: &Path) -> Result<Vec<String>, ShardError> {
        let mut stems = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(stem) = name
                .strip_suffix(".seg")
                .or_else(|| name.strip_suffix(".jsonl"))
            {
                if stem.starts_with("shard-") {
                    stems.insert(stem.to_owned());
                }
            }
        }
        Ok(stems.into_iter().collect())
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn route(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Shared read guard on the shard `key` routes to: concurrent with other
    /// readers of the same shard, excluded only by an in-flight append.
    fn shard_read(&self, key: u64) -> RwLockReadGuard<'_, SegmentStore> {
        let metrics = shard_metrics();
        let waited = Instant::now();
        let guard = self.shards[self.route(key)]
            .read()
            .expect("no shard user panics while holding the lock");
        metrics.read_wait.record(waited.elapsed());
        metrics.reads.inc();
        guard
    }

    /// Exclusive write guard on the shard `key` routes to.
    fn shard_write(&self, key: u64) -> RwLockWriteGuard<'_, SegmentStore> {
        let metrics = shard_metrics();
        let waited = Instant::now();
        let guard = self.shards[self.route(key)]
            .write()
            .expect("no shard user panics while holding the lock");
        metrics.write_wait.record(waited.elapsed());
        metrics.writes.inc();
        guard
    }

    /// Looks up the record for `key`, verifying `canonical` (shared-reference
    /// twin of [`ResultStore::get`], usable across threads).
    ///
    /// Served entirely from the shard's in-memory index under a read lock —
    /// warm lookups never touch the filesystem and never contend with other
    /// readers.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn get_record(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, ShardError> {
        Ok(self.shard_read(key).get(key, canonical)?)
    }

    /// [`Self::get_record`] plus how long the read-lock acquisition waited,
    /// for traced requests that attribute shard contention span by span.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn get_record_timed(
        &self,
        key: u64,
        canonical: &str,
    ) -> Result<(Option<PointRecord>, Duration), ShardError> {
        let waited = Instant::now();
        let guard = self.shard_read(key);
        let lock_wait = waited.elapsed();
        Ok((guard.get(key, canonical)?, lock_wait))
    }

    /// Inserts a record into its shard (shared-reference twin of
    /// [`ResultStore::put`]); returns whether the record was fresh.
    ///
    /// Takes the shard's write lock: the in-memory arena and the segment file
    /// are updated together, so a reader sees either the old state or the new
    /// record, never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn put_record(&self, record: &PointRecord) -> Result<bool, ShardError> {
        Ok(self.shard_write(record.key).put(record)?)
    }

    /// Record count per shard, in shard order.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn shard_sizes(&self) -> Result<Vec<usize>, ShardError> {
        self.shards
            .iter()
            .map(|shard| {
                Ok(shard
                    .read()
                    .expect("no shard user panics while holding the lock")
                    .len()?)
            })
            .collect()
    }

    /// Per-shard anti-entropy digests, in shard order.
    ///
    /// Each record contributes the FNV-1a hash of its JSONL line (the
    /// canonical byte encoding, identical on every node that holds the
    /// record) through a local bit-mixer into a commutative `wrapping_add`
    /// fold — so the digest is insensitive to insertion order but flips when
    /// any record's content differs.  Replicas compare these against the
    /// owner's to detect divergence without streaming records (the `digest`
    /// wire op; see `docs/cluster.md`).
    pub fn digests(&self) -> Vec<ShardDigest> {
        let mut line = String::new();
        self.shards
            .iter()
            .map(|slot| {
                let shard = slot
                    .read()
                    .expect("no shard user panics while holding the lock");
                let mut records = 0u64;
                let mut fold = 0u64;
                for record in shard.records() {
                    line.clear();
                    record.write_json_line(&mut line);
                    fold = fold.wrapping_add(mix_digest(fnv1a_64(line.as_bytes())));
                    records += 1;
                }
                ShardDigest { records, fold }
            })
            .collect()
    }

    /// One page of shard `shard`'s canonical strings: skips `offset` records,
    /// returns at most `limit` canonicals in the shard's insertion order, and
    /// whether the page reached the end of the shard (the `scan` wire op's
    /// storage half).
    ///
    /// Records put during a paged walk land after every record that was
    /// there when the walk began, so the walk returns each of those exactly
    /// once and never returns a canonical twice.
    ///
    /// # Panics
    ///
    /// If `shard >= self.shard_count()` — callers validate the index (the
    /// server answers an out-of-range shard with a protocol error).
    pub fn scan(&self, shard: usize, offset: usize, limit: usize) -> (Vec<String>, bool) {
        let guard = self.shards[shard]
            .read()
            .expect("no shard user panics while holding the lock");
        let mut records = guard.records().skip(offset);
        let canonicals = records
            .by_ref()
            .take(limit)
            .map(|record| record.canonical.clone())
            .collect();
        (canonicals, records.next().is_none())
    }

    /// Folds a legacy single-file JSONL cache into the shards.
    ///
    /// Every record of `path` is routed to its shard; records whose canonical
    /// string is already stored are skipped.  The legacy file itself is left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors from either side.
    pub fn merge_file(&self, path: impl AsRef<Path>) -> Result<MergeOutcome, ShardError> {
        let legacy = JsonlStore::open(path)?;
        let mut outcome = MergeOutcome {
            merged: 0,
            duplicates: 0,
        };
        for record in legacy.records() {
            if self.put_record(record)? {
                outcome.merged += 1;
            } else {
                outcome.duplicates += 1;
            }
        }
        Ok(outcome)
    }

    /// Rewrites every shard into pure segment form: drops duplicate disk
    /// records, moves records into the shard their key routes to, and
    /// retires legacy JSONL shard files (their records now live in the
    /// segments).
    ///
    /// A compacted shard keeps the first copy of each record, in shard
    /// order, then store order, so the same store always compacts to the
    /// same bytes.
    ///
    /// Takes `&mut self` — compaction is exclusive by construction, no reader
    /// or writer can observe a half-rewritten shard.  Each shard is written to
    /// a temporary file and atomically renamed into place.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors; on error the already-renamed shards keep
    /// their compacted contents and the rest keep their originals (every state
    /// in between is a valid store).
    pub fn compact(&mut self) -> Result<CompactOutcome, ShardError> {
        let shard_count = self.shards.len();
        // Drain: collect every record, remembering which shard held it, and
        // count raw disk records (segment records plus legacy JSONL lines)
        // to report dropped duplicates.
        let mut routed: Vec<MemoryStore> = (0..shard_count).map(|_| MemoryStore::new()).collect();
        let mut disk_records = 0;
        let mut kept = 0;
        let mut rerouted = 0;
        for (index, slot) in self.shards.iter_mut().enumerate() {
            let shard = slot.get_mut().expect("compact holds the only reference");
            disk_records += shard.segment_records();
            let legacy = self.dir.join(legacy_file_name(index));
            if legacy.exists() {
                let raw = std::fs::read_to_string(&legacy)?;
                disk_records += raw.lines().filter(|line| !line.trim().is_empty()).count();
            }
            for record in shard.records() {
                let target = (record.key % shard_count as u64) as usize;
                let Ok(fresh) = routed[target].put(record);
                if !fresh {
                    continue; // Cross-shard duplicate: keep the first copy.
                }
                if target != index {
                    rerouted += 1;
                }
                kept += 1;
            }
        }
        // Rewrite: temp file + atomic rename, retire the legacy JSONL, then
        // reopen the shard handles.
        for (index, compacted) in routed.iter().enumerate() {
            let path = self.dir.join(shard_file_name(index));
            let tmp = self.dir.join(format!("{}.tmp", shard_file_name(index)));
            SegmentStore::write_records(&tmp, compacted.records())?;
            std::fs::rename(&tmp, &path)?;
            let legacy = self.dir.join(legacy_file_name(index));
            if legacy.exists() {
                std::fs::remove_file(&legacy)?;
            }
            self.shards[index] = RwLock::new(SegmentStore::open(&path)?);
        }
        Ok(CompactOutcome {
            kept,
            duplicates_dropped: disk_records - kept,
            rerouted,
        })
    }
}

impl StoreBase for ShardedStore {
    type Error = ShardError;

    fn contains(&self, key: u64) -> Result<bool, ShardError> {
        Ok(self.shard_read(key).contains(key)?)
    }

    fn len(&self) -> Result<usize, ShardError> {
        Ok(self.shard_sizes()?.iter().sum())
    }
}

impl ResultStore for ShardedStore {
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, ShardError> {
        self.get_record(key, canonical)
    }

    fn put(&mut self, record: &PointRecord) -> Result<bool, ShardError> {
        self.put_record(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_explore::fnv1a_64;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "srra-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record_for(canonical: &str) -> PointRecord {
        PointRecord {
            key: fnv1a_64(canonical.as_bytes()),
            canonical: canonical.to_owned(),
            kernel: "fir".to_owned(),
            algorithm: "CPA-RA".to_owned(),
            version: "v3".to_owned(),
            budget: 32,
            ram_latency: 2,
            device: "XCV1000-BG560".to_owned(),
            feasible: true,
            fits: true,
            registers_used: 17,
            total_cycles: 4242,
            compute_cycles: 4000,
            memory_cycles: 200,
            transfer_cycles: 42,
            clock_period_ns: 9.5,
            execution_time_us: 40.299,
            slices: 311,
            block_rams: 2,
            distribution: "a:16 b:1".to_owned(),
        }
    }

    #[test]
    fn records_route_by_key_modulo_shard_count() {
        let dir = scratch_dir("route");
        let store = ShardedStore::open(&dir, 4).unwrap();
        let mut per_shard = vec![0usize; 4];
        for i in 0..32 {
            let record = record_for(&format!("kernel=fir;algo=CPA-RA;budget={i}"));
            assert!(store.put_record(&record).unwrap());
            per_shard[(record.key % 4) as usize] += 1;
            assert_eq!(
                store.get_record(record.key, &record.canonical).unwrap(),
                Some(record)
            );
        }
        assert_eq!(store.shard_sizes().unwrap(), per_shard);
        assert_eq!(store.len().unwrap(), 32);
        drop(store);

        // Reopen: contents persist, routing unchanged.
        let store = ShardedStore::open(&dir, 4).unwrap();
        assert_eq!(store.len().unwrap(), 32);
        assert_eq!(store.shard_sizes().unwrap(), per_shard);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_file_guards_against_concurrent_openers() {
        let dir = scratch_dir("lock");
        let store = ShardedStore::open(&dir, 2).unwrap();
        match ShardedStore::open(&dir, 2) {
            Err(ShardError::Locked(path)) => assert!(path.ends_with("LOCK")),
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(store);
        // The lock is released on drop, so a fresh open succeeds.
        let again = ShardedStore::open(&dir, 2).unwrap();
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_mismatch_is_rejected() {
        let dir = scratch_dir("count");
        drop(ShardedStore::open(&dir, 4).unwrap());
        match ShardedStore::open(&dir, 8) {
            Err(ShardError::ShardCount { found, requested }) => {
                assert_eq!((found, requested), (4, 8));
            }
            other => panic!("expected ShardCount, got {other:?}"),
        }
        assert!(matches!(
            ShardedStore::open(&dir, 0),
            Err(ShardError::EmptyShardCount)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_folds_a_legacy_single_file_cache_into_the_shards() {
        let dir = scratch_dir("merge");
        std::fs::create_dir_all(&dir).unwrap();
        let legacy_path = dir.join("legacy.jsonl");
        let records: Vec<PointRecord> = (0..10)
            .map(|i| record_for(&format!("kernel=mat;algo=FR-RA;budget={i}")))
            .collect();
        {
            let mut legacy = JsonlStore::open(&legacy_path).unwrap();
            for record in &records {
                legacy.put(record).unwrap();
            }
        }
        let store = ShardedStore::open(&dir, 3).unwrap();
        // Pre-seed two of the records so the merge reports duplicates.
        store.put_record(&records[0]).unwrap();
        store.put_record(&records[5]).unwrap();
        let outcome = store.merge_file(&legacy_path).unwrap();
        assert_eq!(
            outcome,
            MergeOutcome {
                merged: 8,
                duplicates: 2
            }
        );
        assert_eq!(store.len().unwrap(), 10);
        for record in &records {
            assert_eq!(
                store.get_record(record.key, &record.canonical).unwrap(),
                Some(record.clone())
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_drops_duplicate_lines_and_reroutes_misplaced_records() {
        let dir = scratch_dir("compact");
        std::fs::create_dir_all(&dir).unwrap();
        let a = record_for("kernel=fir;algo=CPA-RA;budget=1");
        let b = record_for("kernel=fir;algo=CPA-RA;budget=2");
        // Hand-build a dirty *legacy* directory: record `a` duplicated in
        // its own JSONL shard file, record `b` sitting in the wrong shard.
        let route = |r: &PointRecord| (r.key % 2) as usize;
        let wrong = 1 - route(&b);
        let mut shard_lines = [String::new(), String::new()];
        shard_lines[route(&a)].push_str(&format!("{}\n{}\n", a.to_json_line(), a.to_json_line()));
        shard_lines[wrong].push_str(&format!("{}\n", b.to_json_line()));
        std::fs::write(dir.join(legacy_file_name(0)), &shard_lines[0]).unwrap();
        std::fs::write(dir.join(legacy_file_name(1)), &shard_lines[1]).unwrap();

        let mut store = ShardedStore::open(&dir, 2).unwrap();
        // Before compaction lookups go through routing only, so the record
        // sitting in the wrong shard is invisible...
        assert_eq!(
            store.get_record(a.key, &a.canonical).unwrap(),
            Some(a.clone())
        );
        assert_eq!(store.get_record(b.key, &b.canonical).unwrap(), None);

        let outcome = store.compact().unwrap();
        assert_eq!(
            outcome,
            CompactOutcome {
                kept: 2,
                duplicates_dropped: 1,
                rerouted: 1
            }
        );
        // After compaction both records resolve through routing.
        assert_eq!(
            store.get_record(a.key, &a.canonical).unwrap(),
            Some(a.clone())
        );
        assert_eq!(
            store.get_record(b.key, &b.canonical).unwrap(),
            Some(b.clone())
        );
        assert_eq!(store.len().unwrap(), 2);
        // The legacy JSONL files are retired and the segments are clean:
        // raw disk records equal held records.
        drop(store);
        let mut disk_records = 0;
        for index in 0..2 {
            assert!(!dir.join(legacy_file_name(index)).exists());
            let shard = SegmentStore::open(dir.join(shard_file_name(index))).unwrap();
            assert_eq!(shard.torn_records(), 0);
            disk_records += shard.segment_records();
        }
        assert_eq!(disk_records, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digests_are_order_insensitive_and_scan_pages_canonicals() {
        let records: Vec<PointRecord> = (0..9)
            .map(|i| record_for(&format!("kernel=fir;algo=CPA-RA;budget={i}")))
            .collect();
        let dir_a = scratch_dir("digest-a");
        let dir_b = scratch_dir("digest-b");
        let store_a = ShardedStore::open(&dir_a, 2).unwrap();
        let store_b = ShardedStore::open(&dir_b, 2).unwrap();
        for record in &records {
            store_a.put_record(record).unwrap();
        }
        for record in records.iter().rev() {
            store_b.put_record(record).unwrap();
        }
        // Same record set, different insertion order: identical digests.
        assert_eq!(store_a.digests(), store_b.digests());

        // One mutated payload flips its shard's fold but not its count.
        let mut mutated = records[0].clone();
        mutated.slices += 1;
        let dir_c = scratch_dir("digest-c");
        let store_c = ShardedStore::open(&dir_c, 2).unwrap();
        store_c.put_record(&mutated).unwrap();
        for record in &records[1..] {
            store_c.put_record(record).unwrap();
        }
        let (clean, dirty) = (store_a.digests(), store_c.digests());
        let shard = store_a.route(mutated.key);
        assert_eq!(clean[shard].records, dirty[shard].records);
        assert_ne!(clean[shard].fold, dirty[shard].fold);

        // Paging walks every canonical exactly once and flags the last page.
        for shard in 0..2 {
            let mut paged = Vec::new();
            let mut offset = 0;
            loop {
                let (page, done) = store_a.scan(shard, offset, 2);
                assert!(page.len() <= 2);
                offset += page.len();
                paged.extend(page);
                if done {
                    break;
                }
            }
            assert_eq!(paged.len() as u64, store_a.digests()[shard].records);
            // An offset past the end answers an empty, done page.
            assert_eq!(store_a.scan(shard, offset + 100, 2), (Vec::new(), true));
        }

        for dir in [dir_a, dir_b, dir_c] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_paged_scan_walk_is_stable_under_puts() {
        // A repair or rebalance walk pages a live node while traffic keeps
        // putting records: every record present when the walk starts must
        // come back exactly once, and no canonical may come back twice.
        let dir = scratch_dir("scan-walk");
        let store = ShardedStore::open(&dir, 1).unwrap();
        let canonical = |i: usize| format!("kernel=fir;algo=CPA-RA;budget={i}");
        for i in 0..100 {
            store.put_record(&record_for(&canonical(i))).unwrap();
        }
        let (mut walked, done) = store.scan(0, 0, 50);
        assert!(!done);
        for i in 100..400 {
            store.put_record(&record_for(&canonical(i))).unwrap();
        }
        loop {
            let (page, done) = store.scan(0, walked.len(), 50);
            walked.extend(page);
            if done {
                break;
            }
        }
        let distinct: std::collections::HashSet<&String> = walked.iter().collect();
        assert_eq!(distinct.len(), walked.len(), "no canonical twice");
        for i in 0..100 {
            assert!(distinct.contains(&canonical(i)), "record {i} skipped");
        }
        assert_eq!(walked.len(), 400);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_writes_the_same_bytes_for_the_same_store() {
        let records: Vec<PointRecord> = (0..64)
            .map(|i| record_for(&format!("kernel=mat;algo=PR-RA;budget={i}")))
            .collect();
        let mut shard_bytes = Vec::new();
        for tag in ["compact-same-a", "compact-same-b"] {
            let dir = scratch_dir(tag);
            let mut store = ShardedStore::open(&dir, 2).unwrap();
            for record in &records {
                store.put_record(record).unwrap();
            }
            store.compact().unwrap();
            drop(store);
            let bytes: Vec<Vec<u8>> = (0..2)
                .map(|index| std::fs::read(dir.join(shard_file_name(index))).unwrap())
                .collect();
            shard_bytes.push(bytes);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(shard_bytes[0], shard_bytes[1]);
    }

    #[test]
    fn sharded_store_drives_the_explorer_unchanged() {
        use srra_explore::{DesignSpace, Explorer};
        use srra_ir::examples::paper_example;

        let dir = scratch_dir("explorer");
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[16, 64]);
        let cold = {
            let mut store = ShardedStore::open(&dir, 4).unwrap();
            Explorer::new(2).explore(&space, &mut store).unwrap()
        };
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.evaluated, space.len());
        let warm = {
            let mut store = ShardedStore::open(&dir, 4).unwrap();
            Explorer::new(2).explore(&space, &mut store).unwrap()
        };
        assert_eq!(warm.cache_hits, space.len());
        assert_eq!(warm.evaluated, 0);
        assert_eq!(warm.records, cold.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
