//! A request that stores records (`explore`, `mexplore`, `put`) leaves them in
//! the shards' write buffers and flushes the store once before it replies:
//! one flush per shard its fresh records route to, none for a batch of hits,
//! and no write lock for a shard with nothing to flush or for a record that
//! a `put` finds stored.  Every record a reply names must then be in its
//! shard file, read from a copy taken while the node runs.
//!
//! The store's counters are process-global, so this binary holds only these
//! tests, and each takes one lock.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use srra_explore::{fnv1a_64, PointRecord, SegmentStore};
use srra_obs::Registry;
use srra_serve::{Connection, PointOutcome, QueryPoint, Server, ServerConfig};

const SHARDS: usize = 4;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srra-flush-batch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running 4-shard node on a fresh cache directory.
struct Node {
    dir: PathBuf,
    addr: String,
    handle: std::thread::JoinHandle<()>,
}

impl Node {
    fn start(tag: &str) -> Self {
        let dir = scratch_dir(tag);
        let config = ServerConfig {
            shards: SHARDS,
            ..ServerConfig::ephemeral(&dir)
        };
        let server = Server::bind(&config).expect("server binds");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || {
            server.run().expect("server runs");
        });
        Self { dir, addr, handle }
    }

    /// The records in the node's shard files, by canonical string, as JSON
    /// lines: read from copies taken while the node runs, each of which must
    /// open without a torn record.
    fn on_disk(&self) -> HashMap<String, String> {
        let copies = self.dir.with_extension("copies");
        let _ = std::fs::remove_dir_all(&copies);
        std::fs::create_dir_all(&copies).expect("copy dir");
        let mut records = HashMap::new();
        for index in 0..SHARDS {
            let name = format!("shard-{index:03}.seg");
            std::fs::copy(self.dir.join(&name), copies.join(&name)).expect("shard file copies");
            let shard = SegmentStore::open(copies.join(&name)).expect("the copy opens");
            assert_eq!(shard.torn_records(), 0, "{name}");
            for record in shard.records() {
                records.insert(record.canonical.clone(), record.to_json_line());
            }
        }
        std::fs::remove_dir_all(&copies).expect("copy cleanup");
        records
    }

    /// Requires every record in `named` to be in the shard files, byte for
    /// byte.
    fn assert_on_disk(&self, named: &[PointRecord]) {
        let disk = self.on_disk();
        for record in named {
            assert_eq!(
                disk.get(&record.canonical),
                Some(&record.to_json_line()),
                "{} is not in its shard file",
                record.canonical
            );
        }
    }

    fn stop(self, mut connection: Connection) {
        connection.shutdown().expect("shutdown");
        self.handle.join().expect("server thread");
        std::fs::remove_dir_all(&self.dir).expect("cleanup");
    }
}

/// Shard flushes, appended records and shard write-lock acquisitions so
/// far, process-wide.
fn store_counts() -> [u64; 3] {
    let registry = Registry::global();
    [
        registry.counter("store_shard_flushes_total").get(),
        registry.counter("store_shard_writes_total").get(),
        registry.histogram("store_shard_write_wait_us").count(),
    ]
}

fn delta(before: [u64; 3]) -> [u64; 3] {
    let after = store_counts();
    [0, 1, 2].map(|i| after[i] - before[i])
}

/// How many distinct shards `records` route to.
fn shards_of(records: &[PointRecord]) -> u64 {
    let shards: HashSet<u64> = records
        .iter()
        .map(|record| record.key % SHARDS as u64)
        .collect();
    shards.len() as u64
}

/// 512 distinct points: four kernels × four allocators × four budgets ×
/// four RAM latencies × both devices.
fn fresh_points() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat", "pat", "bic"] {
        for algorithm in ["fr", "pr", "cpa", "ks"] {
            for budget in [8, 16, 32, 64] {
                for ram_latency in [1, 2, 4, 8] {
                    for device in ["xcv1000", "xcv300"] {
                        points.push(QueryPoint {
                            ram_latency,
                            device: device.to_owned(),
                            ..QueryPoint::new(kernel, algorithm, budget)
                        });
                    }
                }
            }
        }
    }
    points
}

#[test]
fn a_binary_mexplore_flushes_each_shard_it_wrote_once_and_a_batch_of_hits_none() {
    let _serial = serial();
    let node = Node::start("mexplore");
    let mut connection = Connection::connect_binary(&node.addr).expect("connects");
    let points = fresh_points();
    assert_eq!(points.len(), 512);

    let before = store_counts();
    let reply = connection.mexplore(&points).expect("mexplore");
    let counted = delta(before);
    assert_eq!((reply.hits, reply.evaluated), (0, 512));
    let records: Vec<PointRecord> = reply
        .outcomes
        .into_iter()
        .map(|outcome| match outcome {
            PointOutcome::Answered { record, hit } => {
                assert!(!hit, "{}", record.canonical);
                record
            }
            PointOutcome::Failed { error } => panic!("a point failed: {error}"),
        })
        .collect();
    let shards = shards_of(&records);
    assert_eq!(counted, [shards, 512, 512 + shards]);
    node.assert_on_disk(&records);

    // The same batch again: every point is a hit, so nothing is appended, no
    // shard is flushed and no write lock is taken.
    let before = store_counts();
    let again = connection.mexplore(&points).expect("mexplore again");
    assert_eq!((again.hits, again.evaluated), (512, 0));
    assert_eq!(delta(before), [0, 0, 0]);
    node.stop(connection);
}

#[test]
fn a_json_explore_flushes_the_shards_of_its_fresh_records() {
    let _serial = serial();
    let node = Node::start("explore");
    let mut connection = Connection::connect(&node.addr).expect("connects");
    let points: Vec<QueryPoint> = [8, 16, 32]
        .into_iter()
        .map(|budget| QueryPoint::new("imi", "cpa", budget))
        .collect();

    let before = store_counts();
    let reply = connection.explore(&points).expect("explore");
    let counted = delta(before);
    assert_eq!((reply.hits, reply.evaluated), (0, 3));
    let shards = shards_of(&reply.records);
    assert_eq!(counted, [shards, 3, 3 + shards]);
    node.assert_on_disk(&reply.records);

    let before = store_counts();
    let again = connection.explore(&points).expect("explore again");
    assert_eq!((again.hits, again.evaluated), (3, 0));
    assert_eq!(delta(before), [0, 0, 0]);
    node.stop(connection);
}

#[test]
fn a_put_of_records_for_one_shard_flushes_that_shard_once() {
    let _serial = serial();
    let node = Node::start("put");
    let mut connection = Connection::connect(&node.addr).expect("connects");
    let evaluated = connection
        .explore(&[QueryPoint::new("dec_fir", "pr", 16)])
        .expect("explore")
        .records
        .remove(0);
    // Fresh records, as a replica tee would send them, that all route to
    // one shard: renamed copies of an evaluated record.
    let records: Vec<PointRecord> = (0u64..)
        .map(|budget| {
            let canonical = format!("kernel=dec_fir;algo=PR-RA;budget={budget};copy");
            PointRecord {
                key: fnv1a_64(canonical.as_bytes()),
                canonical,
                budget,
                ..evaluated.clone()
            }
        })
        .filter(|record| record.key % SHARDS as u64 == 1)
        .take(5)
        .collect();

    let before = store_counts();
    assert_eq!(connection.put(&records).expect("put"), 5);
    assert_eq!(delta(before), [1, 5, 6]);
    node.assert_on_disk(&records);
    node.assert_on_disk(std::slice::from_ref(&evaluated));

    // Each duplicate is found stored under its shard's read lock: no write
    // lock is taken, nothing is appended, and the flush skips every shard.
    let before = store_counts();
    assert_eq!(connection.put(&records).expect("put again"), 0);
    assert_eq!(delta(before), [0, 0, 0]);
    node.stop(connection);
}
