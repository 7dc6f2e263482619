//! The acceptance test for the serving subsystem: concurrent clients issuing
//! a mixed hit/miss workload against a live server receive records
//! byte-identical to single-threaded evaluation, every miss is evaluated
//! exactly once (guarded by the process-wide `srra_reuse::analysis_runs()`
//! counter *and* the server's `evaluated` counter), and a warm restart
//! answers everything from the shards.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use srra_core::AllocatorRegistry;
use srra_explore::{evaluate_point, DesignPoint, PointRecord};
use srra_fpga::DeviceModel;
use srra_kernels::paper_suite;
use srra_serve::{Connection, QueryPoint, Server, ServerConfig};

/// Every test here starts a server that analyses kernels, and the mixed
/// workload test counts analyses through the process-wide counter: the
/// tests take this lock so none runs while another is counting.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srra-serve-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The workload: two kernels x two algorithms x three budgets = 12 distinct
/// points, each requested by every client.
fn workload() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat"] {
        for algo in ["cpa", "fr"] {
            for budget in [16, 32, 64] {
                let mut point = QueryPoint::new(kernel, algo, budget);
                point.ram_latency = 2;
                points.push(point);
            }
        }
    }
    points
}

/// Single-threaded ground truth, computed without any server or store.
fn ground_truth(points: &[QueryPoint]) -> HashMap<String, PointRecord> {
    let kernels: HashMap<String, _> = paper_suite()
        .into_iter()
        .map(|spec| (spec.kernel.name().to_owned(), spec.compiled()))
        .collect();
    let mut truth = HashMap::new();
    for point in points {
        let allocator = AllocatorRegistry::global()
            .get(&point.algorithm)
            .expect("workload algorithms are registered");
        let design_point = DesignPoint {
            kernel_index: 0,
            kernel: point.kernel.clone(),
            allocator,
            budget: point.budget,
            ram_latency: point.ram_latency,
            device: DeviceModel::xcv1000(),
        };
        let record = evaluate_point(&kernels[&point.kernel], &design_point);
        truth.insert(record.canonical.clone(), record);
    }
    truth
}

#[test]
fn concurrent_mixed_workload_is_correct_and_evaluates_each_miss_once() {
    const CLIENTS: usize = 6;

    let _serial = serial();
    let dir = scratch_dir("mixed");
    let points = workload();
    let truth = ground_truth(&points);
    let distinct = truth.len();
    assert_eq!(distinct, 12);

    let server = Server::bind(&ServerConfig::ephemeral(dir.clone())).expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    // The ground-truth pass above already compiled its own CompiledKernels,
    // so the counter below measures only the server's analyses.
    let analyses_before = srra_reuse::analysis_runs();

    // Fan out: every client requests the full point set, half of them point
    // by point (many small requests), half as one batch — so the same misses
    // race against each other across clients and request shapes.
    let results: Vec<Vec<PointRecord>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_index in 0..CLIENTS {
            let addr = addr.clone();
            let points = points.clone();
            handles.push(scope.spawn(move || {
                let connect = || Connection::connect(&addr).expect("connects");
                if client_index % 2 == 0 {
                    let reply = connect().explore(&points).expect("batch explore");
                    reply.records
                } else {
                    points
                        .iter()
                        .map(|point| {
                            connect()
                                .explore(std::slice::from_ref(point))
                                .expect("single-point explore")
                                .records
                                .remove(0)
                        })
                        .collect()
                }
            }));
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });

    // Every client got one record per requested point, byte-identical to the
    // single-threaded ground truth (compare the rendered JSONL line so f64
    // bits count too).
    for records in &results {
        assert_eq!(records.len(), points.len());
        for record in records {
            let expected = truth
                .get(&record.canonical)
                .expect("record matches a requested point");
            assert_eq!(
                record.to_json_line(),
                expected.to_json_line(),
                "served record differs from single-threaded evaluation"
            );
        }
    }

    // Exactly-once evaluation, two independent guards: the reuse-analysis
    // counter (one analysis per kernel, no matter how many clients raced) and
    // the server's own evaluation counter (one evaluation per distinct point).
    let analyses_by_server = srra_reuse::analysis_runs() - analyses_before;
    assert_eq!(
        analyses_by_server, 2,
        "the server must analyse each of the two kernels exactly once"
    );
    let mut client = Connection::connect(&addr).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.evaluated, distinct as u64,
        "each distinct miss is evaluated exactly once across all clients"
    );
    assert_eq!(
        stats.hits,
        (CLIENTS * points.len()) as u64 - stats.evaluated,
        "every other lookup is answered from the shards"
    );
    assert_eq!(stats.records(), distinct);
    assert_eq!(stats.shard_records.len(), 4);

    client.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert_eq!(report.stats.evaluated, distinct as u64);

    // The shards are non-empty on disk (binary segment files, scanned
    // record by record) and a *fresh* server over the same directory
    // answers the whole workload without a single evaluation.
    let on_disk: usize = (0..4)
        .map(|index| {
            let path = dir.join(format!("shard-{index:03}.seg"));
            let shard = srra_explore::SegmentStore::open(&path).expect("segment shard opens");
            assert_eq!(shard.torn_records(), 0);
            shard.segment_records()
        })
        .sum();
    assert_eq!(on_disk, distinct, "all evaluated records persisted");

    let warm = Server::bind(&ServerConfig {
        workers: 2,
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("warm server binds");
    let warm_addr = warm.local_addr().to_string();
    let warm_handle = std::thread::spawn(move || warm.run().expect("warm server runs"));
    let mut warm_client = Connection::connect(&warm_addr).expect("connects");
    let reply = warm_client.explore(&points).expect("warm explore");
    assert_eq!(reply.evaluated, 0, "warm shards answer everything");
    assert_eq!(reply.hits, points.len() as u64);
    for record in &reply.records {
        assert_eq!(
            record.to_json_line(),
            truth[&record.canonical].to_json_line()
        );
    }
    warm_client.shutdown().expect("warm shutdown");
    warm_handle.join().expect("warm server thread");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn get_round_trip_and_error_paths_over_the_wire() {
    let _serial = serial();
    let dir = scratch_dir("get");
    let server = Server::bind(&ServerConfig::ephemeral(&dir)).expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));
    let mut client = Connection::connect(&addr).expect("connects");

    let point = QueryPoint::new("fir", "cpa", 32);
    let canonical = srra_serve::canonical_for(&point).unwrap();

    // Miss before, hit after, byte-identical record through `get`.
    assert_eq!(client.get(&canonical).expect("get"), None);
    let reply = client
        .explore(std::slice::from_ref(&point))
        .expect("explore");
    let served = client
        .get(&canonical)
        .expect("get after explore")
        .expect("now cached");
    assert_eq!(served.to_json_line(), reply.records[0].to_json_line());

    // Server-side errors come back as error responses, not broken streams.
    let mut unknown = QueryPoint::new("nope", "cpa", 32);
    let err = client.explore(std::slice::from_ref(&unknown)).unwrap_err();
    assert!(err.to_string().contains("unknown kernel"));
    unknown = QueryPoint::new("fir", "zzz", 32);
    let err = client.explore(std::slice::from_ref(&unknown)).unwrap_err();
    assert!(err.to_string().contains("unknown algorithm"));

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}
