//! A served batch evaluates its fresh points as an explore call does: the
//! points share their kernels' cost tables, their runs' allocations and the
//! costs of repeated β vectors, for that one request.  None of it may show in
//! a record, a hit flag, a counter or an error: every record equals
//! `evaluate_point` of its point, and each point is still looked up, claimed,
//! stored and answered in request order.
//!
//! The grid is the paper suite and `example` × the six registry allocators ×
//! budgets {1, 4, 8, 16, 32, 64, 128} × RAM latencies {1, 2, 4} × both
//! devices: 1,764 points.  The engine's counters are process-global, so this
//! binary holds only these tests, and each takes one lock.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use srra_core::AllocatorRegistry;
use srra_explore::{evaluate_point, DesignPoint, DesignSpace, Explorer, MemoryStore};
use srra_explore::{PointRecord, MAX_RAM_LATENCY};
use srra_fpga::DeviceModel;
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;
use srra_obs::Registry;
use srra_serve::{
    canonical_for, ClientError, Connection, PointOutcome, QueryPoint, Server, ServerConfig,
};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srra-batch-eval-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running node on a fresh cache directory.
struct Node {
    dir: PathBuf,
    addr: String,
    handle: std::thread::JoinHandle<()>,
}

impl Node {
    fn start(tag: &str) -> Self {
        let dir = scratch_dir(tag);
        let server = Server::bind(&ServerConfig::ephemeral(&dir)).expect("server binds");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || {
            server.run().expect("server runs");
        });
        Self { dir, addr, handle }
    }

    fn stop(self, mut connection: Connection) {
        connection.shutdown().expect("shutdown");
        self.handle.join().expect("server thread");
        std::fs::remove_dir_all(&self.dir).expect("cleanup");
    }
}

/// The grid's design space, the running example last.
fn space() -> DesignSpace {
    DesignSpace::new()
        .with_kernels(
            paper_suite()
                .into_iter()
                .map(|spec| spec.kernel)
                .chain([paper_example()]),
        )
        .with_allocators(&AllocatorRegistry::global().iter().collect::<Vec<_>>())
        .with_budgets(&[1, 4, 8, 16, 32, 64, 128])
        .with_ram_latencies(&[1, 2, 4])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()])
}

/// The server's name for a kernel of [`space`]: it serves the running
/// example as `example`.
fn served_name(kernel: &str) -> String {
    if kernel == paper_example().name() {
        "example".to_owned()
    } else {
        kernel.to_owned()
    }
}

/// The grid as request points, in the space's point order.
fn grid() -> Vec<QueryPoint> {
    space()
        .points()
        .iter()
        .map(|point| QueryPoint {
            kernel: served_name(&point.kernel),
            algorithm: point.allocator.name().to_owned(),
            budget: point.budget,
            ram_latency: point.ram_latency,
            device: point.device.name().to_owned(),
        })
        .collect()
}

/// `evaluate_point`'s record of every grid point, as a JSON line, by
/// canonical string.
fn expected() -> &'static HashMap<String, String> {
    static EXPECTED: OnceLock<HashMap<String, String>> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let space = space();
        space
            .points()
            .iter()
            .map(|point| {
                let served = DesignPoint {
                    kernel: served_name(&point.kernel),
                    ..point.clone()
                };
                let record = evaluate_point(&space.kernels()[point.kernel_index], &served);
                (record.canonical.clone(), record.to_json_line())
            })
            .collect()
    })
}

fn assert_evaluated_alone(record: &PointRecord) {
    assert_eq!(
        record.to_json_line(),
        expected()[&record.canonical],
        "{}",
        record.canonical
    );
}

/// The engine counters a batch's sharing moves: allocations (runs started)
/// and allocations whose cost terms came from an earlier allocation.
fn engine_counts() -> (u64, u64) {
    let registry = Registry::global();
    (
        registry.histogram("explore_allocation_us").count(),
        registry.counter("explore_shared_costs_total").get(),
    )
}

fn delta(before: (u64, u64)) -> (u64, u64) {
    let after = engine_counts();
    (after.0 - before.0, after.1 - before.1)
}

/// A SplitMix64 stream, so the shuffles are fixed by their seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[test]
fn a_grid_ordered_batch_allocates_and_shares_costs_as_the_explorer_does() {
    let _serial = serial();
    let points = grid();
    assert_eq!(points.len(), 7 * 6 * 7 * 3 * 2);
    expected();

    let before = engine_counts();
    let explored = Explorer::new(1)
        .explore(&space(), &mut MemoryStore::new())
        .unwrap();
    assert_eq!(explored.evaluated, points.len());
    let explorer = delta(before);
    // One allocation per kernel, allocator and budget; the shared costs are
    // the feasible allocations less the distinct β vectors per kernel.
    assert_eq!(explorer, (294, 162));

    let node = Node::start("grid");
    let mut connection = Connection::connect_binary(&node.addr).expect("connects");
    let before = engine_counts();
    let reply = connection.mexplore(&points).expect("mexplore");
    assert_eq!(delta(before), explorer);
    assert_eq!((reply.hits, reply.evaluated), (0, points.len() as u64));
    assert_eq!(reply.outcomes.len(), points.len());
    for (point, outcome) in points.iter().zip(&reply.outcomes) {
        let PointOutcome::Answered { record, hit } = outcome else {
            panic!("{point:?}: {outcome:?}");
        };
        assert!(!hit);
        assert_eq!(record.canonical, canonical_for(point).unwrap());
        assert_evaluated_alone(record);
    }
    let stats = connection.stats().expect("stats");
    assert_eq!(stats.evaluated, points.len() as u64);
    assert_eq!(stats.records(), points.len());
    node.stop(connection);
}

#[test]
fn a_shuffled_batch_with_repeats_and_bad_points_answers_each_in_place() {
    let _serial = serial();
    let mut points = grid();
    let mut rng = Rng(0x5eed_0033);
    rng.shuffle(&mut points);
    // Repeat every 25th point at a random later place, and put one unknown
    // kernel, algorithm and device among them.
    for index in (0..points.len()).step_by(25) {
        let repeat = points[index].clone();
        let at = index + 1 + rng.below(points.len() - index);
        points.insert(at, repeat);
    }
    let bad = [
        (
            QueryPoint::new("nope", "cpa", 32),
            "unknown kernel `nope`; expected example, fir, dec_fir, mat, imi, pat or bic",
        ),
        (QueryPoint::new("fir", "zzz", 32), "unknown algorithm `zzz`"),
        (
            QueryPoint {
                device: "xcv9000".to_owned(),
                ..QueryPoint::new("mat", "fr", 16)
            },
            "unknown device `xcv9000`; expected xcv1000 or xcv300",
        ),
    ];
    for (offset, (point, _)) in bad.iter().enumerate() {
        points.insert(rng.below(points.len()) + offset, point.clone());
    }
    let error_of = |point: &QueryPoint| {
        bad.iter()
            .find(|(bad, _)| bad == point)
            .map(|(_, message)| *message)
    };

    let node = Node::start("shuffled");
    let mut connection = Connection::connect(&node.addr).expect("connects");
    let reply = connection.mexplore(&points).expect("mexplore");
    assert_eq!(reply.outcomes.len(), points.len());
    let mut seen = HashSet::new();
    for (point, outcome) in points.iter().zip(&reply.outcomes) {
        match (error_of(point), outcome) {
            (Some(message), PointOutcome::Failed { error }) => assert_eq!(error, message),
            (None, PointOutcome::Answered { record, hit }) => {
                // A repeated point finds the record its first occurrence
                // stored, and reports a hit.
                assert_eq!(*hit, !seen.insert(record.canonical.clone()));
                assert_evaluated_alone(record);
            }
            _ => panic!("{point:?}: {outcome:?}"),
        }
    }
    let distinct = expected().len() as u64;
    let answered = (points.len() - bad.len()) as u64;
    assert_eq!(seen.len() as u64, distinct);
    assert_eq!(
        (reply.hits, reply.evaluated),
        (answered - distinct, distinct)
    );
    let stats = connection.stats().expect("stats");
    assert_eq!((stats.hits, stats.evaluated), (reply.hits, reply.evaluated));
    assert_eq!(stats.misses, distinct);
    assert_eq!(stats.records() as u64, distinct);
    node.stop(connection);
}

#[test]
fn an_explore_stops_evaluating_at_its_first_bad_point() {
    let _serial = serial();
    let mut points = grid();
    let mut rng = Rng(0x5eed_0034);
    rng.shuffle(&mut points);
    points.truncate(300);
    for index in (0..points.len()).step_by(7) {
        let repeat = points[index].clone();
        points.insert(index + 1 + rng.below(points.len() - index), repeat);
    }
    let bad_at = 200;
    points.insert(bad_at, QueryPoint::new("nope", "fr", 8));
    let fresh_before_bad = points[..bad_at]
        .iter()
        .map(|point| canonical_for(point).unwrap())
        .collect::<HashSet<_>>()
        .len() as u64;
    assert!(
        fresh_before_bad < bad_at as u64,
        "the prefix repeats points"
    );

    let node = Node::start("explore-bad");
    let mut connection = Connection::connect(&node.addr).expect("connects");
    let before = connection.stats().expect("stats").evaluated;
    match connection.explore(&points) {
        Err(ClientError::Server(message)) => assert_eq!(
            message,
            "unknown kernel `nope`; expected example, fir, dec_fir, mat, imi, pat or bic"
        ),
        other => panic!("expected the batch error, got {other:?}"),
    }
    let stats = connection.stats().expect("stats");
    assert_eq!(stats.evaluated - before, fresh_before_bad);
    assert_eq!(stats.records() as u64, fresh_before_bad);
    node.stop(connection);
}

#[test]
fn a_ram_latency_over_the_limit_fails_in_place_over_both_codecs() {
    let _serial = serial();
    let at_limit = QueryPoint {
        ram_latency: MAX_RAM_LATENCY,
        ..QueryPoint::new("fir", "cpa", 32)
    };
    let over = |ram_latency| QueryPoint {
        ram_latency,
        ..QueryPoint::new("fir", "cpa", 32)
    };
    let refused = |ram_latency: u64| {
        format!("RAM latency {ram_latency} exceeds the limit of 4294967296 cycles")
    };
    assert_eq!(canonical_for(&over(u64::MAX)), Err(refused(u64::MAX)));

    let node = Node::start("latency-limit");
    let mut json = Connection::connect(&node.addr).expect("connects");
    let mut binary = Connection::connect_binary(&node.addr).expect("connects");
    for connection in [&mut json, &mut binary] {
        let binary = connection.is_binary();
        let points = [over(MAX_RAM_LATENCY + 1), at_limit.clone(), over(u64::MAX)];
        let reply = connection.mexplore(&points).expect("mexplore");
        match &reply.outcomes[..] {
            [PointOutcome::Failed { error: first }, PointOutcome::Answered { record, .. }, PointOutcome::Failed { error: last }] =>
            {
                assert_eq!(*first, refused(MAX_RAM_LATENCY + 1));
                assert_eq!(*last, refused(u64::MAX));
                assert!(record.feasible);
                assert_eq!(
                    record.total_cycles,
                    record.compute_cycles + record.memory_cycles + record.transfer_cycles
                );
            }
            other => panic!("binary {binary}: {other:?}"),
        }
        match connection.explore(&[at_limit.clone(), over(u64::MAX)]) {
            Err(ClientError::Server(message)) => assert_eq!(message, refused(u64::MAX)),
            other => panic!("binary {binary}: expected the batch error, got {other:?}"),
        }
    }
    // Only the point at the limit was evaluated, once.
    let stats = binary.stats().expect("stats");
    assert_eq!((stats.evaluated, stats.records()), (1, 1));
    node.stop(binary);
}
