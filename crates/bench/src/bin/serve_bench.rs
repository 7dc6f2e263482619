//! Multi-client query-serving benchmark behind `BENCH_3.json` / `BENCH_4.json`
//! / `BENCH_7.json` / `BENCH_9.json`.
//!
//! Since BENCH_9 the benched server runs with the metrics sampler live at
//! its default 1 s cadence (`sample_interval_ms: 1_000`), so every number
//! here includes the cost of the time-series layer — the acceptance bar is
//! that it costs the hot path nothing.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p srra-bench --bin serve_bench [-- <clients>]
//! ```
//!
//! Runs the whole suite once per wire codec — JSON lines and the
//! length-prefixed binary codec — each against its own in-process
//! `srra-serve` server over a fresh scratch shard directory, so both codecs
//! get a true cold phase.  Per codec, seven phases over the same 240-point
//! grid as BENCH_2, driven by concurrent clients over real loopback TCP:
//!
//! 1. **cold explore** — connection-per-request, empty shards, every point
//!    evaluated on demand (exactly once across all racing clients);
//! 2. **warm explore** — connection-per-request, answered entirely from
//!    shards;
//! 3. **warm get** — connection-per-request canonical-string lookups (the
//!    BENCH_3 baseline shape);
//! 4. **warm get keep-alive** — one persistent connection per client,
//!    sequential request/response rounds (isolates the connection setup
//!    cost);
//! 5. **warm get pipelined** — one persistent connection per client, request
//!    frames written in windows before reading any reply;
//! 6. **warm mget** — batched lookups, many canonicals per wire op;
//! 7. **warm mexplore** — batched explore, many points per wire op.
//!
//! Every phase walks the full grid once per client, rotated by client index
//! so concurrent clients hammer different shards at any instant.  Reports
//! per-codec, per-phase throughput (grid points answered per second) and
//! p50/p99 per-point latency as JSON on stdout; for the pipelined/batched
//! phases the per-point latency is the window/batch round-trip time divided
//! by its size.

use std::time::Instant;

use srra_serve::{
    Connection, PointOutcome, QueryPoint, Request, Response, Server, ServerConfig, ServerStats,
};

/// Requests per pipeline window / canonicals per mget / points per mexplore.
const BATCH: usize = 48;

/// The BENCH_2 grid: 6 kernels x 5 algorithms x 4 budgets x 2 latencies.
fn grid() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "dec_fir", "mat", "imi", "pat", "bic"] {
        for algo in ["fr", "pr", "cpa", "ks", "greedy"] {
            for budget in [8, 16, 32, 64] {
                for latency in [1, 2] {
                    let mut point = QueryPoint::new(kernel, algo, budget);
                    point.ram_latency = latency;
                    points.push(point);
                }
            }
        }
    }
    points
}

/// The per-client rotation of the grid: client `index` starts `offset` points
/// in, so the instantaneous load spreads over the shards.
fn rotation(points: &[QueryPoint], index: usize, clients: usize) -> Vec<QueryPoint> {
    let offset = index * points.len() / clients;
    (0..points.len())
        .map(|i| points[(i + offset) % points.len()].clone())
        .collect()
}

/// Dials one connection speaking the suite's codec.
fn dial(addr: &str, binary: bool) -> Connection {
    Connection::connect_with_codec(addr, binary, None).expect("connects")
}

/// Fans `clients` workers out, runs `work` in each (receiving its rotated
/// grid), and returns (wall seconds, sorted per-point latencies in µs).
fn fan_out<F>(clients: usize, points: &[QueryPoint], work: F) -> (f64, Vec<u64>)
where
    F: Fn(Vec<QueryPoint>) -> Vec<u64> + Sync,
{
    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let local = rotation(points, index, clients);
                scope.spawn(move || work(local))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    (wall, latencies)
}

/// Connection-per-request phase (the BENCH_3 baseline shape): one fresh
/// socket per request, `get` or single-point `explore`.
fn run_oneshot(
    addr: &str,
    clients: usize,
    points: &[QueryPoint],
    get: bool,
    binary: bool,
) -> (f64, Vec<u64>) {
    fan_out(clients, points, |local| {
        let mut latencies = Vec::with_capacity(local.len());
        for point in &local {
            let sent = Instant::now();
            if get {
                let canonical = srra_serve::canonical_for(point).expect("grid resolves");
                dial(addr, binary)
                    .get(&canonical)
                    .expect("get succeeds")
                    .expect("warm store hits");
            } else {
                let reply = dial(addr, binary)
                    .explore(std::slice::from_ref(point))
                    .expect("explore succeeds");
                assert_eq!(reply.records.len(), 1);
            }
            latencies.push(sent.elapsed().as_micros() as u64);
        }
        latencies
    })
}

/// Keep-alive phase: one persistent connection per client, sequential `get`
/// round trips — pure request latency with the connection setup amortised
/// away.
fn run_keepalive_get(
    addr: &str,
    clients: usize,
    points: &[QueryPoint],
    binary: bool,
) -> (f64, Vec<u64>) {
    fan_out(clients, points, |local| {
        let mut connection = dial(addr, binary);
        let mut latencies = Vec::with_capacity(local.len());
        for point in &local {
            let canonical = srra_serve::canonical_for(point).expect("grid resolves");
            let sent = Instant::now();
            connection
                .get(&canonical)
                .expect("get succeeds")
                .expect("warm store hits");
            latencies.push(sent.elapsed().as_micros() as u64);
        }
        latencies
    })
}

/// Pipelined phase: windows of [`BATCH`] `get` requests written before any
/// reply is read; per-point latency is the window time / window size.
fn run_pipelined_get(
    addr: &str,
    clients: usize,
    points: &[QueryPoint],
    binary: bool,
) -> (f64, Vec<u64>) {
    fan_out(clients, points, |local| {
        let mut connection = dial(addr, binary);
        let mut latencies = Vec::with_capacity(local.len());
        for window in local.chunks(BATCH) {
            let requests: Vec<Request> = window
                .iter()
                .map(|point| Request::Get {
                    canonical: srra_serve::canonical_for(point).expect("grid resolves"),
                })
                .collect();
            let sent = Instant::now();
            let responses = connection.pipeline(&requests).expect("pipeline succeeds");
            let per_point = (sent.elapsed().as_micros() as u64) / window.len() as u64;
            for response in &responses {
                assert!(
                    matches!(response, Response::Found { .. }),
                    "warm store hits"
                );
            }
            latencies.extend(std::iter::repeat(per_point).take(window.len()));
        }
        latencies
    })
}

/// Batched-lookup phase: [`BATCH`] canonicals per `mget` op.
fn run_mget(addr: &str, clients: usize, points: &[QueryPoint], binary: bool) -> (f64, Vec<u64>) {
    fan_out(clients, points, |local| {
        let mut connection = dial(addr, binary);
        let mut latencies = Vec::with_capacity(local.len());
        for window in local.chunks(BATCH) {
            let canonicals: Vec<String> = window
                .iter()
                .map(|point| srra_serve::canonical_for(point).expect("grid resolves"))
                .collect();
            let sent = Instant::now();
            let records = connection.mget(&canonicals).expect("mget succeeds");
            let per_point = (sent.elapsed().as_micros() as u64) / window.len() as u64;
            assert!(records.iter().all(Option::is_some), "warm store hits");
            latencies.extend(std::iter::repeat(per_point).take(window.len()));
        }
        latencies
    })
}

/// Batched-explore phase: [`BATCH`] points per `mexplore` op.
fn run_mexplore(
    addr: &str,
    clients: usize,
    points: &[QueryPoint],
    binary: bool,
) -> (f64, Vec<u64>) {
    fan_out(clients, points, |local| {
        let mut connection = dial(addr, binary);
        let mut latencies = Vec::with_capacity(local.len());
        for window in local.chunks(BATCH) {
            let sent = Instant::now();
            let reply = connection.mexplore(window).expect("mexplore succeeds");
            let per_point = (sent.elapsed().as_micros() as u64) / window.len() as u64;
            assert!(
                reply
                    .outcomes
                    .iter()
                    .all(|outcome| matches!(outcome, PointOutcome::Answered { .. })),
                "grid resolves"
            );
            latencies.extend(std::iter::repeat(per_point).take(window.len()));
        }
        latencies
    })
}

/// One full seven-phase suite over its own server and fresh shard directory,
/// speaking one codec end to end.  Returns the per-phase measurements and
/// the server's final statistics.
#[allow(clippy::type_complexity)]
fn run_suite(
    clients: usize,
    points: &[QueryPoint],
    binary: bool,
) -> (Vec<(&'static str, (f64, Vec<u64>))>, ServerStats) {
    let codec = if binary { "binary" } else { "json" };
    let dir = std::env::temp_dir().join(format!("srra-serve-bench-{codec}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let server = Server::bind(&ServerConfig {
        workers: clients,
        sample_interval_ms: 1_000,
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let phases = vec![
        (
            "cold_explore",
            run_oneshot(&addr, clients, points, false, binary),
        ),
        (
            "warm_explore",
            run_oneshot(&addr, clients, points, false, binary),
        ),
        (
            "warm_get",
            run_oneshot(&addr, clients, points, true, binary),
        ),
        (
            "warm_get_keepalive",
            run_keepalive_get(&addr, clients, points, binary),
        ),
        (
            "warm_get_pipelined",
            run_pipelined_get(&addr, clients, points, binary),
        ),
        ("warm_mget", run_mget(&addr, clients, points, binary)),
        (
            "warm_mexplore",
            run_mexplore(&addr, clients, points, binary),
        ),
    ];

    let mut client = dial(&addr, binary);
    let samples = client.series_samples(4).expect("series answers");
    assert!(!samples.is_empty(), "the sampler ran during the suite");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.evaluated as usize,
        points.len(),
        "every distinct point is evaluated exactly once, in the cold phase"
    );
    for op in ["get", "explore", "mget", "mexplore"] {
        let entry = stats.op(op).expect("per-op stats are reported");
        assert!(entry.count > 0, "op `{op}` was exercised");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    (phases, stats)
}

fn percentile(sorted: &[u64], fraction: f64) -> u64 {
    let index = ((sorted.len() as f64 - 1.0) * fraction).round() as usize;
    sorted[index]
}

fn phase_json(name: &str, requests: usize, wall: f64, latencies: &[u64]) -> String {
    format!(
        "      \"{name}\": {{\"requests\":{requests},\"wall_ms\":{:.1},\"throughput_rps\":{:.0},\"p50_us\":{},\"p99_us\":{}}}",
        wall * 1e3,
        requests as f64 / wall,
        percentile(latencies, 0.50),
        percentile(latencies, 0.99)
    )
}

fn print_codec(
    name: &str,
    requests: usize,
    phases: &[(&'static str, (f64, Vec<u64>))],
    stats: &ServerStats,
    last: bool,
) {
    println!("    \"{name}\": {{");
    println!("      \"phases\": {{");
    for (index, (phase, (wall, latencies))) in phases.iter().enumerate() {
        let comma = if index + 1 < phases.len() { "," } else { "" };
        println!("{}{comma}", phase_json(phase, requests, *wall, latencies));
    }
    println!("      }},");
    println!(
        "      \"server_totals\": {{\"requests\":{},\"hits\":{},\"evaluated\":{},\"shard_records\":{:?},",
        stats.requests, stats.hits, stats.evaluated, stats.shard_records
    );
    let mut ops = String::new();
    for (index, entry) in stats.ops.iter().enumerate() {
        if index > 0 {
            ops.push(',');
        }
        ops.push_str(&format!(
            "\"{}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
            entry.op, entry.count, entry.p50_us, entry.p99_us
        ));
    }
    println!("        \"ops\":{{{ops}}}}}");
    println!("    }}{}", if last { "" } else { "," });
}

fn main() {
    let clients: usize = std::env::args()
        .nth(1)
        .map(|raw| raw.parse().expect("client count is a number"))
        .unwrap_or(4);
    let points = grid();
    let requests = clients * points.len();

    let (json_phases, json_stats) = run_suite(clients, &points, false);
    let (binary_phases, binary_stats) = run_suite(clients, &points, true);

    println!("{{");
    println!(
        "  \"grid_points\": {}, \"clients\": {clients}, \"shards\": 4, \"batch\": {BATCH}, \"sample_interval_ms\": 1000,",
        points.len()
    );
    println!("  \"codecs\": {{");
    print_codec("json", requests, &json_phases, &json_stats, false);
    print_codec("binary", requests, &binary_phases, &binary_stats, true);
    println!("  }}");
    println!("}}");
}
