//! Multi-node cluster benchmark behind `BENCH_5.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p srra-bench --bin cluster_bench [-- <clients>]
//! ```
//!
//! Starts 1, 2 and 4 in-process `srra-serve` nodes and drives them through
//! consistent-hash-routed `ClusterClient`s over real loopback TCP, on the
//! same 240-point grid as BENCH_2/BENCH_4.  Per node count, three phases:
//!
//! 1. **cold explore** — empty shards; the ring sends every canonical to one
//!    owner, so each point is evaluated exactly once *across the whole
//!    cluster* (asserted via aggregated stats);
//! 2. **warm mget** — routed batched lookups, the cluster-serving hot path;
//! 3. **warm explore** — routed batched explore, answered entirely from the
//!    shards.
//!
//! A final **failover** scenario runs 2 nodes with `replicas = 2`: populate,
//! kill one node mid-run, then read the full grid back — every key must
//! still answer (from the surviving replica).  The single-node section
//! doubles as the comparison point against BENCH_4's `warm_mget` (same
//! batch size, same grid, no ring in the loop).
//!
//! Every phase walks the full grid once per client, rotated by client index.
//! Reports per-phase throughput (grid points answered per second) and
//! p50/p99 per-point latency as JSON on stdout; per-point latency of a
//! batched phase is the batch round-trip time divided by its size.

use std::time::Instant;

use srra_cluster::{ClusterClient, ClusterConfig};
use srra_serve::{Connection, PointOutcome, QueryPoint, Server, ServerConfig};

/// Canonicals per mget / points per explore batch (as serve_bench).
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

/// The per-client rotation of the grid, so concurrent clients hammer
/// different owners at any instant.
fn rotation(points: &[QueryPoint], index: usize, clients: usize) -> Vec<QueryPoint> {
    let offset = index * points.len() / clients;
    (0..points.len())
        .map(|i| points[(i + offset) % points.len()].clone())
        .collect()
}

/// Starts `count` in-process nodes; returns addresses and join handles.
fn start_nodes(
    tag: &str,
    count: usize,
    workers: usize,
) -> (
    Vec<String>,
    Vec<std::thread::JoinHandle<()>>,
    std::path::PathBuf,
) {
    let base =
        std::env::temp_dir().join(format!("srra-cluster-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for index in 0..count {
        let server = Server::bind(&ServerConfig {
            workers,
            ..ServerConfig::ephemeral(base.join(format!("node-{index}")))
        })
        .expect("node binds");
        addrs.push(server.local_addr().to_string());
        handles.push(std::thread::spawn(move || {
            server.run().expect("node runs");
        }));
    }
    (addrs, handles, base)
}

/// Fans `clients` workers out, each with its own `ClusterClient`, runs
/// `work` per client over its rotated grid, and returns (wall seconds,
/// sorted per-point latencies in µs).
fn fan_out<F>(
    config: &ClusterConfig,
    clients: usize,
    points: &[QueryPoint],
    work: F,
) -> (f64, Vec<u64>)
where
    F: Fn(&mut ClusterClient, Vec<QueryPoint>) -> Vec<u64> + Sync,
{
    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let local = rotation(points, index, clients);
                scope.spawn(move || {
                    let mut cluster = ClusterClient::connect(config).expect("cluster connects");
                    work(&mut cluster, local)
                })
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

/// Routed batched explore over the grid; panics on any per-point failure.
fn run_explore(config: &ClusterConfig, clients: usize, points: &[QueryPoint]) -> (f64, Vec<u64>) {
    fan_out(config, clients, points, |cluster, local| {
        let mut latencies = Vec::with_capacity(local.len());
        for window in local.chunks(BATCH) {
            let sent = Instant::now();
            let reply = cluster.explore(window).expect("explore succeeds");
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

/// Routed batched lookups over the warm grid; panics on a miss.
fn run_mget(config: &ClusterConfig, clients: usize, points: &[QueryPoint]) -> (f64, Vec<u64>) {
    fan_out(config, clients, points, |cluster, local| {
        let mut latencies = Vec::with_capacity(local.len());
        for window in local.chunks(BATCH) {
            let canonicals: Vec<String> = window
                .iter()
                .map(|point| srra_serve::canonical_for(point).expect("grid resolves"))
                .collect();
            let sent = Instant::now();
            let records = cluster.mget(&canonicals).expect("mget succeeds");
            let per_point = (sent.elapsed().as_micros() as u64) / window.len() as u64;
            assert!(records.iter().all(Option::is_some), "warm cluster hits");
            latencies.extend(std::iter::repeat(per_point).take(window.len()));
        }
        latencies
    })
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

/// Runs cold explore / warm mget / warm explore against `node_count` nodes;
/// returns the rendered JSON section.
fn bench_nodes(node_count: usize, clients: usize, points: &[QueryPoint]) -> String {
    let (addrs, handles, dir) = start_nodes(&format!("n{node_count}"), node_count, clients);
    let config = ClusterConfig::new(addrs.clone());
    let requests = clients * points.len();

    let phases = [
        ("cold_explore", run_explore(&config, clients, points)),
        ("warm_mget", run_mget(&config, clients, points)),
        ("warm_explore", run_explore(&config, clients, points)),
    ];

    // Exactly-once across the cluster: the ring gave every canonical one
    // owner, so the 240 distinct points were evaluated 240 times in total,
    // no matter how many clients raced.
    let mut probe = ClusterClient::connect(&config).expect("cluster connects");
    let stats = probe.stats();
    assert_eq!(stats.nodes_up(), node_count);
    assert_eq!(stats.total_evaluated() as usize, points.len());
    assert_eq!(stats.total_records(), points.len());
    let per_node: Vec<String> = stats
        .nodes
        .iter()
        .map(|node| {
            let server = node.stats.as_ref().expect("node answered stats");
            format!(
                "{{\"requests\":{},\"evaluated\":{},\"records\":{}}}",
                server.requests,
                server.evaluated,
                server.records()
            )
        })
        .collect();
    probe.shutdown_all();
    for handle in handles {
        handle.join().expect("node thread");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");

    let mut out = format!("    \"nodes_{node_count}\": {{\n");
    out.push_str("      \"phases\": {\n");
    for (index, (name, (wall, latencies))) in phases.iter().enumerate() {
        let comma = if index + 1 < phases.len() { "," } else { "" };
        out.push_str(&format!(
            "  {}{comma}\n",
            phase_json(name, requests, *wall, latencies)
        ));
    }
    out.push_str("      },\n");
    out.push_str(&format!(
        "      \"per_node\": [{}]\n    }}",
        per_node.join(",")
    ));
    out
}

/// The failover scenario: 2 nodes, replication factor 2, one node killed
/// after the populate pass; the full grid must stay readable.
fn bench_failover(clients: usize, points: &[QueryPoint]) -> String {
    let (addrs, mut handles, dir) = start_nodes("failover", 2, clients);
    let config = ClusterConfig::new(addrs.clone()).with_replicas(2);
    let requests = clients * points.len();

    let (populate_wall, populate_latencies) = run_explore(&config, clients, points);

    // Kill node 0 mid-run: the next reads hit its stale keep-alive sockets
    // and fail over to the surviving replica.
    Connection::connect(&addrs[0])
        .expect("connects")
        .shutdown()
        .expect("shutdown");
    handles.remove(0).join().expect("node thread");
    let (failover_wall, failover_latencies) = run_mget(&config, clients, points);

    let mut probe = ClusterClient::connect(&config).expect("cluster connects");
    let stats = probe.stats();
    assert_eq!(stats.nodes_up(), 1);
    assert_eq!(
        stats.total_records(),
        points.len(),
        "the survivor holds a replica of every record"
    );
    probe.shutdown_all();
    for handle in handles {
        handle.join().expect("node thread");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");

    let mut out = String::from("    \"failover_2_nodes_replicas_2\": {\n");
    out.push_str("      \"phases\": {\n");
    out.push_str(&format!(
        "  {},\n",
        phase_json(
            "cold_explore_replicated",
            requests,
            populate_wall,
            &populate_latencies
        )
    ));
    out.push_str(&format!(
        "  {}\n",
        phase_json(
            "warm_mget_one_node_killed",
            requests,
            failover_wall,
            &failover_latencies
        )
    ));
    out.push_str("      },\n");
    out.push_str("      \"all_reads_answered\": true\n    }");
    out
}

fn main() {
    let clients: usize = std::env::args()
        .nth(1)
        .map(|raw| raw.parse().expect("client count is a number"))
        .unwrap_or(4);
    let points = grid();

    let sections = [
        bench_nodes(1, clients, &points),
        bench_nodes(2, clients, &points),
        bench_nodes(4, clients, &points),
        bench_failover(clients, &points),
    ];

    println!("{{");
    println!(
        "  \"grid_points\": {}, \"clients\": {clients}, \"shards_per_node\": 4, \"batch\": {BATCH},",
        points.len()
    );
    println!("  \"baseline\": \"BENCH_4.json warm_mget is the single-node, no-ring reference\",");
    println!("  \"clusters\": {{");
    for (index, section) in sections.iter().enumerate() {
        let comma = if index + 1 < sections.len() { "," } else { "" };
        println!("{section}{comma}");
    }
    println!("  }}");
    println!("}}");
}
