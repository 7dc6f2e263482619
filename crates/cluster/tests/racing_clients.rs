//! Exactly-once evaluation across a cluster with racing clients: several
//! threads, each with its own `ClusterClient`, explore the same grid over a
//! two-node ring at once.  The ring gives every canonical one owner and the
//! owner's in-flight table serialises concurrent misses, so each distinct
//! point is evaluated once in the whole cluster and every client reads the
//! same records.

use srra_cluster::{ClusterClient, ClusterConfig};
use srra_serve::{PointOutcome, QueryPoint, Server, ServerConfig};

/// Racing client threads.
const CLIENTS: usize = 4;
/// Points per explore batch.
const BATCH: usize = 8;

/// 2 kernels x 3 algorithms x 4 budgets x 2 latencies = 48 distinct points.
fn grid() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat"] {
        for algo in ["fr", "pr", "cpa"] {
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

/// Client `index`'s explore order: the grid rotated so the clients start on
/// different points (and so different owners) at the same instant.
fn rotation(points: &[QueryPoint], index: usize) -> Vec<QueryPoint> {
    let offset = index * points.len() / CLIENTS;
    (0..points.len())
        .map(|i| points[(i + offset) % points.len()].clone())
        .collect()
}

/// Explores `points` in batches and returns one JSONL line per record, in
/// grid order (the rotation undone).
fn explore_in_batches(config: &ClusterConfig, points: &[QueryPoint], index: usize) -> Vec<String> {
    let mut cluster = ClusterClient::connect(config).expect("cluster connects");
    let mut lines = Vec::with_capacity(points.len());
    for batch in rotation(points, index).chunks(BATCH) {
        let reply = cluster.explore(batch).expect("explore succeeds");
        for outcome in reply.outcomes {
            let PointOutcome::Answered { record, .. } = outcome else {
                panic!("client {index}: a grid point failed: {outcome:?}");
            };
            let mut line = String::new();
            record.write_json_line(&mut line);
            lines.push(line);
        }
    }
    let offset = index * points.len() / CLIENTS;
    lines.rotate_right(offset);
    lines
}

#[test]
fn racing_clients_evaluate_each_distinct_point_exactly_once_across_the_ring() {
    let dir = std::env::temp_dir().join(format!("srra-cluster-racing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for index in 0..2 {
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: CLIENTS,
            ..ServerConfig::ephemeral(dir.join(format!("node-{index}")))
        })
        .expect("node binds");
        addrs.push(server.local_addr().to_string());
        handles.push(std::thread::spawn(move || server.run().expect("node runs")));
    }
    let config = ClusterConfig::new(addrs);
    let points = grid();

    let per_client: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let (config, points) = (&config, &points);
                scope.spawn(move || explore_in_batches(config, points, index))
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("client thread"))
            .collect()
    });

    // The nodes' own counters: every distinct point was evaluated and stored
    // exactly once in the whole cluster, however the clients interleaved.
    let mut probe = ClusterClient::connect(&config).expect("cluster connects");
    let stats = probe.stats();
    assert_eq!(stats.nodes_up(), 2);
    assert_eq!(stats.total_evaluated(), points.len() as u64);
    assert_eq!(stats.total_records(), points.len());
    for node in &stats.nodes {
        let server = node.stats.as_ref().expect("node answered stats");
        assert!(server.evaluated > 0, "the ring splits the grid: {node:?}");
    }

    // Every client saw the same records, byte for byte.
    assert_eq!(per_client[0].len(), points.len());
    for (index, lines) in per_client.iter().enumerate().skip(1) {
        assert_eq!(lines, &per_client[0], "client {index} disagrees");
    }

    assert_eq!(probe.shutdown_all(), 2);
    for handle in handles {
        handle.join().expect("node thread");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}
