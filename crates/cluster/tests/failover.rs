//! Failover integration tests: a replicated two-node cluster keeps answering
//! — byte-identically — after one node is killed mid-run, and an
//! unreplicated cluster reports unavailability instead of wrong answers.

use srra_cluster::{ClusterClient, ClusterConfig, ClusterError};
use srra_serve::{Connection, PointOutcome, QueryPoint, Server, ServerConfig};

/// A 24-point workload spanning two kernels and three algorithms.
fn workload() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat"] {
        for algo in ["fr", "pr", "cpa"] {
            for budget in [8, 16, 32, 64] {
                points.push(QueryPoint::new(kernel, algo, budget));
            }
        }
    }
    points
}

fn canonicals(points: &[QueryPoint]) -> Vec<String> {
    points
        .iter()
        .map(|point| srra_serve::canonical_for(point).expect("workload resolves"))
        .collect()
}

/// One JSONL line per record, for byte-level comparisons.
fn json_lines(records: &[srra_explore::PointRecord]) -> Vec<String> {
    records
        .iter()
        .map(|record| {
            let mut line = String::new();
            record.write_json_line(&mut line);
            line
        })
        .collect()
}

/// Starts `count` in-process serve nodes under `dir`; returns their
/// addresses and join handles.
fn start_nodes(
    dir: &std::path::Path,
    count: usize,
) -> (
    Vec<String>,
    Vec<std::thread::JoinHandle<srra_serve::ServerReport>>,
) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for index in 0..count {
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(dir.join(format!("node-{index}")))
        })
        .expect("node binds");
        addrs.push(server.local_addr().to_string());
        handles.push(std::thread::spawn(move || server.run().expect("node runs")));
    }
    (addrs, handles)
}

#[test]
fn replicated_cluster_answers_byte_identically_after_a_node_kill() {
    let dir = std::env::temp_dir().join(format!("srra-cluster-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addrs, mut handles) = start_nodes(&dir, 2);

    let mut cluster = ClusterClient::connect(&ClusterConfig::new(addrs.clone()).with_replicas(2))
        .expect("cluster connects");
    let points = workload();
    let keys = canonicals(&points);

    // Cold pass: every point evaluated exactly once somewhere, every fresh
    // record teed to the other node.
    let cold = cluster.explore(&points).expect("cold explore");
    assert_eq!(cold.evaluated, points.len() as u64);
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.replicated, points.len() as u64);
    let originals: Vec<srra_explore::PointRecord> = cold
        .outcomes
        .iter()
        .map(|outcome| match outcome {
            PointOutcome::Answered { record, .. } => record.clone(),
            PointOutcome::Failed { error } => panic!("cold outcome failed: {error}"),
        })
        .collect();
    let original_lines = json_lines(&originals);

    // Baseline read with both nodes up.
    let warm = cluster.mget(&keys).expect("warm mget");
    assert!(warm.iter().all(Option::is_some));

    // Kill node 0 mid-run (graceful shutdown; the cluster client still holds
    // a keep-alive connection to it and only learns on its next call).
    Connection::connect(&addrs[0])
        .expect("connects")
        .shutdown()
        .expect("shutdown");
    handles.remove(0).join().expect("server thread");

    // Reads fail over to the surviving replica and stay byte-identical.
    let failed_over = cluster.mget(&keys).expect("failover mget");
    let survived: Vec<srra_explore::PointRecord> = failed_over
        .into_iter()
        .map(|record| record.expect("replica answers every key"))
        .collect();
    assert_eq!(
        json_lines(&survived),
        original_lines,
        "byte-identical records"
    );

    // A warm explore is also answered entirely by the survivor: no point is
    // re-evaluated, because the tee put a copy of every record there.
    let warm_explore = cluster.explore(&points).expect("failover explore");
    assert_eq!(warm_explore.evaluated, 0);
    assert_eq!(warm_explore.hits, points.len() as u64);

    let stats = cluster.stats();
    assert_eq!(stats.nodes_up(), 1);
    assert_eq!(stats.total_records(), points.len());

    assert_eq!(cluster.shutdown_all(), 1);
    for handle in handles {
        handle.join().expect("server thread");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

#[test]
fn failover_reads_keep_their_trace_id_on_the_replica() {
    let dir = std::env::temp_dir().join(format!("srra-cluster-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addrs, mut handles) = start_nodes(&dir, 2);

    let mut cluster = ClusterClient::connect(&ClusterConfig::new(addrs.clone()).with_replicas(2))
        .expect("cluster connects");
    let points = workload();
    let keys = canonicals(&points);
    cluster.explore(&points).expect("cold explore");

    // Kill node 0, then read the whole workload under one trace id: node
    // 0's share fails over to the surviving replica, and the replayed
    // sub-batches must still carry the id.
    Connection::connect(&addrs[0])
        .expect("connects")
        .shutdown()
        .expect("shutdown");
    handles.remove(0).join().expect("server thread");
    cluster
        .set_trace(Some("failover-sweep.1"))
        .expect("valid id");
    let records = cluster.mget(&keys).expect("failover mget");
    assert!(records.iter().all(Option::is_some));
    cluster.set_trace(None).expect("clearing is fine");

    // The survivor's flight recorder holds the traced failover reads; the
    // dead node reports unscraped instead of failing the call.
    let scraped = cluster.trace("failover-sweep.1");
    assert_eq!(scraped.nodes_up(), 1, "only the survivor answers");
    assert!(
        scraped
            .nodes
            .iter()
            .any(|(addr, spans)| *addr == addrs[0] && spans.is_none()),
        "{:?}",
        scraped.nodes
    );
    let roots: Vec<_> = scraped
        .merged
        .iter()
        .filter(|span| span.parent_id == 0)
        .collect();
    assert!(
        !roots.is_empty(),
        "the survivor recorded the failover reads"
    );
    assert!(
        roots
            .iter()
            .all(|span| span.name == "mget" && span.trace_id == "failover-sweep.1"),
        "{roots:?}"
    );

    // Malformed ids are rejected before any traffic.
    assert!(cluster.set_trace(Some("has space")).is_err());

    assert_eq!(cluster.shutdown_all(), 1);
    for handle in handles {
        handle.join().expect("server thread");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

#[test]
fn unreplicated_cluster_reports_unavailable_keys_instead_of_guessing() {
    let dir = std::env::temp_dir().join(format!("srra-cluster-unavail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addrs, mut handles) = start_nodes(&dir, 2);

    let mut cluster =
        ClusterClient::connect(&ClusterConfig::new(addrs.clone())).expect("cluster connects");
    assert_eq!(cluster.replicas(), 1);
    let points = workload();
    let keys = canonicals(&points);
    cluster.explore(&points).expect("cold explore");

    // Pick a canonical owned by node 0, then kill node 0.
    let victim = addrs[0].clone();
    let orphaned = keys
        .iter()
        .find(|canonical| cluster.ring().node_for_canonical(canonical) == victim)
        .expect("the ring splits 24 keys over both nodes")
        .clone();
    let kept = keys
        .iter()
        .find(|canonical| cluster.ring().node_for_canonical(canonical) != victim)
        .expect("the ring splits 24 keys over both nodes")
        .clone();
    Connection::connect(&victim)
        .expect("connects")
        .shutdown()
        .expect("shutdown");
    handles.remove(0).join().expect("server thread");

    // The orphaned key has no replica successor: unavailable, not a miss.
    match cluster.get(&orphaned) {
        Err(ClusterError::Unavailable { .. }) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    // Keys owned by the survivor keep answering.
    assert!(cluster.get(&kept).expect("survivor answers").is_some());

    assert_eq!(cluster.shutdown_all(), 1);
    for handle in handles {
        handle.join().expect("server thread");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}
