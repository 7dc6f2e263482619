//! Cluster example: three serve nodes behind a consistent-hash ring, with
//! replication and a mid-run node kill.
//!
//! Run with:
//!
//! ```text
//! cargo run --example cluster_fanout
//! ```
//!
//! The workload explores a small grid through a `ClusterClient` with
//! `--replicas 2` semantics: every point is evaluated exactly once on its
//! owning node and its record teed to the next ring successor.  One node is
//! then shut down mid-run — every read still answers, byte-identically, from
//! the surviving replicas.  In production the node side of this example is
//! `srra serve --cache-dir <dir>` per host and the client side is
//! `srra cluster --nodes a:p,b:p,c:p --replicas 2 ...`.

use srra_cluster::{ClusterClient, ClusterConfig};
use srra_serve::{Connection, PointOutcome, QueryPoint, Server, ServerConfig};

fn workload() -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in ["fir", "mat", "pat"] {
        for algo in ["fr", "cpa"] {
            for budget in [16, 32, 64] {
                points.push(QueryPoint::new(kernel, algo, budget));
            }
        }
    }
    points
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join("srra-cluster-example");
    let _ = std::fs::remove_dir_all(&base);

    // Three independent serve nodes, each over its own shard directory.
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for index in 0..3 {
        let server = Server::bind(&ServerConfig::ephemeral(base.join(format!("node-{index}"))))?;
        addrs.push(server.local_addr().to_string());
        handles.push(std::thread::spawn(move || server.run()));
    }
    println!("cluster nodes: {}", addrs.join(", "));

    let mut cluster = ClusterClient::connect(&ClusterConfig::new(addrs.clone()).with_replicas(2))?;
    let points = workload();
    for point in &points {
        println!(
            "  {} -> {}",
            srra_serve::canonical_for(point).expect("workload resolves"),
            cluster
                .ring()
                .node_for_canonical(&srra_serve::canonical_for(point).expect("workload resolves"))
        );
    }

    // Cold pass: every point evaluated exactly once, records teed to the
    // replica successor.
    let cold = cluster.explore(&points)?;
    println!(
        "\ncold: {} points, {} evaluated, {} hits, {} records replicated",
        cold.outcomes.len(),
        cold.evaluated,
        cold.hits,
        cold.replicated
    );

    // Kill one node mid-run.
    let victim = addrs[0].clone();
    Connection::connect(&victim)?.shutdown()?;
    handles.remove(0).join().expect("server thread")?;
    println!("killed node {victim}");

    // Every read still answers from the surviving replicas, byte-identically.
    let canonicals: Vec<String> = points
        .iter()
        .map(|point| srra_serve::canonical_for(point).expect("workload resolves"))
        .collect();
    let records = cluster.mget(&canonicals)?;
    let answered = records.iter().filter(|record| record.is_some()).count();
    println!(
        "after failover: {answered}/{} reads answered",
        records.len()
    );
    assert_eq!(
        answered,
        records.len(),
        "replication keeps every key readable"
    );
    for (outcome, record) in cold.outcomes.iter().zip(&records) {
        let PointOutcome::Answered {
            record: original, ..
        } = outcome
        else {
            panic!("cold outcomes are all answers");
        };
        assert_eq!(
            Some(original),
            record.as_ref(),
            "failover reads are byte-identical"
        );
    }

    let stats = cluster.stats();
    println!(
        "\nper-node stats ({} up of {}):",
        stats.nodes_up(),
        stats.nodes.len()
    );
    for node in &stats.nodes {
        match &node.stats {
            Some(server) => println!(
                "  {:<21} up    {} requests, {} evaluated, {} records",
                node.addr,
                server.requests,
                server.evaluated,
                server.records()
            ),
            None => println!("  {:<21} down", node.addr),
        }
    }

    cluster.shutdown_all();
    for handle in handles {
        handle.join().expect("server thread")?;
    }
    std::fs::remove_dir_all(&base)?;
    Ok(())
}
