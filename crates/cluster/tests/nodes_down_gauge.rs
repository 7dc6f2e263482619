//! The `cluster_nodes_down` gauge tracks health transitions without leaking:
//! one increment per node entering a back-off window, one decrement when it
//! recovers — including across `ping_all`'s deliberate dial-through, which
//! forgets the window and re-marks the node from the probe's outcome.
//!
//! Lives in its own test binary: the gauge sits in the process-global
//! registry, and sibling tests killing nodes concurrently would race exact
//! assertions.

use srra_cluster::{ClusterClient, ClusterConfig};
use srra_obs::Registry;
use srra_serve::{Server, ServerConfig};

fn nodes_down() -> i64 {
    Registry::global()
        .snapshot()
        .gauge("cluster_nodes_down")
        .unwrap_or(0)
}

#[test]
fn nodes_down_gauge_rises_on_mark_down_and_clears_on_recovery() {
    let dir = std::env::temp_dir().join(format!("srra-cluster-gauge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let up = Server::bind(&ServerConfig::ephemeral(dir.join("up"))).expect("bind up node");
    let up_addr = up.local_addr().to_string();
    let up_handle = std::thread::spawn(move || up.run().expect("up node runs"));

    // Reserve an address that refuses connections: bind an ephemeral port,
    // remember it, drop the listener.  The dead node revives on it later.
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let dead_addr = reserved.local_addr().expect("reserved addr").to_string();
    drop(reserved);

    assert_eq!(nodes_down(), 0, "fresh process: nothing is down");

    // Connect probes every node: the dead one enters its back-off window.
    let mut cluster = ClusterClient::connect(
        &ClusterConfig::new([up_addr.clone(), dead_addr.clone()]).with_replicas(2),
    )
    .expect("one reachable node suffices");
    assert_eq!(nodes_down(), 1, "the dead node is marked down");

    // A liveness probe dials through the window (forgetting it) and re-marks
    // the still-dead node down: the gauge must not double-count.
    let probed = cluster.ping_all();
    assert_eq!(probed.iter().filter(|(_, up)| *up).count(), 1);
    assert_eq!(
        nodes_down(),
        1,
        "forget-then-re-mark is one window, not two"
    );

    // The repair paths dial through the window the same way: a digest
    // pass against the still-dead node fails and re-marks it, once.
    assert!(cluster.digest_all().is_err(), "the dead node cannot answer");
    assert_eq!(nodes_down(), 1, "a repair dial-through is one window too");

    // Revive the dead address; the next probe recovers the node.
    let revived = Server::bind(&ServerConfig {
        addr: dead_addr,
        ..ServerConfig::ephemeral(dir.join("dead"))
    })
    .expect("rebind the reserved port");
    let revived_handle = std::thread::spawn(move || revived.run().expect("revived node runs"));
    let probed = cluster.ping_all();
    assert!(probed.iter().all(|(_, up)| *up), "{probed:?}");
    assert_eq!(nodes_down(), 0, "recovery clears the gauge");

    cluster.shutdown_all();
    up_handle.join().expect("up node thread");
    revived_handle.join().expect("revived node thread");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
