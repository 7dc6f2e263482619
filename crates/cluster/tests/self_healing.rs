//! Fault-injection tests for the self-healing cluster: a TCP proxy sits
//! between the cluster client and one node and injects the failure modes a
//! real network produces — silence (blackhole), latency, and connections
//! reset mid-reply — while keeping the node's *address* stable so ring
//! placement never shifts under the test.  The tests prove the self-healing
//! claims from `docs/cluster.md`:
//!
//! 1. deadlines bound the cost of silence: a blackholed node costs a few
//!    timeouts, not a hang, and reads fail over byte-identically;
//! 2. read-repair converges a primary that restarted empty from its replica,
//!    without any operator action;
//! 3. `repair` restores every record after an empty restart, and `rebalance`
//!    re-shards the dataset onto a grown node list.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use srra_cluster::{ClusterClient, ClusterConfig, ClusterExploreReply};
use srra_explore::PointRecord;
use srra_obs::Registry;
use srra_serve::{Connection, PointOutcome, QueryPoint, Server, ServerConfig};

/// The fault a [`FaultProxy`] injects.  Consulted per forwarded chunk, not
/// just at accept time, so switching the fault affects connections that are
/// already established — like a real partition would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Forward bytes both ways untouched.
    Pass,
    /// Sleep this long when a connection is accepted, then forward.
    Delay(Duration),
    /// Accept (and keep) connections but never deliver a byte in either
    /// direction: the node looks reachable and is silent — the failure mode
    /// only a deadline can bound.
    Blackhole,
    /// Deliver the request, then close the connection instead of the reply.
    ResetMidReply,
}

/// Which way a pump thread is copying.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    ClientToServer,
    ServerToClient,
}

/// A transparent TCP proxy with a switchable upstream and a switchable
/// injected fault.  The proxy's own address is what the cluster client is
/// configured with, so the upstream node can die and be replaced — even on a
/// different port — without ring placement moving.
struct FaultProxy {
    addr: String,
    upstream: Arc<Mutex<String>>,
    fault: Arc<Mutex<Fault>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    fn start(upstream: &str) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        let upstream = Arc::new(Mutex::new(upstream.to_owned()));
        let fault = Arc::new(Mutex::new(Fault::Pass));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let (upstream, fault, stop) = (upstream.clone(), fault.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let (upstream, fault, stop) =
                                (upstream.clone(), fault.clone(), stop.clone());
                            std::thread::spawn(move || serve_one(client, &upstream, &fault, &stop));
                        }
                        Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Self {
            addr,
            upstream,
            fault,
            stop,
            accept_thread: Some(accept_thread),
        }
    }

    fn set_fault(&self, fault: Fault) {
        *self.fault.lock().unwrap() = fault;
    }

    /// Points future (and reconnecting) connections at a replacement node.
    fn set_upstream(&self, addr: &str) {
        addr.clone_into(&mut self.upstream.lock().unwrap());
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

/// Handles one accepted connection: applies the at-accept faults (blackhole,
/// delay), dials the upstream, and pumps bytes both ways until either side
/// closes or a live fault switch cuts in.
fn serve_one(
    client: TcpStream,
    upstream: &Arc<Mutex<String>>,
    fault: &Arc<Mutex<Fault>>,
    stop: &Arc<AtomicBool>,
) {
    match *fault.lock().unwrap() {
        Fault::Blackhole => return hold_silently(&client, stop),
        Fault::Delay(delay) => std::thread::sleep(delay),
        Fault::Pass | Fault::ResetMidReply => {}
    }
    let upstream_addr = upstream.lock().unwrap().clone();
    let Ok(server) = TcpStream::connect(&upstream_addr) else {
        return;
    };
    let request_pump = {
        let from = client.try_clone().expect("clone client");
        let to = server.try_clone().expect("clone server");
        let (fault, stop) = (fault.clone(), stop.clone());
        std::thread::spawn(move || pump(from, to, Direction::ClientToServer, &fault, &stop))
    };
    pump(server, client, Direction::ServerToClient, fault, stop);
    let _ = request_pump.join();
}

/// Copies bytes one way, re-reading the injected fault before forwarding
/// each chunk.  A blackhole switch turns the connection silent in place; a
/// reset switch drops the in-flight reply and closes both sides.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    direction: Direction,
    fault: &Mutex<Fault>,
    stop: &AtomicBool,
) {
    let mut chunk = [0u8; 4096];
    loop {
        let read = match from.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(read) => read,
        };
        match *fault.lock().unwrap() {
            Fault::Blackhole => {
                hold_silently(&from, stop);
                break;
            }
            Fault::ResetMidReply if direction == Direction::ServerToClient => break,
            _ => {}
        }
        if to.write_all(&chunk[..read]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Holds a connection open, swallowing whatever arrives and answering
/// nothing, until the proxy stops or the peer gives up.
fn hold_silently(mut stream: &TcpStream, stop: &AtomicBool) {
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .ok();
    let mut sink = [0u8; 256];
    while !stop.load(Ordering::Relaxed) {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}

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
fn json_lines(records: &[PointRecord]) -> Vec<String> {
    records
        .iter()
        .map(|record| {
            let mut line = String::new();
            record.write_json_line(&mut line);
            line
        })
        .collect()
}

fn records_of(reply: &ClusterExploreReply) -> Vec<PointRecord> {
    reply
        .outcomes
        .iter()
        .map(|outcome| match outcome {
            PointOutcome::Answered { record, .. } => record.clone(),
            PointOutcome::Failed { error } => panic!("cold outcome failed: {error}"),
        })
        .collect()
}

fn unwrap_all(records: Vec<Option<PointRecord>>) -> Vec<PointRecord> {
    records
        .into_iter()
        .map(|record| record.expect("every key answered"))
        .collect()
}

fn scratch(label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("srra-self-healing-{label}-{}", std::process::id()))
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

/// Starts a replacement node with an *empty* cache directory, standing in
/// for a machine that came back after losing its disk.
fn start_empty_node(
    dir: &std::path::Path,
) -> (String, std::thread::JoinHandle<srra_serve::ServerReport>) {
    let server = Server::bind(&ServerConfig {
        shards: 2,
        workers: 2,
        ..ServerConfig::ephemeral(dir.to_path_buf())
    })
    .expect("reborn node binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("reborn node runs"));
    (addr, handle)
}

/// Silence costs a bounded number of deadlines, never a hang: with one node
/// blackholed, a replicated read fails over within a few timeouts and stays
/// byte-identical.  Resets mid-reply and sub-deadline latency are absorbed
/// the same way, and `ping_all` revives the node through its back-off.
#[test]
fn deadlines_bound_failover_and_reads_survive_injected_faults() {
    let dir = scratch("faults");
    let _ = std::fs::remove_dir_all(&dir);
    let (addrs, mut handles) = start_nodes(&dir, 2);
    let proxy = FaultProxy::start(&addrs[0]);

    let timeout = Duration::from_millis(200);
    let mut cluster = ClusterClient::connect(
        &ClusterConfig::new(vec![proxy.addr.clone(), addrs[1].clone()])
            .with_replicas(2)
            .with_timeout(Some(timeout)),
    )
    .expect("cluster connects");
    let points = workload();
    let keys = canonicals(&points);
    let cold = cluster.explore(&points).expect("cold explore");
    assert_eq!(cold.evaluated, points.len() as u64);
    let original_lines = json_lines(&records_of(&cold));

    // Node 0 turns silent.  The read must answer from the replica within a
    // few deadlines — unbounded blocking here is exactly the bug deadlines
    // exist to prevent — and the timeout counter must record the silence.
    let timeouts = Registry::global().counter("cluster_timeouts_total");
    let timeouts_before = timeouts.get();
    proxy.set_fault(Fault::Blackhole);
    let started = Instant::now();
    let silent = cluster.mget(&keys).expect("blackhole mget");
    let elapsed = started.elapsed();
    assert_eq!(json_lines(&unwrap_all(silent)), original_lines);
    assert!(
        elapsed < timeout * 10,
        "failover under blackhole took {elapsed:?}, expected a few deadlines"
    );
    assert!(
        timeouts.get() > timeouts_before,
        "silence counted as timeout"
    );

    // The node "recovers"; ping_all probes through the open back-off window
    // instead of trusting remembered down-state.
    proxy.set_fault(Fault::Pass);
    assert!(cluster.ping_all().iter().all(|(_, up)| *up));

    // Reset mid-reply: requests land, replies never do.  The stale-retry
    // inside the connection sees EOF twice, the cluster fails over.
    proxy.set_fault(Fault::ResetMidReply);
    let reset = cluster.mget(&keys).expect("reset mget");
    assert_eq!(json_lines(&unwrap_all(reset)), original_lines);

    // Latency under the deadline is absorbed, not failed over.
    proxy.set_fault(Fault::Delay(Duration::from_millis(25)));
    assert!(cluster.ping_all().iter().all(|(_, up)| *up));
    let delayed = cluster.mget(&keys).expect("delayed mget");
    assert_eq!(json_lines(&unwrap_all(delayed)), original_lines);

    proxy.set_fault(Fault::Pass);
    assert_eq!(cluster.shutdown_all(), 2);
    for handle in handles.drain(..) {
        handle.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A primary that restarted empty is reconverged by ordinary reads: the
/// replica answers, the records are teed back to the primary, and the
/// primary's copies are byte-identical to the originals.
#[test]
fn read_repair_reconverges_a_primary_that_restarted_empty() {
    let dir = scratch("read-repair");
    let _ = std::fs::remove_dir_all(&dir);
    let (addrs, mut handles) = start_nodes(&dir, 2);
    let proxy = FaultProxy::start(&addrs[0]);

    let mut cluster = ClusterClient::connect(
        &ClusterConfig::new(vec![proxy.addr.clone(), addrs[1].clone()])
            .with_replicas(2)
            .with_timeout(Some(Duration::from_millis(500))),
    )
    .expect("cluster connects");
    let points = workload();
    let keys = canonicals(&points);
    let cold = cluster.explore(&points).expect("cold explore");
    let original_lines = json_lines(&records_of(&cold));

    // Node 0 dies and an empty replacement appears behind the same proxy
    // address: placement is unchanged, the primary's data is gone.
    Connection::connect(&addrs[0])
        .expect("connects")
        .shutdown()
        .expect("shutdown node 0");
    handles.remove(0).join().expect("node 0 thread");
    let (reborn_addr, reborn_handle) = start_empty_node(&dir.join("node-0-reborn"));
    handles.push(reborn_handle);
    proxy.set_upstream(&reborn_addr);

    // One read pass heals: misses on the empty primary are retried against
    // the replica, answered, and teed back.
    let repairs = Registry::global().counter("cluster_read_repairs_total");
    let repairs_before = repairs.get();
    let healed = cluster.mget(&keys).expect("healing mget");
    assert_eq!(json_lines(&unwrap_all(healed)), original_lines);
    assert!(
        repairs.get() > repairs_before,
        "read-repair stored records on the reborn primary"
    );

    // The reborn node's copies are byte-identical to the originals.
    let mut direct = Connection::connect(&reborn_addr).expect("direct dial");
    let held = direct.mget(&keys).expect("direct mget");
    let mut held_count = 0usize;
    for (index, record) in held.iter().enumerate() {
        if let Some(record) = record {
            held_count += 1;
            let mut line = String::new();
            record.write_json_line(&mut line);
            assert_eq!(line, original_lines[index], "repaired copy diverged");
        }
    }
    assert!(held_count > 0, "the reborn primary holds repaired records");

    // And the next read is served without further repair traffic failing.
    let again = cluster.mget(&keys).expect("post-heal mget");
    assert_eq!(json_lines(&unwrap_all(again)), original_lines);

    assert_eq!(cluster.shutdown_all(), 2);
    for handle in handles.drain(..) {
        handle.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repair` restores *every* record after an empty restart — including the
/// ones no client read — and a second pass proves convergence through the
/// digest fast path without scanning.
#[test]
fn repair_restores_every_record_after_an_empty_restart() {
    let dir = scratch("repair");
    let _ = std::fs::remove_dir_all(&dir);
    let (addrs, mut handles) = start_nodes(&dir, 2);
    let mut cluster = ClusterClient::connect(&ClusterConfig::new(addrs.clone()).with_replicas(2))
        .expect("cluster connects");
    let points = workload();
    let keys = canonicals(&points);
    let cold = cluster.explore(&points).expect("cold explore");
    let original_lines = json_lines(&records_of(&cold));
    drop(cluster);

    // Node 0 is replaced by an empty node (full replication makes every node
    // an owner of every record, so the replacement address is free to move).
    Connection::connect(&addrs[0])
        .expect("connects")
        .shutdown()
        .expect("shutdown node 0");
    handles.remove(0).join().expect("node 0 thread");
    let (reborn_addr, reborn_handle) = start_empty_node(&dir.join("node-0-reborn"));
    handles.insert(0, reborn_handle);

    let mut cluster = ClusterClient::connect(
        &ClusterConfig::new(vec![reborn_addr, addrs[1].clone()]).with_replicas(2),
    )
    .expect("cluster reconnects");

    let report = cluster.repair().expect("repair");
    assert!(!report.digests_equal, "divergence detected");
    assert_eq!(report.records_seen, points.len() as u64);
    assert_eq!(report.records_copied, points.len() as u64);

    let digests = cluster.digest_all().expect("digest all");
    assert!(
        digests.windows(2).all(|pair| pair[0] == pair[1]),
        "all nodes answer identical digests after repair"
    );

    // Converged cluster: the second pass proves it from digests alone.
    let second = cluster.repair().expect("second repair");
    assert!(second.digests_equal);
    assert_eq!(second.records_copied, 0);

    let records = cluster.mget(&keys).expect("post-repair mget");
    assert_eq!(json_lines(&unwrap_all(records)), original_lines);

    assert_eq!(cluster.shutdown_all(), 2);
    for handle in handles.drain(..) {
        handle.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rebalance` is how a node joins: records walk from the old ring to their
/// owners under the grown node list, after which a client configured with
/// the new topology answers every key byte-identically and the new node
/// holds its share.
#[test]
fn rebalance_moves_records_onto_a_grown_node_list() {
    let dir = scratch("rebalance");
    let _ = std::fs::remove_dir_all(&dir);
    let (addrs, mut handles) = start_nodes(&dir, 3);

    // The cluster starts as nodes 0 and 1; node 2 runs but owns nothing.
    let old = vec![addrs[0].clone(), addrs[1].clone()];
    let mut cluster = ClusterClient::connect(&ClusterConfig::new(old)).expect("cluster connects");
    let points = workload();
    let keys = canonicals(&points);
    let cold = cluster.explore(&points).expect("cold explore");
    let original_lines = json_lines(&records_of(&cold));

    let report = cluster.rebalance(&addrs).expect("rebalance");
    assert_eq!(report.records_walked, points.len() as u64);
    assert!(
        report.records_stored > 0,
        "the joining node took over part of the ring"
    );

    // A client on the new topology answers every key byte-identically...
    let mut grown =
        ClusterClient::connect(&ClusterConfig::new(addrs.clone())).expect("grown cluster");
    let records = grown.mget(&keys).expect("grown mget");
    assert_eq!(json_lines(&unwrap_all(records)), original_lines);

    // ...and the joining node physically holds its share.
    let mut direct = Connection::connect(&addrs[2]).expect("direct dial");
    let held = direct.mget(&keys).expect("direct mget");
    assert!(
        held.iter().any(Option::is_some),
        "the joining node holds records"
    );

    assert_eq!(grown.shutdown_all(), 3);
    for handle in handles.drain(..) {
        handle.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: rebalance must reach target nodes that are already cluster
/// members over the client's existing keep-alive connections.  On a
/// single-worker node — the `srra serve` default on a one-core box — a
/// second connection sits in the accept queue behind the keep-alive one, so
/// a direct dial for the `put` would starve until the deadline fired.
#[test]
fn rebalance_reuses_cluster_connections_on_single_worker_nodes() {
    let dir = scratch("rebalance-single-worker");
    let _ = std::fs::remove_dir_all(&dir);
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for index in 0..3 {
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 1,
            ..ServerConfig::ephemeral(dir.join(format!("node-{index}")))
        })
        .expect("node binds");
        addrs.push(server.local_addr().to_string());
        handles.push(std::thread::spawn(move || server.run().expect("node runs")));
    }

    let old = vec![addrs[0].clone(), addrs[1].clone()];
    let mut cluster = ClusterClient::connect(&ClusterConfig::new(old)).expect("cluster connects");
    let points = workload();
    let keys = canonicals(&points);
    let cold = cluster.explore(&points).expect("cold explore");
    let original_lines = json_lines(&records_of(&cold));

    // With a direct dial to a member this would time out against the
    // member's single worker; over the keep-alive connections it completes.
    let report = cluster.rebalance(&addrs).expect("rebalance");
    assert_eq!(report.records_walked, points.len() as u64);
    assert!(report.records_stored > 0, "the joining node took its share");

    // Release the old keep-alive connections before dialling the grown
    // topology — each node has exactly one worker to serve one socket.
    drop(cluster);
    let mut grown =
        ClusterClient::connect(&ClusterConfig::new(addrs.clone())).expect("grown cluster");
    let records = grown.mget(&keys).expect("grown mget");
    assert_eq!(json_lines(&unwrap_all(records)), original_lines);

    assert_eq!(grown.shutdown_all(), 3);
    for handle in handles.drain(..) {
        handle.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
