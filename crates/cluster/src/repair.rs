//! Anti-entropy repair and ring rebalance: the operator-facing half of the
//! self-healing story.
//!
//! Read-repair (see [`ClusterClient::mget`]) converges the records that
//! clients actually touch; this module converges everything else.  Both
//! operations are pure clients of the existing wire protocol — `digest`,
//! `scan`, `mget` and `put` — so any process that can reach the nodes can
//! run them, with no coordination service and no server-side state machine:
//!
//! * [`ClusterClient::repair`] makes every record reach all of its replica
//!   owners under the *current* ring.  Fully replicated clusters
//!   (`replicas == nodes`) get a fast path: when every node answers the same
//!   per-shard digest vector the replicas are already converged and nothing
//!   is scanned.  Otherwise each node's canonicals are walked with the paged
//!   `scan` op, owners are recomputed ring-side, and only the records an
//!   owner lacks are fetched and copied — the diff, not the dataset.
//! * [`ClusterClient::rebalance`] moves every record to its owners under a
//!   *new* node list — the client-side half of adding or removing nodes.
//!   Placement is deterministic (the ring depends only on the node names and
//!   vnode count), so walking the old nodes and `put`-ting each record to
//!   its new owners is all a topology change takes; consistent hashing keeps
//!   the moved fraction near `1/n`.

use std::collections::BTreeMap;

use srra_explore::{fnv1a_64, PointRecord};
use srra_serve::{ClientError, Connection, ShardDigest};

use crate::client::{cluster_counters, ClusterClient, ClusterError};
use crate::ring::Ring;

/// Page size for walking a node's shards with `scan`, and batch size for the
/// `mget`/`put` record copies.
const PAGE: usize = 512;

/// The result of one [`ClusterClient::repair`] pass.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Whether the digest fast path proved the cluster converged without
    /// scanning (possible only with full replication, `replicas == nodes`).
    pub digests_equal: bool,
    /// Distinct canonical records seen across all nodes (0 on the fast
    /// path's early return — nothing was scanned).
    pub records_seen: u64,
    /// Replica copies created: records put to owners that lacked them.
    pub records_copied: u64,
}

/// The result of one [`ClusterClient::rebalance`] pass.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Record copies walked on the old nodes (a record replicated on R old
    /// nodes counts R times).
    pub records_walked: u64,
    /// Records newly stored on target nodes.
    pub records_stored: u64,
}

fn node_err(addr: &str, source: ClientError) -> ClusterError {
    ClusterError::Node {
        addr: addr.to_owned(),
        source,
    }
}

impl ClusterClient {
    /// Every node's per-shard anti-entropy digests, in configuration order.
    /// Two nodes holding the same record set answer identical vectors, so
    /// comparing these is how convergence is checked without moving data.
    /// Dials through any open back-off window — a maintenance probe must
    /// reach the fleet, not remembered state.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Node`] for the first node that fails to answer.
    pub fn digest_all(&mut self) -> Result<Vec<Vec<ShardDigest>>, ClusterError> {
        (0..self.nodes.len())
            .map(|index| {
                self.nodes[index].forget_down_window();
                self.nodes[index]
                    .call(Connection::digest)
                    .map_err(|err| node_err(&self.nodes[index].addr, err))
            })
            .collect()
    }

    /// All canonical strings a node holds, walked shard by shard with the
    /// paged `scan` op.
    fn scan_node(&mut self, node: usize) -> Result<Vec<String>, ClusterError> {
        self.nodes[node].forget_down_window();
        let shards = self.nodes[node]
            .call(Connection::digest)
            .map_err(|err| node_err(&self.nodes[node].addr, err))?
            .len();
        let mut canonicals = Vec::new();
        for shard in 0..shards as u64 {
            let mut offset = 0u64;
            loop {
                let (page, done) = self.nodes[node]
                    .call(|connection| connection.scan(shard, offset, PAGE as u64))
                    .map_err(|err| node_err(&self.nodes[node].addr, err))?;
                offset += page.len() as u64;
                canonicals.extend(page);
                if done {
                    break;
                }
            }
        }
        Ok(canonicals)
    }

    /// Anti-entropy pass: makes every record reach all of its replica owners
    /// under the current ring.  With full replication the per-node digests
    /// are compared first and an already-converged cluster returns without
    /// scanning anything; otherwise each node is scanned, owners are
    /// recomputed, and only the missing copies travel.  Copies count in
    /// `cluster_repair_records_total`.
    ///
    /// Repair needs the whole fleet reachable (it must see every replica to
    /// know what is missing); run it after the nodes are back up — e.g.
    /// after replacing a failed node's empty disk.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Node`] for the first node that fails a digest, scan,
    /// fetch or copy.
    pub fn repair(&mut self) -> Result<RepairReport, ClusterError> {
        let mut report = RepairReport::default();
        if self.replicas == self.nodes.len() {
            let digests = self.digest_all()?;
            if digests.windows(2).all(|pair| pair[0] == pair[1]) {
                report.digests_equal = true;
                return Ok(report);
            }
        }
        // Who holds what.  BTreeMap keeps the copy batches in deterministic
        // order, which keeps repair runs comparable in tests and logs.
        let mut holders: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for node in 0..self.nodes.len() {
            for canonical in self.scan_node(node)? {
                holders.entry(canonical).or_default().push(node);
            }
        }
        report.records_seen = holders.len() as u64;
        // The diff: for every record, the owners that lack it, fed from the
        // first node holding it.
        let mut moves: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
        for (canonical, holding) in &holders {
            let owners = self
                .ring
                .owners(fnv1a_64(canonical.as_bytes()), self.replicas);
            for &owner in &owners {
                if !holding.contains(&owner) {
                    moves
                        .entry((holding[0], owner))
                        .or_default()
                        .push(canonical.clone());
                }
            }
        }
        for ((source, target), canonicals) in moves {
            for chunk in canonicals.chunks(PAGE) {
                let records: Vec<PointRecord> = self.nodes[source]
                    .call(|connection| connection.mget(chunk))
                    .map_err(|err| node_err(&self.nodes[source].addr, err))?
                    .into_iter()
                    .flatten()
                    .collect();
                if records.is_empty() {
                    continue;
                }
                self.nodes[target].forget_down_window();
                let stored = self.nodes[target]
                    .call(|connection| connection.put(&records))
                    .map_err(|err| node_err(&self.nodes[target].addr, err))?;
                cluster_counters().repair_records.add(stored);
                report.records_copied += stored;
            }
        }
        Ok(report)
    }

    /// Moves every record to its owners under a *new* node list: walks the
    /// old nodes' shards, recomputes each record's owners on a ring built
    /// from `to` (same vnode count and replication factor as this client),
    /// and `put`s the records there.  Targets that are already cluster
    /// members are reached over this client's keep-alive connections — a
    /// serve node may run a single worker, where a second connection would
    /// starve behind the first until the deadline — and only genuinely new
    /// nodes are dialled directly (same codec and timeout).  Old nodes that
    /// remain in `to` keep the records they already own; retired nodes can
    /// be shut down afterwards.  Purely client-side — the servers never
    /// learn the topology changed.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an unusable target list (empty,
    /// duplicates, or fewer nodes than the replication factor) and
    /// [`ClusterError::Node`] for the first node that fails a scan, fetch or
    /// store.
    pub fn rebalance(&mut self, to: &[String]) -> Result<RebalanceReport, ClusterError> {
        let target_ring =
            Ring::new(to.iter().cloned(), self.vnodes).map_err(ClusterError::Config)?;
        if self.replicas > target_ring.len() {
            return Err(ClusterError::Config(format!(
                "replication factor {} exceeds the target node count {}",
                self.replicas,
                target_ring.len()
            )));
        }
        let mut report = RebalanceReport::default();
        // Target slots: an existing cluster member is addressed through its
        // keep-alive connection (`Ok(index)`); a new node gets a lazily
        // dialled direct connection (`Err(slot)`).
        let members: Vec<Option<usize>> = target_ring
            .nodes()
            .iter()
            .map(|addr| self.nodes.iter().position(|node| node.addr == *addr))
            .collect();
        let mut targets: Vec<Option<Connection>> = (0..target_ring.len()).map(|_| None).collect();
        for node in 0..self.nodes.len() {
            let canonicals = self.scan_node(node)?;
            for chunk in canonicals.chunks(PAGE) {
                let records = self.nodes[node]
                    .call(|connection| connection.mget(chunk))
                    .map_err(|err| node_err(&self.nodes[node].addr, err))?;
                let mut groups: BTreeMap<usize, Vec<PointRecord>> = BTreeMap::new();
                for record in records.into_iter().flatten() {
                    report.records_walked += 1;
                    for owner in target_ring.owners(record.key, self.replicas) {
                        groups.entry(owner).or_default().push(record.clone());
                    }
                }
                for (owner, batch) in groups {
                    let addr = &target_ring.nodes()[owner];
                    let stored = if let Some(member) = members[owner] {
                        self.nodes[member].forget_down_window();
                        self.nodes[member]
                            .call(|connection| connection.put(&batch))
                            .map_err(|err| node_err(addr, err))?
                    } else {
                        let connection = match &mut targets[owner] {
                            Some(connection) => connection,
                            slot @ None => slot.insert(
                                Connection::connect_with_codec(addr, self.binary, self.timeout)
                                    .map_err(|err| node_err(addr, err))?,
                            ),
                        };
                        connection.put(&batch).map_err(|err| node_err(addr, err))?
                    };
                    report.records_stored += stored;
                }
            }
        }
        Ok(report)
    }
}
