//! Longest-path (critical-path) analysis and the Critical Graph.

use serde::{Deserialize, Serialize};

use crate::graph::{DataFlowGraph, NodeId};
use crate::latency::{LatencyModel, StorageMap};

/// The subgraph of a DFG containing every node and edge that lies on at least one
/// critical (maximum-latency) path.
///
/// The paper calls this the *Critical Graph* (CG); CPA-RA allocates registers to cuts
/// of this graph so that every register spent shortens **all** critical paths at once.
/// Its edges are kept as offset arrays: the successors of the `i`-th node are one
/// contiguous run of a single array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalGraph {
    nodes: Vec<NodeId>,
    /// The successors of `nodes[i]` are `successors[offsets[i]..offsets[i + 1]]`, in
    /// the DFG's edge order.
    offsets: Vec<usize>,
    successors: Vec<NodeId>,
    sources: Vec<NodeId>,
    sinks: Vec<NodeId>,
}

impl CriticalGraph {
    /// Nodes of the critical graph, in ascending id order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Critical nodes with no critical predecessor (path entry points).
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Critical nodes with no critical successor (path exit points).
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// Returns `true` when the node belongs to the critical graph.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Successors of `node` within the critical graph (none when `node` is not in it).
    /// Each edge to one lies on some critical path.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        match self.nodes.binary_search(&node) {
            Ok(index) => &self.successors[self.offsets[index]..self.offsets[index + 1]],
            Err(_) => &[],
        }
    }

    /// The offset arrays: the successors of the node at `index` of
    /// [`CriticalGraph::nodes`] are `successors[offsets[index]..offsets[index + 1]]`.
    pub(crate) fn adjacency(&self) -> (&[usize], &[NodeId]) {
        (&self.offsets, &self.successors)
    }

    /// Number of critical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the critical graph is empty (only possible for an empty
    /// DFG).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Longest-path analysis of a [`DataFlowGraph`] under a [`LatencyModel`] and a
/// [`StorageMap`].
///
/// The *length* of a path is the sum of the latencies of its nodes, exactly the
/// `lat(p) = Σ lat(n)` definition of the paper, and the execution time `T_comp` of the
/// DFG is the maximum path length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathAnalysis {
    latencies: Vec<u64>,
    longest_to: Vec<u64>,
    longest_from: Vec<u64>,
    critical_length: u64,
    critical_graph: CriticalGraph,
}

impl CriticalPathAnalysis {
    /// Runs the analysis.
    pub fn new(dfg: &DataFlowGraph, model: &LatencyModel, storage: &StorageMap) -> Self {
        let n = dfg.node_count();
        let latencies: Vec<u64> = dfg
            .node_ids()
            .map(|id| model.node_latency(dfg.node(id), storage))
            .collect();

        let order = dfg.topological_order();
        let mut longest_to = vec![0u64; n];
        for &node in &order {
            let incoming = dfg
                .predecessors(node)
                .iter()
                .map(|p| longest_to[p.index()])
                .max()
                .unwrap_or(0);
            longest_to[node.index()] = incoming + latencies[node.index()];
        }
        let mut longest_from = vec![0u64; n];
        for &node in order.iter().rev() {
            let outgoing = dfg
                .successors(node)
                .iter()
                .map(|s| longest_from[s.index()])
                .max()
                .unwrap_or(0);
            longest_from[node.index()] = outgoing + latencies[node.index()];
        }
        let critical_length = longest_to.iter().copied().max().unwrap_or(0);

        let nodes: Vec<NodeId> = dfg
            .node_ids()
            .filter(|id| {
                longest_to[id.index()] + longest_from[id.index()] - latencies[id.index()]
                    == critical_length
            })
            .collect();
        // An edge lies on a critical path when its ends' longest paths meet at the
        // critical length; both its ends are then critical nodes.
        let critical_edge = |from: NodeId, to: NodeId| {
            longest_to[from.index()] + longest_from[to.index()] == critical_length
        };
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let mut successors = Vec::new();
        for &from in &nodes {
            let next = dfg.successors(from).iter().copied();
            successors.extend(next.filter(|&to| critical_edge(from, to)));
            offsets.push(successors.len());
        }
        let sources: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&to| {
                !dfg.predecessors(to)
                    .iter()
                    .any(|&from| critical_edge(from, to))
            })
            .collect();
        let sinks: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|&(index, _)| offsets[index] == offsets[index + 1])
            .map(|(_, &node)| node)
            .collect();

        Self {
            latencies,
            longest_to,
            longest_from,
            critical_length,
            critical_graph: CriticalGraph {
                nodes,
                offsets,
                successors,
                sources,
                sinks,
            },
        }
    }

    /// The latency assigned to a node by the model and storage map.
    pub fn latency(&self, node: NodeId) -> u64 {
        self.latencies[node.index()]
    }

    /// Length of the longest path ending at (and including) `node`.
    pub fn longest_to(&self, node: NodeId) -> u64 {
        self.longest_to[node.index()]
    }

    /// Length of the longest path starting at (and including) `node`.
    pub fn longest_from(&self, node: NodeId) -> u64 {
        self.longest_from[node.index()]
    }

    /// The critical path length `T_comp`: the maximum path latency of the DFG.
    pub fn critical_length(&self) -> u64 {
        self.critical_length
    }

    /// Slack of a node: how much its latency could grow without lengthening the
    /// critical path.  Critical nodes have zero slack.
    pub fn slack(&self, node: NodeId) -> u64 {
        self.critical_length
            - (self.longest_to[node.index()] + self.longest_from[node.index()]
                - self.latencies[node.index()])
    }

    /// Returns `true` when the node lies on at least one critical path.
    pub fn is_critical(&self, node: NodeId) -> bool {
        self.slack(node) == 0
    }

    /// The critical graph (all critical paths).
    pub fn critical_graph(&self) -> &CriticalGraph {
        &self.critical_graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Storage;
    use srra_ir::examples::paper_example;

    fn setup() -> (srra_ir::Kernel, DataFlowGraph, LatencyModel) {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        (kernel, dfg, LatencyModel::default())
    }

    fn node_by_label(dfg: &DataFlowGraph, label: &str) -> NodeId {
        dfg.nodes()
            .find(|n| n.label() == label)
            .unwrap_or_else(|| panic!("node {label} not found"))
            .id()
    }

    #[test]
    fn all_ram_critical_path_follows_the_long_chain() {
        let (_, dfg, model) = setup();
        let analysis = CriticalPathAnalysis::new(&dfg, &model, &StorageMap::all_ram());
        // a/b (1) -> op1 (2) -> d (1) -> op2 (2) -> e (1) = 7 cycles.
        assert_eq!(analysis.critical_length(), 7);
        let cg = analysis.critical_graph();
        let labels: Vec<String> = cg
            .nodes()
            .iter()
            .map(|&n| dfg.node(n).label().into_owned())
            .collect();
        let critical = |label: &str| labels.iter().any(|l| l == label);
        assert!(critical("a[k]"));
        assert!(critical("b[k][j]"));
        assert!(critical("d[i][k]"));
        assert!(critical("e[i][j][k]"));
        // c is NOT on the critical path: its chain c -> op2 -> e is shorter.
        assert!(!critical("c[j]"));
        assert_eq!(cg.len(), 6);
    }

    #[test]
    fn slack_is_zero_exactly_on_critical_nodes() {
        let (_, dfg, model) = setup();
        let analysis = CriticalPathAnalysis::new(&dfg, &model, &StorageMap::all_ram());
        for node in dfg.node_ids() {
            assert_eq!(analysis.slack(node) == 0, analysis.is_critical(node));
        }
        let c = node_by_label(&dfg, "c[j]");
        assert!(analysis.slack(c) > 0);
    }

    #[test]
    fn promoting_the_critical_references_shortens_the_path() {
        let (kernel, dfg, model) = setup();
        let table = kernel.reference_table();
        let mut storage = StorageMap::all_ram();
        for name in ["a", "b", "d", "e"] {
            storage.set(table.find_by_name(name).unwrap().id(), Storage::Register);
        }
        let analysis = CriticalPathAnalysis::new(&dfg, &model, &storage);
        // Memory latency disappears from the long chain; now c (still in RAM) matters:
        // c (1) -> op2 (2) -> e (0) = 3, versus a/b (0) -> op1 (2) -> d (0) -> op2 (2) -> e (0) = 4.
        assert_eq!(analysis.critical_length(), 4);
    }

    #[test]
    fn longest_to_and_from_are_consistent_with_length() {
        let (_, dfg, model) = setup();
        let analysis = CriticalPathAnalysis::new(&dfg, &model, &StorageMap::all_ram());
        for node in dfg.node_ids() {
            let through =
                analysis.longest_to(node) + analysis.longest_from(node) - analysis.latency(node);
            assert!(through <= analysis.critical_length());
        }
        let e = node_by_label(&dfg, "e[i][j][k]");
        assert_eq!(analysis.longest_to(e), analysis.critical_length());
    }

    #[test]
    fn critical_graph_membership_queries() {
        let (_, dfg, model) = setup();
        let analysis = CriticalPathAnalysis::new(&dfg, &model, &StorageMap::all_ram());
        let cg = analysis.critical_graph();
        assert!(!cg.is_empty());
        let d = node_by_label(&dfg, "d[i][k]");
        let c = node_by_label(&dfg, "c[j]");
        assert!(cg.contains(d));
        assert!(!cg.contains(c));
        assert_eq!(cg.sinks().len(), 1);
        assert_eq!(cg.sources().len(), 2);
        // a, b -> mul#0 -> d -> mul#1 -> e: five critical edges, and c has none.
        let edges: usize = cg.nodes().iter().map(|&n| cg.successors(n).len()).sum();
        assert_eq!(edges, 5);
        assert_eq!(cg.successors(d).len(), 1);
        assert!(cg.successors(c).is_empty());
        assert_eq!(cg.successors(cg.sinks()[0]), &[]);
    }
}
