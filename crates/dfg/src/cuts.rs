//! Enumeration of reference-node cuts of the Critical Graph.
//!
//! A *cut* (in the paper's terminology) is a minimal set of reference nodes of the
//! Critical Graph whose removal disconnects every critical path.  Promoting every
//! reference of a cut to registers is therefore guaranteed to shorten *all* critical
//! paths, which is the core idea behind CPA-RA: improving only a subset of the critical
//! paths "would just consume the resources without having any effect on the overall
//! computation time".
//!
//! The enumeration follows the iterative scheme sketched in the paper's footnote
//! (repeatedly pick an unblocked path and branch on its reference nodes), which yields
//! every minimal cut.  It runs over local indices of the critical graph's nodes, their
//! positions in [`CriticalGraph::nodes`]: blocked, visited and partial-cut sets are
//! bitsets of one `u64` word per 64 nodes, whatever the graph's size, a path is a
//! parent pointer per node, and the partial cuts already branched on are a hash set of
//! bitsets.  The worst case is exponential, as the paper itself notes; the search
//! stops after 4,096 cuts.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::critical::CriticalGraph;
use crate::graph::{DataFlowGraph, NodeId};

/// A cut: a set of reference nodes of the critical graph, sorted by node id.
pub type Cut = Vec<NodeId>;

/// Upper bound on the number of cuts returned by [`find_cuts`].
const MAX_CUTS: usize = 4096;

/// A set of critical-graph nodes by local index: bit `i % 64` of word `i / 64`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NodeSet(Box<[u64]>);

impl NodeSet {
    /// The empty set over `len` nodes.
    fn empty(len: usize) -> Self {
        Self(vec![0; len.div_ceil(64)].into_boxed_slice())
    }

    fn contains(&self, index: usize) -> bool {
        self.0[index / 64] & (1u64 << (index % 64)) != 0
    }

    fn insert(&mut self, index: usize) {
        self.0[index / 64] |= 1u64 << (index % 64);
    }

    fn remove(&mut self, index: usize) {
        self.0[index / 64] &= !(1u64 << (index % 64));
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(word_index, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    word_index * 64 + bit
                })
            })
        })
    }
}

/// Depth-first search for source-to-sink paths of a critical graph that avoid a
/// blocked set, over local node indices.
struct PathSearch<'g> {
    /// `cg`'s successor offsets, indexing `successors`.
    offsets: &'g [usize],
    /// The local index of each of `cg`'s successors.
    successors: Vec<usize>,
    /// Local indices of `cg`'s sources, ascending.
    sources: Vec<usize>,
    /// The reference nodes.
    references: NodeSet,
    /// Scratch of one search: the nodes reached, each node's predecessor on its path,
    /// and the nodes whose successors are still to expand.
    visited: NodeSet,
    parent: Vec<usize>,
    stack: Vec<usize>,
}

impl<'g> PathSearch<'g> {
    fn new(dfg: &DataFlowGraph, cg: &'g CriticalGraph) -> Self {
        let nodes = cg.nodes();
        let local = |node: &NodeId| {
            nodes
                .binary_search(node)
                .expect("critical edges join critical nodes")
        };
        let (offsets, successors) = cg.adjacency();
        let mut references = NodeSet::empty(nodes.len());
        for (index, &node) in nodes.iter().enumerate() {
            if dfg.node(node).reference().is_some() {
                references.insert(index);
            }
        }
        Self {
            offsets,
            successors: successors.iter().map(local).collect(),
            sources: cg.sources().iter().map(local).collect(),
            references,
            visited: NodeSet::empty(nodes.len()),
            parent: vec![0; nodes.len()],
            stack: Vec::new(),
        }
    }

    /// Finds a source-to-sink path that avoids `blocked` and returns its source and
    /// sink; [`PathSearch::path_references`] reads the path back.
    ///
    /// Sources are tried in ascending order and each is searched depth first,
    /// successors in edge order; the path ends at the first sink popped.
    fn unblocked_path(&mut self, blocked: &NodeSet) -> Option<(usize, usize)> {
        for &source in &self.sources {
            if blocked.contains(source) {
                continue;
            }
            self.visited.clear();
            self.visited.insert(source);
            self.stack.clear();
            self.stack.push(source);
            while let Some(last) = self.stack.pop() {
                let successors = &self.successors[self.offsets[last]..self.offsets[last + 1]];
                if successors.is_empty() {
                    return Some((source, last));
                }
                for &next in successors {
                    if !blocked.contains(next) && !self.visited.contains(next) {
                        self.visited.insert(next);
                        self.parent[next] = last;
                        self.stack.push(next);
                    }
                }
            }
        }
        None
    }

    /// Writes the reference nodes of the path last found from `source` to `sink` into
    /// `out`, from source to sink.
    fn path_references(&self, source: usize, sink: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut node = sink;
        loop {
            if self.references.contains(node) {
                out.push(node);
            }
            if node == source {
                break;
            }
            node = self.parent[node];
        }
        out.reverse();
    }

    /// Shrinks a blocking set to a minimal one: each member, in ascending order, is
    /// dropped when the rest still blocks every path without it.
    fn minimise(&mut self, cut: &mut NodeSet) {
        let members: Vec<usize> = cut.iter().collect();
        for node in members {
            cut.remove(node);
            if self.unblocked_path(cut).is_some() {
                cut.insert(node);
            }
        }
    }
}

/// Process-wide count of cut enumerations, see [`cut_enumerations`].
static CUT_ENUMERATIONS: AtomicUsize = AtomicUsize::new(0);

/// The number of [`find_cuts`] calls made by this process so far.
///
/// Instrumentation for the memoization regression tests: an allocation that reuses a
/// memoized starting cut set enumerates one set fewer than one that starts afresh.
/// The counter is monotonic, so tests must compare deltas, not absolute values.
#[doc(hidden)]
pub fn cut_enumerations() -> usize {
    CUT_ENUMERATIONS.load(Ordering::Relaxed)
}

/// Enumerates the minimal reference-node cuts of the critical graph.
///
/// Returns an empty vector when some critical path contains no reference node at all
/// (in that case no register allocation can shorten the critical path).  Cuts are
/// returned sorted by size, then lexicographically, so the output is deterministic.
///
/// The search is the paper's: starting from the empty set, it takes the partial cut
/// pushed last, finds a critical path that the partial cut leaves open (sources in
/// ascending id order, each searched depth first with successors in edge order), and
/// pushes the partial cut extended by each reference node of that path, from source to
/// sink, unless that set was pushed before.  A partial cut that leaves no path open is
/// minimised and kept.  Sets are bitsets over the critical graph's nodes, one `u64`
/// word per 64 nodes.
///
/// At most 4,096 cuts are returned; the search stops once it has found that many.
/// The cap bounds the results, not the work: until then the search visits every
/// partial cut that does not block, which can be exponential in the number of
/// reference nodes even when few cuts exist.
pub fn find_cuts(dfg: &DataFlowGraph, cg: &CriticalGraph) -> Vec<Cut> {
    CUT_ENUMERATIONS.fetch_add(1, Ordering::Relaxed);
    let mut search = PathSearch::new(dfg, cg);
    if search.references.is_empty() {
        return Vec::new();
    }

    let mut found: HashSet<NodeSet> = HashSet::new();
    let mut explored: HashSet<NodeSet> = HashSet::new();
    let mut stack = vec![NodeSet::empty(cg.len())];
    let mut candidates = Vec::new();
    while let Some(mut partial) = stack.pop() {
        if found.len() >= MAX_CUTS {
            break;
        }
        match search.unblocked_path(&partial) {
            None => {
                search.minimise(&mut partial);
                found.insert(partial);
            }
            Some((source, sink)) => {
                search.path_references(source, sink, &mut candidates);
                if candidates.is_empty() {
                    // This path can never be blocked by reference nodes: no cut exists.
                    return Vec::new();
                }
                for &node in &candidates {
                    let mut extended = partial.clone();
                    extended.insert(node);
                    if explored.insert(extended.clone()) {
                        stack.push(extended);
                    }
                }
            }
        }
    }

    // Every set found is minimal (blocking is monotone, and minimising drops each
    // member the rest blocks without), so no found cut contains another.
    let nodes = cg.nodes();
    let mut cuts: Vec<Cut> = found
        .iter()
        .map(|cut| cut.iter().map(|index| nodes[index]).collect())
        .collect();
    cuts.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::CriticalPathAnalysis;
    use crate::latency::{LatencyModel, StorageMap};
    use srra_ir::examples::{dot_product, paper_example, stencil3};

    fn labelled_cuts(kernel: &srra_ir::Kernel) -> (DataFlowGraph, Vec<Vec<String>>) {
        let dfg = DataFlowGraph::from_kernel(kernel);
        let analysis =
            CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        let cuts = find_cuts(&dfg, analysis.critical_graph());
        let mut names: Vec<Vec<String>> = cuts
            .iter()
            .map(|cut| {
                let mut labels: Vec<String> = cut
                    .iter()
                    .map(|&n| dfg.node(n).label().into_owned())
                    .collect();
                labels.sort();
                labels
            })
            .collect();
        names.sort();
        (dfg, names)
    }

    /// Returns `true` when blocking exactly the nodes of `cut` disconnects every
    /// source-to-sink path of the critical graph.
    fn is_blocking(dfg: &DataFlowGraph, cg: &CriticalGraph, cut: &[NodeId]) -> bool {
        let mut blocked = NodeSet::empty(cg.len());
        for node in cut {
            blocked.insert(cg.nodes().binary_search(node).unwrap());
        }
        PathSearch::new(dfg, cg).unblocked_path(&blocked).is_none()
    }

    #[test]
    fn node_sets_span_words() {
        let mut set = NodeSet::empty(130);
        assert_eq!(set.0.len(), 3);
        assert!(set.is_empty());
        for index in [129, 0, 64, 63, 128] {
            set.insert(index);
        }
        assert!(set.contains(63) && set.contains(64) && !set.contains(65));
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 128, 129]);
        set.remove(64);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 128, 129]);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(NodeSet::empty(64).0.len(), 1);
    }

    #[test]
    fn paper_example_cuts_match_figure_2b() {
        let kernel = paper_example();
        let (_, names) = labelled_cuts(&kernel);
        assert_eq!(
            names,
            vec![
                vec!["a[k]".to_owned(), "b[k][j]".to_owned()],
                vec!["d[i][k]".to_owned()],
                vec!["e[i][j][k]".to_owned()],
            ]
        );
    }

    #[test]
    fn every_cut_blocks_every_critical_path() {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let analysis =
            CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        let cg = analysis.critical_graph();
        for cut in find_cuts(&dfg, cg) {
            assert!(is_blocking(&dfg, cg, &cut));
        }
    }

    #[test]
    fn cuts_are_minimal() {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let analysis =
            CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        let cg = analysis.critical_graph();
        for cut in find_cuts(&dfg, cg) {
            for drop in &cut {
                let reduced: Vec<NodeId> = cut.iter().copied().filter(|n| n != drop).collect();
                assert!(
                    !is_blocking(&dfg, cg, &reduced),
                    "cut {cut:?} is not minimal (can drop {drop:?})"
                );
            }
        }
    }

    #[test]
    fn stencil_cuts_cover_the_window_references() {
        let kernel = stencil3(32);
        let (_, names) = labelled_cuts(&kernel);
        assert!(!names.is_empty());
        // The store out[i] alone is always a cut: it is the unique sink.
        assert!(names.contains(&vec!["out[i]".to_owned()]));
    }

    #[test]
    fn dot_product_cuts() {
        let kernel = dot_product(16);
        let (_, names) = labelled_cuts(&kernel);
        // The accumulator write s[0] is the unique sink and forms a singleton cut.
        assert!(names.iter().any(|cut| cut == &vec!["s[0]".to_owned()]));
    }
}
