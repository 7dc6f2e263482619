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
//! every minimal cut.  The worst case is exponential — as the paper itself notes — but
//! critical graphs of loop bodies are tiny, and the search is additionally capped.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::critical::CriticalGraph;
use crate::graph::{DataFlowGraph, NodeId};

/// A cut: a set of reference nodes of the critical graph, sorted by node id.
pub type Cut = Vec<NodeId>;

/// Upper bound on the number of cuts returned by [`find_cuts`].
const MAX_CUTS: usize = 4096;

/// Finds a source-to-sink path of the critical graph that avoids `blocked` reference
/// nodes, if one exists.
fn find_unblocked_path(cg: &CriticalGraph, blocked: &BTreeSet<NodeId>) -> Option<Vec<NodeId>> {
    // Depth-first search from every CG source.
    for &source in cg.sources() {
        if blocked.contains(&source) {
            continue;
        }
        let mut stack = vec![vec![source]];
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        visited.insert(source);
        while let Some(path) = stack.pop() {
            let last = *path.last().expect("non-empty path");
            let succs = cg.successors(last);
            if succs.is_empty() {
                return Some(path);
            }
            for next in succs {
                if blocked.contains(&next) || visited.contains(&next) {
                    continue;
                }
                visited.insert(next);
                let mut extended = path.clone();
                extended.push(next);
                stack.push(extended);
            }
        }
    }
    None
}

/// Returns `true` when blocking exactly the nodes of `cut` disconnects every
/// source-to-sink path of the critical graph.
fn is_blocking(cg: &CriticalGraph, cut: &BTreeSet<NodeId>) -> bool {
    find_unblocked_path(cg, cut).is_none()
}

fn minimise(cg: &CriticalGraph, cut: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    let mut minimal = cut.clone();
    for node in cut {
        let mut candidate = minimal.clone();
        candidate.remove(node);
        if is_blocking(cg, &candidate) {
            minimal = candidate;
        }
    }
    minimal
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
pub fn find_cuts(dfg: &DataFlowGraph, cg: &CriticalGraph) -> Vec<Cut> {
    CUT_ENUMERATIONS.fetch_add(1, Ordering::Relaxed);
    let reference_nodes: BTreeSet<NodeId> = cg
        .nodes()
        .iter()
        .copied()
        .filter(|&n| dfg.node(n).reference().is_some())
        .collect();
    if reference_nodes.is_empty() {
        return Vec::new();
    }

    let mut results: Vec<BTreeSet<NodeId>> = Vec::new();
    let mut stack: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new()];
    let mut explored: BTreeSet<BTreeSet<NodeId>> = BTreeSet::new();

    while let Some(partial) = stack.pop() {
        if results.len() >= MAX_CUTS {
            break;
        }
        match find_unblocked_path(cg, &partial) {
            None => {
                let minimal = minimise(cg, &partial);
                if !results.contains(&minimal) {
                    results.push(minimal);
                }
            }
            Some(path) => {
                let candidates: Vec<NodeId> = path
                    .iter()
                    .copied()
                    .filter(|n| reference_nodes.contains(n))
                    .collect();
                if candidates.is_empty() {
                    // This path can never be blocked by reference nodes: no cut exists.
                    return Vec::new();
                }
                for node in candidates {
                    let mut extended = partial.clone();
                    extended.insert(node);
                    if explored.insert(extended.clone()) {
                        stack.push(extended);
                    }
                }
            }
        }
    }

    // Keep only minimal cuts (no other cut is a subset) and sort deterministically.
    let mut cuts: Vec<Cut> = results
        .iter()
        .filter(|cut| {
            !results
                .iter()
                .any(|other| *other != **cut && other.is_subset(cut))
        })
        .map(|cut| cut.iter().copied().collect::<Vec<_>>())
        .collect();
    cuts.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    cuts.dedup();
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
                    .map(|&n| dfg.node(n).label().to_owned())
                    .collect();
                labels.sort();
                labels
            })
            .collect();
        names.sort();
        (dfg, names)
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
            let blocked: BTreeSet<NodeId> = cut.iter().copied().collect();
            assert!(is_blocking(cg, &blocked));
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
                let reduced: BTreeSet<NodeId> = cut.iter().copied().filter(|n| n != drop).collect();
                assert!(
                    !is_blocking(cg, &reduced),
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
