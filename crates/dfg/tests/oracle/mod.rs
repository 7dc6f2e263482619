//! The reference cut enumerator: the footnote's scheme over `BTreeSet`s of node ids,
//! kept as the oracle that `srra_dfg::find_cuts` must match exactly, and the seeded
//! storage maps the differential tests feed both.
//!
//! It walks the same DFS order as the library (sources ascending, successors in edge
//! order, partial cuts popped last-in first-out), but it clones a path per DFS step
//! and a set per branch, so it is only fit for tests.  Each test target that declares
//! `mod oracle;` uses part of it.
#![allow(dead_code)]

use std::collections::BTreeSet;

use srra_dfg::{CriticalGraph, Cut, DataFlowGraph, NodeId, Storage, StorageMap};

/// SplitMix64: the seeded stream behind generated graphs and storage maps.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..bound`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A storage map that places each reference group of `dfg` in registers with
/// probability one half, drawn from `seed`.
pub fn seeded_storage(dfg: &DataFlowGraph, seed: u64) -> StorageMap {
    let mut rng = Rng::new(seed);
    let mut storage = StorageMap::all_ram();
    for node in dfg.nodes() {
        if let Some(ref_id) = node.reference() {
            if rng.below(2) == 1 {
                storage.set(ref_id, Storage::Register);
            }
        }
    }
    storage
}

/// The cap on results, as in the library.
pub const MAX_CUTS: usize = 4096;

/// Finds a source-to-sink path of the critical graph that avoids `blocked` nodes.
pub fn find_unblocked_path(cg: &CriticalGraph, blocked: &BTreeSet<NodeId>) -> Option<Vec<NodeId>> {
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
            for &next in succs.iter() {
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

/// Returns `true` when blocking exactly `cut` disconnects every source-to-sink path.
pub fn is_blocking(cg: &CriticalGraph, cut: &BTreeSet<NodeId>) -> bool {
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

/// Enumerates the minimal reference-node cuts of the critical graph.
pub fn find_cuts(dfg: &DataFlowGraph, cg: &CriticalGraph) -> Vec<Cut> {
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
