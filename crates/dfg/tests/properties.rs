//! Property-based tests for the data-flow graph, critical-path analysis and cut
//! enumeration.

mod oracle;

use std::collections::BTreeSet;

use proptest::prelude::*;
use srra_dfg::{
    find_cuts, CriticalPathAnalysis, DataFlowGraph, LatencyModel, NodeId, Storage, StorageMap,
};
use srra_ir::{Kernel, KernelBuilder};

/// A family of two-statement kernels whose data-flow shape varies with the parameters.
fn generated_kernel(ni: u64, nj: u64, nk: u64, chain: bool) -> Kernel {
    let b = KernelBuilder::new("generated");
    let i = b.add_loop("i", ni);
    let j = b.add_loop("j", nj);
    let k = b.add_loop("k", nk);
    let a = b.add_array("a", &[nk], 16);
    let bb = b.add_array("b", &[nk, nj], 16);
    let c = b.add_array("c", &[nj], 16);
    let d = b.add_array("d", &[ni, nk], 16);
    let e = b.add_array("e", &[ni, nj, nk], 16);

    let op1 = b.mul(b.read(a, &[b.idx(k)]), b.read(bb, &[b.idx(k), b.idx(j)]));
    b.store(d, &[b.idx(i), b.idx(k)], op1);
    let second_operand = if chain {
        b.read(d, &[b.idx(i), b.idx(k)])
    } else {
        b.read(bb, &[b.idx(k), b.idx(j)])
    };
    let op2 = b.mul(b.read(c, &[b.idx(j)]), second_operand);
    b.store(e, &[b.idx(i), b.idx(j), b.idx(k)], op2);
    b.build().expect("generated kernel is valid")
}

fn storage_for(dfg: &DataFlowGraph, mask: u32) -> StorageMap {
    let mut storage = StorageMap::all_ram();
    for (bit, node) in dfg.reference_nodes().into_iter().enumerate() {
        if mask & (1 << (bit % 16)) != 0 {
            if let Some(ref_id) = dfg.node(node).reference() {
                storage.set(ref_id, Storage::Register);
            }
        }
    }
    storage
}

fn blocks_all_paths(analysis: &CriticalPathAnalysis, cut: &[NodeId]) -> bool {
    let blocked: BTreeSet<NodeId> = cut.iter().copied().collect();
    // Re-derive path blocking through the oracle's own path search: no critical path
    // may avoid every cut node.
    oracle::is_blocking(analysis.critical_graph(), &blocked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graphs_are_acyclic_and_topologically_ordered(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        chain in any::<bool>(),
    ) {
        let kernel = generated_kernel(ni, nj, nk, chain);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let order = dfg.topological_order();
        prop_assert_eq!(order.len(), dfg.node_count());
        let position = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for node in dfg.node_ids() {
            for &succ in dfg.successors(node) {
                prop_assert!(position(node) < position(succ));
            }
        }
    }

    #[test]
    fn critical_length_bounds_every_node_path(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        chain in any::<bool>(),
        mask in any::<u32>(),
    ) {
        let kernel = generated_kernel(ni, nj, nk, chain);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let storage = storage_for(&dfg, mask);
        let analysis = CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &storage);
        for node in dfg.node_ids() {
            let through = analysis.longest_to(node) + analysis.longest_from(node)
                - analysis.latency(node);
            prop_assert!(through <= analysis.critical_length());
            prop_assert_eq!(analysis.slack(node) == 0, analysis.is_critical(node));
        }
        // Every sink of the critical graph realises the critical length.
        for &sink in analysis.critical_graph().sinks() {
            prop_assert_eq!(analysis.longest_to(sink), analysis.critical_length());
        }
    }

    #[test]
    fn promoting_references_never_lengthens_the_critical_path(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        chain in any::<bool>(),
        mask in any::<u32>(),
    ) {
        let kernel = generated_kernel(ni, nj, nk, chain);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let model = LatencyModel::default();
        let baseline = CriticalPathAnalysis::new(&dfg, &model, &StorageMap::all_ram());
        let promoted = CriticalPathAnalysis::new(&dfg, &model, &storage_for(&dfg, mask));
        prop_assert!(promoted.critical_length() <= baseline.critical_length());
    }

    #[test]
    fn cuts_are_minimal_blockers_of_every_critical_path(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        chain in any::<bool>(),
    ) {
        let kernel = generated_kernel(ni, nj, nk, chain);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let analysis =
            CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        let cuts = find_cuts(&dfg, analysis.critical_graph());
        for cut in &cuts {
            prop_assert!(blocks_all_paths(&analysis, cut));
            // Every cut node is a reference node of the critical graph.
            for &node in cut {
                prop_assert!(dfg.node(node).reference().is_some());
                prop_assert!(analysis.critical_graph().contains(node));
            }
            // Minimality: removing any node re-opens some critical path.
            for drop in cut {
                let reduced: Vec<NodeId> =
                    cut.iter().copied().filter(|n| n != drop).collect();
                prop_assert!(!blocks_all_paths(&analysis, &reduced));
            }
        }
    }
}
