//! `find_cuts` stops at its cap of 4,096 results, and its truncated output is pinned.
//!
//! Thirteen parallel chains of two reference nodes share one sink: 27 critical nodes
//! and 2^13 = 8,192 minimal cuts, one reference per chain.  The enumeration keeps the
//! first 4,096 it finds, so the result depends on the exact DFS order; its hash was
//! captured from the `BTreeSet` enumerator that `oracle/` keeps (which needs seconds
//! on this graph, so it is not run here).  This test lives in its own binary, with
//! one `#[test]`, so no concurrent test moves the process-wide `cut_enumerations`
//! counter between its reads.

use srra_dfg::{
    cut_enumerations, find_cuts, CriticalPathAnalysis, Cut, DataFlowGraph, LatencyModel, NodeKind,
    StorageMap,
};
use srra_ir::{AccessKind, ArrayId, BinOp, RefId};

/// FNV-1a over each cut's node indices, a separator after each cut.
fn hash(cuts: &[Cut]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cut in cuts {
        for node in cut {
            mix(node.index() as u64);
        }
        mix(u64::MAX);
    }
    hash
}

#[test]
fn thirteen_parallel_chains_stop_at_the_cap() {
    let mut dfg = DataFlowGraph::new();
    let sink = dfg.add_node(
        NodeKind::Binary {
            op: BinOp::Add,
            statement: 0,
        },
        "add#0",
    );
    for chain in 0..13 {
        let [head, tail] = [0, 1].map(|end| {
            dfg.add_node(
                NodeKind::Reference {
                    ref_id: RefId::new(2 * chain + end),
                    array: ArrayId::new(0),
                    access: AccessKind::Read,
                },
                format!("r{}", 2 * chain + end),
            )
        });
        dfg.add_edge(head, tail);
        dfg.add_edge(tail, sink);
    }
    let analysis =
        CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
    let cg = analysis.critical_graph();
    assert_eq!(cg.len(), 27);

    let before = cut_enumerations();
    let cuts = find_cuts(&dfg, cg);
    assert_eq!(cut_enumerations() - before, 1);
    assert_eq!(cuts.len(), 4096);
    assert!(cuts.iter().all(|cut| cut.len() == 13));
    assert_eq!(hash(&cuts), PINNED);
}

/// [`hash`] of the 4,096 cuts, captured from the `BTreeSet` enumerator.
const PINNED: u64 = 0x4e57_48d7_1bf8_d325;
