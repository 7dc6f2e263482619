//! Differential test of `find_cuts` against the `BTreeSet` oracle in `oracle/`: on
//! built-in kernels, seeded random DAGs and ladders, the library must return exactly
//! the oracle's cuts, in the oracle's order.

mod oracle;

use oracle::{seeded_storage, Rng};
use srra_dfg::{
    find_cuts, CriticalPathAnalysis, DataFlowGraph, LatencyModel, NodeId, NodeKind, StorageMap,
};
use srra_ir::examples::{dot_product, paper_example, paper_example_with, stencil3};
use srra_ir::{AccessKind, ArrayId, BinOp, RefId};

/// Compares the library's cuts with the oracle's on `dfg` under `storage`, and
/// returns the critical graph's node count and the number of cuts.
fn check(dfg: &DataFlowGraph, storage: &StorageMap) -> (usize, usize) {
    let analysis = CriticalPathAnalysis::new(dfg, &LatencyModel::default(), storage);
    let cg = analysis.critical_graph();
    let cuts = find_cuts(dfg, cg);
    assert_eq!(cuts, oracle::find_cuts(dfg, cg), "critical graph {cg:?}");
    (cg.len(), cuts.len())
}

fn reference(dfg: &mut DataFlowGraph, group: usize) -> NodeId {
    dfg.add_node(
        NodeKind::Reference {
            ref_id: RefId::new(group),
            array: ArrayId::new(0),
            access: AccessKind::Read,
        },
        format!("r{group}"),
    )
}

fn operation(dfg: &mut DataFlowGraph) -> NodeId {
    dfg.add_node(
        NodeKind::Binary {
            op: BinOp::Add,
            statement: 0,
        },
        "add#0",
    )
}

/// A layered DAG in which every source-to-sink path crosses every layer once, so the
/// whole graph is critical while every reference stays in RAM.  Each layer holds
/// `width` nodes.  The last layer and one layer in the front half are all references,
/// like a kernel's stores and one of its loads; each other node is a reference with
/// probability 1/24, the rest additions.  Every node after the first layer has one or
/// two predecessors in the layer before, and every node before the last layer has a
/// successor in the layer after.
fn layered_dag(seed: u64, layers: usize, width: usize) -> DataFlowGraph {
    let mut rng = Rng::new(seed);
    let mut dfg = DataFlowGraph::new();
    let load_layer = rng.below(layers / 2);
    let mut groups = 0;
    let mut previous: Vec<NodeId> = Vec::new();
    for layer in 0..layers {
        let mut current = Vec::with_capacity(width);
        for _ in 0..width {
            let all_references = layer == load_layer || layer + 1 == layers;
            let node = if all_references || rng.below(24) == 0 {
                groups += 1;
                reference(&mut dfg, groups - 1)
            } else {
                operation(&mut dfg)
            };
            if !previous.is_empty() {
                for _ in 0..1 + rng.below(2) {
                    dfg.add_edge(previous[rng.below(previous.len())], node);
                }
            }
            current.push(node);
        }
        for &node in &previous {
            if dfg.successors(node).is_empty() {
                dfg.add_edge(node, current[rng.below(width)]);
            }
        }
        previous = current;
    }
    dfg
}

/// `stages` stages of two parallel reference nodes, each stage feeding one addition
/// that feeds both nodes of the next stage: 3 × `stages` critical nodes and `stages`
/// minimal cuts, one per stage.
fn ladder(stages: usize) -> DataFlowGraph {
    let mut dfg = DataFlowGraph::new();
    let mut previous = None;
    for stage in 0..stages {
        let pair = [
            reference(&mut dfg, 2 * stage),
            reference(&mut dfg, 2 * stage + 1),
        ];
        let join = operation(&mut dfg);
        for node in pair {
            if let Some(op) = previous {
                dfg.add_edge(op, node);
            }
            dfg.add_edge(node, join);
        }
        previous = Some(join);
    }
    dfg
}

#[test]
fn built_in_example_kernels_match_the_oracle() {
    for kernel in [
        paper_example(),
        paper_example_with(3, 5, 7),
        stencil3(32),
        dot_product(16),
    ] {
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let (_, all_ram_cuts) = check(&dfg, &StorageMap::all_ram());
        assert!(all_ram_cuts > 0, "{} has cuts", kernel.name());
        for seed in 1..=16 {
            check(&dfg, &seeded_storage(&dfg, seed));
        }
    }
}

#[test]
fn random_dags_wider_than_one_and_two_words_match_the_oracle() {
    for seed in 1..=3 {
        for (layers, width, floor) in [(18, 4, 64), (35, 4, 128)] {
            let dfg = layered_dag(seed, layers, width);
            let (critical, cuts) = check(&dfg, &StorageMap::all_ram());
            assert!(critical > floor, "seed {seed}: {critical} critical nodes");
            assert!(cuts >= 2, "seed {seed}: each all-reference layer is a cut");
            for storage_seed in 1..=2 {
                check(&dfg, &seeded_storage(&dfg, seed * 100 + storage_seed));
            }
        }
    }
}

#[test]
fn ladders_match_the_oracle() {
    for stages in 1..=8 {
        let dfg = ladder(stages);
        assert_eq!(check(&dfg, &StorageMap::all_ram()), (3 * stages, stages));
    }
}
