//! End-to-end integration test: the paper's running example (Figure 1 / Figure 2).
//!
//! This test pins down every number the paper quotes for its worked example: the
//! register requirements, the critical-graph cut structure, the register distributions
//! produced by the three algorithms and the resulting memory-cycle counts.

use srra_bench::figure2::{figure2, FIGURE2_BUDGET};
use srra_core::{
    critical_path_aware, full_reuse, partial_reuse, AllocatorRegistry, CompiledKernel,
    RegisterAllocation,
};
use srra_dfg::{find_cuts, CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
use srra_ir::examples::paper_example;
use srra_reuse::ReuseAnalysis;

#[test]
fn register_requirements_match_section_3() {
    let kernel = paper_example();
    let analysis = ReuseAnalysis::of(&kernel);
    let requirement = |name: &str| analysis.by_name(name).unwrap().registers_full();
    assert_eq!(requirement("a"), 30);
    assert_eq!(requirement("b"), 600);
    assert_eq!(requirement("c"), 20);
    assert_eq!(requirement("d"), 30);
    assert_eq!(requirement("e"), 1);
}

#[test]
fn critical_graph_cuts_match_figure_2b() {
    let kernel = paper_example();
    let dfg = DataFlowGraph::from_kernel(&kernel);
    let analysis =
        CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
    let cuts = find_cuts(&dfg, analysis.critical_graph());
    let mut rendered: Vec<Vec<String>> = cuts
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
    rendered.sort();
    assert_eq!(
        rendered,
        vec![
            vec!["a[k]".to_owned(), "b[k][j]".to_owned()],
            vec!["d[i][k]".to_owned()],
            vec!["e[i][j][k]".to_owned()],
        ]
    );
}

#[test]
fn register_distributions_match_figure_2c() {
    let kernel = paper_example();
    let analysis = ReuseAnalysis::of(&kernel);
    let fr = full_reuse(&kernel, &analysis, FIGURE2_BUDGET).unwrap();
    let pr = partial_reuse(&kernel, &analysis, FIGURE2_BUDGET).unwrap();
    let cpa = critical_path_aware(&kernel, &analysis, FIGURE2_BUDGET).unwrap();
    let beta =
        |allocation: &RegisterAllocation, name: &str| allocation.by_name(name).unwrap().beta();

    // FR-RA: a and c fully replaced, everything else holds a single register.
    assert_eq!(beta(&fr, "a"), 30);
    assert_eq!(beta(&fr, "c"), 20);
    assert_eq!(beta(&fr, "b"), 1);
    assert_eq!(beta(&fr, "d"), 1);
    assert_eq!(beta(&fr, "e"), 1);

    // PR-RA: the 11 leftover registers flow into d.
    assert_eq!(beta(&pr, "d"), 12);

    // CPA-RA: cut {d} first, then the remainder split equally across cut {a, b}.
    assert_eq!(beta(&cpa, "d"), 30);
    assert_eq!(beta(&cpa, "a"), 16);
    assert_eq!(beta(&cpa, "b"), 16);
    assert_eq!(beta(&cpa, "c"), 1);
    assert_eq!(beta(&cpa, "e"), 1);
}

#[test]
fn memory_cycles_match_figure_2c() {
    let rows = figure2();
    let tmem = |algo: &str| {
        rows.iter()
            .find(|r| r.algorithm == algo)
            .unwrap()
            .memory_cycles_per_outer_iteration
    };
    assert_eq!(tmem("FR-RA"), 1_800);
    assert_eq!(tmem("PR-RA"), 1_560);
    assert_eq!(tmem("CPA-RA"), 1_184);
}

#[test]
fn every_algorithm_respects_the_budget_and_is_deterministic() {
    // Two independent contexts, so nothing memoized is shared between the runs.
    let (one, two) = (
        CompiledKernel::new(paper_example()),
        CompiledKernel::new(paper_example()),
    );
    for allocator in AllocatorRegistry::global() {
        let first = allocator.allocate(&one, FIGURE2_BUDGET).unwrap();
        let second = allocator.allocate(&two, FIGURE2_BUDGET).unwrap();
        assert_eq!(first, second, "{allocator:?} must be deterministic");
        if allocator.name() != "none" {
            assert!(first.total_registers() <= FIGURE2_BUDGET);
        }
    }
}
