//! Regression test for the `CompiledKernel` memoization contract: an explore
//! sweep over N design points of one kernel performs exactly one reuse
//! analysis and builds exactly one data-flow graph, which the allocators and
//! the cost model share, and CPA-RA enumerates its starting cut set once per
//! kernel rather than once per allocation.
//!
//! The test instruments `srra_reuse::analysis_runs()`,
//! `srra_dfg::dfg_builds()` and `srra_dfg::cut_enumerations()`, process-wide
//! counters bumped by every `ReuseAnalysis::of`, `DataFlowGraph::from_kernel`
//! and `find_cuts` call.  It lives in its own integration test binary (one
//! `#[test]`) so no concurrently running test can touch the counters between
//! the deltas.

use srra_core::{AllocatorRegistry, CompiledKernel};
use srra_dfg::{cut_enumerations, dfg_builds};
use srra_explore::{DesignSpace, Explorer, MemoryStore};
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;
use srra_reuse::analysis_runs;

#[test]
fn one_reuse_analysis_per_kernel_per_sweep() {
    // 24 design points of a single kernel (3 allocators x 4 budgets x 2 RAM
    // latencies), evaluated by 4 racing workers.
    let space = DesignSpace::new()
        .with_kernel(paper_example())
        .with_budgets(&[16, 32, 64, 128])
        .with_ram_latencies(&[1, 2]);
    assert_eq!(space.len(), 24);

    let (before, dfgs_before) = (analysis_runs(), dfg_builds());
    let mut store = MemoryStore::new();
    let cold = Explorer::new(4).explore(&space, &mut store).unwrap();
    let (after_cold, dfgs_after_cold) = (analysis_runs(), dfg_builds());
    let cuts_after_cold = cut_enumerations();
    assert_eq!(cold.evaluated, 24);
    assert_eq!(
        after_cold - before,
        1,
        "a cold sweep over 24 points of one kernel must analyse it exactly once"
    );
    assert_eq!(
        dfgs_after_cold - dfgs_before,
        1,
        "a cold sweep over 24 points of one kernel must build its DFG exactly once"
    );

    // A warm re-run of the same space answers everything from the store and
    // the space's memoized context means not even one analysis runs.
    let warm = Explorer::new(4).explore(&space, &mut store).unwrap();
    assert_eq!(warm.cache_hits, 24);
    assert_eq!(
        analysis_runs(),
        after_cold,
        "a fully cached re-run must not analyse at all"
    );
    assert_eq!(
        dfg_builds(),
        dfgs_after_cold,
        "a fully cached re-run must not build a DFG at all"
    );
    assert_eq!(
        cut_enumerations(),
        cuts_after_cold,
        "a fully cached re-run must not enumerate a cut set at all"
    );

    // CPA-RA starts every budget from one register per reference, so a kernel
    // that has allocated once reuses that state's cut set: the same allocation
    // enumerates exactly one set fewer than on a fresh kernel.
    let cpa = AllocatorRegistry::global().get("cpa").unwrap();
    let before_fresh = cut_enumerations();
    cpa.allocate(&CompiledKernel::new(paper_example()), 64)
        .unwrap();
    let fresh = cut_enumerations() - before_fresh;
    let allocated_once = CompiledKernel::new(paper_example());
    cpa.allocate(&allocated_once, 32).unwrap();
    let before_memoized = cut_enumerations();
    cpa.allocate(&allocated_once, 64).unwrap();
    let memoized = cut_enumerations() - before_memoized;
    assert!(
        fresh >= 1,
        "CPA-RA at budget 64 enumerates at least one cut set"
    );
    assert_eq!(
        memoized + 1,
        fresh,
        "an allocation on a kernel that has allocated once must reuse its starting cut set"
    );

    // Multi-kernel spaces scale the bound linearly: one analysis and one DFG
    // per kernel, regardless of how many points each kernel contributes.
    let suite_space = DesignSpace::new()
        .with_kernels(paper_suite().into_iter().map(|spec| spec.kernel))
        .with_budgets(&[16, 32]);
    let kernels = suite_space.kernels().len();
    assert_eq!(kernels, 6);
    let (before_suite, dfgs_before_suite) = (analysis_runs(), dfg_builds());
    Explorer::new(4)
        .explore(&suite_space, &mut MemoryStore::new())
        .unwrap();
    assert_eq!(analysis_runs() - before_suite, kernels);
    assert_eq!(dfg_builds() - dfgs_before_suite, kernels);
}
