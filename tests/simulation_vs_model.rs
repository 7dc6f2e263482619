//! Cross-validation: the element-accurate execution simulator (`srra-fpga::simulate`)
//! against the analytic access model (`srra-core::memory_cost`) on scaled-down kernels.

use srra_core::{
    full_reuse, memory_cost, no_replacement, AllocatorRegistry, CompiledKernel, MemoryCostModel,
    ReplacementMode,
};
use srra_fpga::simulate;
use srra_ir::Kernel;
use srra_kernels::{dec_fir, fir, mat, pat};
use srra_reuse::ReuseAnalysis;

const SIM_LIMIT: u64 = 2_000_000;

fn scaled_kernels() -> Vec<Kernel> {
    vec![
        fir::fir(256, 16).unwrap(),
        dec_fir::dec_fir(256, 16, 4).unwrap(),
        mat::mat(12).unwrap(),
        pat::pat(256, 8).unwrap(),
        srra_ir::examples::paper_example_with(2, 12, 18),
    ]
}

#[test]
fn fully_replaced_references_only_perform_their_essential_transfers() {
    for kernel in scaled_kernels() {
        let analysis = ReuseAnalysis::of(&kernel);
        // A budget large enough to fully replace everything with reuse.
        let budget = analysis.total_registers_full() + analysis.len() as u64;
        let allocation = full_reuse(&kernel, &analysis, budget).unwrap();
        let sim = simulate(&kernel, &analysis, &allocation, SIM_LIMIT);
        for decision in &allocation {
            let summary = analysis.get(decision.ref_id()).unwrap();
            if decision.mode() == ReplacementMode::Full {
                assert_eq!(
                    sim.of(decision.ref_id()).ram_accesses(),
                    summary.access_counts().essential,
                    "{}: {}",
                    kernel.name(),
                    summary.rendered()
                );
            }
        }
    }
}

#[test]
fn unreplaced_references_match_their_total_access_counts() {
    for kernel in scaled_kernels() {
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = no_replacement(&kernel, &analysis);
        let sim = simulate(&kernel, &analysis, &allocation, SIM_LIMIT);
        for summary in &analysis {
            assert_eq!(
                sim.of(summary.ref_id()).ram_accesses(),
                summary.access_counts().total,
                "{}: {}",
                kernel.name(),
                summary.rendered()
            );
        }
    }
}

#[test]
fn analytic_remaining_accesses_track_the_simulation_for_the_paper_versions() {
    // The analytic model uses an idealised proportional model for partial replacement.
    // For pinned (loop-invariant) working sets the simulation agrees closely; for
    // partially replaced *sliding windows* the proportional model is optimistic (a
    // window smaller than its reuse distance captures almost nothing), so there the
    // simulation is only required to stay within the [essential, total] bounds.
    let model = MemoryCostModel::default();
    for compiled in scaled_kernels().into_iter().map(CompiledKernel::new) {
        let (kernel, analysis) = (compiled.kernel(), compiled.analysis());
        let budget = 24u64.max(analysis.len() as u64 + 1);
        let mut simulated = Vec::new();
        for allocator in AllocatorRegistry::paper_versions() {
            let allocation = allocator.allocate(&compiled, budget).unwrap();
            let predicted = memory_cost(kernel, analysis, &allocation, &model).remaining_accesses;
            let sim = simulate(kernel, analysis, &allocation, SIM_LIMIT);
            let observed = sim.total_ram_accesses();
            // Global sanity: never below the prediction by more than 15%, never above
            // the untransformed total.
            let total: u64 = analysis.iter().map(|s| s.access_counts().total).sum();
            assert!(observed <= total, "{} {:?}", kernel.name(), allocator);
            assert!(
                observed as f64 >= predicted as f64 * 0.85 - 8.0,
                "{} {:?}: predicted {predicted}, simulated {observed}",
                kernel.name(),
                allocator
            );
            // Per-reference: every count stays within [essential, total], and pinned
            // partial working sets agree with the proportional prediction within 15%.
            for decision in &allocation {
                let summary = analysis.get(decision.ref_id()).unwrap();
                let per_ref = sim.of(decision.ref_id()).ram_accesses();
                assert!(per_ref <= summary.access_counts().total);
                if decision.mode() == ReplacementMode::Partial
                    && !srra_reuse::invariant_loops(
                        kernel.reference_table().get(decision.ref_id()).unwrap(),
                        kernel.nest(),
                    )
                    .is_empty()
                {
                    let predicted_ref =
                        srra_reuse::remaining_accesses(summary, decision.beta()) as f64;
                    assert!(
                        (per_ref as f64 - predicted_ref).abs()
                            <= (predicted_ref * 0.15).max(analysis.len() as f64 + 8.0),
                        "{} {:?} {}: predicted {predicted_ref}, simulated {per_ref}",
                        kernel.name(),
                        allocator,
                        summary.rendered()
                    );
                }
            }
            simulated.push(observed);
        }
        // PR-RA (index 1) never performs more RAM accesses than FR-RA (index 0).
        assert!(simulated[1] <= simulated[0], "{}", kernel.name());
    }
}
