//! Cross-allocator registry invariants over the built-in kernel suite.
//!
//! Every registered strategy, on every built-in kernel, must respect the
//! register budget, and each built-in entry must produce bit-identical
//! allocations through the registry (over a memoized [`CompiledKernel`]) and
//! through a direct call of its algorithm function (which derives its own
//! analysis and data-flow graph).

use proptest::prelude::*;
use srra_core::{
    critical_path_aware, full_reuse, greedy_savings, knapsack_optimal, no_replacement,
    partial_reuse, AllocError, AllocatorRegistry, CompiledKernel, RegisterAllocation,
};
use srra_ir::examples::paper_example;
use srra_ir::Kernel;
use srra_kernels::paper_suite;
use srra_reuse::ReuseAnalysis;

/// The paper's six kernels plus the running example, as shared contexts.
fn builtin_kernels() -> Vec<CompiledKernel> {
    let mut kernels = vec![CompiledKernel::new(paper_example())];
    kernels.extend(paper_suite().iter().map(|spec| spec.compiled()));
    kernels
}

/// Calls the algorithm function behind built-in registry entry `name`
/// directly, with a freshly computed analysis.
fn direct(name: &str, kernel: &Kernel, budget: u64) -> Result<RegisterAllocation, AllocError> {
    let analysis = ReuseAnalysis::of(kernel);
    match name {
        "none" => Ok(no_replacement(kernel, &analysis)),
        "fr" => full_reuse(kernel, &analysis, budget),
        "pr" => partial_reuse(kernel, &analysis, budget),
        "cpa" => critical_path_aware(kernel, &analysis, budget),
        "ks" => knapsack_optimal(kernel, &analysis, budget),
        "greedy" => greedy_savings(kernel, &analysis, budget),
        other => panic!("no algorithm function for `{other}`"),
    }
}

#[test]
fn every_registry_allocator_respects_the_budget_on_every_builtin_kernel() {
    for kernel in builtin_kernels() {
        let references = kernel.analysis().len() as u64;
        for allocator in AllocatorRegistry::global().iter() {
            for budget in [references, 16, 32, 64, 256, 1024] {
                let Ok(allocation) = allocator.allocate(&kernel, budget) else {
                    assert!(
                        budget < references,
                        "{} on {} rejected feasible budget {budget}",
                        allocator.name(),
                        kernel.name()
                    );
                    continue;
                };
                // Every allocation names the entry that produced it.
                assert_eq!(allocation.algorithm(), allocator);
                assert_eq!(allocation.len(), kernel.analysis().len());
                if allocator.name() != "none" {
                    assert!(
                        allocation.total_registers() <= budget,
                        "{} on {} exceeds budget {budget}: {}",
                        allocator.name(),
                        kernel.name(),
                        allocation.total_registers()
                    );
                }
                for decision in &allocation {
                    let summary = kernel.analysis().get(decision.ref_id()).unwrap();
                    assert!(decision.beta() <= summary.registers_full().max(1));
                }
            }
        }
    }
}

#[test]
fn registry_entries_agree_with_the_direct_algorithm_calls() {
    for kernel in builtin_kernels() {
        for entry in AllocatorRegistry::global() {
            for budget in [8u64, 32, 64, 700] {
                let called = direct(entry.name(), kernel.kernel(), budget);
                let registry = entry.allocate(&kernel, budget);
                match (called, registry) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        a,
                        b,
                        "{} on {} at budget {budget} disagrees",
                        entry.name(),
                        kernel.name()
                    ),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!(
                        "{} on {} at budget {budget}: direct {a:?} vs registry {b:?}",
                        entry.name(),
                        kernel.name()
                    ),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised budgets over the generalised paper example: the registry
    /// dispatch and the direct calls stay in lockstep even off the paper's
    /// fixed evaluation points.
    #[test]
    fn dispatch_agreement_holds_for_random_budgets(
        ni in 1u64..6,
        nj in 2u64..24,
        nk in 2u64..24,
        budget in 5u64..300,
    ) {
        let compiled = CompiledKernel::new(srra_ir::examples::paper_example_with(ni, nj, nk));
        for entry in AllocatorRegistry::global() {
            let called = direct(entry.name(), compiled.kernel(), budget);
            let registry = entry.allocate(&compiled, budget);
            prop_assert_eq!(called.is_ok(), registry.is_ok(), "{:?}", entry);
            if let (Ok(a), Ok(b)) = (called, registry) {
                prop_assert_eq!(a, b, "{:?}", entry);
            }
        }
    }
}
