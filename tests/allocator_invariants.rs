//! Property-based integration tests: allocator invariants over randomly generated
//! loop nests and budgets.
//!
//! These tests exercise the whole pipeline (IR construction, reuse analysis, DFG/cut
//! machinery, the three allocators and the cost model) on kernels the authors of the
//! individual crates never wrote by hand.

use proptest::prelude::*;
use srra_core::{
    critical_path_aware, full_reuse, knapsack_optimal, memory_cost, partial_reuse,
    AllocatorRegistry, CompiledKernel, MemoryCostModel,
};
use srra_ir::{Kernel, KernelBuilder};
use srra_reuse::ReuseAnalysis;

/// Builds a two-statement, three-deep loop nest parameterised by its bounds and by
/// which loops each reference uses — a generalisation of the paper's running example.
fn build_kernel(ni: u64, nj: u64, nk: u64, use_j_in_a: bool, use_i_in_c: bool) -> Kernel {
    let b = KernelBuilder::new("generated");
    let i = b.add_loop("i", ni);
    let j = b.add_loop("j", nj);
    let k = b.add_loop("k", nk);

    let a_dims: Vec<u64> = if use_j_in_a { vec![nk, nj] } else { vec![nk] };
    let a = b.add_array("a", &a_dims, 16);
    let arr_b = b.add_array("b", &[nk, nj], 16);
    let c_dims: Vec<u64> = if use_i_in_c { vec![ni, nj] } else { vec![nj] };
    let c = b.add_array("c", &c_dims, 16);
    let d = b.add_array("d", &[ni, nk], 16);
    let e = b.add_array("e", &[ni, nj, nk], 16);

    let a_subs = if use_j_in_a {
        vec![b.idx(k), b.idx(j)]
    } else {
        vec![b.idx(k)]
    };
    let c_subs = if use_i_in_c {
        vec![b.idx(i), b.idx(j)]
    } else {
        vec![b.idx(j)]
    };

    let op1 = b.mul(b.read(a, &a_subs), b.read(arr_b, &[b.idx(k), b.idx(j)]));
    b.store(d, &[b.idx(i), b.idx(k)], op1);
    let op2 = b.mul(b.read(c, &c_subs), b.read(d, &[b.idx(i), b.idx(k)]));
    b.store(e, &[b.idx(i), b.idx(j), b.idx(k)], op2);
    b.build().expect("generated kernel is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allocations_respect_the_budget_and_reference_requirements(
        ni in 1u64..6,
        nj in 2u64..24,
        nk in 2u64..24,
        use_j_in_a in any::<bool>(),
        use_i_in_c in any::<bool>(),
        budget in 5u64..200,
    ) {
        let compiled = CompiledKernel::new(build_kernel(ni, nj, nk, use_j_in_a, use_i_in_c));
        let analysis = compiled.analysis();
        // Every strategy that spends the budget (`none` ignores it).
        for allocator in AllocatorRegistry::global().iter().filter(|a| a.name() != "none") {
            let Ok(allocation) = allocator.allocate(&compiled, budget) else {
                // Only acceptable failure: the budget cannot cover one register per
                // reference.
                prop_assert!(budget < analysis.len() as u64);
                continue;
            };
            prop_assert!(allocation.total_registers() <= budget);
            for decision in &allocation {
                let summary = analysis.get(decision.ref_id()).unwrap();
                prop_assert!(decision.beta() >= 1);
                prop_assert!(decision.beta() <= summary.registers_full().max(1));
            }
        }
    }

    #[test]
    fn partial_reuse_never_saves_fewer_accesses_than_full_reuse(
        ni in 1u64..5,
        nj in 2u64..20,
        nk in 2u64..20,
        budget in 6u64..120,
    ) {
        let kernel = build_kernel(ni, nj, nk, false, false);
        let analysis = ReuseAnalysis::of(&kernel);
        let model = MemoryCostModel::default();
        let Ok(fr) = full_reuse(&kernel, &analysis, budget) else {
            return Ok(());
        };
        let pr = partial_reuse(&kernel, &analysis, budget).unwrap();
        let fr_cost = memory_cost(&kernel, &analysis, &fr, &model);
        let pr_cost = memory_cost(&kernel, &analysis, &pr, &model);
        prop_assert!(pr_cost.remaining_accesses <= fr_cost.remaining_accesses);
        prop_assert!(pr_cost.memory_cycles <= fr_cost.memory_cycles);
    }

    #[test]
    fn cpa_ra_never_loses_to_the_greedy_variants_on_memory_cycles(
        ni in 1u64..5,
        nj in 2u64..20,
        nk in 2u64..20,
        use_j_in_a in any::<bool>(),
        budget in 6u64..120,
    ) {
        let kernel = build_kernel(ni, nj, nk, use_j_in_a, false);
        let analysis = ReuseAnalysis::of(&kernel);
        let model = MemoryCostModel::default();
        let Ok(fr) = full_reuse(&kernel, &analysis, budget) else {
            return Ok(());
        };
        let pr = partial_reuse(&kernel, &analysis, budget).unwrap();
        let cpa = critical_path_aware(&kernel, &analysis, budget).unwrap();
        let fr_cycles = memory_cost(&kernel, &analysis, &fr, &model).memory_cycles;
        let pr_cycles = memory_cost(&kernel, &analysis, &pr, &model).memory_cycles;
        let cpa_cycles = memory_cost(&kernel, &analysis, &cpa, &model).memory_cycles;
        prop_assert!(cpa_cycles <= fr_cycles);
        prop_assert!(cpa_cycles <= pr_cycles);
    }

    #[test]
    fn knapsack_dominates_full_reuse_on_eliminated_accesses(
        ni in 1u64..5,
        nj in 2u64..20,
        nk in 2u64..20,
        budget in 6u64..120,
    ) {
        let kernel = build_kernel(ni, nj, nk, false, false);
        let analysis = ReuseAnalysis::of(&kernel);
        let model = MemoryCostModel::default();
        let Ok(fr) = full_reuse(&kernel, &analysis, budget) else {
            return Ok(());
        };
        let ks = knapsack_optimal(&kernel, &analysis, budget).unwrap();
        let fr_eliminated = memory_cost(&kernel, &analysis, &fr, &model).eliminated_accesses;
        let ks_eliminated = memory_cost(&kernel, &analysis, &ks, &model).eliminated_accesses;
        prop_assert!(ks_eliminated >= fr_eliminated);
    }
}
