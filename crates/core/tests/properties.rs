//! Property-based tests for the allocation algorithms and the memory cost model.

use proptest::prelude::*;
use srra_core::{
    critical_path_aware, memory_cost, AllocatorRegistry, CompiledKernel, MemoryCostModel,
    ReplacementMode, ReplacementPlan,
};
use srra_ir::{Kernel, KernelBuilder};
use srra_reuse::ReuseAnalysis;

/// Two-statement kernels shaped like the paper's running example, parameterised by the
/// loop bounds and by whether the second statement consumes the first one's result.
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
    let rhs = if chain {
        b.read(d, &[b.idx(i), b.idx(k)])
    } else {
        b.read(a, &[b.idx(k)])
    };
    let op2 = b.mul(b.read(c, &[b.idx(j)]), rhs);
    b.store(e, &[b.idx(i), b.idx(j), b.idx(k)], op2);
    b.build().expect("generated kernel is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn modes_are_consistent_with_the_assigned_registers(
        ni in 1u64..5,
        nj in 2u64..14,
        nk in 2u64..14,
        chain in any::<bool>(),
        budget in 5u64..150,
    ) {
        let compiled = CompiledKernel::new(generated_kernel(ni, nj, nk, chain));
        let analysis = compiled.analysis();
        for allocator in AllocatorRegistry::global() {
            let Ok(allocation) = allocator.allocate(&compiled, budget) else {
                prop_assert!(budget < analysis.len() as u64);
                continue;
            };
            for decision in &allocation {
                let summary = analysis.get(decision.ref_id()).unwrap();
                match decision.mode() {
                    ReplacementMode::Full => {
                        prop_assert!(summary.has_reuse());
                        prop_assert!(decision.beta() >= summary.registers_full());
                    }
                    ReplacementMode::Partial => {
                        prop_assert!(summary.has_reuse());
                        prop_assert!(decision.beta() >= 1);
                        prop_assert!(decision.beta() < summary.registers_full());
                    }
                    ReplacementMode::None => {
                        prop_assert!(
                            !summary.has_reuse() || decision.beta() <= 1,
                            "a None-mode reference never holds more than its staging register"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn storage_map_promotes_exactly_the_fully_replaced_references(
        ni in 1u64..5,
        nj in 2u64..14,
        nk in 2u64..14,
        budget in 5u64..150,
    ) {
        let kernel = generated_kernel(ni, nj, nk, true);
        let analysis = ReuseAnalysis::of(&kernel);
        let Ok(allocation) = critical_path_aware(&kernel, &analysis, budget) else {
            return Ok(());
        };
        let storage = allocation.storage_map();
        for decision in &allocation {
            let expected = decision.mode() == ReplacementMode::Full;
            let is_register = storage.storage(decision.ref_id()) == srra_dfg::Storage::Register;
            prop_assert_eq!(expected, is_register);
        }
    }

    #[test]
    fn memory_cost_is_monotone_in_the_register_budget(
        ni in 1u64..5,
        nj in 2u64..14,
        nk in 2u64..14,
        chain in any::<bool>(),
        budget in 6u64..120,
        extra in 1u64..80,
    ) {
        let compiled = CompiledKernel::new(generated_kernel(ni, nj, nk, chain));
        let (kernel, analysis) = (compiled.kernel(), compiled.analysis());
        let model = MemoryCostModel::default();
        for name in ["pr", "cpa"] {
            let allocator = AllocatorRegistry::global().get(name).unwrap();
            let Ok(small) = allocator.allocate(&compiled, budget) else {
                return Ok(());
            };
            let large = allocator.allocate(&compiled, budget + extra).unwrap();
            let small_cost = memory_cost(kernel, analysis, &small, &model);
            let large_cost = memory_cost(kernel, analysis, &large, &model);
            prop_assert!(
                large_cost.memory_cycles <= small_cost.memory_cycles,
                "{name}: more registers must not cost more memory cycles"
            );
        }
    }

    #[test]
    fn replacement_plans_account_for_every_register(
        ni in 1u64..5,
        nj in 2u64..14,
        nk in 2u64..14,
        budget in 5u64..150,
    ) {
        let compiled = CompiledKernel::new(generated_kernel(ni, nj, nk, true));
        let (kernel, analysis) = (compiled.kernel(), compiled.analysis());
        for allocator in AllocatorRegistry::global() {
            let Ok(allocation) = allocator.allocate(&compiled, budget) else {
                continue;
            };
            let plan = ReplacementPlan::new(kernel, analysis, &allocation);
            prop_assert_eq!(plan.total_registers(), allocation.total_registers());
            for ref_plan in plan.refs() {
                prop_assert!(ref_plan.steady_miss >= 0.0 && ref_plan.steady_miss <= 1.0);
                prop_assert!(
                    ref_plan.prologue_loads + ref_plan.epilogue_stores
                        <= analysis.get(ref_plan.ref_id).unwrap().access_counts().total
                );
            }
        }
    }
}
