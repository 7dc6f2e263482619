//! Property-based integration tests: allocator invariants over randomly generated
//! loop nests and budgets.
//!
//! These tests exercise the whole pipeline (IR construction, reuse analysis, DFG/cut
//! machinery, the three allocators and the cost model) on kernels the authors of the
//! individual crates never wrote by hand.

use proptest::prelude::*;
use srra_core::{
    critical_path_aware, full_reuse, knapsack_optimal, memory_cost, partial_reuse,
    AllocatorRegistry, CompiledKernel, MemoryCostModel, RegisterAllocation,
};
use srra_ir::examples::{dot_product, paper_example, stencil3};
use srra_ir::{Kernel, KernelBuilder, UnOp};
use srra_kernels::paper_suite;
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

/// CPA-RA through the registry, which memoizes the starting cut set in
/// `compiled`.
fn registry_cpa(compiled: &CompiledKernel, budget: u64) -> RegisterAllocation {
    let cpa = AllocatorRegistry::global().get("cpa").unwrap();
    cpa.allocate(compiled, budget).unwrap()
}

/// About a dozen budgets spread over `[low, high]`, both ends included, in an
/// order shuffled by `seed`.
fn shuffled_ladder(low: u64, high: u64, seed: u64) -> Vec<u64> {
    let step = ((high - low) / 10).max(1);
    let mut ladder: Vec<u64> = (low..=high).step_by(step as usize).collect();
    if ladder.last() != Some(&high) {
        ladder.push(high);
    }
    // Fisher-Yates over a SplitMix64 stream.
    let mut state = seed;
    for i in (1..ladder.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        ladder.swap(i, (z % (i as u64 + 1)) as usize);
    }
    ladder
}

/// `s[0] = abs(s[0]) + c[j]`.  One register fully replaces the accumulator
/// `s` (R = 1), which puts `c`'s read on the critical path beside `s`'s, so
/// CPA-RA's starting state (one register per reference) has the cut `{s, c}`.
/// With every reference in RAM instead, only `s`'s longer chain is critical
/// and no cut is worth a register.
fn accumulator_behind_an_abs() -> Kernel {
    let b = KernelBuilder::new("accumulator_behind_an_abs");
    let _i = b.add_loop("i", 4);
    let j = b.add_loop("j", 8);
    let s = b.add_array("s", &[1], 32);
    let c = b.add_array("c", &[8], 16);
    let magnitude = b.unary(UnOp::Abs, b.read(s, &[b.constant(0)]));
    b.store(
        s,
        &[b.constant(0)],
        b.add(magnitude, b.read(c, &[b.idx(j)])),
    );
    b.build().expect("accumulator kernel is valid")
}

/// Every budget from the reference count to two past the full requirement,
/// largest first, so the first allocation fills the memo: the registry's CPA-RA
/// on one shared kernel, and on a clone taken after that first allocation,
/// equals `critical_path_aware` on a fresh analysis at each budget.
#[test]
fn memoized_cpa_ra_matches_fresh_allocations_on_the_builtin_kernels() {
    let accumulator = CompiledKernel::new(accumulator_behind_an_abs());
    let c = accumulator
        .analysis()
        .by_name("c")
        .unwrap()
        .registers_full();
    assert_eq!(
        registry_cpa(&accumulator, c + 1)
            .by_name("c")
            .unwrap()
            .beta(),
        c,
        "CPA-RA starts where one register already covers `s`"
    );

    let mut kernels = vec![
        paper_example(),
        stencil3(64),
        dot_product(128),
        accumulator_behind_an_abs(),
    ];
    kernels.extend(paper_suite().into_iter().map(|spec| spec.kernel));
    for kernel in kernels {
        let analysis = ReuseAnalysis::of(&kernel);
        let shared = CompiledKernel::new(kernel);
        let mut clone: Option<CompiledKernel> = None;
        for budget in (analysis.len() as u64..=analysis.total_registers_full() + 2).rev() {
            let fresh = critical_path_aware(shared.kernel(), &analysis, budget).unwrap();
            let memoized = registry_cpa(&shared, budget);
            let clone = clone.get_or_insert_with(|| shared.clone());
            for (side, allocation) in [("shared", memoized), ("clone", registry_cpa(clone, budget))]
            {
                let context = format!("{side} {} at budget {budget}", shared.name());
                assert_eq!(allocation, fresh, "{context}");
                assert_eq!(allocation.distribution(), fresh.distribution(), "{context}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memoized_cpa_ra_matches_a_fresh_allocation_over_a_shuffled_ladder(
        ni in 1u64..6,
        nj in 2u64..24,
        nk in 2u64..24,
        use_j_in_a in any::<bool>(),
        use_i_in_c in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let kernel = build_kernel(ni, nj, nk, use_j_in_a, use_i_in_c);
        let analysis = ReuseAnalysis::of(&kernel);
        let shared = CompiledKernel::new(kernel);
        let ladder = shuffled_ladder(
            analysis.len() as u64,
            analysis.total_registers_full() + 2,
            seed,
        );
        let mut clone: Option<CompiledKernel> = None;
        for budget in ladder {
            let fresh = critical_path_aware(shared.kernel(), &analysis, budget).unwrap();
            let memoized = registry_cpa(&shared, budget);
            prop_assert_eq!(&memoized, &fresh);
            prop_assert_eq!(memoized.distribution(), fresh.distribution());
            if let Some(clone) = &clone {
                let from_clone = registry_cpa(clone, budget);
                prop_assert_eq!(&from_clone, &fresh);
                prop_assert_eq!(from_clone.distribution(), fresh.distribution());
            } else if budget > analysis.len() as u64 {
                // The first allocation with a spare register has filled the memo.
                clone = Some(shared.clone());
            }
        }
    }

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
