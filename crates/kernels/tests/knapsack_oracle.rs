//! Differential test of `knapsack_optimal` against the dynamic program it
//! replaced, which kept one `Vec` per table row and looked each chosen reference
//! up in the analysis: on the paper suite and the paper's running example, at
//! every budget from the kernel's reference count to 200, both must choose the
//! same β vector.

use srra_core::knapsack_optimal;
use srra_ir::examples::paper_example;
use srra_ir::Kernel;
use srra_kernels::paper_suite;
use srra_reuse::ReuseAnalysis;

/// The knapsack's β vector, in reference-table order, as the per-row table chose
/// it.  `budget` is at least the reference count.
fn oracle_betas(analysis: &ReuseAnalysis, budget: u64) -> Vec<u64> {
    let n = analysis.len();
    let capacity = (budget - n as u64) as usize;
    let items: Vec<(usize, usize, u64)> = analysis
        .iter()
        .filter(|s| s.has_reuse())
        .map(|s| {
            (
                s.ref_id().index(),
                s.registers_full().saturating_sub(1) as usize,
                s.saved_full(),
            )
        })
        .filter(|(_, weight, _)| *weight <= capacity)
        .collect();
    let mut table = vec![vec![0u64; capacity + 1]; items.len() + 1];
    for (item_idx, (_, weight, value)) in items.iter().enumerate() {
        for cap in 0..=capacity {
            let without = table[item_idx][cap];
            let with = if cap >= *weight {
                table[item_idx][cap - weight] + value
            } else {
                0
            };
            table[item_idx + 1][cap] = without.max(with);
        }
    }
    let mut betas = vec![1u64; n];
    let mut cap = capacity;
    for item_idx in (0..items.len()).rev() {
        if table[item_idx + 1][cap] != table[item_idx][cap] {
            let (ref_index, weight, _) = items[item_idx];
            let summary = analysis
                .iter()
                .find(|s| s.ref_id().index() == ref_index)
                .expect("item comes from the analysis");
            betas[ref_index] = summary.registers_full();
            cap -= weight;
        }
    }
    betas
}

#[test]
fn the_flat_table_chooses_the_oracles_beta_vectors() {
    let kernels: Vec<Kernel> = paper_suite()
        .into_iter()
        .map(|spec| spec.kernel)
        .chain([paper_example()])
        .collect();
    let mut upgraded = 0;
    for kernel in &kernels {
        let analysis = ReuseAnalysis::of(kernel);
        for budget in analysis.len() as u64..=200 {
            let allocation = knapsack_optimal(kernel, &analysis, budget).unwrap();
            let betas: Vec<u64> = allocation.iter().map(|r| r.beta()).collect();
            assert_eq!(
                betas,
                oracle_betas(&analysis, budget),
                "{} at budget {budget}",
                kernel.name()
            );
            upgraded += usize::from(betas.iter().any(|&beta| beta > 1));
        }
    }
    assert!(upgraded > 0, "no budget upgraded any reference");
}
