//! `knapsack_optimal` fills a table as wide as its capacity, which it clamps
//! to W, the total upgrade weight Σ(R_i − 1) of the references with reuse.
//! With n references, every budget of at least n + W must choose the β vector
//! of n + W: the budget one past it, and budgets of 2^32, 2^63 and u64::MAX,
//! which no table as wide as the budget could hold.

use srra_core::knapsack_optimal;
use srra_ir::examples::paper_example;
use srra_ir::Kernel;
use srra_kernels::paper_suite;
use srra_reuse::ReuseAnalysis;

fn betas(kernel: &Kernel, analysis: &ReuseAnalysis, budget: u64) -> Vec<u64> {
    knapsack_optimal(kernel, analysis, budget)
        .unwrap_or_else(|err| panic!("{} at budget {budget}: {err}", kernel.name()))
        .iter()
        .map(|r| r.beta())
        .collect()
}

#[test]
fn budgets_past_the_total_upgrade_weight_choose_its_beta_vector() {
    let kernels: Vec<Kernel> = paper_suite()
        .into_iter()
        .map(|spec| spec.kernel)
        .chain([paper_example()])
        .collect();
    for kernel in &kernels {
        let analysis = ReuseAnalysis::of(kernel);
        let references = analysis.len() as u64;
        let weight: u64 = analysis
            .iter()
            .filter(|s| s.has_reuse())
            .map(|s| s.registers_full() - 1)
            .sum();
        let enough = references + weight;
        let expected = betas(kernel, &analysis, enough);
        assert!(expected.iter().sum::<u64>() <= enough, "{}", kernel.name());
        for budget in [enough + 1, 1 << 32, 1 << 63, u64::MAX] {
            assert_eq!(
                betas(kernel, &analysis, budget),
                expected,
                "{} at budget {budget}",
                kernel.name()
            );
        }
    }
}
