//! GR-RA — greedy allocation by absolute eliminated accesses.
//!
//! This strategy exists to demonstrate the open [`crate::AllocatorRegistry`]:
//! no pipeline layer (explore, bench, CLI) names it — it is one trait impl plus
//! one registry entry.
//!
//! Algorithmically it is the "simple objective function" strawman one step
//! below FR-RA: it ranks references by the *absolute* number of accesses a full
//! replacement eliminates, ignoring the register cost, so a huge reference with
//! modest per-register savings can starve several cheap, high-ratio ones.

use srra_ir::Kernel;
use srra_reuse::{ReuseAnalysis, ReuseSummary};

use crate::allocation::{build_allocation, RegisterAllocation};
use crate::error::AllocError;
use crate::fr_ra::{check_budget, greedy_full_betas};
use crate::registry::{AllocatorRef, GREEDY_SAVINGS};

/// Greedy full-replacement allocation ordered by absolute eliminated accesses.
///
/// Like FR-RA, every reference first receives one feasibility register and a
/// reference is either fully replaced or left in RAM; unlike FR-RA the visit
/// order is descending `saved_full()` (ties broken by reference order) instead
/// of descending benefit/cost ratio.
///
/// # Errors
///
/// Same as [`crate::full_reuse`]: [`AllocError::EmptyKernel`] and
/// [`AllocError::BudgetTooSmall`].
pub fn greedy_savings(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    budget: u64,
) -> Result<RegisterAllocation, AllocError> {
    check_budget(analysis, budget)?;
    let mut order: Vec<&ReuseSummary> = analysis.iter().collect();
    order.sort_by(|a, b| {
        b.saved_full()
            .cmp(&a.saved_full())
            .then(a.ref_id().index().cmp(&b.ref_id().index()))
    });
    let betas = greedy_full_betas(analysis, budget, order);

    Ok(build_allocation(
        kernel.name(),
        AllocatorRef::of(&GREEDY_SAVINGS),
        budget,
        analysis,
        &betas,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fr_ra::full_reuse;
    use srra_ir::examples::paper_example;

    #[test]
    fn ranks_by_absolute_savings_not_ratio() {
        // On the paper's default bounds the ratio order and the savings order
        // coincide (c, a, d), so stretch the j loop: c[j]'s absolute savings
        // then dominate even though d has the better benefit/cost ratio.
        let kernel = srra_ir::examples::paper_example_with(4, 16, 8);
        let analysis = ReuseAnalysis::of(&kernel);
        let greedy = greedy_savings(&kernel, &analysis, 32).unwrap();
        let fr = full_reuse(&kernel, &analysis, 32).unwrap();
        assert_ne!(greedy.distribution(), fr.distribution());
        assert_eq!(greedy.by_name("c").unwrap().beta(), 16);
        assert_eq!(fr.by_name("c").unwrap().beta(), 1);
        assert!(greedy.total_registers() <= 32);
    }

    #[test]
    fn matches_fr_ra_when_the_orders_coincide() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let greedy = greedy_savings(&kernel, &analysis, 64).unwrap();
        let fr = full_reuse(&kernel, &analysis, 64).unwrap();
        assert_eq!(greedy.distribution(), fr.distribution());
    }

    #[test]
    fn large_budgets_replace_everything() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = greedy_savings(&kernel, &analysis, 1000).unwrap();
        assert_eq!(allocation.total_registers(), 681);
    }

    #[test]
    fn respects_budget_and_rejects_tiny_ones() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        assert!(matches!(
            greedy_savings(&kernel, &analysis, 3),
            Err(AllocError::BudgetTooSmall { .. })
        ));
        for budget in [5, 16, 32, 64, 128, 700] {
            let allocation = greedy_savings(&kernel, &analysis, budget).unwrap();
            assert!(allocation.total_registers() <= budget, "budget {budget}");
        }
    }
}
