//! PR-RA — Partial Reuse Register Allocation (the paper's second greedy variant).

use srra_ir::Kernel;
use srra_reuse::ReuseAnalysis;

use crate::allocation::{build_allocation, RegisterAllocation};
use crate::error::AllocError;
use crate::fr_ra::{check_budget, full_reuse_betas};
use crate::registry::{AllocatorRef, PARTIAL_REUSE};

/// PR-RA: Partial Reuse Register Allocation.
///
/// The algorithm runs FR-RA first; the registers FR-RA leaves unused (because the next
/// reference's full requirement no longer fits) are then assigned to the first
/// reference in the benefit/cost order that is not fully replaced yet.  That reference
/// exploits *partial* data reuse with `1 < β < R` registers, which is exactly the
/// paper's variant 2.
///
/// # Errors
///
/// Same as [`crate::full_reuse`]: [`AllocError::EmptyKernel`] and
/// [`AllocError::BudgetTooSmall`].
///
/// # Examples
///
/// ```
/// use srra_ir::examples::paper_example;
/// use srra_reuse::ReuseAnalysis;
/// use srra_core::partial_reuse;
///
/// # fn main() -> Result<(), srra_core::AllocError> {
/// let kernel = paper_example();
/// let analysis = ReuseAnalysis::of(&kernel);
/// let allocation = partial_reuse(&kernel, &analysis, 64)?;
/// // The 11 registers FR-RA leaves on the table go to d, which becomes partially
/// // replaced with 12 of its 30 registers.
/// assert_eq!(allocation.by_name("d").unwrap().beta(), 12);
/// assert_eq!(allocation.total_registers(), 64);
/// # Ok(())
/// # }
/// ```
pub fn partial_reuse(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    budget: u64,
) -> Result<RegisterAllocation, AllocError> {
    check_budget(analysis, budget)?;
    let mut betas = full_reuse_betas(analysis, budget);
    let used: u64 = betas.iter().sum();
    let mut leftover = budget.saturating_sub(used);

    if leftover > 0 {
        // Give the leftover to the next references in the greedy order that still have
        // uncaptured reuse.  The paper assigns everything to the first such reference;
        // we continue down the list if that reference saturates (reaches `R`), which is
        // the natural generalisation and changes nothing in the paper's example.
        for summary in analysis.sorted_by_benefit_cost() {
            if leftover == 0 {
                break;
            }
            if !summary.has_reuse() {
                continue;
            }
            let idx = summary.ref_id().index();
            if betas[idx] >= summary.registers_full() {
                continue;
            }
            let take = leftover.min(summary.registers_full() - betas[idx]);
            betas[idx] += take;
            leftover -= take;
        }
    }

    Ok(build_allocation(
        kernel.name(),
        AllocatorRef::of(&PARTIAL_REUSE),
        budget,
        analysis,
        &betas,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ReplacementMode;
    use crate::fr_ra::full_reuse;
    use srra_ir::examples::paper_example;

    #[test]
    fn reproduces_the_paper_pr_ra_distribution() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = partial_reuse(&kernel, &analysis, 64).unwrap();
        let beta = |n: &str| allocation.by_name(n).unwrap().beta();
        assert_eq!(beta("a"), 30);
        assert_eq!(beta("c"), 20);
        assert_eq!(beta("d"), 12);
        assert_eq!(beta("b"), 1);
        assert_eq!(beta("e"), 1);
        assert_eq!(allocation.total_registers(), 64);
        assert_eq!(
            allocation.by_name("d").unwrap().mode(),
            ReplacementMode::Partial
        );
    }

    #[test]
    fn uses_at_least_as_many_registers_as_fr_ra() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        for budget in [5, 16, 32, 64, 128, 256] {
            let fr = full_reuse(&kernel, &analysis, budget).unwrap();
            let pr = partial_reuse(&kernel, &analysis, budget).unwrap();
            assert!(
                pr.total_registers() >= fr.total_registers(),
                "budget {budget}"
            );
            assert!(pr.total_registers() <= budget);
            // Every reference gets at least what FR-RA gave it.
            for r in &fr {
                assert!(pr.beta(r.ref_id()) >= r.beta());
            }
        }
    }

    #[test]
    fn leftover_spills_to_later_references_when_the_first_saturates() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        // Budget 120: FR-RA fully replaces c (20), a (30) and d (30) = 80 + 2 = 82;
        // the remaining 38 go to b as partial reuse.
        let allocation = partial_reuse(&kernel, &analysis, 120).unwrap();
        assert_eq!(allocation.by_name("a").unwrap().beta(), 30);
        assert_eq!(allocation.by_name("c").unwrap().beta(), 20);
        assert_eq!(allocation.by_name("d").unwrap().beta(), 30);
        assert!(allocation.by_name("b").unwrap().beta() > 1);
        assert_eq!(allocation.total_registers(), 120);
    }

    #[test]
    fn no_reuse_references_never_receive_the_leftover() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        // Huge budget short of full b replacement: e must stay at 1.
        let allocation = partial_reuse(&kernel, &analysis, 400).unwrap();
        assert_eq!(allocation.by_name("e").unwrap().beta(), 1);
        assert_eq!(
            allocation.by_name("e").unwrap().mode(),
            ReplacementMode::None
        );
    }

    #[test]
    fn rejects_small_budgets() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        assert!(matches!(
            partial_reuse(&kernel, &analysis, 2),
            Err(AllocError::BudgetTooSmall { .. })
        ));
    }
}
