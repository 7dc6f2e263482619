//! FR-RA — Full Reuse Register Allocation (the paper's first greedy variant).

use srra_ir::Kernel;
use srra_reuse::ReuseAnalysis;

use crate::allocation::{build_allocation, RegisterAllocation};
use crate::error::AllocError;
use crate::registry::{AllocatorRef, FULL_REUSE};

pub(crate) fn check_budget(analysis: &ReuseAnalysis, budget: u64) -> Result<(), AllocError> {
    if analysis.is_empty() {
        return Err(AllocError::EmptyKernel);
    }
    let references = analysis.len() as u64;
    if budget < references {
        return Err(AllocError::BudgetTooSmall { budget, references });
    }
    Ok(())
}

/// Shared scaffold of the greedy full-replacement allocators (FR-RA, GR-RA):
/// one feasibility register per reference, the everything-fits fast path, then
/// full upgrades in the caller's visit order while they fit.  Only the visit
/// order distinguishes the strategies.
pub(crate) fn greedy_full_betas<'a>(
    analysis: &ReuseAnalysis,
    budget: u64,
    order: impl IntoIterator<Item = &'a srra_reuse::ReuseSummary>,
) -> Vec<u64> {
    let mut betas = vec![1u64; analysis.len()];
    let mut remaining = budget - analysis.len() as u64;

    // When everything fits, replace everything fully (the fast path of the paper's
    // pseudo-code).
    if analysis.total_registers_full() <= budget {
        for summary in analysis.iter() {
            betas[summary.ref_id().index()] = summary.registers_full();
        }
        return betas;
    }

    for summary in order {
        if !summary.has_reuse() {
            continue;
        }
        let need = summary.registers_full().saturating_sub(1);
        if need <= remaining {
            betas[summary.ref_id().index()] = summary.registers_full();
            remaining -= need;
        }
    }
    betas
}

/// Computes the β vector shared by FR-RA and PR-RA: one feasibility register per
/// reference, then full upgrades in descending benefit/cost order while they fit.
pub(crate) fn full_reuse_betas(analysis: &ReuseAnalysis, budget: u64) -> Vec<u64> {
    greedy_full_betas(analysis, budget, analysis.sorted_by_benefit_cost())
}

/// FR-RA: Full Reuse Register Allocation.
///
/// The algorithm first gives every reference one register to render the computation
/// feasible, then visits the references in descending benefit/cost order
/// (`γ_i = saved accesses / required registers`) and fully replaces each reference
/// whose remaining requirement still fits in the budget.  A reference is therefore
/// assigned either `R_i` registers or a single staging register — partial reuse is
/// never exploited.
///
/// # Errors
///
/// Returns [`AllocError::EmptyKernel`] for kernels without array references and
/// [`AllocError::BudgetTooSmall`] when `budget` is smaller than the number of
/// references.
///
/// # Examples
///
/// ```
/// use srra_ir::examples::paper_example;
/// use srra_reuse::ReuseAnalysis;
/// use srra_core::full_reuse;
///
/// # fn main() -> Result<(), srra_core::AllocError> {
/// let kernel = paper_example();
/// let analysis = ReuseAnalysis::of(&kernel);
/// let allocation = full_reuse(&kernel, &analysis, 64)?;
/// // a and c are fully replaced; b, d and e keep one register each.
/// assert_eq!(allocation.by_name("a").unwrap().beta(), 30);
/// assert_eq!(allocation.by_name("c").unwrap().beta(), 20);
/// assert_eq!(allocation.by_name("d").unwrap().beta(), 1);
/// # Ok(())
/// # }
/// ```
pub fn full_reuse(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    budget: u64,
) -> Result<RegisterAllocation, AllocError> {
    check_budget(analysis, budget)?;
    let betas = full_reuse_betas(analysis, budget);
    Ok(build_allocation(
        kernel.name(),
        AllocatorRef::of(&FULL_REUSE),
        budget,
        analysis,
        &betas,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ReplacementMode;
    use srra_ir::examples::{dot_product, paper_example};

    #[test]
    fn reproduces_the_paper_fr_ra_distribution() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 64).unwrap();
        let beta = |n: &str| allocation.by_name(n).unwrap().beta();
        assert_eq!(beta("a"), 30);
        assert_eq!(beta("b"), 1);
        assert_eq!(beta("c"), 20);
        assert_eq!(beta("d"), 1);
        assert_eq!(beta("e"), 1);
        assert_eq!(allocation.total_registers(), 53);
        assert_eq!(allocation.fully_replaced(), 2);
        assert_eq!(allocation.partially_replaced(), 0);
        assert_eq!(
            allocation.by_name("d").unwrap().mode(),
            ReplacementMode::None
        );
    }

    #[test]
    fn everything_fits_when_the_budget_is_large() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 1000).unwrap();
        for r in &allocation {
            assert_eq!(r.beta(), r.registers_full());
        }
        assert_eq!(allocation.total_registers(), 681);
    }

    #[test]
    fn budget_checks() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        assert_eq!(
            full_reuse(&kernel, &analysis, 3).unwrap_err(),
            AllocError::BudgetTooSmall {
                budget: 3,
                references: 5
            }
        );
        // Exactly one register per reference is accepted.
        let allocation = full_reuse(&kernel, &analysis, 5).unwrap();
        assert_eq!(allocation.total_registers(), 5);
        // No reference captures reuse with a single register here (e has R = 1 but no
        // reuse at all), so nothing is reported as fully replaced.
        assert_eq!(allocation.fully_replaced(), 0);
    }

    #[test]
    fn tiny_budget_gives_only_feasibility_registers() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 5).unwrap();
        for r in &allocation {
            assert_eq!(r.beta(), 1);
        }
    }

    #[test]
    fn accumulator_is_fully_replaced_with_its_single_register() {
        let kernel = dot_product(64);
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 8).unwrap();
        let s = allocation.by_name("s").unwrap();
        assert_eq!(s.beta(), 1);
        assert_eq!(s.mode(), ReplacementMode::Full);
    }

    #[test]
    fn never_exceeds_budget() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        for budget in [5, 20, 31, 32, 53, 64, 100, 650, 681, 700] {
            let allocation = full_reuse(&kernel, &analysis, budget).unwrap();
            assert!(allocation.total_registers() <= budget, "budget {budget}");
        }
    }
}
