//! CPA-RA — Critical-Path-Aware Register Allocation (the paper's proposal).

use std::collections::BTreeSet;
use std::sync::OnceLock;

use srra_dfg::{find_cuts, CriticalPathAnalysis, DataFlowGraph, LatencyModel, Storage, StorageMap};
use srra_ir::{Kernel, RefId};
use srra_reuse::ReuseAnalysis;

use crate::allocation::{build_allocation, RegisterAllocation};
use crate::error::AllocError;
use crate::fr_ra::check_budget;
use crate::registry::{AllocatorRef, CRITICAL_PATH_AWARE};

/// A candidate cut: its reference groups and the registers still needed to fully
/// replace all of them.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    refs: Vec<RefId>,
    additional_registers: u64,
}

fn storage_from_betas(analysis: &ReuseAnalysis, betas: &[u64]) -> StorageMap {
    let mut storage = StorageMap::all_ram();
    for summary in analysis.iter() {
        if summary.has_reuse() && betas[summary.ref_id().index()] >= summary.registers_full() {
            storage.set(summary.ref_id(), Storage::Register);
        }
    }
    storage
}

fn candidates(
    dfg: &DataFlowGraph,
    analysis: &ReuseAnalysis,
    betas: &[u64],
    latency: &LatencyModel,
) -> Vec<Candidate> {
    let storage = storage_from_betas(analysis, betas);
    let cpa = CriticalPathAnalysis::new(dfg, latency, &storage);

    let mut result = Vec::new();
    for cut in find_cuts(dfg, cpa.critical_graph()) {
        let refs: BTreeSet<RefId> = cut
            .iter()
            .filter_map(|&node| dfg.node(node).reference())
            .collect();
        if refs.is_empty() {
            continue;
        }
        // A cut that contains a reference without any exploitable reuse can never be
        // removed from the critical path by register allocation.
        if refs
            .iter()
            .any(|r| analysis.get(*r).map(|s| !s.has_reuse()).unwrap_or(true))
        {
            continue;
        }
        let additional_registers: u64 = refs
            .iter()
            .filter_map(|r| analysis.get(*r))
            .map(|s| s.registers_full().saturating_sub(betas[s.ref_id().index()]))
            .sum();
        if additional_registers == 0 {
            continue;
        }
        result.push(Candidate {
            refs: refs.into_iter().collect(),
            additional_registers,
        });
    }
    result
}

/// The paper's choice: the cut needing the fewest additional registers, ties broken
/// by fewer references, then by reference order.
fn select(candidates: &[Candidate]) -> Option<&Candidate> {
    candidates.iter().min_by(|a, b| {
        a.additional_registers
            .cmp(&b.additional_registers)
            .then(a.refs.len().cmp(&b.refs.len()))
            .then(a.refs.cmp(&b.refs))
    })
}

/// CPA-RA over a prebuilt data-flow graph and a slot for the candidate cuts of
/// its starting state: the registry entry passes a [`crate::CompiledKernel`]'s
/// memoized graph and slot, [`critical_path_aware`] a fresh graph and an empty
/// slot.
pub(crate) fn critical_path_aware_on_dfg(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    dfg: &DataFlowGraph,
    starting: &OnceLock<Vec<Candidate>>,
    budget: u64,
) -> Result<RegisterAllocation, AllocError> {
    check_budget(analysis, budget)?;

    // Feasibility: one register per reference, like the greedy variants.
    let mut betas = vec![1u64; analysis.len()];
    let mut remaining = budget - analysis.len() as u64;
    let latency = LatencyModel::default();

    // Every budget starts from the same β, so the first iteration's cuts come
    // from `starting`, computed once per slot; each later iteration
    // enumerates the cuts of its own state.
    let mut starting = Some(starting);
    while remaining > 0 {
        let fresh;
        let candidates = match starting.take() {
            Some(slot) => slot.get_or_init(|| candidates(dfg, analysis, &betas, &latency)),
            None => {
                fresh = candidates(dfg, analysis, &betas, &latency);
                &fresh
            }
        };
        let Some(best) = select(candidates) else {
            break;
        };

        if best.additional_registers <= remaining {
            // Fully replace every reference of the cut.
            for r in &best.refs {
                let summary = analysis.get(*r).expect("candidate references are analysed");
                let idx = r.index();
                remaining -= summary.registers_full() - betas[idx];
                betas[idx] = summary.registers_full();
            }
        } else {
            // Not enough registers for the whole cut: divide the remainder equally
            // among the references of the cut that still need registers.
            let needy: Vec<RefId> = best
                .refs
                .iter()
                .copied()
                .filter(|r| {
                    analysis
                        .get(*r)
                        .map(|s| betas[r.index()] < s.registers_full())
                        .unwrap_or(false)
                })
                .collect();
            if needy.is_empty() {
                break;
            }
            let share = remaining / needy.len() as u64;
            let mut extra = remaining % needy.len() as u64;
            let mut distributed = 0u64;
            for r in &needy {
                let summary = analysis.get(*r).expect("candidate references are analysed");
                let bonus = if extra > 0 {
                    extra -= 1;
                    1
                } else {
                    0
                };
                let want = share + bonus;
                let take = want.min(summary.registers_full() - betas[r.index()]);
                betas[r.index()] += take;
                distributed += take;
            }
            remaining -= distributed;
            if distributed == 0 {
                break;
            }
        }
    }

    Ok(build_allocation(
        kernel.name(),
        AllocatorRef::of(&CRITICAL_PATH_AWARE),
        budget,
        analysis,
        &betas,
    ))
}

/// CPA-RA: Critical-Path-Aware Register Allocation — the paper's proposed algorithm.
///
/// Each iteration builds the data-flow graph of the loop body with the current storage
/// assignment, extracts the Critical Graph (the union of all maximum-latency paths),
/// enumerates its reference-node cuts and fully replaces the cut requiring the fewest
/// additional registers.  Because a cut intersects *every* critical path, each
/// promotion is guaranteed to shorten the whole computation rather than a single path.
/// When the cheapest cut no longer fits, the remaining registers are divided equally
/// among its references (partial replacement), and the algorithm stops when either the
/// budget or the improvable cuts run out.
///
/// This function builds the data-flow graph and enumerates the first iteration's cuts
/// afresh on every call.  The registry's `cpa` entry runs the same loop over a
/// [`crate::CompiledKernel`], which memoizes both: every budget starts from one register
/// per reference, so a sweep over a kernel's budgets enumerates that starting cut set
/// once.
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
/// use srra_core::critical_path_aware;
///
/// # fn main() -> Result<(), srra_core::AllocError> {
/// let kernel = paper_example();
/// let analysis = ReuseAnalysis::of(&kernel);
/// let allocation = critical_path_aware(&kernel, &analysis, 64)?;
/// // Cut {d} is promoted first (30 registers), then the leftover is split equally
/// // between a and b: exactly the Figure 2(c) distribution.
/// assert_eq!(allocation.by_name("d").unwrap().beta(), 30);
/// assert_eq!(allocation.by_name("a").unwrap().beta(), 16);
/// assert_eq!(allocation.by_name("b").unwrap().beta(), 16);
/// # Ok(())
/// # }
/// ```
pub fn critical_path_aware(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    budget: u64,
) -> Result<RegisterAllocation, AllocError> {
    critical_path_aware_on_dfg(
        kernel,
        analysis,
        &DataFlowGraph::from_kernel(kernel),
        &OnceLock::new(),
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ReplacementMode;
    use srra_ir::examples::{dot_product, paper_example, stencil3};

    #[test]
    fn reproduces_the_paper_cpa_ra_distribution() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = critical_path_aware(&kernel, &analysis, 64).unwrap();
        let beta = |n: &str| allocation.by_name(n).unwrap().beta();
        assert_eq!(beta("d"), 30);
        assert_eq!(beta("a"), 16);
        assert_eq!(beta("b"), 16);
        assert_eq!(beta("c"), 1);
        assert_eq!(beta("e"), 1);
        assert_eq!(allocation.total_registers(), 64);
        assert_eq!(
            allocation.by_name("d").unwrap().mode(),
            ReplacementMode::Full
        );
        assert_eq!(
            allocation.by_name("a").unwrap().mode(),
            ReplacementMode::Partial
        );
        assert_eq!(
            allocation.by_name("b").unwrap().mode(),
            ReplacementMode::Partial
        );
    }

    #[test]
    fn large_budget_promotes_every_critical_reference() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = critical_path_aware(&kernel, &analysis, 1000).unwrap();
        for name in ["a", "b", "d"] {
            assert_eq!(
                allocation.by_name(name).unwrap().mode(),
                ReplacementMode::Full,
                "reference {name}"
            );
        }
        // c never reaches the critical path (the op1 -> op2 chain dominates even after
        // the promotions), so CPA-RA deliberately leaves it alone.  This is the
        // "same or even fewer registers" effect the paper highlights.
        assert_eq!(
            allocation.by_name("c").unwrap().mode(),
            ReplacementMode::None
        );
        assert_eq!(allocation.by_name("c").unwrap().beta(), 1);
        assert!(allocation.total_registers() < 1000);
        // e has no reuse: registers are never wasted on it.
        assert_eq!(allocation.by_name("e").unwrap().beta(), 1);
        // Once the budget covers every reference, FR-RA's memory cycles meet
        // CPA-RA's: what CPA-RA leaves in RAM is off the critical path.
        let model = crate::MemoryCostModel::default();
        for budget in [700, 1000] {
            let fr = crate::full_reuse(&kernel, &analysis, budget).unwrap();
            let cpa = critical_path_aware(&kernel, &analysis, budget).unwrap();
            assert_eq!(
                crate::memory_cost(&kernel, &analysis, &fr, &model).memory_cycles,
                crate::memory_cost(&kernel, &analysis, &cpa, &model).memory_cycles,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn budget_is_never_exceeded() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        for budget in [5, 8, 16, 31, 32, 33, 64, 100, 256, 700] {
            let allocation = critical_path_aware(&kernel, &analysis, budget).unwrap();
            assert!(
                allocation.total_registers() <= budget,
                "budget {budget}, used {}",
                allocation.total_registers()
            );
        }
    }

    #[test]
    fn stencil_and_dot_product_terminate() {
        for kernel in [stencil3(64), dot_product(128)] {
            let analysis = ReuseAnalysis::of(&kernel);
            let allocation = critical_path_aware(&kernel, &analysis, 16).unwrap();
            assert!(allocation.total_registers() <= 16);
        }
    }

    #[test]
    fn rejects_small_budgets() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        assert!(matches!(
            critical_path_aware(&kernel, &analysis, 4),
            Err(AllocError::BudgetTooSmall { .. })
        ));
    }
}
