//! Analytic memory-cycle cost model (`T_mem`) for a register allocation.
//!
//! The paper compares its allocation variants by the number of cycles the computation
//! spends on memory operations.  This module reproduces that metric with an explicit,
//! documented model:
//!
//! 1. The data-flow graph of the loop body is analysed with every reference in RAM; the
//!    reference nodes that lie on the resulting Critical Graph form the **memory
//!    stages** of an iteration (grouped by their position along the path).  References
//!    off the critical path (such as `c[j]` in the paper's example) overlap with
//!    datapath operations and do not add memory cycles.
//! 2. For each reference, the allocation determines its **miss fraction**: 0 for full
//!    replacement (the steady state never touches RAM), `1 − β/R` for partial
//!    replacement and 1 when no reuse is captured.
//! 3. Accesses of the *same* stage that target different arrays proceed concurrently
//!    (they live in different RAM blocks), so a stage costs the *maximum* miss fraction
//!    over its arrays; accesses to the same array serialise and add up.
//! 4. `T_mem` is the per-iteration stage cost times the RAM latency times the number of
//!    innermost iterations.
//!
//! With the default parameters this reproduces the paper's Figure 2(c) numbers
//! (1,800 / 1,560 / 1,184 memory cycles per outer-loop iteration for FR-RA, PR-RA and
//! CPA-RA respectively).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use srra_dfg::{CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
use srra_ir::{ArrayId, Kernel, RefId};
use srra_reuse::ReuseAnalysis;

use crate::allocation::RegisterAllocation;
use crate::scalar_replace::RefTerms;

/// Parameters of the memory cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryCostModel {
    /// Latency of one RAM-block access in cycles.
    pub ram_latency: u64,
    /// When `true` (the default, matching the paper's configurable-architecture
    /// argument), accesses to distinct arrays within one stage proceed concurrently.
    pub concurrent_ram_access: bool,
}

impl Default for MemoryCostModel {
    fn default() -> Self {
        Self {
            ram_latency: 1,
            concurrent_ram_access: true,
        }
    }
}

impl MemoryCostModel {
    /// Returns a copy with a different RAM latency.
    #[must_use]
    pub fn with_ram_latency(mut self, cycles: u64) -> Self {
        self.ram_latency = cycles;
        self
    }

    /// Returns a copy with concurrent RAM access enabled or disabled.
    #[must_use]
    pub fn with_concurrency(mut self, enabled: bool) -> Self {
        self.concurrent_ram_access = enabled;
        self
    }
}

/// Cost contribution of one memory stage of the loop body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// References participating in the stage, rendered with loop names, grouped by
    /// array.
    pub references: Vec<String>,
    /// Expected RAM cycles the stage contributes per innermost iteration.
    pub cycles_per_iteration: f64,
}

/// The result of costing an allocation with [`memory_cost`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryCostReport {
    /// Total memory cycles over the whole loop execution (`T_mem`).
    pub memory_cycles: u64,
    /// Memory cycles per iteration of the outermost loop (the figure the paper quotes
    /// for its running example).
    pub memory_cycles_per_outer_iteration: u64,
    /// Expected memory cycles per innermost iteration.
    pub cycles_per_iteration: f64,
    /// Breakdown by memory stage.
    pub stages: Vec<StageCost>,
    /// Memory accesses remaining over the whole execution (all references, including
    /// those off the critical path).
    pub remaining_accesses: u64,
    /// Memory accesses eliminated relative to the untransformed code.
    pub eliminated_accesses: u64,
}

/// The memory stages of one loop-body iteration under a [`MemoryCostModel`]: the
/// reference nodes of the all-RAM critical graph at the model's RAM latency,
/// grouped by their longest-path depth (the order in which an iteration needs the
/// data).
///
/// The stages are a structural property of the computation, so the same stages are
/// compared across allocations: build them once per kernel and cost model, then fold
/// any number of allocations' miss fractions through
/// [`MemoryStages::cycles_per_iteration`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryStages {
    model: MemoryCostModel,
    /// Each stage's references in depth order, grouped by array in `ArrayId`
    /// order; a group keeps critical-graph node order.
    stages: Vec<Vec<Vec<RefId>>>,
    total_iterations: u64,
}

impl MemoryStages {
    /// Derives the stages of `kernel` from its data-flow graph `dfg`.
    pub fn new(
        kernel: &Kernel,
        analysis: &ReuseAnalysis,
        dfg: &DataFlowGraph,
        model: &MemoryCostModel,
    ) -> Self {
        let structural = CriticalPathAnalysis::new(
            dfg,
            &LatencyModel::default().with_ram_latency(model.ram_latency.max(1)),
            &StorageMap::all_ram(),
        );
        let mut stages: BTreeMap<u64, BTreeMap<ArrayId, Vec<RefId>>> = BTreeMap::new();
        for &node in structural.critical_graph().nodes() {
            if let Some(ref_id) = dfg.node(node).reference() {
                let stage = stages.entry(structural.longest_to(node)).or_default();
                if let Some(summary) = analysis.get(ref_id) {
                    stage.entry(summary.array()).or_default().push(ref_id);
                }
            }
        }
        Self {
            model: model.clone(),
            stages: stages
                .into_values()
                .map(|arrays| arrays.into_values().collect())
                .collect(),
            total_iterations: kernel.nest().total_iterations(),
        }
    }

    /// Expected RAM cycles per innermost iteration of an allocation, given every
    /// reference's terms in reference-table order ([`RefTerms::of_allocation`]).
    /// Calls `each(references by array, cycles)` for every stage, in depth order.
    pub fn cycles_per_iteration(
        &self,
        refs: &[RefTerms],
        mut each: impl FnMut(&[Vec<RefId>], f64),
    ) -> f64 {
        let mut cycles_per_iteration = 0.0f64;
        for stage in &self.stages {
            // Concurrency applies across different arrays; accesses to the same
            // array serialise on its RAM block port and add up.
            let per_array = stage.iter().map(|array| {
                array
                    .iter()
                    .fold(0.0f64, |sum, id| sum + refs[id.index()].steady_miss)
            });
            let stage_fraction = if self.model.concurrent_ram_access {
                per_array.fold(0.0f64, f64::max)
            } else {
                per_array.sum()
            };
            let cycles = stage_fraction * self.model.ram_latency as f64;
            cycles_per_iteration += cycles;
            each(stage, cycles);
        }
        cycles_per_iteration
    }

    /// Total memory cycles over the whole loop execution (`T_mem`) for a
    /// per-iteration cost from [`MemoryStages::cycles_per_iteration`].
    pub fn memory_cycles(&self, cycles_per_iteration: f64) -> u64 {
        (cycles_per_iteration * self.total_iterations as f64).round() as u64
    }
}

/// Computes the memory-cycle cost (`T_mem`) of an allocation.
///
/// See the module documentation for the model.  The report also includes the raw
/// remaining/eliminated access counts, which the FPGA model and the Table 1 harness
/// reuse.  This builds the kernel's data-flow graph; callers that already hold one
/// (a [`crate::CompiledKernel`]'s memoized graph) use [`memory_cost_on_dfg`].
pub fn memory_cost(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    allocation: &RegisterAllocation,
    model: &MemoryCostModel,
) -> MemoryCostReport {
    memory_cost_on_dfg(
        kernel,
        analysis,
        &DataFlowGraph::from_kernel(kernel),
        allocation,
        model,
    )
}

/// [`memory_cost`] over the kernel's already-built data-flow graph `dfg`.
pub fn memory_cost_on_dfg(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    dfg: &DataFlowGraph,
    allocation: &RegisterAllocation,
    model: &MemoryCostModel,
) -> MemoryCostReport {
    let stages = MemoryStages::new(kernel, analysis, dfg, model);
    let terms = RefTerms::of_allocation(kernel, analysis, allocation);
    let mut stage_costs = Vec::new();
    let cycles_per_iteration = stages.cycles_per_iteration(&terms, |refs, cycles| {
        stage_costs.push(StageCost {
            references: refs
                .iter()
                .flatten()
                .filter_map(|r| analysis.get(*r))
                .map(|s| s.rendered().to_owned())
                .collect(),
            cycles_per_iteration: cycles,
        });
    });
    let memory_cycles = stages.memory_cycles(cycles_per_iteration);
    let outer_trip = kernel
        .nest()
        .trip_counts()
        .first()
        .copied()
        .unwrap_or(1)
        .max(1);
    let remaining: u64 = terms.iter().map(|t| t.remaining_accesses).sum();
    let total: u64 = analysis.iter().map(|s| s.access_counts().total).sum();

    MemoryCostReport {
        memory_cycles,
        memory_cycles_per_outer_iteration: memory_cycles / outer_trip,
        cycles_per_iteration,
        stages: stage_costs,
        remaining_accesses: remaining,
        eliminated_accesses: total.saturating_sub(remaining),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{critical_path_aware, full_reuse, AllocatorRegistry, CompiledKernel};
    use srra_ir::examples::paper_example;

    fn report(name: &str, budget: u64) -> MemoryCostReport {
        let ck = CompiledKernel::new(paper_example());
        let allocator = AllocatorRegistry::global().get(name).unwrap();
        let allocation = allocator.allocate(&ck, budget).unwrap();
        memory_cost(
            ck.kernel(),
            ck.analysis(),
            &allocation,
            &MemoryCostModel::default(),
        )
    }

    #[test]
    fn reproduces_the_figure_2c_memory_cycles() {
        // The paper quotes the memory cycles for one iteration of the outer loop:
        // 1,800 for FR-RA, 1,560 for PR-RA and 1,184 for CPA-RA with 64 registers.
        assert_eq!(report("fr", 64).memory_cycles_per_outer_iteration, 1800);
        assert_eq!(report("pr", 64).memory_cycles_per_outer_iteration, 1560);
        assert_eq!(report("cpa", 64).memory_cycles_per_outer_iteration, 1184);
    }

    #[test]
    fn cpa_never_loses_to_the_greedy_variants() {
        for budget in [8, 16, 32, 64, 128] {
            let fr = report("fr", budget).memory_cycles;
            let pr = report("pr", budget).memory_cycles;
            let cpa = report("cpa", budget).memory_cycles;
            assert!(pr <= fr, "budget {budget}: PR {pr} vs FR {fr}");
            assert!(cpa <= pr, "budget {budget}: CPA {cpa} vs PR {pr}");
        }
    }

    #[test]
    fn baseline_has_the_highest_cost_and_no_elimination() {
        let base = report("none", 64);
        let cpa = report("cpa", 64);
        assert!(base.memory_cycles >= cpa.memory_cycles);
        assert_eq!(base.eliminated_accesses, 0);
        assert!(cpa.eliminated_accesses > 0);
    }

    #[test]
    fn stage_breakdown_covers_the_critical_references() {
        let r = report("none", 64);
        // Stages: {a, b}, {d}, {e}; c is off the critical path.
        assert_eq!(r.stages.len(), 3);
        let all_refs: Vec<String> = r.stages.iter().flat_map(|s| s.references.clone()).collect();
        assert!(all_refs.contains(&"a[k]".to_owned()));
        assert!(all_refs.contains(&"d[i][k]".to_owned()));
        assert!(!all_refs.contains(&"c[j]".to_owned()));
    }

    #[test]
    fn serial_model_is_never_cheaper_than_concurrent() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = critical_path_aware(&kernel, &analysis, 64).unwrap();
        let concurrent = memory_cost(&kernel, &analysis, &allocation, &MemoryCostModel::default());
        let serial = memory_cost(
            &kernel,
            &analysis,
            &allocation,
            &MemoryCostModel::default().with_concurrency(false),
        );
        assert!(serial.memory_cycles >= concurrent.memory_cycles);
    }

    #[test]
    fn ram_latency_scales_the_cost_linearly() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 64).unwrap();
        let lat1 = memory_cost(&kernel, &analysis, &allocation, &MemoryCostModel::default());
        let lat3 = memory_cost(
            &kernel,
            &analysis,
            &allocation,
            &MemoryCostModel::default().with_ram_latency(3),
        );
        assert_eq!(lat3.memory_cycles, 3 * lat1.memory_cycles);
    }
}
