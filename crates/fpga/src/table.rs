//! The cost model split by what a register vector can change.
//!
//! A design point's cost has three levels of terms, each computed once:
//!
//! * [`CostTable`] — per kernel and [`EvaluationOptions`]: the compute cycles of the
//!   all-register list schedule, the memory stages at the options' RAM latency and
//!   the operator slices.  No allocation changes these, and only the memory stages
//!   depend on the RAM latency: [`CostTable::at_ram_latency`] derives a kernel's
//!   table for another RAM latency from one it already has, keeping its schedule.
//! * [`AllocationCost`] — per β vector: its per-reference terms, registers used,
//!   register distribution, clock period, device-independent area, remaining
//!   accesses and prologue plus epilogue transfers.  No RAM latency, device or
//!   allocator changes these, so allocations with the same β vector, from any
//!   allocator, share one.
//! * [`PointCost`] — per design point: the memory-stage fold at the table's RAM
//!   latency, the transfer, total and wall-clock times, and the BlockRAMs and fit on
//!   the point's device.
//!
//! [`HardwareDesign::evaluate_on_dfg`] is one pass through all three levels.  A sweep
//! that visits many points of one kernel builds one table, derives the table of each
//! other RAM latency from it, builds each distinct β vector's [`AllocationCost`]
//! once, and costs it on every table of the kernel.

use srra_core::{AllocatorRef, MemoryStages, RefTerms, RegisterAllocation};
use srra_dfg::{DataFlowGraph, Storage, StorageMap};
use srra_ir::Kernel;
use srra_reuse::ReuseAnalysis;

use crate::area::AllocationArea;
use crate::design::{EvaluationOptions, HardwareDesign};
use crate::device::DeviceModel;
use crate::schedule::ListScheduler;

/// The allocation-independent cost terms of one kernel under one set of
/// [`EvaluationOptions`].
#[derive(Debug, Clone)]
pub struct CostTable<'k> {
    kernel: &'k Kernel,
    analysis: &'k ReuseAnalysis,
    dfg: &'k DataFlowGraph,
    options: EvaluationOptions,
    compute_cycles: u64,
    stages: MemoryStages,
    operator_slices: f64,
}

impl<'k> CostTable<'k> {
    /// Builds the table of `kernel` from its reuse analysis and data-flow graph.
    pub fn new(
        kernel: &'k Kernel,
        analysis: &'k ReuseAnalysis,
        dfg: &'k DataFlowGraph,
        options: &EvaluationOptions,
    ) -> Self {
        // Datapath skeleton: the schedule of one iteration when every operand is
        // already register-resident.
        let mut all_registers = StorageMap::all_ram();
        for summary in analysis.iter() {
            all_registers.set(summary.ref_id(), Storage::Register);
        }
        let scheduler = ListScheduler::new(options.limits.clone());
        let datapath = scheduler.schedule(dfg, &options.latency, &all_registers);
        let compute_cycles = kernel
            .nest()
            .total_iterations()
            .saturating_mul(datapath.cycles() + options.loop_overhead_cycles);
        Self {
            kernel,
            analysis,
            dfg,
            options: options.clone(),
            compute_cycles,
            stages: MemoryStages::new(kernel, analysis, dfg, &options.memory),
            operator_slices: options.area.operator_slices(dfg),
        }
    }

    /// The table of the same kernel and options at another RAM latency.
    ///
    /// The list schedule, the compute cycles and the operator slices do not depend
    /// on the RAM latency, so they are kept; only the memory stages are derived
    /// again.  The result equals [`CostTable::new`] at that latency.
    pub fn at_ram_latency(&self, ram_latency: u64) -> Self {
        let mut options = self.options.clone();
        options.memory.ram_latency = ram_latency;
        Self {
            kernel: self.kernel,
            analysis: self.analysis,
            dfg: self.dfg,
            compute_cycles: self.compute_cycles,
            stages: MemoryStages::new(self.kernel, self.analysis, self.dfg, &options.memory),
            operator_slices: self.operator_slices,
            options,
        }
    }

    /// The terms of `allocation` that no RAM latency or device changes, computed
    /// with this table's clock and area models.
    ///
    /// They depend on the allocation's β vector alone: every allocator derives a
    /// reference's replacement mode from its β, and the terms name no allocator.
    ///
    /// # Panics
    ///
    /// Panics when `allocation` was computed for another kernel (a different name
    /// or reference count).
    pub fn allocation_cost(&self, allocation: &RegisterAllocation) -> AllocationCost {
        assert!(
            allocation.kernel_name() == self.kernel.name()
                && allocation.len() == self.analysis.len(),
            "an allocation for kernel `{}` ({} references) cannot be costed on the table of kernel `{}` ({} references)",
            allocation.kernel_name(),
            allocation.len(),
            self.kernel.name(),
            self.analysis.len(),
        );
        let refs = RefTerms::of_allocation(self.kernel, self.analysis, allocation);
        let prologue_loads: u64 = refs.iter().map(|r| r.prologue_loads).sum();
        let epilogue_stores: u64 = refs.iter().map(|r| r.epilogue_stores).sum();
        AllocationCost {
            registers_used: allocation.total_registers(),
            distribution: allocation.distribution(),
            clock_period_ns: self.options.clock.period_of(&refs),
            area: self
                .options
                .area
                .allocation_area(self.kernel, self.operator_slices, &refs),
            transfers: prologue_loads + epilogue_stores,
            remaining_accesses: refs.iter().map(|r| r.remaining_accesses).sum(),
            refs,
        }
    }

    /// The terms of one design point: `cost`'s allocation at this table's RAM
    /// latency on `device`.
    ///
    /// `cost` may come from any table of the same kernel whose options differ only
    /// in the memory model.
    pub fn point_cost(&self, cost: &AllocationCost, device: &DeviceModel) -> PointCost {
        let memory_cycles = self
            .stages
            .memory_cycles(self.stages.cycles_per_iteration(&cost.refs, |_, _| {}));
        let transfer_cycles = cost
            .transfers
            .saturating_mul(self.options.memory.ram_latency);
        let total_cycles = self.compute_cycles + memory_cycles + transfer_cycles;
        let execution_time_us = total_cycles as f64 * cost.clock_period_ns / 1_000.0;
        let area = cost.area.on(device);
        PointCost {
            total_cycles,
            compute_cycles: self.compute_cycles,
            memory_cycles,
            transfer_cycles,
            execution_time_us,
            block_rams: area.block_rams,
            slice_occupancy: area.occupancy(device),
            fits: area.fits(device),
        }
    }

    /// The full design point of `cost`'s allocation, chosen by `algorithm`, at this
    /// table's RAM latency on `device`.
    pub(crate) fn design(
        &self,
        algorithm: AllocatorRef,
        cost: &AllocationCost,
        device: &DeviceModel,
    ) -> HardwareDesign {
        let point = self.point_cost(cost, device);
        HardwareDesign {
            kernel: self.kernel.name().to_owned(),
            version: algorithm.version_name().to_owned(),
            algorithm: algorithm.label().to_owned(),
            registers_used: cost.registers_used,
            register_distribution: cost.distribution.clone(),
            total_cycles: point.total_cycles,
            compute_cycles: point.compute_cycles,
            memory_cycles: point.memory_cycles,
            transfer_cycles: point.transfer_cycles,
            clock_period_ns: cost.clock_period_ns,
            execution_time_us: point.execution_time_us,
            slices: cost.slices(),
            slice_occupancy: point.slice_occupancy,
            block_rams: point.block_rams,
            remaining_accesses: cost.remaining_accesses,
        }
    }
}

/// The cost terms of one β vector that no RAM latency, device or allocator changes,
/// built by [`CostTable::allocation_cost`].
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationCost {
    registers_used: u64,
    distribution: String,
    clock_period_ns: f64,
    area: AllocationArea,
    transfers: u64,
    remaining_accesses: u64,
    refs: Vec<RefTerms>,
}

impl AllocationCost {
    /// Registers consumed by the allocation.
    pub fn registers_used(&self) -> u64 {
        self.registers_used
    }

    /// Per-reference register distribution, e.g. `a:30 b:1 c:20 d:1 e:1`.
    pub fn distribution(&self) -> &str {
        &self.distribution
    }

    /// Achievable clock period in nanoseconds.
    pub fn clock_period_ns(&self) -> f64 {
        self.clock_period_ns
    }

    /// Logic slices occupied (on any device).
    pub fn slices(&self) -> u64 {
        self.area.slices()
    }
}

/// The cost terms of one design point that depend on its RAM latency or device,
/// built by [`CostTable::point_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointCost {
    /// Total execution cycles of the computation.
    pub total_cycles: u64,
    /// Cycles spent on datapath operations and loop control.
    pub compute_cycles: u64,
    /// Cycles spent on RAM accesses (steady state).
    pub memory_cycles: u64,
    /// Cycles spent warming up / draining registers (prologue and epilogue).
    pub transfer_cycles: u64,
    /// Wall-clock execution time in microseconds.
    pub execution_time_us: f64,
    /// BlockRAMs occupied.
    pub block_rams: u64,
    /// Slice occupancy on the device.
    pub slice_occupancy: f64,
    /// Whether the design fits the device.
    pub fits: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_core::{AllocatorRegistry, CompiledKernel, MemoryCostModel};
    use srra_ir::examples::{dot_product, paper_example, stencil3};
    use std::collections::HashMap;

    fn options(ram_latency: u64) -> EvaluationOptions {
        EvaluationOptions {
            memory: MemoryCostModel::default().with_ram_latency(ram_latency),
            ..EvaluationOptions::default()
        }
    }

    #[test]
    fn allocation_terms_carry_across_tables_of_one_kernel() {
        let ck = CompiledKernel::new(paper_example());
        let (kernel, analysis, dfg) = (ck.kernel(), ck.analysis(), ck.dfg());
        let latencies = [1, 2, 4];
        let tables: Vec<CostTable<'_>> = latencies
            .iter()
            .map(|&latency| CostTable::new(kernel, analysis, dfg, &options(latency)))
            .collect();
        // Each table derived from every other latency's table, keeping its schedule.
        let derived: Vec<Vec<CostTable<'_>>> = latencies
            .iter()
            .map(|&latency| {
                tables
                    .iter()
                    .map(|source| source.at_ram_latency(latency))
                    .collect()
            })
            .collect();
        for allocator in AllocatorRegistry::global().iter() {
            let allocation = allocator.allocate(&ck, 64).unwrap();
            let carried = tables[0].allocation_cost(&allocation);
            for (table, derived) in tables.iter().zip(&derived) {
                let own = table.allocation_cost(&allocation);
                assert_eq!(own, carried, "{}", allocator.name());
                for device in [DeviceModel::xcv1000(), DeviceModel::xcv300()] {
                    assert_eq!(
                        table.point_cost(&carried, &device),
                        table.point_cost(&own, &device)
                    );
                    assert_eq!(
                        table.design(allocation.algorithm(), &carried, &device),
                        HardwareDesign::evaluate_on_dfg(
                            kernel,
                            analysis,
                            dfg,
                            &allocation,
                            &device,
                            &table.options
                        )
                    );
                }
                for derived in derived {
                    assert_eq!(derived.options, table.options);
                    assert_eq!(derived.allocation_cost(&allocation), own);
                    for device in [DeviceModel::xcv1000(), DeviceModel::xcv300()] {
                        assert_eq!(
                            derived.point_cost(&carried, &device),
                            table.point_cost(&own, &device),
                            "{} at RAM latency {}",
                            allocator.name(),
                            table.options.memory.ram_latency
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn allocations_with_equal_beta_vectors_cost_the_same() {
        let mut shared_across_allocators = 0;
        for kernel in [paper_example(), stencil3(32), dot_product(16)] {
            let ck = CompiledKernel::new(kernel);
            let table = CostTable::new(ck.kernel(), ck.analysis(), ck.dfg(), &options(2));
            let references = ck.analysis().len() as u64;
            let mut first: HashMap<Vec<u64>, (AllocatorRef, AllocationCost)> = HashMap::new();
            for budget in [references, 8, 16, 32, 64, 128] {
                for allocator in AllocatorRegistry::global().iter() {
                    let Ok(allocation) = allocator.allocate(&ck, budget) else {
                        continue;
                    };
                    let betas = allocation.iter().map(|r| r.beta()).collect::<Vec<_>>();
                    let cost = table.allocation_cost(&allocation);
                    let (by, earlier) = first.entry(betas).or_insert((allocator, cost.clone()));
                    assert_eq!(
                        cost,
                        *earlier,
                        "{} on {} at budget {budget}, against {}",
                        allocator.name(),
                        ck.kernel().name(),
                        by.name()
                    );
                    shared_across_allocators += usize::from(*by != allocator);
                }
            }
        }
        assert!(shared_across_allocators > 0);
    }

    #[test]
    fn point_terms_add_up() {
        let ck = CompiledKernel::new(paper_example());
        let table = CostTable::new(ck.kernel(), ck.analysis(), ck.dfg(), &options(2));
        let cpa = AllocatorRegistry::global().get("cpa").unwrap();
        let cost = table.allocation_cost(&cpa.allocate(&ck, 64).unwrap());
        let point = table.point_cost(&cost, &DeviceModel::xcv1000());
        assert_eq!(
            point.total_cycles,
            point.compute_cycles + point.memory_cycles + point.transfer_cycles
        );
        assert!(point.fits);
        assert_eq!(cost.registers_used(), 64);
        assert!(cost.distribution().contains("d:30"));
    }

    #[test]
    #[should_panic(expected = "cannot be costed on the table of kernel `stencil3`")]
    fn an_allocation_of_another_kernel_is_refused() {
        let paper = CompiledKernel::new(paper_example());
        let other = CompiledKernel::new(stencil3(32));
        let table = CostTable::new(other.kernel(), other.analysis(), other.dfg(), &options(2));
        let fr = AllocatorRegistry::global().get("fr").unwrap();
        table.allocation_cost(&fr.allocate(&paper, 64).unwrap());
    }
}
