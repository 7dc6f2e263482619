//! Whole-design evaluation: cycles, clock, wall-clock time and area for one allocation.

use serde::{Deserialize, Serialize};
use srra_core::{memory_cost_on_dfg, MemoryCostModel, RegisterAllocation, ReplacementPlan};
use srra_dfg::{DataFlowGraph, LatencyModel, Storage, StorageMap};
use srra_ir::Kernel;
use srra_reuse::ReuseAnalysis;

use crate::area::{AreaEstimate, AreaModel};
use crate::clock::ClockModel;
use crate::device::DeviceModel;
use crate::schedule::{ListScheduler, ResourceLimits};

/// All the knobs of the hardware evaluation, bundled so design points stay comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationOptions {
    /// Operation and memory latencies.
    pub latency: LatencyModel,
    /// Scheduler resource limits (RAM ports, optional operator limits).
    pub limits: ResourceLimits,
    /// Clock-period model.
    pub clock: ClockModel,
    /// Area model.
    pub area: AreaModel,
    /// Memory-cycle cost model (RAM latency, concurrency).
    pub memory: MemoryCostModel,
    /// Loop-control overhead added to every innermost iteration, in cycles.
    pub loop_overhead_cycles: u64,
}

impl Default for EvaluationOptions {
    /// The default hardware evaluation charges two cycles per BlockRAM access: Virtex
    /// BlockRAMs are synchronous, so an FSM implementation spends one state driving the
    /// address and one state capturing the data.  (The abstract `T_mem` metric of
    /// `srra-core`, used for the Figure 2(c) reproduction, keeps its single-cycle
    /// default.)
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            limits: ResourceLimits::default(),
            clock: ClockModel::default(),
            area: AreaModel::default(),
            memory: MemoryCostModel::default().with_ram_latency(2),
            loop_overhead_cycles: 0,
        }
    }
}

/// A fully evaluated hardware design point, the unit of comparison in Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareDesign {
    /// Name of the kernel.
    pub kernel: String,
    /// The algorithm's Table 1 version name (`v1`, `v2`, `v3`, ...).
    pub version: String,
    /// The algorithm's label (`FR-RA`, `PR-RA`, `CPA-RA`, ...).
    pub algorithm: String,
    /// Registers consumed by the allocation.
    pub registers_used: u64,
    /// Per-reference register distribution, e.g. `a:30 b:1 c:20 d:1 e:1`.
    pub register_distribution: String,
    /// Total execution cycles of the computation.
    pub total_cycles: u64,
    /// Cycles spent on datapath operations and loop control.
    pub compute_cycles: u64,
    /// Cycles spent on RAM accesses (steady state).
    pub memory_cycles: u64,
    /// Cycles spent warming up / draining registers (prologue and epilogue).
    pub transfer_cycles: u64,
    /// Achievable clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Wall-clock execution time in microseconds.
    pub execution_time_us: f64,
    /// Logic slices occupied.
    pub slices: u64,
    /// Slice occupancy on the evaluated device.
    pub slice_occupancy: f64,
    /// BlockRAMs occupied.
    pub block_rams: u64,
    /// Memory accesses remaining over the whole execution.
    pub remaining_accesses: u64,
}

impl HardwareDesign {
    /// Evaluates a register allocation as a hardware design point.
    ///
    /// The total cycle count decomposes as
    /// `iterations × (datapath schedule + loop overhead) + steady-state memory cycles +
    /// prologue/epilogue transfers`; the datapath schedule comes from the
    /// resource-constrained list scheduler with every reference register-resident, and
    /// the memory cycles come from the `srra-core` cost model (which accounts for
    /// partial replacement and concurrent access to distinct RAM blocks).
    ///
    /// This builds the kernel's data-flow graph; callers that already hold one (a
    /// [`srra_core::CompiledKernel`]'s memoized graph) use
    /// [`HardwareDesign::evaluate_on_dfg`].
    pub fn evaluate(
        kernel: &Kernel,
        analysis: &ReuseAnalysis,
        allocation: &RegisterAllocation,
        device: &DeviceModel,
        options: &EvaluationOptions,
    ) -> Self {
        Self::evaluate_on_dfg(
            kernel,
            analysis,
            &DataFlowGraph::from_kernel(kernel),
            allocation,
            device,
            options,
        )
    }

    /// [`HardwareDesign::evaluate`] over the kernel's already-built data-flow graph
    /// `dfg`, which the schedule, the memory cost and the area estimate all share.
    pub fn evaluate_on_dfg(
        kernel: &Kernel,
        analysis: &ReuseAnalysis,
        dfg: &DataFlowGraph,
        allocation: &RegisterAllocation,
        device: &DeviceModel,
        options: &EvaluationOptions,
    ) -> Self {
        let plan = ReplacementPlan::new(kernel, analysis, allocation);

        // Datapath skeleton: the schedule of one iteration when every operand is
        // already register-resident.
        let mut all_registers = StorageMap::all_ram();
        for summary in analysis.iter() {
            all_registers.set(summary.ref_id(), Storage::Register);
        }
        let scheduler = ListScheduler::new(options.limits.clone());
        let datapath = scheduler.schedule(dfg, &options.latency, &all_registers);

        let iterations = kernel.nest().total_iterations();
        let compute_cycles =
            iterations.saturating_mul(datapath.cycles() + options.loop_overhead_cycles);

        let memory = memory_cost_on_dfg(kernel, analysis, dfg, allocation, &options.memory);
        let transfer_cycles = (plan.total_prologue_loads() + plan.total_epilogue_stores())
            .saturating_mul(options.memory.ram_latency);

        let total_cycles = compute_cycles + memory.memory_cycles + transfer_cycles;

        let clock_period_ns = options.clock.period_ns(&plan);
        let execution_time_us = total_cycles as f64 * clock_period_ns / 1_000.0;

        let area: AreaEstimate = options.area.estimate_on_dfg(kernel, dfg, &plan, device);

        Self {
            kernel: kernel.name().to_owned(),
            version: allocation.algorithm().version_name().to_owned(),
            algorithm: allocation.algorithm().label().to_owned(),
            registers_used: allocation.total_registers(),
            register_distribution: allocation.distribution(),
            total_cycles,
            compute_cycles,
            memory_cycles: memory.memory_cycles,
            transfer_cycles,
            clock_period_ns,
            execution_time_us,
            slices: area.slices,
            slice_occupancy: area.occupancy(device),
            block_rams: area.block_rams,
            remaining_accesses: memory.remaining_accesses,
        }
    }

    /// Percentage reduction of this design's cycle count relative to `baseline`
    /// (positive means fewer cycles than the baseline).
    pub fn cycle_reduction_vs(&self, baseline: &HardwareDesign) -> f64 {
        if baseline.total_cycles == 0 {
            return 0.0;
        }
        100.0 * (baseline.total_cycles as f64 - self.total_cycles as f64)
            / baseline.total_cycles as f64
    }

    /// Wall-clock speedup of this design relative to `baseline` (values above 1 mean
    /// this design is faster).
    pub fn speedup_vs(&self, baseline: &HardwareDesign) -> f64 {
        if self.execution_time_us == 0.0 {
            return 1.0;
        }
        baseline.execution_time_us / self.execution_time_us
    }

    /// Percentage clock-period degradation relative to `baseline` (positive means this
    /// design's clock is slower).
    pub fn clock_degradation_vs(&self, baseline: &HardwareDesign) -> f64 {
        if baseline.clock_period_ns == 0.0 {
            return 0.0;
        }
        100.0 * (self.clock_period_ns - baseline.clock_period_ns) / baseline.clock_period_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_core::{AllocatorRegistry, CompiledKernel};
    use srra_ir::examples::paper_example;

    fn design(name: &str, budget: u64) -> HardwareDesign {
        let ck = CompiledKernel::new(paper_example());
        let allocator = AllocatorRegistry::global().get(name).unwrap();
        let allocation = allocator.allocate(&ck, budget).unwrap();
        HardwareDesign::evaluate(
            ck.kernel(),
            ck.analysis(),
            &allocation,
            &DeviceModel::xcv1000(),
            &EvaluationOptions::default(),
        )
    }

    #[test]
    fn cycle_ordering_matches_the_paper() {
        let base = design("none", 0);
        let fr = design("fr", 64);
        let pr = design("pr", 64);
        let cpa = design("cpa", 64);
        // FR-RA promotes a and c, but b shares their memory stage and keeps missing, so
        // under concurrent RAM access the steady-state cycles do not improve over the
        // untransformed code — exactly the ineffective-allocation effect the paper's
        // introduction describes.  Only the prologue transfers are added on top.
        assert!(fr.total_cycles <= base.total_cycles + fr.transfer_cycles);
        assert!(pr.total_cycles <= fr.total_cycles);
        assert!(cpa.total_cycles < pr.total_cycles);
        assert!(cpa.cycle_reduction_vs(&fr) > 0.0);
        assert!(cpa.speedup_vs(&fr) > 1.0);
    }

    #[test]
    fn cycle_decomposition_adds_up() {
        let d = design("cpa", 64);
        assert_eq!(
            d.total_cycles,
            d.compute_cycles + d.memory_cycles + d.transfer_cycles
        );
        assert!(d.compute_cycles > 0);
        assert!(d.memory_cycles > 0);
    }

    #[test]
    fn clock_degradation_is_small_but_present() {
        let fr = design("fr", 64);
        let cpa = design("cpa", 64);
        let degradation = cpa.clock_degradation_vs(&fr);
        assert!(degradation > 0.0);
        assert!(degradation < 15.0);
        // Despite the slower clock, CPA-RA still wins on wall-clock time.
        assert!(cpa.execution_time_us < fr.execution_time_us);
    }

    #[test]
    fn metadata_is_filled_in() {
        let d = design("pr", 64);
        assert_eq!(d.kernel, "paper_example");
        assert_eq!(d.version, "v2");
        assert_eq!(d.algorithm, "PR-RA");
        assert_eq!(d.registers_used, 64);
        assert!(d.register_distribution.contains("d:12"));
        assert!(d.slices > 0);
        assert!(d.block_rams > 0);
        assert!(d.slice_occupancy > 0.0 && d.slice_occupancy < 1.0);
        assert!(d.execution_time_us > 0.0);
    }
}
