//! Property-based tests for the FPGA models: scheduler legality, clock and area
//! monotonicity, and design-point consistency.

use proptest::prelude::*;
use srra_core::{partial_reuse, AllocatorRegistry, CompiledKernel, ReplacementPlan};
use srra_dfg::{DataFlowGraph, LatencyModel, Storage, StorageMap};
use srra_fpga::{
    AreaModel, ClockModel, DeviceModel, EvaluationOptions, HardwareDesign, ListScheduler,
    ResourceLimits,
};
use srra_ir::{Kernel, KernelBuilder};
use srra_reuse::ReuseAnalysis;

fn generated_kernel(ni: u64, nj: u64, nk: u64) -> Kernel {
    let b = KernelBuilder::new("generated");
    let i = b.add_loop("i", ni);
    let j = b.add_loop("j", nj);
    let k = b.add_loop("k", nk);
    let a = b.add_array("a", &[nk], 16);
    let bb = b.add_array("b", &[nk, nj], 16);
    let c = b.add_array("c", &[nj], 16);
    let d = b.add_array("d", &[ni, nk], 16);
    let e = b.add_array("e", &[ni, nj, nk], 16);
    let op1 = b.mul(b.read(a, &[b.idx(k)]), b.read(bb, &[b.idx(k), b.idx(j)]));
    b.store(d, &[b.idx(i), b.idx(k)], op1);
    let op2 = b.mul(b.read(c, &[b.idx(j)]), b.read(d, &[b.idx(i), b.idx(k)]));
    b.store(e, &[b.idx(i), b.idx(j), b.idx(k)], op2);
    b.build().expect("generated kernel is valid")
}

fn storage_for(dfg: &DataFlowGraph, mask: u32) -> StorageMap {
    let mut storage = StorageMap::all_ram();
    for (bit, node) in dfg.reference_nodes().into_iter().enumerate() {
        if mask & (1 << (bit % 16)) != 0 {
            if let Some(ref_id) = dfg.node(node).reference() {
                storage.set(ref_id, Storage::Register);
            }
        }
    }
    storage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn schedules_respect_precedence_and_port_limits(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        mask in any::<u32>(),
        ports in 1u32..3,
    ) {
        let kernel = generated_kernel(ni, nj, nk);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let storage = storage_for(&dfg, mask);
        let model = LatencyModel::default();
        let limits = ResourceLimits { ram_ports_per_array: ports, ..ResourceLimits::default() };
        let schedule = ListScheduler::new(limits).schedule(&dfg, &model, &storage);

        // Precedence.
        for node in dfg.node_ids() {
            for &succ in dfg.successors(node) {
                prop_assert!(schedule.start(succ) >= schedule.finish(node));
            }
        }
        // Port limits: count concurrent RAM accesses per array per cycle.
        for cycle in 0..schedule.cycles() {
            let mut per_array: std::collections::HashMap<srra_ir::ArrayId, u32> = Default::default();
            for node in dfg.node_ids() {
                let is_ram = dfg
                    .node(node)
                    .reference()
                    .map(|r| storage.storage(r) == Storage::Ram)
                    .unwrap_or(false);
                if !is_ram {
                    continue;
                }
                let busy = schedule.start(node) <= cycle
                    && cycle < schedule.finish(node).max(schedule.start(node) + 1);
                if busy {
                    if let srra_dfg::NodeKind::Reference { array, .. } = dfg.node(node).kind() {
                        *per_array.entry(*array).or_insert(0) += 1;
                    }
                }
            }
            for (&array, &count) in &per_array {
                prop_assert!(count <= ports, "array {array} uses {count} ports in one cycle");
            }
        }
        // The schedule is never shorter than the unconstrained critical path.
        let unconstrained = ListScheduler::default().schedule(&dfg, &model, &storage);
        prop_assert!(schedule.cycles() >= unconstrained.cycles());
    }

    #[test]
    fn clock_and_area_grow_with_the_register_budget(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        budget in 6u64..100,
        extra in 1u64..100,
    ) {
        let kernel = generated_kernel(ni, nj, nk);
        let analysis = ReuseAnalysis::of(&kernel);
        let device = DeviceModel::xcv1000();
        let small = partial_reuse(&kernel, &analysis, budget).unwrap();
        let large = partial_reuse(&kernel, &analysis, budget + extra).unwrap();
        let small_plan = ReplacementPlan::new(&kernel, &analysis, &small);
        let large_plan = ReplacementPlan::new(&kernel, &analysis, &large);
        prop_assert!(large_plan.total_registers() >= small_plan.total_registers());
        let area = AreaModel::default();
        let small_area = area.estimate(&kernel, &small_plan, &device);
        let large_area = area.estimate(&kernel, &large_plan, &device);
        prop_assert!(large_area.data_flip_flops >= small_area.data_flip_flops);
        // More data registers never reduce the register component of the clock model.
        let clock = ClockModel {
            per_partial_ref_ns: 0.0,
            per_ram_array_ns: 0.0,
            ..ClockModel::default()
        };
        prop_assert!(clock.period_ns(&large_plan) >= clock.period_ns(&small_plan) - 1e-9);
    }

    #[test]
    fn design_points_are_internally_consistent(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        budget in 6u64..100,
    ) {
        let compiled = CompiledKernel::new(generated_kernel(ni, nj, nk));
        let (kernel, analysis) = (compiled.kernel(), compiled.analysis());
        let device = DeviceModel::xcv1000();
        let options = EvaluationOptions::default();
        for allocator in AllocatorRegistry::global() {
            let Ok(allocation) = allocator.allocate(&compiled, budget) else {
                continue;
            };
            let design = HardwareDesign::evaluate(kernel, analysis, &allocation, &device, &options);
            prop_assert_eq!(
                design.total_cycles,
                design.compute_cycles + design.memory_cycles + design.transfer_cycles
            );
            prop_assert!(design.clock_period_ns > 0.0);
            let expected_time = design.total_cycles as f64 * design.clock_period_ns / 1_000.0;
            prop_assert!((design.execution_time_us - expected_time).abs() < 1e-6);
            prop_assert_eq!(design.registers_used, allocation.total_registers());
            prop_assert!(design.slices > 0);
        }
    }
}
