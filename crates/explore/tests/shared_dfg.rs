//! Differential test of the shared-DFG cost path: the explore engine costs
//! every design point on its `CompiledKernel`'s memoized data-flow graph, and
//! each record must equal the one built from the one-shot
//! `HardwareDesign::evaluate` wrapper, which builds its own graph.
//!
//! The grid is the six paper kernels plus the three `srra_ir::examples`
//! kernels × every registry allocator × budgets 8..128 × RAM latencies 1 and 2
//! × both devices.

use srra_core::{AllocatorRegistry, CompiledKernel, MemoryCostModel};
use srra_explore::{evaluate_point, DesignPoint, DesignSpace, PointRecord};
use srra_fpga::{DeviceModel, EvaluationOptions, HardwareDesign};
use srra_ir::{examples, Kernel};
use srra_kernels::paper_suite;

/// The record of `point`, derived from scratch: a fresh analysis context for
/// the allocation and the one-shot cost-model wrapper for the design.
fn one_shot_record(kernel: &Kernel, point: &DesignPoint) -> PointRecord {
    let base = PointRecord {
        key: point.key(),
        canonical: point.canonical(),
        kernel: point.kernel.clone(),
        algorithm: point.allocator.label().to_owned(),
        version: point.allocator.version_name().to_owned(),
        budget: point.budget,
        ram_latency: point.ram_latency,
        device: point.device.name().to_owned(),
        feasible: false,
        fits: false,
        registers_used: 0,
        total_cycles: 0,
        compute_cycles: 0,
        memory_cycles: 0,
        transfer_cycles: 0,
        clock_period_ns: 0.0,
        execution_time_us: 0.0,
        slices: 0,
        block_rams: 0,
        distribution: String::new(),
    };
    let context = CompiledKernel::new(kernel.clone());
    let Ok(allocation) = point.allocator.allocate(&context, point.budget) else {
        return base;
    };
    let options = EvaluationOptions {
        memory: MemoryCostModel::default().with_ram_latency(point.ram_latency),
        ..EvaluationOptions::default()
    };
    let design = HardwareDesign::evaluate(
        kernel,
        context.analysis(),
        &allocation,
        &point.device,
        &options,
    );
    PointRecord {
        feasible: true,
        fits: point.device.fits(design.slices, design.block_rams),
        registers_used: design.registers_used,
        total_cycles: design.total_cycles,
        compute_cycles: design.compute_cycles,
        memory_cycles: design.memory_cycles,
        transfer_cycles: design.transfer_cycles,
        clock_period_ns: design.clock_period_ns,
        execution_time_us: design.execution_time_us,
        slices: design.slices,
        block_rams: design.block_rams,
        distribution: design.register_distribution,
        ..base
    }
}

#[test]
fn shared_dfg_records_equal_one_shot_records() {
    let kernels: Vec<Kernel> = paper_suite()
        .into_iter()
        .map(|spec| spec.kernel)
        .chain([
            examples::paper_example(),
            examples::stencil3(32),
            examples::dot_product(16),
        ])
        .collect();
    let allocators: Vec<_> = AllocatorRegistry::global().iter().collect();
    let space = DesignSpace::new()
        .with_kernels(kernels.iter().cloned())
        .with_allocators(&allocators)
        .with_budgets(&[8, 16, 32, 64, 128])
        .with_ram_latencies(&[1, 2])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]);
    let points = space.points();
    assert_eq!(points.len(), 9 * allocators.len() * 5 * 2 * 2);
    let mut feasible = 0;
    for point in &points {
        let record = evaluate_point(&space.kernels()[point.kernel_index], point);
        let expected = one_shot_record(&kernels[point.kernel_index], point);
        assert_eq!(
            record.to_json_line(),
            expected.to_json_line(),
            "{}",
            point.canonical()
        );
        feasible += usize::from(record.feasible);
    }
    assert!(
        feasible > points.len() / 2,
        "only {feasible} feasible points"
    );
}
