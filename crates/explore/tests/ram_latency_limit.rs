//! `MAX_RAM_LATENCY` is a RAM latency the cycle model can carry: at it, every
//! point of every served kernel (the paper suite and `example`), under every
//! allocator and on both devices, evaluates without overflowing.  A test
//! build checks arithmetic overflow, so an overflowing sum panics here
//! instead of wrapping, and each feasible record's total must still be the
//! exact sum of its terms.

use srra_core::AllocatorRegistry;
use srra_explore::{evaluate_point, DesignSpace, Explorer, MemoryStore, MAX_RAM_LATENCY};
use srra_fpga::DeviceModel;
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;

#[test]
fn every_served_point_evaluates_at_the_ram_latency_limit() {
    let space = DesignSpace::new()
        .with_kernels(
            paper_suite()
                .into_iter()
                .map(|spec| spec.kernel)
                .chain([paper_example()]),
        )
        .with_allocators(&AllocatorRegistry::global().iter().collect::<Vec<_>>())
        .with_budgets(&[1, 8, 16, 32, 64, 128])
        .with_ram_latencies(&[MAX_RAM_LATENCY])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]);
    let run = Explorer::new(1)
        .explore(&space, &mut MemoryStore::new())
        .unwrap();
    assert_eq!(run.records.len(), 7 * 6 * 6 * 2);
    let points = space.points();
    let mut feasible = 0;
    for (point, record) in points.iter().zip(&run.records) {
        assert_eq!(
            *record,
            evaluate_point(&space.kernels()[point.kernel_index], point)
        );
        if record.feasible {
            feasible += 1;
            let terms = [
                record.compute_cycles,
                record.memory_cycles,
                record.transfer_cycles,
            ];
            let sum = terms
                .iter()
                .try_fold(0u64, |sum, &term| sum.checked_add(term));
            assert_eq!(Some(record.total_cycles), sum, "{}", record.canonical);
        }
    }
    assert!(feasible > 0);
}
