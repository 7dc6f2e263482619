//! Pins how many allocations of a cold explore take their cost terms from an
//! earlier allocation with the same β vector (`explore_shared_costs_total`).
//!
//! The space is the paper suite at perfbench `sweep_cold`'s axes: every
//! registry allocator, budgets 8..128, RAM latencies 1 and 2 and both devices.
//! Each kernel has 30 feasible allocations (one per allocator and budget) and
//! 10 to 13 distinct β vectors among them.  The counter is process-global, so
//! this binary holds this one test alone.

use srra_core::AllocatorRegistry;
use srra_explore::{DesignSpace, Explorer, MemoryStore};
use srra_fpga::DeviceModel;
use srra_kernels::paper_suite;
use srra_obs::Registry;

/// Feasible allocations (6 kernels × 30) less the distinct β vectors per kernel:
/// fir 11, dec_fir 12, mat 11, imi 12, pat 10, bic 13.
const SHARED: u64 = 180 - 69;

#[test]
fn a_cold_explore_shares_each_repeated_beta_vectors_cost() {
    let space = DesignSpace::new()
        .with_kernels(paper_suite().into_iter().map(|spec| spec.kernel))
        .with_allocators(&AllocatorRegistry::global().iter().collect::<Vec<_>>())
        .with_budgets(&[8, 16, 32, 64, 128])
        .with_ram_latencies(&[1, 2])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]);
    let shared = Registry::global().counter("explore_shared_costs_total");
    for jobs in [1, 4] {
        let before = shared.get();
        let run = Explorer::new(jobs)
            .explore(&space, &mut MemoryStore::new())
            .unwrap();
        assert!(run.records.iter().all(|record| record.feasible));
        assert_eq!(shared.get() - before, SHARED, "--jobs {jobs}");
    }
}
