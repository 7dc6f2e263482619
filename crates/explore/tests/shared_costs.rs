//! The engine shares work between the points of one explore call: each kernel
//! builds one list schedule, derives its other RAM latencies' cost tables from
//! it, and costs each distinct β vector once, whatever allocator, budget or
//! worker reached it.  None of that sharing may show in a record: every record
//! must equal `evaluate_point` of its point, which is a run of one with a fresh
//! table and nothing to share.

use std::collections::HashMap;

use srra_core::{AllocatorRef, AllocatorRegistry, CompiledKernel, MemoryCostModel};
use srra_explore::{evaluate_point, DesignSpace, Explorer, MemoryStore};
use srra_fpga::{AllocationCost, CostTable, DeviceModel, EvaluationOptions};
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;

fn space() -> DesignSpace {
    DesignSpace::new()
        .with_kernels(
            paper_suite()
                .into_iter()
                .map(|spec| spec.kernel)
                .chain([paper_example()]),
        )
        .with_allocators(&AllocatorRegistry::global().iter().collect::<Vec<_>>())
        .with_budgets(&[1, 4, 8, 16, 32, 64, 128])
        .with_ram_latencies(&[1, 2, 4])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()])
}

#[test]
fn shared_records_equal_points_evaluated_alone() {
    let space = space();
    let points = space.points();
    assert_eq!(points.len(), 7 * 6 * 7 * 3 * 2);
    let alone: Vec<_> = points
        .iter()
        .map(|point| evaluate_point(&space.kernels()[point.kernel_index], point))
        .collect();
    assert!(alone.iter().any(|record| record.feasible));
    assert!(alone.iter().any(|record| !record.feasible));
    for jobs in [1, 4] {
        let run = Explorer::new(jobs)
            .explore(&space, &mut MemoryStore::new())
            .unwrap();
        assert_eq!(run.evaluated, points.len());
        for ((record, expected), point) in run.records.iter().zip(&alone).zip(&points) {
            assert_eq!(record, expected, "{} at --jobs {jobs}", point.canonical());
        }
    }
}

#[test]
fn equal_beta_vectors_cost_the_same_under_every_allocator() {
    let options = EvaluationOptions {
        memory: MemoryCostModel::default().with_ram_latency(2),
        ..EvaluationOptions::default()
    };
    let mut shared_across_allocators = 0;
    for spec in paper_suite() {
        let ck = CompiledKernel::new(spec.kernel);
        let table = CostTable::new(ck.kernel(), ck.analysis(), ck.dfg(), &options);
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
