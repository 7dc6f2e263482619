//! The engine evaluates pending points in runs: consecutive points that share a
//! kernel, an allocator and a budget.  Each run allocates once, whatever the
//! worker count or the store's prior contents, and fresh records reach the
//! store in point order.
//!
//! Each test counts its own allocator's calls in its own static, since the
//! tests of one binary run concurrently.

use std::sync::atomic::{AtomicUsize, Ordering};

use srra_core::{
    AllocError, Allocator, AllocatorRef, AllocatorRegistry, CompiledKernel, RegisterAllocation,
};
use srra_explore::{DesignSpace, Explorer, JsonlStore, MemoryStore, ResultStore};
use srra_fpga::DeviceModel;
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;

/// FR-RA under another name, counting its calls.
struct Counting {
    name: &'static str,
    calls: AtomicUsize,
}

impl Counting {
    const fn new(name: &'static str) -> Self {
        Self {
            name,
            calls: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl Allocator for Counting {
    fn name(&self) -> &'static str {
        self.name
    }

    fn label(&self) -> &'static str {
        self.name
    }

    fn version_name(&self) -> &'static str {
        self.name
    }

    fn allocate(
        &self,
        kernel: &CompiledKernel,
        budget: u64,
    ) -> Result<RegisterAllocation, AllocError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        AllocatorRegistry::global()
            .get("fr")
            .expect("FR-RA is registered")
            .allocate(kernel, budget)
    }
}

static SERIAL: Counting = Counting::new("count-serial");
static PARALLEL: Counting = Counting::new("count-parallel");
static SEEDED: Counting = Counting::new("count-seeded");

/// Two runs of four points: budgets 16 and 32 × RAM latencies 1 and 2 × both
/// devices.
fn space(allocator: &'static Counting) -> DesignSpace {
    DesignSpace::new()
        .with_kernel(paper_example())
        .with_allocators(&[AllocatorRef::of(allocator)])
        .with_budgets(&[16, 32])
        .with_ram_latencies(&[1, 2])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()])
}

#[test]
fn a_cold_run_allocates_once() {
    let run = Explorer::new(1)
        .explore(&space(&SERIAL), &mut MemoryStore::new())
        .unwrap();
    assert_eq!(run.evaluated, 8);
    assert_eq!(SERIAL.calls(), 2, "one allocation per (allocator, budget)");
}

#[test]
fn parallel_runs_allocate_once() {
    let cold = Explorer::new(1)
        .explore(&space(&PARALLEL), &mut MemoryStore::new())
        .unwrap();
    let before = PARALLEL.calls();
    let parallel = Explorer::new(2)
        .explore(&space(&PARALLEL), &mut MemoryStore::new())
        .unwrap();
    assert_eq!(PARALLEL.calls() - before, 2);
    assert_eq!(parallel.records, cold.records);
}

#[test]
fn a_partly_cached_run_allocates_once() {
    let cold = Explorer::new(1)
        .explore(&space(&SEEDED), &mut MemoryStore::new())
        .unwrap();
    // The second point of the first run is cached, so that run's other three
    // points are still consecutive pending points: one run.
    let mut store = MemoryStore::new();
    store.put(&cold.records[1]).unwrap();
    let before = SEEDED.calls();
    let seeded = Explorer::new(1)
        .explore(&space(&SEEDED), &mut store)
        .unwrap();
    assert_eq!((seeded.cache_hits, seeded.evaluated), (1, 7));
    assert_eq!(SEEDED.calls() - before, 2);
    assert_eq!(seeded.records, cold.records);
}

#[test]
fn fresh_records_reach_the_store_in_point_order() {
    let space = DesignSpace::new()
        .with_kernels(paper_suite().into_iter().map(|spec| spec.kernel))
        .with_allocators(&AllocatorRegistry::global().iter().collect::<Vec<_>>())
        .with_budgets(&[8, 32])
        .with_ram_latencies(&[1, 2])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]);
    let dir = std::env::temp_dir().join(format!("srra-explore-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes = Vec::new();
    for jobs in [1, 4] {
        let path = dir.join(format!("jobs-{jobs}.jsonl"));
        let mut store = JsonlStore::open(&path).unwrap();
        let run = Explorer::new(jobs).explore(&space, &mut store).unwrap();
        assert_eq!(run.evaluated, space.len());
        drop(store);
        bytes.push(std::fs::read(&path).unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(bytes[0] == bytes[1], "the cache file depends on --jobs");
}
