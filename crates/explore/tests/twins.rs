//! A design space can list one canonical string at several slots: an axis
//! that repeats a value, or names whose `;` lets two distinct tuples render
//! the same string.  Every such twin must take its first occurrence's record,
//! each canonical must be evaluated once, and the store must hold one record
//! per canonical, whatever the worker count.

use srra_core::AllocatorRegistry;
use srra_explore::{
    evaluate_point, DesignPoint, DesignSpace, Explorer, MemoryStore, ResultStore, StoreBase,
};
use srra_fpga::DeviceModel;
use srra_ir::{Kernel, KernelBuilder};

/// A small FIR-shaped kernel under `name`, with `taps` coefficients.
fn kernel(name: &str, taps: u64) -> Kernel {
    let b = KernelBuilder::new(name);
    let i = b.add_loop("i", 32);
    let j = b.add_loop("j", taps);
    let x = b.add_array("x", &[32 + taps], 16);
    let c = b.add_array("c", &[taps], 16);
    let y = b.add_array("y", &[32], 32);
    let product = b.mul(b.read(c, &[b.idx(j)]), b.read(x, &[b.idx_sum(i, j)]));
    let acc = b.add(b.read(y, &[b.idx(i)]), product);
    b.store(y, &[b.idx(i)], acc);
    b.build().expect("the kernel is valid")
}

/// A device with the XCV1000's resources under `name`.
fn device(name: &str) -> DeviceModel {
    DeviceModel::new(name, 12_288, 32, 4_096, 2)
}

fn space() -> DesignSpace {
    DesignSpace::new().with_kernel(kernel("fir", 8))
}

/// Explores `space` at one and at three workers, each into a fresh store,
/// and checks every slot against the first slot with its canonical.
fn check(case: &str, space: &DesignSpace) {
    let points = space.points();
    let canonicals: Vec<String> = points.iter().map(DesignPoint::canonical).collect();
    let first: Vec<usize> = canonicals
        .iter()
        .map(|canonical| canonicals.iter().position(|c| c == canonical).unwrap())
        .collect();
    let distinct: Vec<usize> = (0..points.len())
        .filter(|&slot| first[slot] == slot)
        .collect();
    assert!(
        distinct.len() < points.len(),
        "{case}: the space repeats no canonical"
    );
    let mut runs = Vec::new();
    for jobs in [1, 3] {
        let mut store = MemoryStore::new();
        let run = Explorer::new(jobs).explore(space, &mut store).unwrap();
        assert_eq!(run.records.len(), points.len(), "{case} at {jobs} jobs");
        assert_eq!(run.cache_hits, 0, "{case} at {jobs} jobs");
        assert_eq!(
            run.evaluated,
            distinct.len(),
            "{case} at {jobs} jobs: one evaluation per canonical"
        );
        for (slot, record) in run.records.iter().enumerate() {
            assert_eq!(record.canonical, canonicals[slot], "{case} at {jobs} jobs");
            assert_eq!(
                *record, run.records[first[slot]],
                "{case} at {jobs} jobs: slot {slot} is not its first occurrence's record"
            );
        }
        assert_eq!(
            store.len().unwrap(),
            distinct.len(),
            "{case} at {jobs} jobs"
        );
        for &slot in &distinct {
            let point = &points[slot];
            let record = &run.records[slot];
            assert_eq!(
                *record,
                evaluate_point(&space.kernels()[point.kernel_index], point),
                "{case} at {jobs} jobs: slot {slot}"
            );
            assert_eq!(
                store.get(record.key, &record.canonical).unwrap().as_ref(),
                Some(record),
                "{case} at {jobs} jobs: slot {slot} is not in the store"
            );
        }
        runs.push(run.records);
    }
    assert_eq!(
        runs[0], runs[1],
        "{case}: the records depend on the worker count"
    );
}

#[test]
fn a_repeated_budget() {
    check("budgets", &space().with_budgets(&[32, 8, 32, 64]));
}

#[test]
fn a_repeated_ram_latency() {
    check("latencies", &space().with_ram_latencies(&[2, 1, 2]));
}

#[test]
fn the_xcv1000_beside_its_full_part_name() {
    let devices = vec![DeviceModel::xcv1000(), device("XCV1000-BG560")];
    check("devices", &space().with_devices(devices));
}

#[test]
fn one_allocator_listed_twice() {
    let registry = AllocatorRegistry::global();
    let allocators = [
        registry.get("cpa").unwrap(),
        registry.get("fr").unwrap(),
        registry.get("CPA-RA").unwrap(),
    ];
    check("allocators", &space().with_allocators(&allocators));
}

#[test]
fn two_kernels_with_one_name() {
    // The second kernel's body differs, but a canonical names only the
    // kernel, so its points take the first kernel's records.
    let space = DesignSpace::new().with_kernels([kernel("fir", 8), kernel("fir", 4)]);
    check("kernels", &space);
}

#[test]
fn a_separator_in_a_kernel_and_a_device_name() {
    // No axis repeats a value, but the first kernel at device `X` and the
    // second kernel at the second device both render
    // `kernel=k;algo=FR-RA;budget=8;latency=1;device=X;algo=FR-RA;budget=8;latency=1;device=X`.
    let tail = "algo=FR-RA;budget=8;latency=1;device=X";
    let space = DesignSpace::new()
        .with_kernels([kernel(&format!("k;{tail}"), 8), kernel("k", 4)])
        .with_allocators(&[AllocatorRegistry::global().get("fr").unwrap()])
        .with_budgets(&[8])
        .with_ram_latencies(&[1])
        .with_devices(vec![device("X"), device(&format!("X;{tail}"))]);
    assert_eq!(space.points()[0].canonical(), space.points()[3].canonical());
    check("separator", &space);
}
