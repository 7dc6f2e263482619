//! Pins the bytes of the paper sweep: the six paper kernels × every registry
//! allocator × budgets 8..128 × RAM latencies 1 and 2 × the XCV1000 and the
//! XCV300, the same space perfbench's `sweep_cold` checks against its
//! `paper` golden checksum.
//!
//! The checksum is the FNV-1a 64 of every record's JSONL line (plus `\n`), in
//! point order.  It must come out the same whether the space is explored
//! serially, by two workers, or one point at a time through
//! `evaluate_point`.

use srra_core::AllocatorRegistry;
use srra_explore::{evaluate_point, fnv1a_64, DesignSpace, Explorer, MemoryStore, PointRecord};
use srra_fpga::DeviceModel;
use srra_kernels::paper_suite;

/// perfbench's `golden/sweep_cold.txt` entry `paper`.
const PAPER_SWEEP: u64 = 0x0bcb_eaf9_ecfb_c620;

fn space() -> DesignSpace {
    DesignSpace::new()
        .with_kernels(paper_suite().into_iter().map(|spec| spec.kernel))
        .with_allocators(&AllocatorRegistry::global().iter().collect::<Vec<_>>())
        .with_budgets(&[8, 16, 32, 64, 128])
        .with_ram_latencies(&[1, 2])
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()])
}

fn checksum<'a>(records: impl IntoIterator<Item = &'a PointRecord>) -> u64 {
    let mut text = String::new();
    for record in records {
        record.write_json_line(&mut text);
        text.push('\n');
    }
    fnv1a_64(text.as_bytes())
}

#[test]
fn serial_explore_matches_the_paper_golden() {
    let run = Explorer::new(1)
        .explore(&space(), &mut MemoryStore::new())
        .unwrap();
    assert_eq!(run.records.len(), 6 * 6 * 5 * 2 * 2);
    assert_eq!(checksum(&run.records), PAPER_SWEEP);
}

#[test]
fn parallel_explore_matches_the_paper_golden() {
    let run = Explorer::new(2)
        .explore(&space(), &mut MemoryStore::new())
        .unwrap();
    assert_eq!(checksum(&run.records), PAPER_SWEEP);
}

#[test]
fn point_by_point_evaluation_matches_the_paper_golden() {
    let space = space();
    let records: Vec<PointRecord> = space
        .points()
        .iter()
        .map(|point| evaluate_point(&space.kernels()[point.kernel_index], point))
        .collect();
    assert_eq!(checksum(&records), PAPER_SWEEP);
}
