//! Differential test of `find_cuts` on the paper's six kernels: under every-reference-
//! in-RAM and under seeded storage maps, the library returns exactly the cuts of the
//! `BTreeSet` oracle that srra-dfg's tests keep.

#[path = "../crates/dfg/tests/oracle/mod.rs"]
mod oracle;

use srra_dfg::{find_cuts, CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};

#[test]
fn paper_kernels_match_the_oracle() {
    for spec in srra_kernels::paper_suite() {
        let dfg = DataFlowGraph::from_kernel(&spec.kernel);
        let mut storages = vec![StorageMap::all_ram()];
        storages.extend((1..=16).map(|seed| oracle::seeded_storage(&dfg, seed)));
        for storage in &storages {
            let analysis = CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), storage);
            let cg = analysis.critical_graph();
            assert_eq!(
                find_cuts(&dfg, cg),
                oracle::find_cuts(&dfg, cg),
                "{} under {storage:?}",
                spec.kernel.name()
            );
        }
    }
}
