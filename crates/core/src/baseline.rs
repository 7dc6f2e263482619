//! The no-replacement baseline: the original code, every access served by RAM.

use srra_ir::Kernel;
use srra_reuse::ReuseAnalysis;

use crate::allocation::{RefAllocation, RegisterAllocation};
use crate::registry::{AllocatorRef, NO_REPLACEMENT};

/// Produces the allocation corresponding to the untransformed code: no reference is
/// scalar replaced and every access goes to its RAM block.
///
/// This is the `v0` reference point used by the harness to report how much even the
/// simplest greedy allocation buys; the paper itself normalises against its `v1`
/// (FR-RA) designs, which the harness also reports.
pub fn no_replacement(kernel: &Kernel, analysis: &ReuseAnalysis) -> RegisterAllocation {
    let refs = analysis
        .iter()
        .map(|summary| RefAllocation::new(summary, 0))
        .collect();
    RegisterAllocation::new(kernel.name(), AllocatorRef::of(&NO_REPLACEMENT), 0, refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ReplacementMode;
    use srra_ir::examples::paper_example;

    #[test]
    fn uses_no_registers_and_keeps_everything_in_ram() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = no_replacement(&kernel, &analysis);
        assert_eq!(allocation.algorithm().name(), "none");
        assert_eq!(allocation.total_registers(), 0);
        assert_eq!(allocation.fully_replaced(), 0);
        assert_eq!(allocation.partially_replaced(), 0);
        for r in &allocation {
            assert_eq!(r.mode(), ReplacementMode::None);
        }
        let storage = allocation.storage_map();
        for summary in analysis.iter() {
            assert_eq!(storage.storage(summary.ref_id()), srra_dfg::Storage::Ram);
        }
    }
}
