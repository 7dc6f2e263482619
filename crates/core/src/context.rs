//! The shared, lazily-memoized analysis context for one kernel.
//!
//! Every layer of the pipeline — the allocators, the cost model, the
//! exploration engine, the bench harness, the CLI — needs the same derived
//! artifacts for a kernel: its [`ReuseAnalysis`], its [`DataFlowGraph`], the
//! baseline critical-path analysis and CPA-RA's starting cut set.  (The
//! reference table needs no slot: the [`Kernel`] builds it once, on
//! construction.)  Before [`CompiledKernel`] existed each call site re-derived
//! them, so a sweep over N design points of one kernel paid for N analyses.
//!
//! A [`CompiledKernel`] bundles the kernel with [`OnceLock`]-memoized slots for
//! each artifact: the first accessor call computes, every later call (from any
//! thread — the type is `Sync`) returns the cached value.  Cloning preserves
//! whatever is already memoized.
//!
//! ```
//! use srra_core::CompiledKernel;
//! use srra_ir::examples::paper_example;
//!
//! let ck = CompiledKernel::new(paper_example());
//! let first = ck.analysis();
//! let second = ck.analysis(); // memoized: same allocation, no recomputation
//! assert!(std::ptr::eq(first, second));
//! assert!(ck.critical_path().critical_length() > 0);
//! ```

use std::sync::OnceLock;

use srra_dfg::{CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
use srra_ir::Kernel;
use srra_reuse::ReuseAnalysis;

use crate::cpa_ra::Candidate;

/// A kernel plus lazily-memoized analysis artifacts, shared across the pipeline.
///
/// The memoized artifacts are exactly the allocation-*independent* ones:
///
/// * [`CompiledKernel::analysis`] — the data-reuse analysis (`R_i`, access
///   counts, benefit/cost ratios),
/// * [`CompiledKernel::dfg`] — the data-flow graph of one loop-body iteration,
///   shared by CPA-RA and by the cost model ([`crate::memory_cost_on_dfg`] and
///   `srra-fpga`'s `HardwareDesign::evaluate_on_dfg`), so a sweep builds it
///   once per kernel rather than several times per design point,
/// * [`CompiledKernel::critical_path`] — the baseline critical-path analysis
///   (default latency model, every reference in RAM), which the Graphviz
///   dumps highlight,
/// * CPA-RA's starting cut set — the candidate cuts of the critical graph at
///   one register per reference, where every CPA-RA allocation starts whatever
///   its budget.  It is filled by the first registry `cpa` allocation that
///   spends a register beyond that, not from [`CompiledKernel::critical_path`]:
///   one register already fully replaces a reference whose `R` is 1, so that
///   state's storage is not all-RAM.
///
/// Allocation-*dependent* artifacts (storage maps, and the critical graphs of
/// CPA-RA's later iterations) are recomputed on every allocation; memoizing
/// them would change results as the allocator iterates.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    kernel: Kernel,
    analysis: OnceLock<ReuseAnalysis>,
    dfg: OnceLock<DataFlowGraph>,
    critical: OnceLock<CriticalPathAnalysis>,
    starting_cuts: OnceLock<Vec<Candidate>>,
}

impl CompiledKernel {
    /// Wraps a kernel with empty memoization slots.
    pub fn new(kernel: Kernel) -> Self {
        Self {
            kernel,
            analysis: OnceLock::new(),
            dfg: OnceLock::new(),
            critical: OnceLock::new(),
            starting_cuts: OnceLock::new(),
        }
    }

    /// Wraps a kernel with the reuse-analysis slot pre-seeded, for callers
    /// that already computed an analysis: no recomputation happens when an
    /// allocator asks for it.
    pub fn with_analysis(kernel: Kernel, analysis: ReuseAnalysis) -> Self {
        let ck = Self::new(kernel);
        ck.analysis
            .set(analysis)
            .expect("fresh CompiledKernel has an empty analysis slot");
        ck
    }

    /// The wrapped kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Name of the wrapped kernel.
    pub fn name(&self) -> &str {
        self.kernel.name()
    }

    /// The kernel's reuse analysis, computed on first use.
    pub fn analysis(&self) -> &ReuseAnalysis {
        self.analysis
            .get_or_init(|| ReuseAnalysis::of(&self.kernel))
    }

    /// The data-flow graph of one loop-body iteration, computed on first use.
    pub fn dfg(&self) -> &DataFlowGraph {
        self.dfg
            .get_or_init(|| DataFlowGraph::from_kernel(&self.kernel))
    }

    /// The baseline critical-path analysis (default [`LatencyModel`], every
    /// reference in RAM), computed on first use.
    pub fn critical_path(&self) -> &CriticalPathAnalysis {
        self.critical.get_or_init(|| {
            CriticalPathAnalysis::new(self.dfg(), &LatencyModel::default(), &StorageMap::all_ram())
        })
    }

    /// The slot for CPA-RA's candidate cuts at one register per reference,
    /// which the CPA-RA loop fills on its first iteration.
    pub(crate) fn starting_cuts(&self) -> &OnceLock<Vec<Candidate>> {
        &self.starting_cuts
    }

    /// Whether the reuse analysis has been computed (or seeded) already.
    ///
    /// Only useful for memoization tests; it never triggers a computation.
    pub fn analysis_is_cached(&self) -> bool {
        self.analysis.get().is_some()
    }
}

impl From<Kernel> for CompiledKernel {
    fn from(kernel: Kernel) -> Self {
        Self::new(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::paper_example;

    #[test]
    fn accessors_memoize() {
        let ck = CompiledKernel::new(paper_example());
        assert!(!ck.analysis_is_cached());
        assert!(std::ptr::eq(ck.analysis(), ck.analysis()));
        assert!(ck.analysis_is_cached());
        assert!(std::ptr::eq(ck.dfg(), ck.dfg()));
        assert!(std::ptr::eq(ck.critical_path(), ck.critical_path()));
        assert_eq!(ck.analysis().len(), 5);
    }

    #[test]
    fn seeded_analysis_is_returned_verbatim() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let ck = CompiledKernel::with_analysis(kernel, analysis.clone());
        assert!(ck.analysis_is_cached());
        assert_eq!(*ck.analysis(), analysis);
    }

    #[test]
    fn clone_preserves_memoized_artifacts() {
        let ck = CompiledKernel::new(paper_example());
        ck.analysis();
        let clone = ck.clone();
        assert!(clone.analysis_is_cached());
        assert_eq!(clone.name(), "paper_example");
    }

    #[test]
    fn shared_across_threads() {
        let ck = CompiledKernel::new(paper_example());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert_eq!(ck.analysis().len(), 5));
            }
        });
    }
}
