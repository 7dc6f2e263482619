//! Whole-kernel reuse analysis: one [`ReuseSummary`] per reference group.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use srra_ir::{ArrayId, Kernel, LoopId, RefId};

use crate::registers::{invariant_loops, registers_with_reuse_loop, reuse_loop};
use crate::savings::AccessCounts;

/// The analysis results for a single reference group.
///
/// This bundles everything the allocation algorithms need to know about one array
/// reference: its register requirement (`R`), its memory-access economics and its
/// benefit/cost ratio `γ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseSummary {
    ref_id: RefId,
    array: ArrayId,
    array_name: Arc<str>,
    rendered: Arc<str>,
    invariant_loops: Vec<LoopId>,
    reuse_loop: Option<LoopId>,
    registers_full: u64,
    access_counts: AccessCounts,
    elem_bits: u32,
}

impl ReuseSummary {
    /// Identifier of the reference group this summary describes.
    pub fn ref_id(&self) -> RefId {
        self.ref_id
    }

    /// The referenced array.
    pub fn array(&self) -> ArrayId {
        self.array
    }

    /// Name of the referenced array.
    pub fn array_name(&self) -> &str {
        &self.array_name
    }

    /// The reference rendered as `name[subscripts]` with the kernel's loop names.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }

    /// [`ReuseSummary::array_name`] and [`ReuseSummary::rendered`] as shared
    /// strings, for results that keep both beside the analysis without copying
    /// their text.
    pub fn shared_names(&self) -> (Arc<str>, Arc<str>) {
        (Arc::clone(&self.array_name), Arc::clone(&self.rendered))
    }

    /// Loops carrying temporal reuse for the reference, outermost first.
    pub fn invariant_loops(&self) -> &[LoopId] {
        &self.invariant_loops
    }

    /// The outermost reuse-carrying loop, if any.
    pub fn reuse_loop(&self) -> Option<LoopId> {
        self.reuse_loop
    }

    /// Registers needed for a full scalar replacement (`R_i` in the paper, at least 1).
    pub fn registers_full(&self) -> u64 {
        self.registers_full
    }

    /// Memory-access counts without replacement and with full replacement.
    pub fn access_counts(&self) -> AccessCounts {
        self.access_counts
    }

    /// Accesses eliminated by a full replacement.
    pub fn saved_full(&self) -> u64 {
        self.access_counts.saved()
    }

    /// The benefit/cost ratio `γ = saved accesses / required registers` used by the
    /// greedy allocators.
    pub fn benefit_cost(&self) -> f64 {
        self.saved_full() as f64 / self.registers_full.max(1) as f64
    }

    /// Returns `true` when the reference carries any temporal reuse at all.
    pub fn has_reuse(&self) -> bool {
        self.reuse_loop.is_some() && self.saved_full() > 0
    }

    /// Width in bits of one element of the referenced array (used by the area model).
    pub fn elem_bits(&self) -> u32 {
        self.elem_bits
    }
}

/// Reuse analysis of a whole kernel: one [`ReuseSummary`] per reference group, in
/// [`srra_ir::ReferenceTable`] order.
///
/// # Example
///
/// ```
/// use srra_ir::examples::paper_example;
/// use srra_reuse::ReuseAnalysis;
///
/// let kernel = paper_example();
/// let analysis = ReuseAnalysis::of(&kernel);
/// assert_eq!(analysis.len(), 5);
/// assert_eq!(analysis.total_registers_full(), 30 + 600 + 20 + 30 + 1);
/// let order: Vec<&str> = analysis
///     .sorted_by_benefit_cost()
///     .iter()
///     .map(|s| s.array_name())
///     .collect();
/// // c saves the most accesses per register; e (no reuse) comes last.
/// assert_eq!(order.first().copied(), Some("c"));
/// assert_eq!(order.last().copied(), Some("e"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseAnalysis {
    kernel_name: String,
    summaries: Vec<ReuseSummary>,
}

/// Process-wide count of whole-kernel reuse analyses, see [`analysis_runs`].
static ANALYSIS_RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The number of whole-kernel reuse analyses performed by this process so far.
///
/// Instrumentation for the memoization regression tests: callers that share a
/// memoized analysis context can assert that a sweep over N design points bumps
/// this counter exactly once per kernel.  The counter is monotonic, so tests
/// must compare deltas, not absolute values.
#[doc(hidden)]
pub fn analysis_runs() -> usize {
    ANALYSIS_RUNS.load(std::sync::atomic::Ordering::Relaxed)
}

impl ReuseAnalysis {
    /// Analyses every reference group of the kernel.
    pub fn of(kernel: &Kernel) -> Self {
        ANALYSIS_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let nest = kernel.nest();
        let summaries = kernel
            .reference_table()
            .iter()
            .map(|info| {
                let elem_bits = kernel
                    .array(info.array())
                    .map(|a| a.elem_bits())
                    .unwrap_or(16);
                let (array_name, rendered) = info.shared_names();
                let reuse = reuse_loop(info, nest);
                ReuseSummary {
                    ref_id: info.id(),
                    array: info.array(),
                    array_name: Arc::clone(array_name),
                    rendered: Arc::clone(rendered),
                    invariant_loops: invariant_loops(info, nest),
                    reuse_loop: reuse,
                    registers_full: registers_with_reuse_loop(info, nest, reuse),
                    access_counts: AccessCounts::with_reuse_loop(info, nest, reuse),
                    elem_bits,
                }
            })
            .collect();
        Self {
            kernel_name: kernel.name().to_owned(),
            summaries,
        }
    }

    /// Name of the analysed kernel.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Number of reference groups analysed.
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// Returns `true` when the kernel has no array references.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// The summary for a reference group.
    pub fn get(&self, id: RefId) -> Option<&ReuseSummary> {
        self.summaries.get(id.index())
    }

    /// The summary of the first reference group of the array with the given name.
    pub fn by_name(&self, name: &str) -> Option<&ReuseSummary> {
        self.summaries.iter().find(|s| s.array_name() == name)
    }

    /// Iterates over the summaries in reference-table order.
    pub fn iter(&self) -> impl Iterator<Item = &ReuseSummary> {
        self.summaries.iter()
    }

    /// Summaries sorted by descending benefit/cost ratio (the FR-RA / PR-RA visit
    /// order).  Ties are broken by ascending register requirement, then by reference
    /// id, so the order is deterministic.
    pub fn sorted_by_benefit_cost(&self) -> Vec<&ReuseSummary> {
        let mut sorted: Vec<&ReuseSummary> = self.summaries.iter().collect();
        sorted.sort_by(|a, b| {
            b.benefit_cost()
                .partial_cmp(&a.benefit_cost())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.registers_full().cmp(&b.registers_full()))
                .then(a.ref_id().cmp(&b.ref_id()))
        });
        sorted
    }

    /// Total registers required to fully replace every reference.
    pub fn total_registers_full(&self) -> u64 {
        self.summaries
            .iter()
            .map(ReuseSummary::registers_full)
            .sum()
    }

    /// Total memory accesses without any replacement.
    pub fn total_accesses(&self) -> u64 {
        self.summaries.iter().map(|s| s.access_counts().total).sum()
    }

    /// Total memory accesses eliminated when every reference is fully replaced.
    pub fn total_saved_full(&self) -> u64 {
        self.summaries.iter().map(ReuseSummary::saved_full).sum()
    }
}

impl<'a> IntoIterator for &'a ReuseAnalysis {
    type Item = &'a ReuseSummary;
    type IntoIter = std::slice::Iter<'a, ReuseSummary>;

    fn into_iter(self) -> Self::IntoIter {
        self.summaries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::{dot_product, paper_example};

    #[test]
    fn analysis_covers_every_reference_group() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        assert_eq!(analysis.len(), kernel.reference_table().len());
        assert_eq!(analysis.kernel_name(), "paper_example");
        assert!(!analysis.is_empty());
        for summary in &analysis {
            assert!(analysis.get(summary.ref_id()).is_some());
            assert!(summary.registers_full() >= 1);
        }
    }

    #[test]
    fn benefit_cost_ordering_matches_the_fr_ra_visit_order() {
        // With d's forwarded read excluded, the greedy order is c, a, d, b, e, which is
        // the order that reproduces the paper's FR-RA allocation (a and c fully
        // replaced, d left at one register).
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let order: Vec<&str> = analysis
            .sorted_by_benefit_cost()
            .iter()
            .map(|s| s.array_name())
            .collect();
        assert_eq!(order, vec!["c", "a", "d", "b", "e"]);
    }

    #[test]
    fn benefit_cost_values() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let gamma = |name: &str| analysis.by_name(name).unwrap().benefit_cost();
        // a: (1200 - 30) / 30 = 39, c: (1200 - 20) / 20 = 59,
        // b: (1200 - 600) / 600 = 1, d: (1200 - 60) / 30 = 38, e: 0.
        assert!((gamma("a") - 39.0).abs() < 1e-9);
        assert!((gamma("c") - 59.0).abs() < 1e-9);
        assert!((gamma("b") - 1.0).abs() < 1e-9);
        assert!((gamma("d") - 38.0).abs() < 1e-9);
        assert_eq!(gamma("e"), 0.0);
    }

    #[test]
    fn totals_aggregate_over_references() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        assert_eq!(analysis.total_registers_full(), 681);
        assert_eq!(analysis.total_accesses(), 1200 * 5);
        assert_eq!(
            analysis.total_saved_full(),
            analysis.iter().map(|s| s.saved_full()).sum::<u64>()
        );
    }

    #[test]
    fn summaries_share_the_reference_tables_names() {
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        for (summary, info) in analysis.iter().zip(kernel.reference_table()) {
            let (array_name, rendered) = summary.shared_names();
            let (table_array_name, table_rendered) = info.shared_names();
            assert!(Arc::ptr_eq(&array_name, table_array_name));
            assert!(Arc::ptr_eq(&rendered, table_rendered));
        }
    }

    #[test]
    fn accumulator_reference_has_reuse() {
        let kernel = dot_product(64);
        let analysis = ReuseAnalysis::of(&kernel);
        let s = analysis.by_name("s").unwrap();
        assert!(s.has_reuse());
        assert_eq!(s.registers_full(), 1);
        // x and y are streamed: no reuse.
        assert!(!analysis.by_name("x").unwrap().has_reuse());
    }
}
