//! Functional execution of a scalar-replacement plan: an element-accurate simulation of
//! the register/RAM traffic.
//!
//! The analytic models in `srra-core` predict how many memory accesses remain after an
//! allocation.  This module *executes* the loop nest iteration by iteration, keeping a
//! small register file per reference (of its assigned capacity `β`, managed FIFO like a
//! hardware rotation register) and a RAM behind it, and counts what actually happens.
//! It serves two purposes:
//!
//! * it validates the analytic miss-fraction model on small kernels (see the tests and
//!   the cross-validation integration test), and
//! * it provides a ground-truth trace for users who want to inspect a design point in
//!   detail (per-reference hits, misses and write-backs).
//!
//! Simulation walks the full iteration space, so it is intended for scaled-down kernels
//! (up to a few hundred thousand iterations), not for the full Table 1 problem sizes.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};
use srra_core::{RegisterAllocation, ReplacementMode};
use srra_ir::{AccessKind, Kernel, RefId};
use srra_reuse::ReuseAnalysis;

/// Per-reference traffic counts observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RefTraffic {
    /// Accesses served by the reference's registers.
    pub register_hits: u64,
    /// Reads satisfied by forwarding the value produced earlier in the same iteration
    /// (they never reach the storage at all).
    pub forwarded: u64,
    /// Reads that had to fetch the element from RAM.
    pub ram_reads: u64,
    /// Stores that went to RAM (including write-backs of evicted dirty elements and the
    /// final flush).
    pub ram_writes: u64,
}

impl RefTraffic {
    /// Total RAM accesses (reads plus writes).
    pub fn ram_accesses(&self) -> u64 {
        self.ram_reads + self.ram_writes
    }
}

/// The outcome of simulating one allocation over the whole iteration space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Innermost iterations executed.
    pub iterations: u64,
    /// Traffic per reference group.
    pub traffic: HashMap<RefId, RefTraffic>,
}

impl SimulationResult {
    /// Total RAM accesses across every reference.
    pub fn total_ram_accesses(&self) -> u64 {
        self.traffic.values().map(RefTraffic::ram_accesses).sum()
    }

    /// Total register hits across every reference.
    pub fn total_register_hits(&self) -> u64 {
        self.traffic.values().map(|t| t.register_hits).sum()
    }

    /// Traffic of one reference (zero counts if it never executed).
    pub fn of(&self, ref_id: RefId) -> RefTraffic {
        self.traffic.get(&ref_id).copied().unwrap_or_default()
    }
}

/// How a register file replaces residents once it is full.
///
/// References whose reuse is loop-invariant (`c[j]`, coefficient arrays, accumulators)
/// pin the first `β` distinct elements — exactly what a partial scalar replacement
/// generates in hardware.  Sliding-window references (`x[i+j]`) rotate, so they evict
/// the oldest element (FIFO), which is how a shift-register window behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillPolicy {
    /// Keep the first `β` distinct elements forever (partial replacement of an
    /// invariant working set).
    Pin,
    /// Evict the oldest resident (rotating window).
    Rotate,
}

/// A bounded register file fronting one reference's RAM.
struct RegisterFile {
    capacity: usize,
    policy: FillPolicy,
    /// Resident element coordinates, oldest first, with a dirty flag.
    resident: VecDeque<(Vec<i64>, bool)>,
}

impl RegisterFile {
    fn new(capacity: usize, policy: FillPolicy) -> Self {
        Self {
            capacity,
            policy,
            resident: VecDeque::new(),
        }
    }

    fn find(&mut self, element: &[i64]) -> Option<&mut (Vec<i64>, bool)> {
        self.resident
            .iter_mut()
            .find(|(coords, _)| coords == element)
    }

    /// Tries to insert an element.  Returns `(inserted, evicted_dirty)`.
    fn insert(&mut self, element: Vec<i64>, dirty: bool) -> (bool, bool) {
        if self.capacity == 0 {
            return (false, false);
        }
        let mut evicted_dirty = false;
        if self.resident.len() >= self.capacity {
            match self.policy {
                FillPolicy::Pin => return (false, false),
                FillPolicy::Rotate => {
                    if let Some((_, was_dirty)) = self.resident.pop_front() {
                        evicted_dirty = was_dirty;
                    }
                }
            }
        }
        self.resident.push_back((element, dirty));
        (true, evicted_dirty)
    }

    /// Number of dirty residents (flushed at the end of the simulation).
    fn dirty_count(&self) -> u64 {
        self.resident.iter().filter(|(_, dirty)| *dirty).count() as u64
    }

    /// Empties the register file (at a reuse-loop boundary), returning how many dirty
    /// residents had to be written back.
    fn flush(&mut self) -> u64 {
        let dirty = self.dirty_count();
        self.resident.clear();
        dirty
    }
}

/// Executes the kernel under the given allocation and returns the observed traffic.
///
/// Each reference group owns a FIFO register file of its assigned capacity `β` (zero
/// for references in [`ReplacementMode::None`], which therefore hit RAM on every
/// access).  Reads allocate into the register file; writes are write-allocate /
/// write-back, with dirty elements flushed to RAM when evicted and at the end of the
/// execution.
///
/// # Panics
///
/// Panics if the kernel's iteration space exceeds `max_iterations`, to avoid
/// accidentally simulating a billion iterations; pick smaller kernel parameters
/// instead.
pub fn simulate(
    kernel: &Kernel,
    analysis: &ReuseAnalysis,
    allocation: &RegisterAllocation,
    max_iterations: u64,
) -> SimulationResult {
    let total_iterations = kernel.nest().total_iterations();
    assert!(
        total_iterations <= max_iterations,
        "kernel has {total_iterations} iterations, more than the simulation limit {max_iterations}"
    );

    let table = kernel.reference_table();
    let mut files: HashMap<RefId, RegisterFile> = HashMap::new();
    let mut traffic: HashMap<RefId, RefTraffic> = HashMap::new();
    for summary in analysis.iter() {
        let decision_mode = allocation
            .get(summary.ref_id())
            .map(|d| d.mode())
            .unwrap_or(ReplacementMode::None);
        let capacity = match decision_mode {
            ReplacementMode::None => 0,
            _ => allocation.beta(summary.ref_id()) as usize,
        };
        let policy = if summary.invariant_loops().is_empty() {
            FillPolicy::Rotate
        } else {
            FillPolicy::Pin
        };
        files.insert(summary.ref_id(), RegisterFile::new(capacity, policy));
        traffic.insert(summary.ref_id(), RefTraffic::default());
    }

    // Depth of each reference's reuse loop: whenever a loop *outside* that depth
    // advances, the reference's working set changes completely and its registers are
    // flushed and refilled (this is what the peeled prologue/epilogue of the generated
    // code does per traversal of the reuse loop).
    let reuse_depth: HashMap<RefId, usize> = analysis
        .iter()
        .map(|s| {
            (
                s.ref_id(),
                s.reuse_loop().map(|l| l.index()).unwrap_or(usize::MAX),
            )
        })
        .collect();

    // Pre-compute the occurrence list per statement: (ref id, access kind, subscripts).
    let mut occurrences: Vec<(RefId, AccessKind, Vec<srra_ir::AffineExpr>)> = Vec::new();
    for stmt in kernel.nest().body() {
        for array_ref in stmt.array_refs() {
            let info = table
                .find(array_ref.array(), array_ref.subscripts())
                .expect("reference in table");
            occurrences.push((
                info.id(),
                array_ref.access(),
                array_ref.subscripts().to_vec(),
            ));
        }
    }

    // Walk the iteration space in lexicographic order.
    let trip_counts = kernel.nest().trip_counts();
    let depth = trip_counts.len();
    let mut point = vec![0i64; depth];
    loop {
        // Values produced earlier in the same iteration are forwarded through the
        // datapath: a read of an element written by a previous statement of this very
        // iteration never touches the storage (the `d[i][k]` flow of the paper's
        // example).
        let mut written_this_iteration: Vec<(RefId, Vec<i64>)> = Vec::new();
        for (ref_id, access, subscripts) in &occurrences {
            let element: Vec<i64> = subscripts.iter().map(|s| s.eval(&point)).collect();
            let file = files.get_mut(ref_id).expect("register file exists");
            let stats = traffic.get_mut(ref_id).expect("traffic entry exists");
            match access {
                AccessKind::Read => {
                    if written_this_iteration
                        .iter()
                        .any(|(r, e)| r == ref_id && e == &element)
                    {
                        stats.forwarded += 1;
                    } else if let Some(_entry) = file.find(&element) {
                        stats.register_hits += 1;
                    } else {
                        stats.ram_reads += 1;
                        let (_, evicted_dirty) = file.insert(element, false);
                        if evicted_dirty {
                            stats.ram_writes += 1;
                        }
                    }
                }
                AccessKind::Write => {
                    if let Some(entry) = file.find(&element) {
                        entry.1 = true;
                        stats.register_hits += 1;
                    } else {
                        let (inserted, evicted_dirty) = file.insert(element.clone(), true);
                        if evicted_dirty {
                            stats.ram_writes += 1;
                        }
                        if inserted {
                            stats.register_hits += 1;
                        } else {
                            stats.ram_writes += 1;
                        }
                    }
                    written_this_iteration.push((*ref_id, element));
                }
            }
        }

        // Advance the iteration vector.
        let mut level = depth;
        let advanced_level;
        loop {
            if level == 0 {
                advanced_level = None;
                break;
            }
            level -= 1;
            point[level] += 1;
            if (point[level] as u64) < trip_counts[level] {
                advanced_level = Some(level);
                break;
            }
            point[level] = 0;
            if level == 0 {
                advanced_level = None;
                break;
            }
        }

        let Some(advanced_level) = advanced_level else {
            // Wrapped the outermost loop: execution finished.
            let mut result = SimulationResult {
                iterations: total_iterations,
                traffic,
            };
            // Flush dirty registers.
            for (ref_id, file) in &files {
                if let Some(stats) = result.traffic.get_mut(ref_id) {
                    stats.ram_writes += file.dirty_count();
                }
            }
            return result;
        };

        // A loop outside a reference's reuse loop advanced: its working set is stale.
        for (ref_id, file) in files.iter_mut() {
            let boundary = reuse_depth
                .get(ref_id)
                .map(|&d| d != usize::MAX && advanced_level < d)
                .unwrap_or(false);
            if boundary {
                let write_backs = file.flush();
                if let Some(stats) = traffic.get_mut(ref_id) {
                    stats.ram_writes += write_backs;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_core::{
        full_reuse, memory_cost, no_replacement, AllocatorRegistry, CompiledKernel, MemoryCostModel,
    };
    use srra_ir::examples::{dot_product, paper_example_with};

    fn run(name: &str, budget: u64) -> (SimulationResult, u64, u64) {
        let ck = CompiledKernel::new(paper_example_with(2, 10, 15));
        let (kernel, analysis) = (ck.kernel(), ck.analysis());
        let allocator = AllocatorRegistry::global().get(name).unwrap();
        let allocation = allocator.allocate(&ck, budget).unwrap();
        let cost = memory_cost(kernel, analysis, &allocation, &MemoryCostModel::default());
        let sim = simulate(kernel, analysis, &allocation, 1_000_000);
        (sim, cost.remaining_accesses, cost.eliminated_accesses)
    }

    #[test]
    fn no_replacement_sends_every_access_to_ram() {
        let kernel = paper_example_with(2, 10, 15);
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = no_replacement(&kernel, &analysis);
        let sim = simulate(&kernel, &analysis, &allocation, 1_000_000);
        // 2 * 10 * 15 iterations, 6 occurrences each, of which d's read is forwarded
        // from the write earlier in the same iteration and never reaches the storage.
        assert_eq!(sim.iterations, 300);
        assert_eq!(sim.total_ram_accesses(), 300 * 5);
        assert_eq!(sim.total_register_hits(), 0);
        let d = ReuseAnalysis::of(&kernel).by_name("d").unwrap().ref_id();
        assert_eq!(sim.of(d).forwarded, 300);
    }

    #[test]
    fn full_replacement_only_performs_essential_transfers() {
        // Budget large enough to fully replace everything with reuse.
        let kernel = paper_example_with(2, 10, 15);
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 1000).unwrap();
        let sim = simulate(&kernel, &analysis, &allocation, 1_000_000);
        for summary in &analysis {
            let observed = sim.of(summary.ref_id());
            if summary.has_reuse() {
                assert_eq!(
                    observed.ram_accesses(),
                    summary.access_counts().essential,
                    "{} should only perform its essential transfers",
                    summary.rendered()
                );
            }
        }
    }

    #[test]
    fn simulated_ordering_matches_the_analytic_ordering() {
        let kernel = paper_example_with(2, 10, 15);
        let analysis = ReuseAnalysis::of(&kernel);
        let base_alloc = no_replacement(&kernel, &analysis);
        let base = simulate(&kernel, &analysis, &base_alloc, 1_000_000);

        let (fr, fr_remaining, _) = run("fr", 40);
        let (pr, pr_remaining, _) = run("pr", 40);
        let (cpa, _, cpa_eliminated) = run("cpa", 40);
        // Analytic ordering: PR-RA eliminates at least as much as FR-RA.
        assert!(pr_remaining <= fr_remaining);
        assert!(cpa_eliminated > 0);
        // Simulated ordering: PR-RA's extra registers never add RAM traffic over FR-RA,
        // and every allocator beats the untransformed code.  (CPA-RA can perform *more*
        // total accesses than FR-RA — it minimises critical-path cycles, not access
        // counts — which is exactly the paper's argument for it.)
        assert!(pr.total_ram_accesses() <= fr.total_ram_accesses());
        assert!(fr.total_ram_accesses() < base.total_ram_accesses());
        assert!(cpa.total_ram_accesses() < base.total_ram_accesses());
    }

    #[test]
    fn analytic_and_simulated_traffic_agree_for_full_and_none_modes() {
        let kernel = paper_example_with(2, 10, 15);
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 40).unwrap();
        let sim = simulate(&kernel, &analysis, &allocation, 1_000_000);
        for decision in &allocation {
            let summary = analysis.get(decision.ref_id()).unwrap();
            let observed = sim.of(decision.ref_id()).ram_accesses();
            match decision.mode() {
                ReplacementMode::Full => {
                    assert_eq!(observed, summary.access_counts().essential)
                }
                ReplacementMode::None => assert_eq!(observed, summary.access_counts().total),
                ReplacementMode::Partial => {
                    assert!(observed <= summary.access_counts().total);
                }
            }
        }
    }

    #[test]
    fn accumulator_reuse_is_captured_by_a_single_register() {
        let kernel = dot_product(64);
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 8).unwrap();
        let sim = simulate(&kernel, &analysis, &allocation, 1_000_000);
        let s = analysis.by_name("s").unwrap();
        // One initial fetch plus the final write-back.
        assert_eq!(sim.of(s.ref_id()).ram_accesses(), 2);
        assert_eq!(sim.of(s.ref_id()).register_hits, 2 * 64 - 1);
    }

    #[test]
    #[should_panic(expected = "more than the simulation limit")]
    fn oversized_kernels_are_rejected() {
        let kernel = paper_example_with(100, 100, 100);
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = full_reuse(&kernel, &analysis, 64).unwrap();
        let _ = simulate(&kernel, &analysis, &allocation, 1_000);
    }
}
