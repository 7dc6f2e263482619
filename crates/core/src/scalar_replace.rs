//! Scalar-replacement planning: turning a register allocation into the quantities a
//! code generator (or, here, the FPGA design model) needs.
//!
//! The paper deliberately leaves the concrete code-generation scheme (loop peeling or
//! predication) out of scope and keeps the control structure identical across its
//! design versions.  We mirror that decision: instead of emitting transformed C, the
//! [`ReplacementPlan`] records, per reference,
//!
//! * how many rotation registers hold its working set (`β`),
//! * how many **prologue loads** fill those registers before the steady state,
//! * how many **epilogue stores** drain register-resident results back to RAM, and
//! * the steady-state **miss fraction** (the share of accesses that still reach RAM).
//!
//! `srra-fpga` consumes these numbers to account for peeled iterations, register area
//! and RAM traffic without simulating the transformed source text.

use serde::{Deserialize, Serialize};
use srra_ir::{ArrayId, Kernel, RefId, RefInfo};
use srra_reuse::{remaining_accesses, ReuseAnalysis, ReuseSummary};

use crate::allocation::{RefAllocation, RegisterAllocation, ReplacementMode};

/// The allocation-dependent numbers of one reference, without its names.
///
/// Every per-reference formula of the cost model lives in [`RefTerms::new`]:
/// [`ReplacementPlan::new`], the memory cost model and `srra-fpga`'s cost table
/// all read a reference through these terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefTerms {
    /// The reference group.
    pub ref_id: RefId,
    /// The referenced array.
    pub array: ArrayId,
    /// Registers assigned (`β`).
    pub beta: u64,
    /// How the reference is implemented.
    pub mode: ReplacementMode,
    /// Width of one element in bits.
    pub elem_bits: u32,
    /// RAM loads required to warm the registers up before the steady state.
    pub prologue_loads: u64,
    /// RAM stores required to drain register-resident results after the steady state.
    pub epilogue_stores: u64,
    /// Fraction of steady-state accesses that still go to RAM.
    pub steady_miss: f64,
    /// Memory accesses remaining over the whole execution.
    pub remaining_accesses: u64,
}

impl RefTerms {
    /// The terms of the reference `summary` describes, given its reference-table
    /// entry and its allocation decision (a reference without a decision keeps its
    /// RAM block).
    pub fn new(
        summary: &ReuseSummary,
        info: Option<&RefInfo>,
        decision: Option<&RefAllocation>,
    ) -> Self {
        let beta = decision.map_or(0, RefAllocation::beta);
        let mode = decision.map_or(ReplacementMode::None, RefAllocation::mode);
        let coverage = decision.map_or(0.0, RefAllocation::coverage);
        let counts = summary.access_counts();
        let has_read = info.is_some_and(RefInfo::has_read);
        let has_write = info.is_some_and(RefInfo::has_write);
        // Essential transfers are charged to the prologue (loads) for read
        // references and to the epilogue (stores) for written references; a
        // reference that is only read never needs an epilogue and vice versa.
        let essential = match mode {
            ReplacementMode::None => 0,
            ReplacementMode::Full => counts.essential,
            // Only the register-resident share is warmed up / drained.
            ReplacementMode::Partial => (counts.essential as f64 * coverage).round() as u64,
        };
        let (prologue_loads, epilogue_stores) = if has_write {
            (0, essential)
        } else if has_read {
            (essential, 0)
        } else {
            (0, 0)
        };
        let steady_miss = if summary.has_reuse() {
            1.0 - coverage
        } else {
            1.0
        };
        Self {
            ref_id: summary.ref_id(),
            array: summary.array(),
            beta,
            mode,
            elem_bits: summary.elem_bits(),
            prologue_loads,
            epilogue_stores,
            steady_miss,
            remaining_accesses: match mode {
                ReplacementMode::None => counts.total,
                ReplacementMode::Full => counts.essential,
                ReplacementMode::Partial => remaining_accesses(summary, beta),
            },
        }
    }

    /// The terms of every reference of `kernel` under `allocation`, in
    /// reference-table order, so a reference's terms sit at its `RefId` index.
    pub fn of_allocation(
        kernel: &Kernel,
        analysis: &ReuseAnalysis,
        allocation: &RegisterAllocation,
    ) -> Vec<Self> {
        let table = kernel.reference_table();
        analysis
            .iter()
            .map(|summary| {
                let id = summary.ref_id();
                Self::new(summary, table.get(id), allocation.get(id))
            })
            .collect()
    }

    /// Total register bits this reference occupies (`β × element width`).
    pub fn register_bits(&self) -> u64 {
        self.beta * u64::from(self.elem_bits)
    }
}

/// Per-reference slice of a [`ReplacementPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefPlan {
    /// The reference group.
    pub ref_id: RefId,
    /// Name of the referenced array.
    pub array_name: String,
    /// The reference rendered with loop names.
    pub rendered: String,
    /// Registers assigned (`β`).
    pub beta: u64,
    /// Registers a full replacement would need (`R`).
    pub registers_full: u64,
    /// How the reference is implemented.
    pub mode: ReplacementMode,
    /// Width of one element in bits.
    pub elem_bits: u32,
    /// RAM loads required to warm the registers up before the steady state (whole
    /// execution, i.e. once per traversal of the reuse loop).
    pub prologue_loads: u64,
    /// RAM stores required to drain register-resident results after the steady state.
    pub epilogue_stores: u64,
    /// Fraction of steady-state accesses that still go to RAM.
    pub steady_miss: f64,
}

/// A complete scalar-replacement plan for one kernel and allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplacementPlan {
    kernel_name: String,
    refs: Vec<RefPlan>,
    terms: Vec<RefTerms>,
}

impl ReplacementPlan {
    /// Builds the plan for an allocation.
    pub fn new(kernel: &Kernel, analysis: &ReuseAnalysis, allocation: &RegisterAllocation) -> Self {
        let terms = RefTerms::of_allocation(kernel, analysis, allocation);
        let refs = analysis
            .iter()
            .zip(&terms)
            .map(|(summary, terms)| RefPlan {
                ref_id: terms.ref_id,
                array_name: summary.array_name().to_owned(),
                rendered: summary.rendered().to_owned(),
                beta: terms.beta,
                registers_full: summary.registers_full(),
                mode: terms.mode,
                elem_bits: terms.elem_bits,
                prologue_loads: terms.prologue_loads,
                epilogue_stores: terms.epilogue_stores,
                steady_miss: terms.steady_miss,
            })
            .collect();
        Self {
            kernel_name: kernel.name().to_owned(),
            refs,
            terms,
        }
    }

    /// Name of the kernel the plan was computed for.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Per-reference plans in reference-table order.
    pub fn refs(&self) -> &[RefPlan] {
        &self.refs
    }

    /// The plan's per-reference numbers as the cost model reads them, in
    /// reference-table order.
    pub fn terms(&self) -> &[RefTerms] {
        &self.terms
    }

    /// The plan for one reference group.
    pub fn get(&self, ref_id: RefId) -> Option<&RefPlan> {
        self.refs.get(ref_id.index()).filter(|r| r.ref_id == ref_id)
    }

    /// Total registers used by the plan.
    pub fn total_registers(&self) -> u64 {
        self.refs.iter().map(|r| r.beta).sum()
    }

    /// Total register bits (flip-flops) used by the plan; drives the area model.
    pub fn total_register_bits(&self) -> u64 {
        self.terms.iter().map(RefTerms::register_bits).sum()
    }

    /// Number of references that keep using their RAM block in steady state.
    pub fn ram_resident_refs(&self) -> usize {
        self.refs.iter().filter(|r| r.steady_miss > 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocatorRegistry, CompiledKernel};
    use srra_ir::examples::paper_example;

    fn plan(name: &str, budget: u64) -> ReplacementPlan {
        let ck = CompiledKernel::new(paper_example());
        let allocator = AllocatorRegistry::global().get(name).unwrap();
        let allocation = allocator.allocate(&ck, budget).unwrap();
        ReplacementPlan::new(ck.kernel(), ck.analysis(), &allocation)
    }

    #[test]
    fn plan_totals_match_the_allocation() {
        let p = plan("cpa", 64);
        assert_eq!(p.kernel_name(), "paper_example");
        assert_eq!(p.total_registers(), 64);
        assert_eq!(p.total_register_bits(), 64 * 16);
        assert_eq!(p.refs().len(), 5);
    }

    #[test]
    fn read_only_references_warm_up_and_written_references_drain() {
        let p = plan("fr", 64);
        // a is read-only and fully replaced: 30 essential loads, no stores.
        let a = p.refs().iter().find(|r| r.array_name == "a").unwrap();
        assert_eq!(a.prologue_loads, 30);
        assert_eq!(a.epilogue_stores, 0);
        assert_eq!(a.steady_miss, 0.0);
        // d is written: with FR-RA it is not replaced, so no prologue/epilogue at all.
        let d = p.refs().iter().find(|r| r.array_name == "d").unwrap();
        assert_eq!(d.prologue_loads + d.epilogue_stores, 0);
        assert_eq!(d.steady_miss, 1.0);
    }

    #[test]
    fn partial_replacement_scales_the_prologue() {
        let p = plan("pr", 64);
        let d = p.refs().iter().find(|r| r.array_name == "d").unwrap();
        assert_eq!(d.beta, 12);
        assert!(d.epilogue_stores > 0);
        assert!(d.epilogue_stores < 60);
        assert!((d.steady_miss - 0.6).abs() < 1e-9);
    }

    #[test]
    fn ram_resident_count_reflects_steady_misses() {
        let base = plan("none", 0);
        assert_eq!(base.ram_resident_refs(), 5);
        let cpa = plan("cpa", 64);
        // d is fully register resident; a, b partial; c, e still RAM resident.
        assert_eq!(cpa.ram_resident_refs(), 4);
        assert!(cpa.get(cpa.refs()[0].ref_id).is_some());
    }
}
