//! Register allocation algorithms for scalar-replaced array references — the primary
//! contribution of the DATE'05 paper.
//!
//! Given a kernel (from `srra-ir`), its reuse analysis (from `srra-reuse`) and a
//! register budget `N_R`, this crate computes how many registers `β_i` each array
//! reference receives:
//!
//! * [`full_reuse`] — **FR-RA**: greedy by benefit/cost ratio, a reference is either
//!   fully replaced or left in RAM,
//! * [`partial_reuse`] — **PR-RA**: FR-RA plus the leftover registers are given to the
//!   next reference in the greedy order, which is then *partially* replaced,
//! * [`critical_path_aware`] — **CPA-RA**: the paper's proposal; registers are
//!   allocated to *cuts* of the Critical Graph so every register spent shortens all
//!   critical paths,
//! * [`knapsack_optimal`] — an exact 0/1-knapsack baseline maximising eliminated
//!   memory accesses (the "simple objective function" the paper formulates and then
//!   improves upon),
//! * [`no_replacement`] — the untransformed code, every access goes to RAM,
//! * [`greedy_savings`] — **GR-RA**: greedy by absolute eliminated accesses, the
//!   registry's extensibility demonstration.
//!
//! # The allocator registry
//!
//! Strategies are open: anything implementing the [`Allocator`] trait can be
//! registered in an [`AllocatorRegistry`] and then drives every downstream
//! layer (the `srra-explore` sweep engine and the serve and cluster layers on
//! top of it, the CLI) without those layers naming it.
//! [`AllocatorRegistry::global`] holds the built-ins in deterministic order
//! (`none`, `fr`, `pr`, `cpa`, `ks`, `greedy`); [`AllocatorRegistry::get`]
//! resolves names, labels (`CPA-RA`), version names (`v3`) and aliases,
//! case-insensitively.  [`AllocatorRef`] is the copyable handle the pipeline
//! carries around, and every allocation names the registry entry that
//! produced it ([`RegisterAllocation::algorithm`]), whether it came through
//! the registry or from a direct call such as [`full_reuse`].
//!
//! # The `CompiledKernel` lifecycle
//!
//! Allocators take a [`CompiledKernel`]: the kernel bundled with
//! lazily-memoized, allocation-independent artifacts (reuse analysis,
//! data-flow graph, baseline critical path).  Construct one per kernel
//! (`CompiledKernel::new(kernel)` or `kernel.into()`), share it by reference
//! across as many strategies, budgets and threads as needed — each artifact is
//! computed at most once per context, on first use — and drop it when the
//! kernel leaves scope.  A sweep over N design points of one kernel therefore
//! performs exactly one reuse analysis.
//!
//! The resulting [`RegisterAllocation`] can be costed with [`memory_cost`] (or
//! [`memory_cost_on_dfg`], given the context's memoized data-flow graph), turned into
//! a code-generation-level [`ReplacementPlan`], or handed to `srra-fpga` for a full
//! hardware design-point estimate.  All of them read a reference through
//! [`RefTerms`], which holds every per-reference formula of the cost model, and fold
//! the memory cycles over [`MemoryStages`], which depend only on the kernel and the
//! cost model, so `srra-fpga`'s cost table builds them once per kernel.
//!
//! # Example — the paper's running example (Figure 2(c))
//!
//! ```
//! use srra_ir::examples::paper_example;
//! use srra_core::{AllocatorRegistry, CompiledKernel, MemoryCostModel};
//!
//! # fn main() -> Result<(), srra_core::AllocError> {
//! let ck = CompiledKernel::new(paper_example());
//! let registry = AllocatorRegistry::global();
//! let budget = 64;
//!
//! // One memoized analysis serves both strategies.
//! let fr = registry.get("fr").unwrap().allocate(&ck, budget)?;
//! let cpa = registry.get("cpa").unwrap().allocate(&ck, budget)?;
//!
//! // FR-RA fully replaces a and c; CPA-RA spends the same budget along the cuts
//! // {d} and {a, b} instead.
//! assert_eq!(fr.by_name("a").unwrap().beta(), 30);
//! assert_eq!(cpa.by_name("d").unwrap().beta(), 30);
//! assert_eq!(cpa.by_name("a").unwrap().beta(), 16);
//!
//! let model = MemoryCostModel::default();
//! let (kernel, analysis, dfg) = (ck.kernel(), ck.analysis(), ck.dfg());
//! let fr_cost = srra_core::memory_cost_on_dfg(kernel, analysis, dfg, &fr, &model);
//! let cpa_cost = srra_core::memory_cost_on_dfg(kernel, analysis, dfg, &cpa, &model);
//! assert!(cpa_cost.memory_cycles < fr_cost.memory_cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod baseline;
mod context;
mod cost;
mod cpa_ra;
mod error;
mod fr_ra;
mod greedy;
mod knapsack;
mod pr_ra;
mod registry;
mod scalar_replace;

pub use allocation::{RefAllocation, RegisterAllocation, ReplacementMode};
pub use baseline::no_replacement;
pub use context::CompiledKernel;
pub use cost::{
    memory_cost, memory_cost_on_dfg, MemoryCostModel, MemoryCostReport, MemoryStages, StageCost,
};
pub use cpa_ra::critical_path_aware;
pub use error::AllocError;
pub use fr_ra::full_reuse;
pub use greedy::greedy_savings;
pub use knapsack::knapsack_optimal;
pub use pr_ra::partial_reuse;
pub use registry::{Allocator, AllocatorRef, AllocatorRegistry};
pub use scalar_replace::{RefPlan, RefTerms, ReplacementPlan};
