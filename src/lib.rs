//! Facade crate re-exporting the `srra` workspace members.
//!
//! The `srra` workspace is a reproduction of *"A Register Allocation Algorithm in the
//! Presence of Scalar Replacement for Fine-Grain Configurable Architectures"*
//! (Baradaran & Diniz, DATE 2005).
//!
//! Most users should depend on the individual crates:
//!
//! * [`srra_ir`] — loop-nest / affine-reference intermediate representation,
//! * [`srra_reuse`] — data-reuse analysis and register-requirement model,
//! * [`srra_dfg`] — data-flow graph, critical graph and cut enumeration,
//! * [`srra_core`] — the allocation strategies (FR-RA / PR-RA / CPA-RA and
//!   more) behind the open [`srra_core::AllocatorRegistry`], plus the
//!   [`srra_core::CompiledKernel`] memoized analysis context,
//! * [`srra_fpga`] — the FPGA execution, clock and area models,
//! * [`srra_kernels`] — the six evaluation kernels,
//! * [`srra_explore`] — parallel design-space exploration, result caching and
//!   Pareto frontiers,
//! * [`srra_obs`] — process-wide metrics registry (counters, gauges, latency
//!   histograms) and telemetry snapshots behind the serving stack,
//! * [`srra_serve`] — the sharded result store and the TCP query-serving
//!   front end over the exploration cache,
//! * [`srra_cluster`] — consistent-hash routing, replication and failover
//!   across multiple serve nodes,
//! * [`srra_bench`] — the Table 1 / Figure 2 reproduction harness.
//!
//! # Example — evaluate one design point
//!
//! ```
//! use srra::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = CompiledKernel::new(srra_kernels::fir::fir(64, 8)?);
//! let cpa = AllocatorRegistry::global().get("cpa").expect("built-in strategy");
//! let outcome = srra_bench::evaluate_compiled(&kernel, cpa, 32)?;
//! assert!(outcome.design.total_cycles > 0);
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart — sweep a design space and extract the Pareto frontier
//!
//! Three lines take a kernel from specification to the set of non-dominated
//! (cycles × slices × registers) design points; swap
//! [`srra_explore::MemoryStore`] for a [`srra_explore::JsonlStore`] to persist
//! results so repeated sweeps never re-evaluate a point:
//!
//! ```
//! use srra::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = DesignSpace::for_kernels([srra_kernels::fir::fir(64, 8)?])
//!     .with_budgets(&[8, 16, 32, 64]);
//! let run = Explorer::new(4).explore(&space, &mut MemoryStore::new())?;
//! let frontier = srra_explore::pareto_frontier(&run.records);
//! assert!(!frontier.is_empty());
//! # Ok(())
//! # }
//! ```

pub use srra_bench;
pub use srra_cluster;
pub use srra_core;
pub use srra_dfg;
pub use srra_explore;
pub use srra_fpga;
pub use srra_ir;
pub use srra_kernels;
pub use srra_obs;
pub use srra_reuse;
pub use srra_serve;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use srra_cluster::{ClusterClient, ClusterConfig, Ring};
    pub use srra_core::{
        Allocator, AllocatorRef, AllocatorRegistry, CompiledKernel, RegisterAllocation,
    };
    pub use srra_dfg::DataFlowGraph;
    pub use srra_explore::{DesignSpace, Exploration, Explorer, JsonlStore, MemoryStore};
    pub use srra_fpga::{DeviceModel, HardwareDesign};
    pub use srra_ir::{ArrayRef, Kernel, LoopNest};
    pub use srra_obs::{MetricsSnapshot, Registry};
    pub use srra_reuse::ReuseAnalysis;
    pub use srra_serve::{Connection, QueryPoint, Server, ServerConfig, ShardedStore};
}
