//! Parallel design-space exploration with a persistent result cache and
//! Pareto-frontier extraction.
//!
//! The paper evaluates its allocators at one design point per kernel (32
//! registers, one XCV1000 device).  This crate turns the one-shot pipeline into
//! a batched sweep over the full cross product of
//!
//! * kernels (each wrapped in a shared [`srra_core::CompiledKernel`] analysis
//!   context, so a sweep performs one reuse analysis per kernel no matter how
//!   many points it evaluates),
//! * allocation strategies ([`srra_core::AllocatorRef`] handles resolved from
//!   the open [`srra_core::AllocatorRegistry`] — any registered strategy can
//!   be swept without touching this crate),
//! * register budgets,
//! * RAM latencies, and
//! * target devices ([`srra_fpga::DeviceModel`]),
//!
//! evaluated in parallel by a work-stealing thread pool and deduplicated
//! through a content-addressed [`ResultStore`] (FNV-hashed design-point keys)
//! with in-memory ([`MemoryStore`]), persistent JSON-lines ([`JsonlStore`])
//! and fixed-header binary segment ([`SegmentStore`]) backends.  Records
//! carry one field list ([`Wire`], in [`codec`]) for both the JSON lines and
//! the binary segments, the same one the serve layer's two wire codecs use.
//! On top of the raw records it extracts multi-objective Pareto
//! frontiers (total cycles × slices × registers) and per-kernel best-allocator
//! summaries.
//!
//! # Quickstart
//!
//! ```
//! use srra_explore::{pareto_frontier, DesignSpace, Explorer, MemoryStore};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = DesignSpace::for_kernels([srra_kernels::fir::fir(64, 8)?])
//!     .with_budgets(&[8, 16, 32, 64]);
//! let run = Explorer::new(4).explore(&space, &mut MemoryStore::new())?;
//! let frontier = pareto_frontier(&run.records);
//! assert!(!frontier.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! With a [`JsonlStore`] instead of the [`MemoryStore`], re-running the same
//! space answers every point from disk and returns byte-identical records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod engine;
mod json;
mod pareto;
mod render;
mod segment;
mod space;
mod store;

pub use codec::{Decoder, Encoder, Wire, WireError};
pub use engine::{evaluate_point, BatchEvaluator, Exploration, Explorer, StageTimings};
pub use json::JsonValue;
pub use pareto::{best_allocators, dominates, pareto_frontier, BestAllocator};
pub use render::{exploration_csv, render_best_allocators, render_exploration, render_frontier};
pub use segment::{SegmentStore, MAX_SEGMENT_RECORD_LEN, SEGMENT_MAGIC};
pub use space::{fnv1a_64, DesignPoint, DesignSpace, MAX_RAM_LATENCY};
pub use store::{JsonlError, JsonlStore, MemoryStore, PointRecord, ResultStore, StoreBase};
