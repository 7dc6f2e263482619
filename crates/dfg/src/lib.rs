//! Data-flow graph, critical graph and cut enumeration for loop bodies.
//!
//! The CPA-RA algorithm of the DATE'05 paper reasons about the loop body as a
//! **data-flow graph** (DFG) whose nodes are array references and arithmetic
//! operations.  This crate provides:
//!
//! * [`DataFlowGraph`] — the graph itself, built from an `srra-ir` [`srra_ir::Kernel`]
//!   by [`DataFlowGraph::from_kernel`],
//! * [`LatencyModel`] / [`Storage`] — node latencies parameterised by whether each
//!   reference is bound to registers or to a RAM block,
//! * [`CriticalPathAnalysis`] — longest-path analysis, the critical path length
//!   (`T_comp` in the paper) and the **Critical Graph** (the union of all critical
//!   paths),
//! * [`find_cuts`] — enumeration of the minimal reference-node cuts of the critical
//!   graph, the objects CPA-RA promotes one at a time.
//!
//! The front end works on ids and shares text.  A reference node carries its group's
//! name as the `Arc<str>` the kernel's reference table rendered once; other labels are
//! rendered only when [`Node::label`] is called.  [`CriticalGraph`] keeps its
//! successors in offset arrays, and [`find_cuts`] walks them in the paper's DFS order
//! over bitsets of the critical graph's nodes (one `u64` word per 64 nodes).  Its cap
//! of 4,096 cuts bounds the results, not the work: the search is exponential in the
//! worst case, as the paper notes.
//!
//! # Example
//!
//! Reproduce the cut structure of the paper's Figure 2(b):
//!
//! ```
//! use srra_ir::examples::paper_example;
//! use srra_dfg::{CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
//!
//! let kernel = paper_example();
//! let dfg = DataFlowGraph::from_kernel(&kernel);
//! let latency = LatencyModel::default();
//! // With every reference still in RAM, the critical path runs a/b -> op1 -> d -> op2 -> e.
//! let analysis = CriticalPathAnalysis::new(&dfg, &latency, &StorageMap::all_ram());
//! let cuts = srra_dfg::find_cuts(&dfg, analysis.critical_graph());
//! let mut names: Vec<Vec<String>> = cuts
//!     .iter()
//!     .map(|cut| cut.iter().map(|&n| dfg.node(n).label().into_owned()).collect())
//!     .collect();
//! names.iter_mut().for_each(|c| c.sort());
//! assert!(names.contains(&vec!["a[k]".to_owned(), "b[k][j]".to_owned()]));
//! assert!(names.contains(&vec!["d[i][k]".to_owned()]));
//! assert!(names.contains(&vec!["e[i][j][k]".to_owned()]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod critical;
mod cuts;
mod dot;
mod graph;
mod latency;

#[doc(hidden)]
pub use build::dfg_builds;
pub use critical::{CriticalGraph, CriticalPathAnalysis};
#[doc(hidden)]
pub use cuts::cut_enumerations;
pub use cuts::{find_cuts, Cut};
pub use dot::to_dot;
pub use graph::{DataFlowGraph, Node, NodeId, NodeKind};
pub use latency::{LatencyModel, Storage, StorageMap};
