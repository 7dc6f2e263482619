//! Graphviz (`dot`) export of data-flow graphs and critical graphs.
//!
//! The paper presents its running example as a drawing (Figure 2(a)/(b)); this module
//! produces the equivalent drawings for any kernel so reproductions and new kernels can
//! be inspected visually:
//!
//! ```text
//! cargo run --example matmul_allocation > mat.txt   # textual form
//! ```
//!
//! ```
//! use srra_ir::examples::paper_example;
//! use srra_dfg::{to_dot, CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
//!
//! let kernel = paper_example();
//! let dfg = DataFlowGraph::from_kernel(&kernel);
//! let analysis = CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
//! let dot = to_dot(&dfg, Some(&analysis));
//! assert!(dot.starts_with("digraph dfg {"));
//! assert!(dot.contains("a[k]"));
//! ```

use crate::critical::CriticalPathAnalysis;
use crate::graph::{DataFlowGraph, NodeKind};

fn escape(label: &str) -> String {
    label.replace('"', "\\\"")
}

/// Renders the DFG in Graphviz `dot` syntax.
///
/// Reference nodes are drawn as boxes and operations as ellipses.  When a
/// [`CriticalPathAnalysis`] is supplied, nodes and edges on the critical graph are
/// highlighted in red and every node is annotated with its latency and slack.
pub fn to_dot(dfg: &DataFlowGraph, analysis: Option<&CriticalPathAnalysis>) -> String {
    let mut out = String::from("digraph dfg {\n  rankdir=TB;\n");
    for node in dfg.nodes() {
        let shape = match node.kind() {
            NodeKind::Reference { .. } => "box",
            NodeKind::Binary { .. } | NodeKind::Unary { .. } => "ellipse",
            NodeKind::Input => "plaintext",
        };
        let mut label = escape(&node.label());
        let mut colour = "black";
        if let Some(analysis) = analysis {
            label = format!(
                "{label}\\nlat={} slack={}",
                analysis.latency(node.id()),
                analysis.slack(node.id())
            );
            if analysis.is_critical(node.id()) {
                colour = "red";
            }
        }
        out.push_str(&format!(
            "  n{} [label=\"{}\", shape={}, color={}];\n",
            node.id().index(),
            label,
            shape,
            colour
        ));
    }
    for from in dfg.node_ids() {
        for &to in dfg.successors(from) {
            let critical_edge =
                analysis.is_some_and(|a| a.critical_graph().successors(from).contains(&to));
            let attrs = if critical_edge {
                " [color=red, penwidth=2]"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{} -> n{}{};\n",
                from.index(),
                to.index(),
                attrs
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{LatencyModel, StorageMap};
    use srra_ir::examples::{dot_product, paper_example};

    #[test]
    fn plain_export_lists_every_node_and_edge() {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let dot = to_dot(&dfg, None);
        assert!(dot.starts_with("digraph dfg {"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches("label=").count(), dfg.node_count());
        assert_eq!(dot.matches(" -> ").count(), dfg.edge_count());
        assert!(dot.contains("b[k][j]"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=ellipse"));
    }

    #[test]
    fn critical_annotation_highlights_the_critical_path() {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let analysis =
            CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        let dot = to_dot(&dfg, Some(&analysis));
        assert!(dot.contains("color=red"));
        assert!(dot.contains("slack=0"));
        // c[j] is off the critical path and keeps a positive slack annotation.
        assert!(dot.contains("c[j]\\nlat=1 slack="));
    }

    #[test]
    fn works_for_other_kernels() {
        let kernel = dot_product(16);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let dot = to_dot(&dfg, None);
        assert!(dot.contains("s[0]"));
    }
}
