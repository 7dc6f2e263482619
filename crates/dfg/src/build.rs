//! Construction of a [`DataFlowGraph`] from an `srra-ir` kernel.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use srra_ir::{AccessKind, Expr, Kernel, RefId, StoreTarget};

use crate::graph::{DataFlowGraph, NodeId, NodeKind};

struct Builder<'k> {
    kernel: &'k Kernel,
    graph: DataFlowGraph,
    /// Producing node of each scalar temporary defined so far.
    scalar_defs: HashMap<String, NodeId>,
    /// Reference node that most recently wrote each reference group (value forwarding
    /// inside one iteration, e.g. the `d[i][k]` node of the paper's example).
    last_write: HashMap<RefId, NodeId>,
    /// Reference node created for a read of each group, so repeated reads of the same
    /// element within one iteration fetch it only once.
    read_nodes: HashMap<RefId, NodeId>,
}

impl<'k> Builder<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        Self {
            kernel,
            graph: DataFlowGraph::new(),
            scalar_defs: HashMap::new(),
            last_write: HashMap::new(),
            read_nodes: HashMap::new(),
        }
    }

    fn reference_label(&self, ref_id: RefId) -> String {
        let table = self.kernel.reference_table();
        let names = self.kernel.nest().loop_names();
        table
            .get(ref_id)
            .map(|info| info.render(&names))
            .unwrap_or_else(|| ref_id.to_string())
    }

    fn lookup_ref(&self, array: srra_ir::ArrayId, subscripts: &[srra_ir::AffineExpr]) -> RefId {
        self.kernel
            .reference_table()
            .find(array, subscripts)
            .map(|info| info.id())
            .expect("reference present in table")
    }

    fn build_expr(&mut self, expr: &Expr, statement: usize) -> NodeId {
        match expr {
            Expr::ArrayAccess(r) => {
                let ref_id = self.lookup_ref(r.array(), r.subscripts());
                if let Some(&producer) = self.last_write.get(&ref_id) {
                    return producer;
                }
                if let Some(&existing) = self.read_nodes.get(&ref_id) {
                    return existing;
                }
                let label = self.reference_label(ref_id);
                let node = self.graph.add_node(
                    NodeKind::Reference {
                        ref_id,
                        array: r.array(),
                        access: AccessKind::Read,
                    },
                    label,
                );
                self.read_nodes.insert(ref_id, node);
                node
            }
            Expr::Scalar(name) => {
                if let Some(&producer) = self.scalar_defs.get(name) {
                    producer
                } else {
                    self.graph.add_node(NodeKind::Input, name.clone())
                }
            }
            Expr::LoopIndex(l) => self.graph.add_node(NodeKind::Input, l.to_string()),
            Expr::IntConst(v) => self.graph.add_node(NodeKind::Input, v.to_string()),
            Expr::Binary { op, lhs, rhs } => {
                let lhs_node = self.build_expr(lhs, statement);
                let rhs_node = self.build_expr(rhs, statement);
                let node = self.graph.add_node(
                    NodeKind::Binary { op: *op, statement },
                    format!("{}#{}", op.mnemonic(), statement),
                );
                self.graph.add_edge(lhs_node, node);
                self.graph.add_edge(rhs_node, node);
                node
            }
            Expr::Unary { op, operand } => {
                let operand_node = self.build_expr(operand, statement);
                let node = self.graph.add_node(
                    NodeKind::Unary { op: *op, statement },
                    format!("{}#{}", op.mnemonic(), statement),
                );
                self.graph.add_edge(operand_node, node);
                node
            }
        }
    }

    fn build(mut self) -> DataFlowGraph {
        for (statement, stmt) in self.kernel.nest().body().iter().enumerate() {
            let value_node = self.build_expr(stmt.value(), statement);
            match stmt.target() {
                StoreTarget::Array(r) => {
                    let ref_id = self.lookup_ref(r.array(), r.subscripts());
                    let label = self.reference_label(ref_id);
                    let store = self.graph.add_node(
                        NodeKind::Reference {
                            ref_id,
                            array: r.array(),
                            access: AccessKind::Write,
                        },
                        label,
                    );
                    self.graph.add_edge(value_node, store);
                    self.last_write.insert(ref_id, store);
                }
                StoreTarget::Scalar(name) => {
                    self.scalar_defs.insert(name.clone(), value_node);
                }
            }
        }
        self.graph
    }
}

/// Process-wide count of data-flow graph builds, see [`dfg_builds`].
static DFG_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// The number of [`DataFlowGraph::from_kernel`] calls made by this process so far.
///
/// Instrumentation for the memoization regression tests: a sweep that shares one
/// memoized graph per kernel bumps this counter once per kernel, not once per design
/// point.  The counter is monotonic, so tests must compare deltas, not absolute values.
#[doc(hidden)]
pub fn dfg_builds() -> usize {
    DFG_BUILDS.load(Ordering::Relaxed)
}

impl DataFlowGraph {
    /// Builds the data-flow graph of one iteration of the kernel's loop body.
    ///
    /// Nodes are created for every memory reference, operation and leaf input.  Within
    /// one iteration the value written to an array element by an earlier statement is
    /// forwarded to later readers of the same reference group (so `d[i][k]` of the
    /// paper's example is a single node between the two multiplications), and repeated
    /// reads of the same reference share one fetch node.
    pub fn from_kernel(kernel: &Kernel) -> Self {
        DFG_BUILDS.fetch_add(1, Ordering::Relaxed);
        Builder::new(kernel).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::{dot_product, paper_example, stencil3};

    #[test]
    fn paper_example_graph_shape_matches_figure_2a() {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        // Nodes: a, b, op1, d, c, op2, e  ->  7 nodes, 6 edges.
        assert_eq!(dfg.node_count(), 7);
        assert_eq!(dfg.edge_count(), 6);
        assert_eq!(dfg.reference_nodes().len(), 5);
        assert_eq!(dfg.operation_nodes().len(), 2);
        assert!(dfg.is_acyclic());

        // d is a single node fed by op1 and feeding op2.
        let d = dfg
            .nodes()
            .find(|n| n.label() == "d[i][k]")
            .expect("d node");
        assert_eq!(dfg.predecessors(d.id()).len(), 1);
        assert_eq!(dfg.successors(d.id()).len(), 1);

        // e is the unique sink.
        let sinks = dfg.sinks();
        assert_eq!(sinks.len(), 1);
        assert_eq!(dfg.node(sinks[0]).label(), "e[i][j][k]");
    }

    #[test]
    fn scalar_definitions_connect_statements() {
        let kernel = dot_product(16);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        // x, y, mul, s(read), add, s(write): 6 nodes.
        assert_eq!(dfg.node_count(), 6);
        // The accumulator read and write are distinct nodes of the same group.
        let s_nodes: Vec<_> = dfg
            .nodes()
            .filter(|n| n.label().starts_with("s["))
            .collect();
        assert_eq!(s_nodes.len(), 2);
    }

    #[test]
    fn repeated_reads_share_a_fetch_node() {
        let kernel = stencil3(32);
        let dfg = DataFlowGraph::from_kernel(&kernel);
        // in[i], in[i+1], in[i+2], two adds, out[i]: 6 nodes.
        assert_eq!(dfg.node_count(), 6);
        assert_eq!(dfg.reference_nodes().len(), 4);
    }

    #[test]
    fn nodes_of_reference_group_the_right_accesses() {
        let kernel = paper_example();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let table = kernel.reference_table();
        let d = table.find_by_name("d").unwrap().id();
        assert_eq!(dfg.nodes_of_reference(d).len(), 1);
        let a = table.find_by_name("a").unwrap().id();
        assert_eq!(dfg.nodes_of_reference(a).len(), 1);
    }
}
