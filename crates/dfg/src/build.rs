//! Construction of a [`DataFlowGraph`] from an `srra-ir` kernel.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use srra_ir::{AccessKind, ArrayRef, Expr, Kernel, RefInfo, StoreTarget};

use crate::graph::{DataFlowGraph, Label, NodeId, NodeKind};

struct Builder<'k> {
    kernel: &'k Kernel,
    graph: DataFlowGraph,
    /// Producing node of each scalar temporary defined so far.
    scalar_defs: HashMap<&'k str, NodeId>,
    /// Reference node that most recently wrote each reference group, by `RefId`
    /// (value forwarding inside one iteration, e.g. the `d[i][k]` node of the paper's
    /// example).
    last_write: Vec<Option<NodeId>>,
    /// Reference node created for a read of each group, by `RefId`, so repeated reads
    /// of the same element within one iteration fetch it only once.
    read_nodes: Vec<Option<NodeId>>,
}

impl<'k> Builder<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        let groups = kernel.reference_table().len();
        Self {
            kernel,
            graph: DataFlowGraph::new(),
            scalar_defs: HashMap::new(),
            last_write: vec![None; groups],
            read_nodes: vec![None; groups],
        }
    }

    fn lookup_ref(&self, array_ref: &ArrayRef) -> &'k RefInfo {
        self.kernel
            .reference_table()
            .find(array_ref.array(), array_ref.subscripts())
            .expect("reference present in table")
    }

    /// Adds a reference node labelled with its group's shared name.
    fn add_reference(&mut self, info: &RefInfo, access: AccessKind) -> NodeId {
        let kind = NodeKind::Reference {
            ref_id: info.id(),
            array: info.array(),
            access,
        };
        let (_, name) = info.shared_names();
        self.graph.push_node(kind, Label::Name(Arc::clone(name)))
    }

    fn build_expr(&mut self, expr: &'k Expr, statement: usize) -> NodeId {
        match expr {
            Expr::ArrayAccess(r) => {
                let info = self.lookup_ref(r);
                let group = info.id().index();
                if let Some(producer) = self.last_write[group] {
                    return producer;
                }
                if let Some(existing) = self.read_nodes[group] {
                    return existing;
                }
                let node = self.add_reference(info, AccessKind::Read);
                self.read_nodes[group] = Some(node);
                node
            }
            Expr::Scalar(name) => match self.scalar_defs.get(name.as_str()) {
                Some(&producer) => producer,
                None => self
                    .graph
                    .push_node(NodeKind::Input, Label::Name(name.as_str().into())),
            },
            Expr::LoopIndex(l) => self.graph.push_node(NodeKind::Input, Label::LoopIndex(*l)),
            Expr::IntConst(v) => self.graph.push_node(NodeKind::Input, Label::Constant(*v)),
            Expr::Binary { op, lhs, rhs } => {
                let lhs_node = self.build_expr(lhs, statement);
                let rhs_node = self.build_expr(rhs, statement);
                let node = self
                    .graph
                    .push_node(NodeKind::Binary { op: *op, statement }, Label::Operation);
                self.graph.add_edge(lhs_node, node);
                self.graph.add_edge(rhs_node, node);
                node
            }
            Expr::Unary { op, operand } => {
                let operand_node = self.build_expr(operand, statement);
                let node = self
                    .graph
                    .push_node(NodeKind::Unary { op: *op, statement }, Label::Operation);
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
                    let info = self.lookup_ref(r);
                    let store = self.add_reference(info, AccessKind::Write);
                    self.graph.add_edge(value_node, store);
                    self.last_write[info.id().index()] = Some(store);
                }
                StoreTarget::Scalar(name) => {
                    self.scalar_defs.insert(name, value_node);
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
        assert_eq!(dfg.topological_order().len(), dfg.node_count());

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
        let nodes_of = |name: &str| {
            let group = table.find_by_name(name).unwrap().id();
            dfg.nodes().filter(|n| n.reference() == Some(group)).count()
        };
        assert_eq!(nodes_of("d"), 1);
        assert_eq!(nodes_of("a"), 1);
    }

    #[test]
    fn labels_are_rendered_on_demand() {
        // out[i] = (in[i] + i) * -2 - t, with t an external scalar.
        let b = srra_ir::KernelBuilder::new("labels");
        let i = b.add_loop("i", 8);
        let input = b.add_array("in", &[8], 16);
        let output = b.add_array("out", &[8], 16);
        let sum = b.add(b.read(input, &[b.idx(i)]), b.loop_index(i));
        let scaled = b.mul(sum, b.int(-2));
        b.store(output, &[b.idx(i)], b.sub(scaled, b.scalar("t")));
        let kernel = b.build().unwrap();
        let dfg = DataFlowGraph::from_kernel(&kernel);
        let labels: Vec<String> = dfg.nodes().map(|n| n.label().to_string()).collect();
        assert_eq!(
            labels,
            ["in[i]", "L0", "add#0", "-2", "mul#0", "t", "sub#0", "out[i]"]
        );
        // A reference node borrows its group's name from the reference table.
        let table = kernel.reference_table();
        let first = dfg.node(NodeId::new(0));
        let (_, name) = table
            .get(first.reference().unwrap())
            .unwrap()
            .shared_names();
        assert!(std::ptr::eq(&*first.label(), &**name));
    }
}
