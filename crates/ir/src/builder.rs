use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::affine::AffineExpr;
use crate::array::{AccessKind, ArrayDecl, ArrayId, ArrayRef};
use crate::error::IrError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::loop_nest::{Kernel, Loop, LoopId, LoopNest};
use crate::stmt::{Statement, StoreTarget};

static BUILDER_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Handle to an expression under construction inside a [`KernelBuilder`].
///
/// Handles are cheap to copy and only valid for the builder that created them; using a
/// handle with a different builder is detected and reported as
/// [`IrError::ForeignHandle`] when [`KernelBuilder::build`] is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprHandle {
    index: usize,
    builder: u64,
}

/// Fluent builder for [`Kernel`]s.
///
/// The builder owns an expression arena behind interior mutability, so nested
/// construction such as `b.mul(b.read(a, ..), b.read(x, ..))` reads naturally, and all
/// validation is deferred to [`KernelBuilder::build`], which runs the full
/// [`crate::validate_kernel`] checks.
///
/// The arena is shallow: an operator records the handles of its operands, and
/// [`KernelBuilder::build`] assembles each statement's [`Expr`] tree once, moving
/// every node into its parent.  Handles may be shared, so the handles form a DAG while
/// the built body is a tree: a handle consumed twice, as in `b.add(x, x)` or by two
/// statements, yields two equal subtrees.
///
/// # Example
///
/// ```
/// use srra_ir::KernelBuilder;
///
/// # fn main() -> Result<(), srra_ir::IrError> {
/// // for (i) for (j): c[i] = c[i] + a[i][j] * x[j]
/// let b = KernelBuilder::new("matvec");
/// let i = b.add_loop("i", 16);
/// let j = b.add_loop("j", 16);
/// let a = b.add_array("a", &[16, 16], 16);
/// let x = b.add_array("x", &[16], 16);
/// let c = b.add_array("c", &[16], 32);
/// let prod = b.mul(b.read(a, &[b.idx(i), b.idx(j)]), b.read(x, &[b.idx(j)]));
/// let sum = b.add(b.read(c, &[b.idx(i)]), prod);
/// b.store(c, &[b.idx(i)], sum);
/// let kernel = b.build()?;
/// assert_eq!(kernel.nest().depth(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    id: u64,
    name: String,
    loops: RefCell<Vec<Loop>>,
    arrays: RefCell<Vec<ArrayDecl>>,
    arena: RefCell<Vec<Slot>>,
    statements: RefCell<Vec<(StoreTarget, usize)>>,
    deferred_error: RefCell<Option<IrError>>,
}

/// One arena entry: a node and the number of times its handle was consumed.
#[derive(Debug)]
struct Slot {
    node: Node,
    uses: usize,
}

/// A shallow expression node; operators name their operands by arena index.
#[derive(Debug)]
enum Node {
    /// A leaf operand, or during [`KernelBuilder::build`] the assembled tree of an
    /// entry with consumers left.
    Expr(Expr),
    Binary(BinOp, usize, usize),
    Unary(UnOp, usize),
}

/// Assembles the tree of arena entry `index` for one of its consumers.  The last
/// consumer takes the tree; an earlier one leaves a copy for those still to come.
fn assemble(arena: &mut [Slot], index: usize) -> Expr {
    let node = std::mem::replace(&mut arena[index].node, Node::Expr(Expr::IntConst(0)));
    let expr = match node {
        Node::Expr(expr) => expr,
        Node::Binary(op, lhs, rhs) => Expr::binary(op, assemble(arena, lhs), assemble(arena, rhs)),
        Node::Unary(op, operand) => Expr::unary(op, assemble(arena, operand)),
    };
    let slot = &mut arena[index];
    slot.uses -= 1;
    if slot.uses > 0 {
        slot.node = Node::Expr(expr.clone());
    }
    expr
}

impl KernelBuilder {
    /// Creates a builder for a kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            id: BUILDER_COUNTER.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            loops: RefCell::new(Vec::new()),
            arrays: RefCell::new(Vec::new()),
            arena: RefCell::new(Vec::new()),
            statements: RefCell::new(Vec::new()),
            deferred_error: RefCell::new(None),
        }
    }

    /// Appends a loop to the nest (the first call creates the outermost loop).
    pub fn add_loop(&self, name: impl Into<String>, trip_count: u64) -> LoopId {
        let mut loops = self.loops.borrow_mut();
        let id = LoopId::new(loops.len());
        loops.push(Loop::new(name, trip_count));
        id
    }

    /// Declares an array variable.
    pub fn add_array(&self, name: impl Into<String>, dims: &[u64], elem_bits: u32) -> ArrayId {
        let mut arrays = self.arrays.borrow_mut();
        let id = ArrayId::new(arrays.len());
        arrays.push(ArrayDecl::new(name, dims.to_vec(), elem_bits));
        id
    }

    /// Affine subscript equal to a loop index.
    pub fn idx(&self, loop_id: LoopId) -> AffineExpr {
        AffineExpr::index(loop_id)
    }

    /// Affine subscript equal to `scale * loop + offset` (e.g. the decimated index of
    /// the Dec-FIR kernel).
    pub fn scaled_idx(&self, loop_id: LoopId, scale: i64, offset: i64) -> AffineExpr {
        AffineExpr::zero()
            .with_term(loop_id, scale)
            .with_constant(offset)
    }

    /// Affine subscript equal to the sum of two loop indices (sliding-window access).
    pub fn idx_sum(&self, a: LoopId, b: LoopId) -> AffineExpr {
        AffineExpr::index(a).with_term(b, 1)
    }

    /// Constant affine subscript.
    pub fn constant(&self, value: i64) -> AffineExpr {
        AffineExpr::constant(value)
    }

    fn push(&self, node: Node) -> ExprHandle {
        let mut arena = self.arena.borrow_mut();
        let index = arena.len();
        arena.push(Slot { node, uses: 0 });
        ExprHandle {
            index,
            builder: self.id,
        }
    }

    /// Counts one consumer of `handle` and returns its arena index.  A foreign
    /// handle is recorded for [`KernelBuilder::build`] to refuse.
    fn consume(&self, handle: ExprHandle) -> usize {
        let mut arena = self.arena.borrow_mut();
        match arena.get_mut(handle.index) {
            Some(slot) if handle.builder == self.id => slot.uses += 1,
            _ => {
                self.deferred_error
                    .borrow_mut()
                    .get_or_insert(IrError::ForeignHandle);
            }
        }
        handle.index
    }

    /// A read of `array` at the given affine subscripts.
    pub fn read(&self, array: ArrayId, subscripts: &[AffineExpr]) -> ExprHandle {
        self.push(Node::Expr(Expr::ArrayAccess(ArrayRef::new(
            array,
            subscripts,
            AccessKind::Read,
        ))))
    }

    /// An integer literal operand.
    pub fn int(&self, value: i64) -> ExprHandle {
        self.push(Node::Expr(Expr::IntConst(value)))
    }

    /// A use of a scalar temporary defined by an earlier [`KernelBuilder::define`].
    pub fn scalar(&self, name: impl Into<String>) -> ExprHandle {
        self.push(Node::Expr(Expr::Scalar(name.into())))
    }

    /// The current value of a loop induction variable as an operand.
    pub fn loop_index(&self, loop_id: LoopId) -> ExprHandle {
        self.push(Node::Expr(Expr::LoopIndex(loop_id)))
    }

    /// A binary operation over two previously built expressions.
    pub fn binary(&self, op: BinOp, lhs: ExprHandle, rhs: ExprHandle) -> ExprHandle {
        self.push(Node::Binary(op, self.consume(lhs), self.consume(rhs)))
    }

    /// Shorthand for [`BinOp::Add`].
    pub fn add(&self, lhs: ExprHandle, rhs: ExprHandle) -> ExprHandle {
        self.binary(BinOp::Add, lhs, rhs)
    }

    /// Shorthand for [`BinOp::Sub`].
    pub fn sub(&self, lhs: ExprHandle, rhs: ExprHandle) -> ExprHandle {
        self.binary(BinOp::Sub, lhs, rhs)
    }

    /// Shorthand for [`BinOp::Mul`].
    pub fn mul(&self, lhs: ExprHandle, rhs: ExprHandle) -> ExprHandle {
        self.binary(BinOp::Mul, lhs, rhs)
    }

    /// A unary operation over a previously built expression.
    pub fn unary(&self, op: UnOp, operand: ExprHandle) -> ExprHandle {
        self.push(Node::Unary(op, self.consume(operand)))
    }

    /// Appends a statement storing `value` into `array[subscripts]`.
    pub fn store(&self, array: ArrayId, subscripts: &[AffineExpr], value: ExprHandle) {
        let target = StoreTarget::Array(ArrayRef::new(array, subscripts, AccessKind::Write));
        let value = self.consume(value);
        self.statements.borrow_mut().push((target, value));
    }

    /// Appends a statement defining a scalar temporary usable by later statements.
    pub fn define(&self, name: impl Into<String>, value: ExprHandle) {
        let value = self.consume(value);
        self.statements
            .borrow_mut()
            .push((StoreTarget::Scalar(name.into()), value));
    }

    /// Number of statements added so far.
    pub fn statement_count(&self) -> usize {
        self.statements.borrow().len()
    }

    /// Finalises the kernel: assembles each statement's expression tree once, then
    /// runs full validation.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ForeignHandle`] if a handle from another builder was used, or
    /// any error from [`crate::validate_kernel`].
    pub fn build(self) -> Result<Kernel, IrError> {
        if let Some(err) = self.deferred_error.into_inner() {
            return Err(err);
        }
        let mut arena = self.arena.into_inner();
        let body = self
            .statements
            .into_inner()
            .into_iter()
            .map(|(target, value)| Statement::new(target, assemble(&mut arena, value)))
            .collect();
        let nest = LoopNest::new(self.loops.into_inner(), body)?;
        Kernel::new(self.name, self.arrays.into_inner(), nest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_two_statement_kernel() {
        let b = KernelBuilder::new("example");
        let i = b.add_loop("i", 2);
        let k = b.add_loop("k", 4);
        let a = b.add_array("a", &[4], 16);
        let d = b.add_array("d", &[2, 4], 16);
        let prod = b.mul(b.read(a, &[b.idx(k)]), b.int(3));
        b.store(d, &[b.idx(i), b.idx(k)], prod);
        let sum = b.add(b.read(d, &[b.idx(i), b.idx(k)]), b.int(1));
        b.define("t", sum);
        assert_eq!(b.statement_count(), 2);
        let kernel = b.build().unwrap();
        assert_eq!(kernel.nest().body().len(), 2);
        assert_eq!(kernel.reference_table().len(), 2);
    }

    #[test]
    fn foreign_handles_are_rejected_at_build_time() {
        let other = KernelBuilder::new("other");
        let foreign = other.int(1);

        let b = KernelBuilder::new("victim");
        let i = b.add_loop("i", 4);
        let a = b.add_array("a", &[4], 16);
        let use_foreign = b.add(foreign, b.int(2));
        b.store(a, &[b.idx(i)], use_foreign);
        assert_eq!(b.build().unwrap_err(), IrError::ForeignHandle);
    }

    #[test]
    fn a_long_chained_reduction_builds_its_hand_written_tree() {
        const TERMS: i64 = 300;
        let b = KernelBuilder::new("chain");
        let i = b.add_loop("i", 4);
        let x = b.add_array("x", &[4 + TERMS as u64], 16);
        let y = b.add_array("y", &[4], 32);
        let mut acc = b.read(x, &[b.idx(i)]);
        for k in 1..TERMS {
            acc = b.add(acc, b.read(x, &[b.scaled_idx(i, 1, k)]));
        }
        b.store(y, &[b.idx(i)], acc);
        let kernel = b.build().unwrap();

        let tap = |k| {
            let subscript = AffineExpr::index(i).with_constant(k);
            Expr::array(ArrayRef::new(x, vec![subscript], AccessKind::Read))
        };
        let chain = (1..TERMS).fold(tap(0), |acc, k| Expr::add(acc, tap(k)));
        assert_eq!(kernel.nest().body()[0].value(), &chain);
        assert_eq!(kernel.reference_table().len(), TERMS as usize + 1);
    }

    #[test]
    fn affine_helpers() {
        let b = KernelBuilder::new("h");
        let l0 = LoopId::new(0);
        let l1 = LoopId::new(1);
        assert_eq!(b.idx(l0), AffineExpr::index(l0));
        assert_eq!(b.constant(5), AffineExpr::constant(5));
        let scaled = b.scaled_idx(l0, 4, 1);
        assert_eq!(scaled.coefficient(l0), 4);
        assert_eq!(scaled.constant_term(), 1);
        let sum = b.idx_sum(l0, l1);
        assert_eq!(sum.coefficient(l0), 1);
        assert_eq!(sum.coefficient(l1), 1);
    }

    #[test]
    fn build_propagates_validation_errors() {
        let b = KernelBuilder::new("bad");
        let i = b.add_loop("i", 8);
        let a = b.add_array("a", &[4], 16); // too small for i in 0..8
        let v = b.read(a, &[b.idx(i)]);
        b.define("t", v);
        assert!(matches!(
            b.build().unwrap_err(),
            IrError::SubscriptOutOfBounds { .. }
        ));
    }

    #[test]
    fn unary_and_loop_index_operands() {
        let b = KernelBuilder::new("u");
        let i = b.add_loop("i", 4);
        let a = b.add_array("a", &[4], 16);
        let neg = b.unary(UnOp::Neg, b.loop_index(i));
        b.store(a, &[b.idx(i)], neg);
        let kernel = b.build().unwrap();
        assert_eq!(kernel.nest().body()[0].operation_count(), 1);
    }
}
