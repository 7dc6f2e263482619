use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::affine::AffineExpr;
use crate::loop_nest::LoopId;

/// Identifier of an array declared in a [`crate::Kernel`], by declaration order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ArrayId(usize);

impl ArrayId {
    /// Creates an array identifier from its declaration index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// Returns the declaration index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ArrayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Whether a reference reads from or writes to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// The reference fetches a value from the array.
    Read,
    /// The reference stores a value into the array.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// Declaration of an array variable: name, extents per dimension and element width.
///
/// The element width in bits matters for the FPGA model: it determines how many
/// BlockRAM bits and how many register bits (flip-flops) a scalar-replaced element
/// occupies.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayDecl {
    name: String,
    dims: Vec<u64>,
    elem_bits: u32,
}

impl ArrayDecl {
    /// Creates a declaration.  Use [`crate::KernelBuilder::add_array`] in most cases.
    pub fn new(name: impl Into<String>, dims: Vec<u64>, elem_bits: u32) -> Self {
        Self {
            name: name.into(),
            dims,
            elem_bits,
        }
    }

    /// Name of the array variable.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Extents of the array, one entry per dimension.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements across all dimensions.
    pub fn element_count(&self) -> u64 {
        self.dims.iter().fold(1u64, |acc, d| acc.saturating_mul(*d))
    }

    /// Width of one element in bits.
    pub fn elem_bits(&self) -> u32 {
        self.elem_bits
    }

    /// Total storage footprint of the array in bits.
    pub fn total_bits(&self) -> u64 {
        self.element_count()
            .saturating_mul(u64::from(self.elem_bits))
    }
}

/// A single textual reference to an array, e.g. `b[k][j]` as a read.
///
/// The subscripts are affine functions of the enclosing loop indices; this is the class
/// of references the paper's data-reuse analysis handles.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayRef {
    array: ArrayId,
    /// Shared with the reference table's group of the first such reference.
    subscripts: Arc<[AffineExpr]>,
    access: AccessKind,
}

impl ArrayRef {
    /// Creates a reference to `array` with the given subscripts and access kind.
    pub fn new(
        array: ArrayId,
        subscripts: impl Into<Arc<[AffineExpr]>>,
        access: AccessKind,
    ) -> Self {
        Self {
            array,
            subscripts: subscripts.into(),
            access,
        }
    }

    /// The referenced array.
    pub fn array(&self) -> ArrayId {
        self.array
    }

    /// The affine subscript expressions, outermost dimension first.
    pub fn subscripts(&self) -> &[AffineExpr] {
        &self.subscripts
    }

    /// [`ArrayRef::subscripts`] as the shared slice, for a table that keeps the
    /// pattern without copying it.
    pub(crate) fn shared_subscripts(&self) -> &Arc<[AffineExpr]> {
        &self.subscripts
    }

    /// Whether this reference reads or writes.
    pub fn access(&self) -> AccessKind {
        self.access
    }

    /// Returns `true` if any subscript uses the given loop index.
    pub fn uses_loop(&self, loop_id: LoopId) -> bool {
        self.subscripts.iter().any(|s| s.uses_loop(loop_id))
    }

    /// The set of loops used by at least one subscript, in loop order, without
    /// duplicates.
    pub fn used_loops(&self) -> Vec<LoopId> {
        let mut loops: Vec<LoopId> = self
            .subscripts
            .iter()
            .flat_map(AffineExpr::used_loops)
            .collect();
        loops.sort_unstable();
        loops.dedup();
        loops
    }

    /// Evaluates the subscripts at the given iteration point.
    pub fn element_at(&self, point: &[i64]) -> Vec<i64> {
        self.subscripts.iter().map(|s| s.eval(point)).collect()
    }

    /// Returns a copy of this reference with the access kind replaced.
    #[must_use]
    pub fn with_access(mut self, access: AccessKind) -> Self {
        self.access = access;
        self
    }

    /// Renders the reference as `name[sub][sub]...` given array and loop names.
    pub fn render(&self, array_name: &str, loop_names: &[&str]) -> String {
        let mut out = String::new();
        self.render_into(array_name, loop_names, &mut out);
        out
    }

    /// Appends [`ArrayRef::render`]'s text to `out`.
    pub(crate) fn render_into(&self, array_name: &str, loop_names: &[&str], out: &mut String) {
        out.push_str(array_name);
        for sub in self.subscripts.iter() {
            out.push('[');
            sub.render_into(loop_names, out);
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> LoopId {
        LoopId::new(i)
    }

    #[test]
    fn array_decl_accessors() {
        let d = ArrayDecl::new("img", vec![64, 64], 8);
        assert_eq!(d.name(), "img");
        assert_eq!(d.rank(), 2);
        assert_eq!(d.element_count(), 4096);
        assert_eq!(d.elem_bits(), 8);
        assert_eq!(d.total_bits(), 32768);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }

    #[test]
    fn array_ref_used_loops_are_deduplicated_and_sorted() {
        // b[k][j] in an (i, j, k) nest uses loops {1, 2}
        let b = ArrayRef::new(
            ArrayId::new(1),
            vec![AffineExpr::index(l(2)), AffineExpr::index(l(1))],
            AccessKind::Read,
        );
        assert_eq!(b.used_loops(), vec![l(1), l(2)]);
        assert!(b.uses_loop(l(1)));
        assert!(!b.uses_loop(l(0)));
    }

    #[test]
    fn element_at_evaluates_all_subscripts() {
        let r = ArrayRef::new(
            ArrayId::new(0),
            vec![
                AffineExpr::index(l(0)).with_constant(1),
                AffineExpr::index(l(1)).with_term(l(2), 1),
            ],
            AccessKind::Write,
        );
        assert_eq!(r.element_at(&[3, 4, 5]), vec![4, 9]);
    }

    #[test]
    fn render_produces_c_like_reference() {
        let r = ArrayRef::new(
            ArrayId::new(0),
            vec![
                AffineExpr::index(l(0)),
                AffineExpr::index(l(2)).with_constant(2),
            ],
            AccessKind::Read,
        );
        assert_eq!(r.render("d", &["i", "j", "k"]), "d[i][k + 2]");
    }

    #[test]
    fn with_access_flips_kind() {
        let r = ArrayRef::new(ArrayId::new(0), vec![], AccessKind::Read);
        assert_eq!(
            r.clone().with_access(AccessKind::Write).access(),
            AccessKind::Write
        );
        assert_eq!(ArrayId::new(3).to_string(), "A3");
    }
}
