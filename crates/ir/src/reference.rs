use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::affine::AffineExpr;
use crate::array::{AccessKind, ArrayId};
use crate::loop_nest::Kernel;

/// Identifier of a *reference group* within a kernel.
///
/// The allocation algorithms of the paper operate on array references such as `a[k]` or
/// `b[k][j]`: all textual occurrences of the same array with the same affine subscript
/// pattern form one group and receive one register budget `β`.  In the paper's Figure 1
/// example, `d[i][k]` occurs both as the target of the first statement and as an operand
/// of the second, yet it is a single reference with a single `β_d`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RefId(usize);

impl RefId {
    /// Creates a reference-group identifier from its index in the table.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// Returns the index of the group within its [`ReferenceTable`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for RefId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One textual occurrence of a reference group in the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Occurrence {
    /// Index of the statement in the body.
    pub statement: usize,
    /// Whether the occurrence reads or writes memory.
    pub access: AccessKind,
}

/// A reference group: an array plus a subscript pattern, with all its occurrences.
///
/// The group's name (`b[k][j]`) is rendered once, when the table is built, and shared
/// as an `Arc<str>` with the reuse analysis and the data-flow graph; every group of one
/// array shares one `Arc<str>` of the array's name, and a group shares its subscript
/// pattern with the body's first reference of the group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefInfo {
    id: RefId,
    array: ArrayId,
    array_name: Arc<str>,
    rendered: Arc<str>,
    subscripts: Arc<[AffineExpr]>,
    occurrences: Vec<Occurrence>,
}

impl RefInfo {
    /// Identifier of the group.
    pub fn id(&self) -> RefId {
        self.id
    }

    /// The referenced array.
    pub fn array(&self) -> ArrayId {
        self.array
    }

    /// Name of the referenced array.
    pub fn array_name(&self) -> &str {
        &self.array_name
    }

    /// The reference rendered as `name[sub]...` with the kernel's loop names.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }

    /// [`RefInfo::array_name`] and [`RefInfo::rendered`] as the table's shared
    /// strings: a result that keeps a name clones its `Arc` instead of its text.
    pub fn shared_names(&self) -> (&Arc<str>, &Arc<str>) {
        (&self.array_name, &self.rendered)
    }

    /// The common affine subscript pattern of every occurrence in the group.
    pub fn subscripts(&self) -> &[AffineExpr] {
        &self.subscripts
    }

    /// All textual occurrences, in body order.
    pub fn occurrences(&self) -> &[Occurrence] {
        &self.occurrences
    }

    /// Returns `true` if at least one occurrence reads memory.
    pub fn has_read(&self) -> bool {
        self.occurrences.iter().any(|o| o.access.is_read())
    }

    /// Returns `true` if at least one occurrence writes memory.
    pub fn has_write(&self) -> bool {
        self.occurrences.iter().any(|o| o.access.is_write())
    }

    /// Number of memory accesses the group performs per innermost iteration when no
    /// scalar replacement is applied (one per occurrence).
    pub fn accesses_per_iteration(&self) -> u64 {
        self.occurrences.len() as u64
    }
}

/// The table of all reference groups of a kernel, in first-occurrence order.
///
/// [`Kernel::new`] builds a kernel's table once; read it with [`Kernel::reference_table`].
/// The table preserves insertion order, so [`RefId`]s are stable for a given kernel and
/// the analyses downstream are deterministic.  Building it renders each group's name
/// once (see [`RefInfo`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReferenceTable {
    refs: Vec<RefInfo>,
}

impl ReferenceTable {
    /// Builds the reference table of a kernel.
    pub fn build(kernel: &Kernel) -> Self {
        let loop_names = kernel.nest().loop_names();
        let mut refs: Vec<RefInfo> = Vec::new();
        // Each array's shared name and groups, indexed by its dense `ArrayId`.
        let mut arrays: Vec<(Arc<str>, Vec<RefId>)> = kernel
            .arrays()
            .iter()
            .map(|decl| (decl.name().into(), Vec::new()))
            .collect();
        let mut rendered = String::new();
        for (statement, stmt) in kernel.nest().body().iter().enumerate() {
            for array_ref in stmt.array_refs() {
                let array = array_ref.array();
                let (array_name, groups) = &mut arrays[array.index()];
                let subscripts = array_ref.subscripts();
                let existing = groups
                    .iter()
                    .copied()
                    .find(|id| refs[id.index()].subscripts() == subscripts);
                let id = existing.unwrap_or_else(|| {
                    let array_name = Arc::clone(array_name);
                    rendered.clear();
                    array_ref.render_into(&array_name, &loop_names, &mut rendered);
                    let id = RefId::new(refs.len());
                    groups.push(id);
                    refs.push(RefInfo {
                        id,
                        array,
                        array_name,
                        rendered: rendered.as_str().into(),
                        subscripts: Arc::clone(array_ref.shared_subscripts()),
                        occurrences: Vec::new(),
                    });
                    id
                });
                refs[id.index()].occurrences.push(Occurrence {
                    statement,
                    access: array_ref.access(),
                });
            }
        }
        Self { refs }
    }

    /// Number of reference groups.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Returns `true` when the kernel body contains no array references at all.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The group with the given identifier, if it exists.
    pub fn get(&self, id: RefId) -> Option<&RefInfo> {
        self.refs.get(id.index())
    }

    /// Iterates over the groups in first-occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = &RefInfo> {
        self.refs.iter()
    }

    /// All groups referencing the given array.
    pub fn by_array(&self, array: ArrayId) -> Vec<&RefInfo> {
        self.refs.iter().filter(|r| r.array() == array).collect()
    }

    /// Finds the group for an exact `(array, subscripts)` pattern.
    pub fn find(&self, array: ArrayId, subscripts: &[AffineExpr]) -> Option<&RefInfo> {
        self.refs
            .iter()
            .find(|r| r.array() == array && r.subscripts() == subscripts)
    }

    /// Finds a group by array *name* (useful in tests and reporting); returns the first
    /// group of that array.
    pub fn find_by_name(&self, name: &str) -> Option<&RefInfo> {
        self.refs.iter().find(|r| r.array_name() == name)
    }

    /// Total number of memory accesses per innermost iteration without replacement.
    pub fn accesses_per_iteration(&self) -> u64 {
        self.refs.iter().map(RefInfo::accesses_per_iteration).sum()
    }

    /// Identifiers of every group, in order.
    pub fn ids(&self) -> impl Iterator<Item = RefId> + '_ {
        (0..self.refs.len()).map(RefId::new)
    }
}

impl<'a> IntoIterator for &'a ReferenceTable {
    type Item = &'a RefInfo;
    type IntoIter = std::slice::Iter<'a, RefInfo>;

    fn into_iter(self) -> Self::IntoIter {
        self.refs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_example;

    #[test]
    fn paper_example_has_five_reference_groups() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        assert_eq!(table.len(), 5);
        // Statement order with value reads before the target write:
        // stmt 0 contributes a, b, d; stmt 1 contributes c and e (d already seen).
        let names: Vec<&str> = table.iter().map(RefInfo::array_name).collect();
        assert_eq!(names, vec!["a", "b", "d", "c", "e"]);
    }

    #[test]
    fn d_reference_has_write_and_read_occurrences() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        let d = table.find_by_name("d").expect("d reference");
        assert_eq!(d.occurrences().len(), 2);
        assert!(d.has_write());
        assert!(d.has_read());
        assert_eq!(d.accesses_per_iteration(), 2);
        assert_eq!(d.rendered(), "d[i][k]");
    }

    #[test]
    fn single_occurrence_references_are_pure() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        let a = table.find_by_name("a").unwrap();
        assert!(a.has_read());
        assert!(!a.has_write());
        let e = table.find_by_name("e").unwrap();
        assert!(e.has_write());
        assert!(!e.has_read());
    }

    #[test]
    fn accesses_per_iteration_counts_all_occurrences() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        // a, b, c reads + d write + d read + e write = 6
        assert_eq!(table.accesses_per_iteration(), 6);
    }

    #[test]
    fn names_are_rendered_once_and_shared_per_array() {
        let kernel = crate::examples::stencil3(16);
        let table = kernel.reference_table();
        let rendered: Vec<&str> = table.iter().map(RefInfo::rendered).collect();
        assert_eq!(rendered, ["in[i]", "in[i + 1]", "in[i + 2]", "out[i]"]);
        let inputs = table.by_array(table.find_by_name("in").unwrap().array());
        assert_eq!(inputs.len(), 3);
        for pair in inputs.windows(2) {
            assert!(Arc::ptr_eq(
                pair[0].shared_names().0,
                pair[1].shared_names().0
            ));
        }
        let (array_name, name) = table.iter().last().unwrap().shared_names();
        assert_eq!((&**array_name, &**name), ("out", "out[i]"));
    }

    #[test]
    fn lookup_helpers_agree() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        for info in table.iter() {
            assert_eq!(table.get(info.id()).unwrap(), info);
            assert_eq!(
                table.find(info.array(), info.subscripts()).unwrap().id(),
                info.id()
            );
        }
        assert_eq!(table.ids().count(), table.len());
        assert!(!table.is_empty());
    }
}
