//! Register-requirement model for full scalar replacement of a single reference.
//!
//! The model follows the analytical framework the paper builds on (Callahan–Carr–
//! Kennedy reuse analysis and the So & Hall register-requirement computation, the
//! paper's references [4] and [11]).  For an affine reference inside a perfect nest we
//! compute, per loop level `ℓ`, the **footprint**: the number of distinct elements the
//! reference touches while the loops at depth `ℓ` and deeper run through their full
//! ranges and the outer loops stay fixed.  Loop `ℓ` *carries temporal reuse* when its
//! iterations overlap, i.e. when `footprint(ℓ) < trip(ℓ) × footprint(ℓ+1)` — this
//! covers both loop-invariant references (`c[j]` with respect to `i`) and sliding
//! windows (`x[i+j]` with respect to `i`).
//!
//! Exploiting the reuse carried at the outermost such loop requires keeping one
//! register per element of the *inner* footprint, which is exactly the working set that
//! must stay live across one iteration of that loop.

use srra_ir::{Loop, LoopId, LoopNest, RefInfo};

/// Returns the loops whose index does **not** appear in any subscript of the reference,
/// outermost first.
///
/// These loops carry *loop-invariant* temporal reuse: for every one of their iterations
/// the reference touches exactly the same set of elements.  In the paper's Figure 1
/// example, `b[k][j]` is invariant with respect to the `i` loop only, while `c[j]` is
/// invariant with respect to both `i` and `k`.
pub fn invariant_loops(reference: &RefInfo, nest: &LoopNest) -> Vec<LoopId> {
    nest.loop_ids()
        .filter(|l| {
            !reference
                .subscripts()
                .iter()
                .any(|subscript| subscript.uses_loop(*l))
        })
        .collect()
}

/// Number of distinct elements the reference touches while the loops at depth
/// `from_depth` and deeper run over their full ranges (outer loops fixed).
///
/// Computed as the product of the per-dimension subscript extents, which is exact for
/// the dense affine references of the evaluation kernels and a safe over-approximation
/// for strided references.
pub fn footprint(reference: &RefInfo, nest: &LoopNest, from_depth: usize) -> u64 {
    reference
        .subscripts()
        .iter()
        .map(|subscript| {
            // `hi - lo` of the subscript's range with the loops outside `from_depth`
            // fixed: each loop inside adds |coefficient| × (trip count − 1).
            let spread: i64 = subscript
                .terms()
                .filter(|(loop_id, _)| loop_id.index() >= from_depth)
                .map(|(loop_id, coeff)| {
                    let trip = nest.loop_at(loop_id).map_or(1, Loop::trip_count);
                    (coeff * trip.saturating_sub(1) as i64).abs()
                })
                .sum();
            (spread + 1) as u64
        })
        .fold(1u64, |acc, extent| acc.saturating_mul(extent))
}

/// Returns `true` when the loop at `depth` carries temporal reuse for the reference:
/// consecutive iterations of that loop re-touch at least one element.
pub fn carries_reuse(reference: &RefInfo, nest: &LoopNest, depth: usize) -> bool {
    let own = footprint(reference, nest, depth);
    let inner = footprint(reference, nest, depth + 1);
    own < nest.trip_count(LoopId::new(depth)).saturating_mul(inner)
}

/// Returns the outermost loop that carries temporal reuse for the reference, if any.
///
/// This is the loop level at which the paper's analysis captures the reuse: keeping the
/// working set of the reference in registers across iterations of this loop eliminates
/// all redundant memory accesses.  `None` means the reference touches a different
/// element on every innermost iteration and carries no temporal reuse at all
/// (`e[i][j][k]` in the paper's example).
pub fn reuse_loop(reference: &RefInfo, nest: &LoopNest) -> Option<LoopId> {
    (0..nest.depth())
        .find(|&depth| carries_reuse(reference, nest, depth))
        .map(LoopId::new)
}

/// Number of registers required to fully exploit the temporal reuse of a reference.
///
/// This is the footprint of the loops *inside* the outermost reuse-carrying loop: the
/// set of values that must stay live across one of its iterations.  References without
/// temporal reuse still need a single register to hold the value while it is consumed,
/// which is the "one register per reference" minimum that FR-RA starts from.
///
/// # Examples
///
/// ```
/// use srra_ir::examples::paper_example;
/// use srra_reuse::registers_for_full_replacement;
///
/// let kernel = paper_example();
/// let table = kernel.reference_table();
/// let c = table.find_by_name("c").unwrap();
/// assert_eq!(registers_for_full_replacement(c, kernel.nest()), 20);
/// ```
pub fn registers_for_full_replacement(reference: &RefInfo, nest: &LoopNest) -> u64 {
    registers_with_reuse_loop(reference, nest, reuse_loop(reference, nest))
}

/// [`registers_for_full_replacement`] given the reference's [`reuse_loop`].
pub(crate) fn registers_with_reuse_loop(
    reference: &RefInfo,
    nest: &LoopNest,
    reuse: Option<LoopId>,
) -> u64 {
    match reuse {
        None => 1,
        Some(reuse) => footprint(reference, nest, reuse.index() + 1).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::{paper_example, stencil3};
    use srra_ir::KernelBuilder;

    #[test]
    fn paper_example_invariant_loops() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        let nest = kernel.nest();
        let loops = |name: &str| invariant_loops(table.find_by_name(name).unwrap(), nest);
        assert_eq!(loops("a"), vec![LoopId::new(0), LoopId::new(1)]);
        assert_eq!(loops("b"), vec![LoopId::new(0)]);
        assert_eq!(loops("c"), vec![LoopId::new(0), LoopId::new(2)]);
        assert_eq!(loops("d"), vec![LoopId::new(1)]);
        assert_eq!(loops("e"), Vec::<LoopId>::new());
    }

    #[test]
    fn paper_example_register_requirements_match_the_text() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        let nest = kernel.nest();
        let regs =
            |name: &str| registers_for_full_replacement(table.find_by_name(name).unwrap(), nest);
        assert_eq!(regs("a"), 30);
        assert_eq!(regs("b"), 600);
        assert_eq!(regs("c"), 20);
        assert_eq!(regs("d"), 30);
        assert_eq!(regs("e"), 1);
    }

    #[test]
    fn reuse_loop_is_the_outermost_carrying_loop() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        let nest = kernel.nest();
        assert_eq!(
            reuse_loop(table.find_by_name("a").unwrap(), nest),
            Some(LoopId::new(0))
        );
        assert_eq!(
            reuse_loop(table.find_by_name("d").unwrap(), nest),
            Some(LoopId::new(1))
        );
        assert_eq!(reuse_loop(table.find_by_name("e").unwrap(), nest), None);
    }

    #[test]
    fn footprints_of_the_paper_example() {
        let kernel = paper_example();
        let table = kernel.reference_table();
        let nest = kernel.nest();
        let b = table.find_by_name("b").unwrap();
        assert_eq!(footprint(b, nest, 0), 600);
        assert_eq!(footprint(b, nest, 1), 600);
        assert_eq!(footprint(b, nest, 2), 30);
        assert_eq!(footprint(b, nest, 3), 1);
        let e = table.find_by_name("e").unwrap();
        assert_eq!(footprint(e, nest, 0), 1_200);
    }

    #[test]
    fn stencil_window_references_have_no_self_reuse() {
        let kernel = stencil3(32);
        let table = kernel.reference_table();
        let nest = kernel.nest();
        // Each reference of the 1-deep stencil touches a new element every iteration;
        // the reuse between the shifted references is group reuse, not self reuse.
        for info in table.iter() {
            assert_eq!(registers_for_full_replacement(info, nest), 1);
        }
    }

    #[test]
    fn sliding_window_reuse_is_carried_by_the_outer_loop() {
        // FIR-style access x[i + j] in an (i, j) nest: the window of Nj elements
        // shifts by one per i iteration, so i carries reuse and Nj registers suffice.
        let b = KernelBuilder::new("fir_like");
        let i = b.add_loop("i", 56);
        let j = b.add_loop("j", 8);
        let x = b.add_array("x", &[64], 16);
        let y = b.add_array("y", &[56], 16);
        let acc = b.add(b.read(y, &[b.idx(i)]), b.read(x, &[b.idx_sum(i, j)]));
        b.store(y, &[b.idx(i)], acc);
        let kernel = b.build().unwrap();
        let table = kernel.reference_table();
        let x_ref = table.find_by_name("x").unwrap();
        assert_eq!(reuse_loop(x_ref, kernel.nest()), Some(LoopId::new(0)));
        assert_eq!(registers_for_full_replacement(x_ref, kernel.nest()), 8);
        assert!(carries_reuse(x_ref, kernel.nest(), 0));
        assert!(!carries_reuse(x_ref, kernel.nest(), 1));
    }

    #[test]
    fn constant_subscript_reference_needs_one_register() {
        // s[0] inside a 2-deep nest is invariant with respect to both loops but touches
        // a single element, so one register suffices.
        let b = KernelBuilder::new("acc");
        let i = b.add_loop("i", 8);
        let j = b.add_loop("j", 8);
        let x = b.add_array("x", &[8, 8], 16);
        let s = b.add_array("s", &[1], 32);
        let sum = b.add(
            b.read(s, &[b.constant(0)]),
            b.read(x, &[b.idx(i), b.idx(j)]),
        );
        b.store(s, &[b.constant(0)], sum);
        let kernel = b.build().unwrap();
        let table = kernel.reference_table();
        let s_ref = table.find_by_name("s").unwrap();
        assert_eq!(registers_for_full_replacement(s_ref, kernel.nest()), 1);
        assert_eq!(reuse_loop(s_ref, kernel.nest()), Some(LoopId::new(0)));
    }

    #[test]
    fn deeper_loops_multiply_the_requirement() {
        // x[k] inside (i, j, k) with trips (2, 3, 5): requirement is 5.
        // y[j][k] with reuse only at i: requirement is 3 * 5.
        let b = KernelBuilder::new("deep");
        let _i = b.add_loop("i", 2);
        let j = b.add_loop("j", 3);
        let k = b.add_loop("k", 5);
        let x = b.add_array("x", &[5], 16);
        let y = b.add_array("y", &[3, 5], 16);
        let t = b.add_array("t", &[1], 16);
        let sum = b.add(b.read(x, &[b.idx(k)]), b.read(y, &[b.idx(j), b.idx(k)]));
        b.store(t, &[b.constant(0)], sum);
        let kernel = b.build().unwrap();
        let table = kernel.reference_table();
        assert_eq!(
            registers_for_full_replacement(table.find_by_name("x").unwrap(), kernel.nest()),
            5
        );
        assert_eq!(
            registers_for_full_replacement(table.find_by_name("y").unwrap(), kernel.nest()),
            15
        );
    }
}
