//! Property-based tests for the IR crate: affine-expression algebra and kernel
//! construction invariants.

use proptest::prelude::*;
use srra_ir::{
    AccessKind, AffineExpr, ArrayDecl, ArrayId, ArrayRef, BinOp, Expr, ExprHandle, Kernel,
    KernelBuilder, Loop, LoopId, LoopNest, Statement, StoreTarget, UnOp,
};

fn affine_strategy() -> impl Strategy<Value = AffineExpr> {
    (
        prop::collection::vec((-4i64..=4, 0usize..4), 0..4),
        -16i64..16,
    )
        .prop_map(|(terms, constant)| {
            let mut e = AffineExpr::constant(constant);
            for (coeff, loop_idx) in terms {
                let existing = e.coefficient(LoopId::new(loop_idx));
                e.set_term(LoopId::new(loop_idx), existing + coeff);
            }
            e
        })
}

fn point_strategy() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..32, 4)
}

proptest! {
    #[test]
    fn addition_is_commutative_and_matches_pointwise_evaluation(
        a in affine_strategy(),
        b in affine_strategy(),
        point in point_strategy(),
    ) {
        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.eval(&point), a.eval(&point) + b.eval(&point));
    }

    #[test]
    fn subtraction_inverts_addition(a in affine_strategy(), b in affine_strategy()) {
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        prop_assert_eq!(a.sub(&a), AffineExpr::zero());
    }

    #[test]
    fn scaling_matches_pointwise_evaluation(
        a in affine_strategy(),
        factor in -5i64..=5,
        point in point_strategy(),
    ) {
        prop_assert_eq!(a.scale(factor).eval(&point), factor * a.eval(&point));
    }

    #[test]
    fn range_bounds_every_evaluation(a in affine_strategy(), point in point_strategy()) {
        let trips: Vec<u64> = vec![32, 32, 32, 32];
        let (lo, hi) = a.range(&trips);
        let value = a.eval(&point);
        prop_assert!(value >= lo, "value {} below range lower bound {}", value, lo);
        prop_assert!(value <= hi, "value {} above range upper bound {}", value, hi);
    }

    #[test]
    fn canonical_representation_drops_zero_terms(a in affine_strategy()) {
        for loop_id in a.used_loops() {
            prop_assert_ne!(a.coefficient(loop_id), 0);
        }
        prop_assert_eq!(a.is_constant(), a.used_loops().is_empty());
    }

    #[test]
    fn generated_kernels_validate_and_render(
        trips in prop::collection::vec(1u64..16, 1..4),
        elem_bits in prop::sample::select(vec![1u32, 8, 16, 32]),
    ) {
        // Build a simple kernel: out[i0] = in[i0] + 1 inside the generated nest.
        let b = KernelBuilder::new("roundtrip");
        let mut loops = Vec::new();
        for (idx, trip) in trips.iter().enumerate() {
            loops.push(b.add_loop(format!("l{idx}"), *trip));
        }
        let extent = trips[0];
        let input = b.add_array("in", &[extent], elem_bits);
        let output = b.add_array("out", &[extent], elem_bits);
        let sum = b.add(b.read(input, &[b.idx(loops[0])]), b.int(1));
        b.store(output, &[b.idx(loops[0])], sum);
        let kernel = b.build().expect("valid kernel");

        // Re-validating an already validated kernel never fails, the pseudo-C rendering
        // mentions every array, and the structure survives a clone.
        srra_ir::validate_kernel(&kernel).expect("still valid");
        let rendered = kernel.to_string();
        prop_assert!(rendered.contains("in["));
        prop_assert!(rendered.contains("out["));
        prop_assert_eq!(kernel.clone(), kernel);
    }

    #[test]
    fn reference_table_is_stable_and_covers_all_occurrences(
        ni in 1u64..12,
        nj in 1u64..12,
    ) {
        let b = KernelBuilder::new("table");
        let i = b.add_loop("i", ni);
        let j = b.add_loop("j", nj);
        let x = b.add_array("x", &[ni, nj], 16);
        let y = b.add_array("y", &[ni], 16);
        let sum = b.add(b.read(x, &[b.idx(i), b.idx(j)]), b.read(y, &[b.idx(i)]));
        b.store(y, &[b.idx(i)], sum);
        let kernel = b.build().expect("valid kernel");
        let table = kernel.reference_table();
        prop_assert_eq!(table.len(), 2);
        let occurrence_total: usize = table.iter().map(|r| r.occurrences().len()).sum();
        prop_assert_eq!(occurrence_total, 3);
        prop_assert_eq!(kernel.reference_table(), table);
    }
}

/// The read patterns a generated builder program draws from; repeats of one
/// pattern fall into one reference group.
fn read_pattern(draw: u64, i: LoopId, j: LoopId) -> (usize, Vec<AffineExpr>) {
    match draw % 5 {
        0 => (0, vec![AffineExpr::index(i), AffineExpr::index(j)]),
        1 => (1, vec![AffineExpr::index(i).with_term(j, 1)]),
        2 => (1, vec![AffineExpr::index(j)]),
        3 => (2, vec![AffineExpr::constant(0)]),
        _ => (3, vec![AffineExpr::index(i), AffineExpr::index(j)]),
    }
}

proptest! {
    #[test]
    fn the_builder_builds_the_kernel_its_mirrored_trees_describe(
        steps in prop::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..48),
    ) {
        // Each step drives the builder and, beside it, a mirror of owned trees
        // indexed like the handles.  Operands are drawn among every handle
        // built so far, so a handle is often consumed twice: inside one tree
        // (step 6 always uses its operand twice) or by two statements
        // (step 7 stores a handle that stays available afterwards).
        let b = KernelBuilder::new("mirrored");
        let (i, j) = (b.add_loop("i", 4), b.add_loop("j", 6));
        let decls = vec![
            ArrayDecl::new("a", vec![4, 6], 16),
            ArrayDecl::new("x", vec![10], 16),
            ArrayDecl::new("s", vec![1], 32),
            ArrayDecl::new("out", vec![4, 6], 32),
        ];
        let ids: Vec<ArrayId> = decls
            .iter()
            .map(|decl| b.add_array(decl.name(), decl.dims(), decl.elem_bits()))
            .collect();
        let mut handles: Vec<ExprHandle> = Vec::new();
        let mut mirror: Vec<Expr> = Vec::new();
        let mut body: Vec<Statement> = Vec::new();
        let store = |b: &KernelBuilder, body: &mut Vec<Statement>, draw: u64, h, e: &Expr| {
            let (array, subscripts) = match draw % 3 {
                0 => (ids[3], vec![AffineExpr::index(i), AffineExpr::index(j)]),
                1 => (ids[2], vec![AffineExpr::constant(0)]),
                _ => {
                    let name = format!("t{}", draw % 4);
                    b.define(name.clone(), h);
                    body.push(Statement::new(StoreTarget::Scalar(name), e.clone()));
                    return;
                }
            };
            b.store(array, &subscripts, h);
            let written = ArrayRef::new(array, subscripts, AccessKind::Write);
            body.push(Statement::new(StoreTarget::Array(written), e.clone()));
        };
        for (step, x, y) in steps {
            let pick = |draw: u64| draw as usize % handles.len().max(1);
            let (handle, expr) = match step {
                4 if !handles.is_empty() => {
                    let op = [UnOp::Neg, UnOp::Not, UnOp::Abs][x as usize % 3];
                    let k = pick(y);
                    (b.unary(op, handles[k]), Expr::unary(op, mirror[k].clone()))
                }
                5 | 6 if !handles.is_empty() => {
                    let op = BinOp::all()[x as usize % BinOp::all().len()];
                    let (l, r) = (pick(y), if step == 6 { pick(y) } else { pick(y >> 32) });
                    (
                        b.binary(op, handles[l], handles[r]),
                        Expr::binary(op, mirror[l].clone(), mirror[r].clone()),
                    )
                }
                7 if !handles.is_empty() => {
                    let k = pick(y);
                    store(&b, &mut body, x, handles[k], &mirror[k]);
                    continue;
                }
                1 => {
                    let value = (x % 7) as i64 - 3;
                    (b.int(value), Expr::int(value))
                }
                2 => {
                    let name = format!("t{}", x % 4);
                    (b.scalar(name.clone()), Expr::scalar(name))
                }
                3 => {
                    let l = if x % 2 == 0 { i } else { j };
                    (b.loop_index(l), Expr::index(l))
                }
                _ => {
                    let (array, subscripts) = read_pattern(x, i, j);
                    let read = ArrayRef::new(ids[array], subscripts.clone(), AccessKind::Read);
                    (b.read(ids[array], &subscripts), Expr::array(read))
                }
            };
            handles.push(handle);
            mirror.push(expr);
        }
        let last = handles.len() - 1;
        store(&b, &mut body, 0, handles[last], &mirror[last]);

        let built = b.build().expect("generated kernels validate");
        let loops = vec![Loop::new("i", 4), Loop::new("j", 6)];
        let nest = LoopNest::new(loops, body).expect("the mirror has a body");
        let expected = Kernel::new("mirrored", decls, nest).expect("the mirror validates");
        prop_assert_eq!(built.reference_table(), expected.reference_table());
        prop_assert_eq!(built, expected);
    }
}
