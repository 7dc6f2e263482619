use std::collections::HashSet;

use crate::error::IrError;
use crate::loop_nest::Kernel;

/// Validates the structural invariants of a [`Kernel`].
///
/// The checks performed are:
///
/// 1. the kernel name is non-empty,
/// 2. loop and array names are unique,
/// 3. every array has at least one dimension and no zero extents,
/// 4. every reference targets a declared array with the declared rank,
/// 5. every subscript only mentions loops that exist in the nest,
/// 6. every subscript stays within the declared array extents over the whole iteration
///    space (a conservative corner-point check, exact for affine subscripts).
///
/// [`Kernel::new`] calls this automatically; it is exposed so external constructions
/// (e.g. deserialised kernels) can be re-validated.
///
/// # Errors
///
/// Returns the first violated invariant as an [`IrError`].
pub fn validate_kernel(kernel: &Kernel) -> Result<(), IrError> {
    if kernel.name().is_empty() {
        return Err(IrError::EmptyName);
    }

    let mut loop_names = HashSet::new();
    for l in kernel.nest().loops() {
        if !loop_names.insert(l.name()) {
            return Err(IrError::DuplicateLoop {
                name: l.name().to_owned(),
            });
        }
    }

    let mut array_names = HashSet::new();
    for a in kernel.arrays() {
        if !array_names.insert(a.name()) {
            return Err(IrError::DuplicateArray {
                name: a.name().to_owned(),
            });
        }
        if a.rank() == 0 || a.dims().contains(&0) {
            return Err(IrError::InvalidArrayShape {
                array: a.name().to_owned(),
            });
        }
    }

    let depth = kernel.nest().depth();
    let trip_counts = kernel.nest().trip_counts();

    for stmt in kernel.nest().body() {
        for array_ref in stmt.array_refs() {
            let Some(decl) = kernel.array(array_ref.array()) else {
                return Err(IrError::UnknownArray {
                    array_id: array_ref.array().index(),
                });
            };
            if decl.rank() != array_ref.subscripts().len() {
                return Err(IrError::RankMismatch {
                    array: decl.name().to_owned(),
                    declared: decl.rank(),
                    used: array_ref.subscripts().len(),
                });
            }
            for (dim, subscript) in array_ref.subscripts().iter().enumerate() {
                for (loop_id, _) in subscript.terms() {
                    if loop_id.index() >= depth {
                        return Err(IrError::UnknownLoop {
                            loop_id: loop_id.index(),
                            depth,
                        });
                    }
                }
                let (lo, hi) = subscript.range(&trip_counts);
                let extent = decl.dims()[dim];
                if lo < 0 {
                    return Err(IrError::SubscriptOutOfBounds {
                        array: decl.name().to_owned(),
                        dimension: dim,
                        value: lo,
                        extent,
                    });
                }
                if hi as u64 >= extent {
                    return Err(IrError::SubscriptOutOfBounds {
                        array: decl.name().to_owned(),
                        dimension: dim,
                        value: hi,
                        extent,
                    });
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{AccessKind, ArrayDecl, ArrayId, ArrayRef};
    use crate::expr::Expr;
    use crate::loop_nest::{Loop, LoopId, LoopNest};
    use crate::stmt::{Statement, StoreTarget};
    use crate::AffineExpr;

    fn body_reading(array: usize, subscript: AffineExpr) -> Vec<Statement> {
        vec![Statement::new(
            StoreTarget::Scalar("t".into()),
            Expr::array(ArrayRef::new(
                ArrayId::new(array),
                vec![subscript],
                AccessKind::Read,
            )),
        )]
    }

    fn kernel_with(
        arrays: Vec<ArrayDecl>,
        loops: Vec<Loop>,
        body: Vec<Statement>,
    ) -> Result<Kernel, IrError> {
        let nest = LoopNest::new(loops, body)?;
        Kernel::new("k", arrays, nest)
    }

    #[test]
    fn accepts_well_formed_kernel() {
        let kernel = kernel_with(
            vec![ArrayDecl::new("a", vec![8], 16)],
            vec![Loop::new("i", 8)],
            body_reading(0, AffineExpr::index(LoopId::new(0))),
        );
        assert!(kernel.is_ok());
    }

    #[test]
    fn rejects_rank_mismatch() {
        let err = kernel_with(
            vec![ArrayDecl::new("a", vec![8, 8], 16)],
            vec![Loop::new("i", 8)],
            body_reading(0, AffineExpr::index(LoopId::new(0))),
        )
        .unwrap_err();
        assert!(matches!(err, IrError::RankMismatch { .. }));
    }

    #[test]
    fn rejects_unknown_loop_in_subscript() {
        let err = kernel_with(
            vec![ArrayDecl::new("a", vec![64], 16)],
            vec![Loop::new("i", 8)],
            body_reading(0, AffineExpr::index(LoopId::new(3))),
        )
        .unwrap_err();
        assert_eq!(
            err,
            IrError::UnknownLoop {
                loop_id: 3,
                depth: 1
            }
        );
    }

    #[test]
    fn rejects_out_of_bounds_subscript() {
        // i + 6 over 0..8 reaches 13, array extent is 8.
        let err = kernel_with(
            vec![ArrayDecl::new("a", vec![8], 16)],
            vec![Loop::new("i", 8)],
            body_reading(0, AffineExpr::index(LoopId::new(0)).with_constant(6)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            IrError::SubscriptOutOfBounds { value: 13, .. }
        ));
    }

    #[test]
    fn rejects_negative_subscript() {
        let err = kernel_with(
            vec![ArrayDecl::new("a", vec![8], 16)],
            vec![Loop::new("i", 8)],
            body_reading(0, AffineExpr::index(LoopId::new(0)).with_constant(-1)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            IrError::SubscriptOutOfBounds { value: -1, .. }
        ));
    }

    #[test]
    fn rejects_duplicate_names_and_bad_shapes() {
        let err = kernel_with(
            vec![
                ArrayDecl::new("a", vec![8], 16),
                ArrayDecl::new("a", vec![8], 16),
            ],
            vec![Loop::new("i", 8)],
            body_reading(0, AffineExpr::index(LoopId::new(0))),
        )
        .unwrap_err();
        assert_eq!(err, IrError::DuplicateArray { name: "a".into() });

        let err = kernel_with(
            vec![ArrayDecl::new("a", vec![], 16)],
            vec![Loop::new("i", 8)],
            body_reading(0, AffineExpr::constant(0)),
        )
        .unwrap_err();
        assert_eq!(err, IrError::InvalidArrayShape { array: "a".into() });

        let err = kernel_with(
            vec![ArrayDecl::new("a", vec![8], 16)],
            vec![Loop::new("i", 4), Loop::new("i", 4)],
            body_reading(0, AffineExpr::index(LoopId::new(0))),
        )
        .unwrap_err();
        assert_eq!(err, IrError::DuplicateLoop { name: "i".into() });
    }

    #[test]
    fn rejects_empty_name() {
        let nest = LoopNest::new(
            vec![Loop::new("i", 4)],
            body_reading(0, AffineExpr::index(LoopId::new(0))),
        )
        .unwrap();
        let err = Kernel::new("", vec![ArrayDecl::new("a", vec![4], 16)], nest).unwrap_err();
        assert_eq!(err, IrError::EmptyName);
    }
}
