//! Loop-nest and affine array-reference intermediate representation.
//!
//! This crate is the front end of the `srra` workspace, a reproduction of
//! *"A Register Allocation Algorithm in the Presence of Scalar Replacement for
//! Fine-Grain Configurable Architectures"* (Baradaran & Diniz, DATE 2005).
//!
//! The paper analyses computations expressed as **perfectly nested loops** whose
//! array references use **affine subscript functions** of the enclosing loop index
//! variables.  This crate models exactly that class of programs:
//!
//! * [`Loop`] / [`LoopNest`] — a perfect nest of counted loops,
//! * [`AffineExpr`] — an affine function of loop indices,
//! * [`ArrayDecl`] / [`ArrayRef`] — array variables and their subscripted references,
//! * [`Expr`] / [`Statement`] — the loop body, one expression tree per statement,
//! * [`Kernel`] — a named, validated loop nest with its array declarations,
//! * [`KernelBuilder`] — an ergonomic builder used by `srra-kernels` and by user code;
//!   its expression handles may be shared, so they form a DAG that `build()` copies
//!   into the statements' trees.
//!
//! # Example
//!
//! Build the running example of the paper (Figure 1):
//!
//! ```
//! use srra_ir::examples::paper_example;
//!
//! let kernel = paper_example();
//! assert_eq!(kernel.nest().depth(), 3);
//! assert_eq!(kernel.arrays().len(), 5);
//! // d[i][k] = a[k] * b[k][j];  e[i][j][k] = c[j] * d[i][k];
//! assert_eq!(kernel.nest().body().len(), 2);
//! ```
//!
//! Or build a kernel from scratch:
//!
//! ```
//! use srra_ir::{KernelBuilder, BinOp};
//!
//! # fn main() -> Result<(), srra_ir::IrError> {
//! let b = KernelBuilder::new("dot");
//! let i = b.add_loop("i", 128);
//! let x = b.add_array("x", &[128], 16);
//! let y = b.add_array("y", &[128], 16);
//! let s = b.add_array("s", &[1], 32);
//! let prod = b.mul(b.read(x, &[b.idx(i)]), b.read(y, &[b.idx(i)]));
//! let acc = b.binary(BinOp::Add, b.read(s, &[b.constant(0)]), prod);
//! b.store(s, &[b.constant(0)], acc);
//! let kernel = b.build()?;
//! assert_eq!(kernel.reference_table().len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affine;
mod array;
mod builder;
mod display;
mod error;
pub mod examples;
mod expr;
mod loop_nest;
mod reference;
mod stmt;
mod validate;

pub use affine::AffineExpr;
pub use array::{AccessKind, ArrayDecl, ArrayId, ArrayRef};
pub use builder::{ExprHandle, KernelBuilder};
pub use error::IrError;
pub use expr::{BinOp, Expr, UnOp};
pub use loop_nest::{Kernel, Loop, LoopId, LoopNest};
pub use reference::{RefId, RefInfo, ReferenceTable};
pub use stmt::{Statement, StoreTarget};
pub use validate::validate_kernel;
