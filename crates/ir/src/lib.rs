#![forbid(unsafe_code)]
//! # kn-ir — a small loop IR with dependence analysis and if-conversion
//!
//! The paper assumes its input is a data-dependence graph of a loop whose
//! conditionals have been if-converted (§1, citing Allen/Kennedy/Porterfield/
//! Warren 1983) and whose dependence distances come from standard analysis
//! (Padua 1979). This crate supplies that front end:
//!
//! * [`expr`] — scalar/array expressions over a single loop index `I` with
//!   constant offsets (`A[I-1]`, `x`, `2*B[I]+1`);
//! * [`stmt`] — assignments and structured `IF`s forming a loop body;
//! * [`ifconv`] — if-conversion: control dependence → data dependence via
//!   predicate scalars and guarded assignments;
//! * [`depend`] — flow/anti/output dependences with constant distances;
//! * [`lower`] — lowering a loop body to a `kn_ddg::Ddg`, statement text
//!   attached for code generation;
//! * [`interp`] — a sequential reference interpreter over flat guarded
//!   bodies: the reference semantics the transform layer's compiled
//!   differential-equivalence harness is tested against;
//! * [`text`] — a parse/render text format for loop bodies, so transform
//!   fixtures can live in `corpus/` next to their `.ddg` files.
//!
//! Distances greater than one are allowed; `kn_ddg::normalize_distances`
//! (loop unwinding) brings the result into the scheduler's normal form.

pub mod depend;
pub mod eval;
pub mod expr;
pub mod ifconv;
pub mod interp;
pub mod lower;
pub mod stmt;
pub mod text;

pub use depend::{analyze_dependences, AnalysisOptions, Dependence, DependenceKind};
pub use eval::{apply_op, eval_expr, external_value, EvalContext};
pub use expr::{arr, arr_at, binop, c, scalar, BinOp, Expr};
pub use ifconv::{if_convert, GuardedAssign};
pub use interp::{
    interpret, interpret_into, seeded_external_value, seeded_external_values, seeded_scalar_init,
    Store,
};
pub use lower::{lower_flat, lower_loop, LowerError};
pub use stmt::{assign, assign_scalar, if_stmt, Assign, LoopBody, Stmt, Target};
pub use text::{parse_loop, render_loop, IrParseError};
