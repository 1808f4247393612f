#![forbid(unsafe_code)]
//! # kn-xform — loop transformations certified by differential execution
//!
//! The scheduler downstream of this crate (kn-sched) takes the loop it is
//! given and finds the best static schedule the dependences allow. This
//! crate changes what it is given:
//!
//! * [`fission`] — split a loop into maximal independently schedulable
//!   sub-loops along the condensation of its dependence graph;
//! * [`reduce`] — recognize serial accumulation chains over associative
//!   operators and rewrite them into privatize-and-reduce form, deleting
//!   the distance-1 recurrence that pins the MII;
//! * [`pipeline`] — the ordered pass pipeline with per-loop reporting
//!   ([`TransformReport`]) and stable `skipped(XSnn/XRnn)` codes;
//! * [`diff`] — the differential-equivalence harness: every applied
//!   transform is executed against the original on seeded inputs and must
//!   produce a bit-identical observable store before it is returned.
//!
//! Nothing here is trusted by construction: [`transform_loop`] refuses to
//! hand back a rewrite it could not prove. See the [`transforms`] module
//! for the full pass catalogue and legality rules.

pub mod diff;
pub mod fission;
pub mod pipeline;
pub mod reduce;
mod slots;

pub use diff::{check_equivalence, observable, run_transformed, EquivMismatch, EquivOptions};
pub use fission::{fission_pieces, FissionSkip};
pub use pipeline::{
    transform_flat, transform_loop, Epilogue, PassStatus, Piece, TransformError, TransformOptions,
    TransformOutput, TransformReport, Transformed,
};
pub use reduce::{canonicalize_compare_updates, recognize_reductions, ReduceOutcome, ReduceSkip};

/// The transform catalogue: passes, legality conditions, reassociation
/// policy, and how to add a pass.
#[doc = include_str!("../../../docs/transforms.md")]
pub mod transforms {}
