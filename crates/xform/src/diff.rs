//! Differential-equivalence harness.
//!
//! A transform is *proved*, not trusted: run the original loop and the
//! transformed program (pieces back-to-back against shared memory, then
//! the reduction epilogues) on the same seeded inputs, project both final
//! stores down to what the surrounding program can observe, and demand
//! bit-identical results. The projection drops only storage the transform
//! itself introduced (`*__red` element arrays) or eliminated
//! (canonicalized-away predicate scalars) — every original array cell and
//! scalar must survive untouched.
//!
//! [`check_equivalence`] runs both programs compiled to slot-indexed code
//! over flat memory. [`run_transformed`] and [`observable`], over
//! [`kn_ir::interpret`]'s map-based stores, are the reference semantics it
//! is pinned against (`tests/prop_certify.rs`); certification never calls
//! them.
//!
//! Equality is exact (`u64`): the recognized operators (wrapping add/mul,
//! min, max) are genuinely associative and commutative on `u64`, so
//! reassociation introduces no drift. A floating-point instantiation of
//! this IR would need a tolerance policy instead — see
//! `docs/transforms.md`.

use crate::pipeline::Transformed;
use crate::slots::Compiled;
use kn_ir::{apply_op, interpret_into, seeded_scalar_init, GuardedAssign, Store};
use std::collections::BTreeSet;

/// Harness strength. Defaults (8 seeds × 48 iterations) are what
/// [`crate::pipeline::transform_flat`] certifies every transform with;
/// property tests crank `seeds` higher.
#[derive(Clone, Copy, Debug)]
pub struct EquivOptions {
    /// Iterations to run each program for.
    pub iters: u32,
    /// Number of distinct seeded input memories (seeds `0..seeds`; seed 0
    /// is the unmixed runtime memory).
    pub seeds: u64,
}

impl Default for EquivOptions {
    fn default() -> Self {
        Self {
            iters: 48,
            seeds: 8,
        }
    }
}

/// A concrete counterexample: the first observable location on which the
/// two programs disagree under some seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivMismatch {
    pub seed: u64,
    /// `"A[3]"` or `"scalar acc"`.
    pub location: String,
    pub original: u64,
    pub transformed: u64,
    /// `location` is a reduction element (`acc__red[3]`) that no piece
    /// wrote, so its epilogue had nothing to fold. The values are what
    /// each program's memory holds there.
    pub unwritten: bool,
}

impl std::fmt::Display for EquivMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.unwritten {
            return write!(
                f,
                "seed {}: {} is never written before its epilogue folds it",
                self.seed, self.location
            );
        }
        write!(
            f,
            "seed {}: {} is {} in the original but {} after transform",
            self.seed, self.location, self.original, self.transformed
        )
    }
}

/// Execute the transformed program: each piece as a complete sequential
/// loop over the full iteration space, in manifest order, against shared
/// memory; then each epilogue folds its element array back into the
/// accumulator scalar (seeded initial value first, elements in index
/// order). Reference semantics: panics if a piece left an element
/// unwritten, which [`check_equivalence`] reports as a mismatch instead.
pub fn run_transformed(t: &Transformed, iters: u32, seed: u64) -> Store {
    let mut store = Store::default();
    for piece in &t.pieces {
        interpret_into(&mut store, &piece.body, iters, seed);
    }
    for ep in &t.epilogues {
        let mut acc = seeded_scalar_init(seed, &ep.scalar);
        for i in 0..iters as i64 {
            let v = store
                .arrays
                .get(&(ep.elements.clone(), i))
                .copied()
                .expect("rewritten reduction writes every element unconditionally");
            acc = apply_op(ep.op, acc, v);
        }
        store.scalars.insert(ep.scalar.clone(), acc);
    }
    store
}

/// Project a final store down to the observable part: drop arrays the
/// transform introduced and scalars it eliminated.
pub fn observable(store: &Store, t: &Transformed) -> Store {
    let introduced: BTreeSet<&str> = t.introduced_arrays.iter().map(String::as_str).collect();
    let removed: BTreeSet<&str> = t.removed_scalars.iter().map(String::as_str).collect();
    Store {
        arrays: store
            .arrays
            .iter()
            .filter(|((a, _), _)| !introduced.contains(a.as_str()))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        scalars: store
            .scalars
            .iter()
            .filter(|(s, _)| !removed.contains(s.as_str()))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
    }
}

/// Run original vs transformed on every seed and demand identical
/// observable memory. Returns the first counterexample found.
///
/// Comparison is *semantic*, not write-set-based: a location one program
/// wrote and the other did not reads back as its seeded initial value in
/// the non-writer, and only an actual value difference is a mismatch.
/// (Canonicalization legitimately turns the conditional `(p) m = e` into
/// an unconditional `m = max(m, e)` — same memory state, different
/// write-set.) Locations are compared arrays first (by name, then
/// index), then scalars by name, so the first counterexample is the one
/// [`interpret`](kn_ir::interpret), [`run_transformed`] and
/// [`observable`] would find. Both programs are compiled once to
/// slot-indexed code (the crate's `slots` module) and then run on every
/// seed. An epilogue element no piece wrote is a counterexample too
/// ([`EquivMismatch::unwritten`]), where [`run_transformed`] panics.
pub fn check_equivalence(
    original: &[GuardedAssign],
    t: &Transformed,
    opts: &EquivOptions,
) -> Result<(), Box<EquivMismatch>> {
    Compiled::new(original, t, opts.iters).check(opts.seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{transform_loop, Epilogue, Piece, TransformError, TransformOptions};
    use kn_ir::{
        arr, arr_at, assign, assign_scalar, binop, c, if_convert, if_stmt, lower_flat, scalar,
        BinOp, LoopBody,
    };

    #[test]
    fn fissioned_loop_matches_serial_on_many_seeds() {
        let body = LoopBody::new(vec![
            assign("a", "A", 0, binop(BinOp::Add, arr("C"), c(1))),
            assign("b", "B", 0, arr_at("A", -1)),
            assign("q", "Q", 0, binop(BinOp::Mul, arr_at("Q", -1), c(5))),
        ]);
        let out = transform_loop(
            "f",
            &body,
            &TransformOptions {
                fission: true,
                reduce: false,
            },
        )
        .unwrap();
        assert!(out.report.fission.applied());
        // transform_loop already certified 8 seeds; push to 64 here.
        let flat = if_convert(&body);
        check_equivalence(
            &flat,
            &out.transformed,
            &EquivOptions {
                iters: 48,
                seeds: 64,
            },
        )
        .unwrap();
    }

    #[test]
    fn reduction_fold_matches_serial_accumulation_exactly() {
        let body = LoopBody::new(vec![assign_scalar(
            "acc",
            "acc",
            binop(BinOp::Mul, scalar("acc"), arr("A")),
        )]);
        let out = transform_loop("r", &body, &TransformOptions::all()).unwrap();
        let flat = if_convert(&body);
        check_equivalence(
            &flat,
            &out.transformed,
            &EquivOptions {
                iters: 48,
                seeds: 64,
            },
        )
        .unwrap();
    }

    #[test]
    fn canonicalized_max_matches_the_guarded_original() {
        // The guarded-compare idiom: the transformed program has no p0
        // scalar at all, yet every other observable must agree.
        let body = LoopBody::new(vec![if_stmt(
            binop(BinOp::Gt, arr("D"), scalar("m")),
            vec![assign_scalar("m", "m", arr("D"))],
            vec![],
        )]);
        let out = transform_loop("mx", &body, &TransformOptions::all()).unwrap();
        assert_eq!(out.transformed.removed_scalars, vec!["p0".to_string()]);
        let flat = if_convert(&body);
        check_equivalence(
            &flat,
            &out.transformed,
            &EquivOptions {
                iters: 48,
                seeds: 64,
            },
        )
        .unwrap();
    }

    #[test]
    fn projection_hides_introduced_and_removed_storage() {
        let body = LoopBody::new(vec![assign_scalar(
            "acc",
            "acc",
            binop(BinOp::Add, scalar("acc"), arr("A")),
        )]);
        let out = transform_loop("p", &body, &TransformOptions::all()).unwrap();
        let raw = run_transformed(&out.transformed, 8, 0);
        assert!(
            raw.arrays.keys().any(|(a, _)| a == "acc__red"),
            "private elements exist in the raw store"
        );
        let obs = observable(&raw, &out.transformed);
        assert!(
            obs.arrays.keys().all(|(a, _)| a != "acc__red"),
            "but not in the observable store"
        );
        assert!(obs.scalars.contains_key("acc"));
    }

    #[test]
    fn a_broken_transform_is_caught() {
        // Sabotage: claim the reduction is an add when the loop multiplies.
        let body = LoopBody::new(vec![assign_scalar(
            "acc",
            "acc",
            binop(BinOp::Mul, scalar("acc"), arr("A")),
        )]);
        let out = transform_loop("sab", &body, &TransformOptions::all()).unwrap();
        let mut broken = out.transformed.clone();
        broken.epilogues[0].op = BinOp::Add;
        let flat = if_convert(&body);
        let err = check_equivalence(&flat, &broken, &EquivOptions::default()).unwrap_err();
        assert_eq!(err.location, "scalar acc");
    }

    #[test]
    fn an_unwritten_reduction_element_fails_certification_instead_of_panicking() {
        // A hand-built rewrite of `acc = acc + A[I]` whose element write is
        // guarded: the iterations where the guard is false leave their
        // element unwritten, so the epilogue has nothing to fold there.
        let original = if_convert(&LoopBody::new(vec![assign_scalar(
            "acc",
            "acc",
            binop(BinOp::Add, scalar("acc"), arr("A")),
        )]));
        let body = if_convert(&LoopBody::new(vec![if_stmt(
            binop(BinOp::Gt, arr("A"), arr("B")),
            vec![assign("e", "acc__red", 0, arr("A"))],
            vec![],
        )]));
        let t = Transformed {
            pieces: vec![Piece {
                name: "guarded".into(),
                indices: (0..body.len()).collect(),
                graph: lower_flat(&body, &Default::default()).unwrap(),
                body,
                mii: 0.0,
            }],
            epilogues: vec![Epilogue {
                scalar: "acc".into(),
                op: BinOp::Add,
                elements: "acc__red".into(),
            }],
            introduced_arrays: vec!["acc__red".into()],
            removed_scalars: vec!["p0".into()],
        };
        let err = check_equivalence(&original, &t, &EquivOptions::default()).unwrap_err();
        assert!(err.unwritten, "{err:?}");
        assert_eq!(err.seed, 0);
        let i: i64 = err.location["acc__red[".len()..err.location.len() - 1]
            .parse()
            .unwrap();
        assert!(
            kn_ir::external_value("A", i) <= kn_ir::external_value("B", i),
            "the first unwritten element is one whose guard is false"
        );
        let msg = TransformError::Equivalence(err).to_string();
        assert!(msg.contains("never written"), "{msg}");
    }

    #[test]
    fn mismatch_renders_location_and_seed() {
        let m = EquivMismatch {
            seed: 3,
            location: "A[5]".into(),
            original: 1,
            transformed: 2,
            unwritten: false,
        };
        let s = m.to_string();
        assert!(s.contains("seed 3") && s.contains("A[5]"), "{s}");
    }
}
