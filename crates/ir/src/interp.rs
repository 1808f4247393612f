//! Sequential reference interpreter for flat guarded-assignment bodies.
//!
//! This is the reference semantics of the IR: the definition a faster
//! executor must agree with, not the executor the service runs. The
//! transform layer certifies rewrites by running the original and the
//! transformed body for `N` iterations from the same seeded initial
//! memory; it does so with slot-compiled code, and its property suite and
//! the benchmark's independent checker replay the same runs here, on
//! string-keyed map stores, as the oracle. Semantics match
//! [`crate::eval`] exactly — `u64` wrapping arithmetic, total division,
//! 1/0 comparisons — and initial memory comes from [`external_value`]
//! mixed with a per-run seed, so one loop can be executed on many
//! distinct reproducible inputs.
//!
//! The interpreter executes statements strictly in order within each
//! iteration and iterations strictly in order — i.e. the loop's *serial*
//! semantics, the thing every transform must preserve.

use crate::eval::{eval_expr, external_value, external_value_at, name_hash, EvalContext};
use crate::ifconv::GuardedAssign;
use crate::stmt::Target;
use std::collections::BTreeMap;

/// Initial-memory value for `(array, index)` under `seed`. Seed 0 is the
/// unmixed [`external_value`] (the value `kn-runtime` uses); other seeds
/// remix it so differential tests can sweep many reproducible inputs.
pub fn seeded_external_value(seed: u64, array: &str, index: i64) -> u64 {
    reseed(seed, external_value(array, index))
}

/// [`seeded_external_value`] of `array[lo..lo + out.len()]`, written to
/// `out`: how a compiled run prefills a window of memory.
pub fn seeded_external_values(seed: u64, array: &str, lo: i64, out: &mut [u64]) {
    let name = name_hash(array);
    for (k, w) in out.iter_mut().enumerate() {
        *w = reseed(seed, external_value_at(name, lo + k as i64));
    }
}

fn reseed(seed: u64, base: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut h = base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    h
}

/// Initial value of a scalar before the loop runs: its external value at
/// the sentinel index `-1` (array cells use their real indices, so the
/// sentinel cannot collide with any in-loop array read).
pub fn seeded_scalar_init(seed: u64, name: &str) -> u64 {
    seeded_external_value(seed, name, -1)
}

/// Final memory after interpreting a loop: exactly the cells and scalars
/// that were written. `BTreeMap` keeps comparison and rendering
/// deterministic.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Store {
    /// `(array, absolute index) -> value` for every array cell written.
    pub arrays: BTreeMap<(String, i64), u64>,
    /// `name -> value` for every scalar written.
    pub scalars: BTreeMap<String, u64>,
}

struct Machine<'a> {
    seed: u64,
    /// Current iteration index `I` (0-based).
    i: i64,
    store: &'a mut Store,
}

impl EvalContext for Machine<'_> {
    fn array(&mut self, array: &str, offset: i32) -> u64 {
        let idx = self.i + offset as i64;
        match self.store.arrays.get(&(array.to_string(), idx)) {
            Some(&v) => v,
            None => seeded_external_value(self.seed, array, idx),
        }
    }
    fn scalar(&mut self, name: &str) -> u64 {
        match self.store.scalars.get(name) {
            Some(&v) => v,
            None => seeded_scalar_init(self.seed, name),
        }
    }
}

/// Run `body` for `iters` iterations (`I = 0..iters`) from the seeded
/// initial memory and return everything it wrote.
pub fn interpret(body: &[GuardedAssign], iters: u32, seed: u64) -> Store {
    let mut store = Store::default();
    interpret_into(&mut store, body, iters, seed);
    store
}

/// Run `body` against an existing store (reads fall back to seeded external
/// memory only for cells the store has never seen). This is how a fissioned
/// program executes: each piece is a complete loop over the full iteration
/// space, run back-to-back against shared memory.
pub fn interpret_into(store: &mut Store, body: &[GuardedAssign], iters: u32, seed: u64) {
    for i in 0..iters as i64 {
        for ga in body {
            let mut m = Machine {
                seed,
                i,
                store: &mut *store,
            };
            let fire = ga.guards.iter().all(|g| {
                let v = m.scalar(&g.predicate) != 0;
                v == g.polarity
            });
            if !fire {
                continue;
            }
            let value = eval_expr(&ga.assign.rhs, &mut m);
            match &ga.assign.target {
                Target::Array { array, offset } => {
                    store
                        .arrays
                        .insert((array.clone(), i + *offset as i64), value);
                }
                Target::Scalar(name) => {
                    store.scalars.insert(name.clone(), value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use crate::ifconv::if_convert;
    use crate::stmt::{assign, assign_scalar, if_stmt, LoopBody};

    fn flat(body: &LoopBody) -> Vec<GuardedAssign> {
        if_convert(body)
    }

    #[test]
    fn doall_loop_writes_every_cell() {
        // A[I] = B[I] + 1
        let body = LoopBody::new(vec![assign("a", "A", 0, binop(BinOp::Add, arr("B"), c(1)))]);
        let s = interpret(&flat(&body), 4, 0);
        assert_eq!(s.arrays.len(), 4);
        for i in 0..4i64 {
            assert_eq!(
                s.arrays[&("A".to_string(), i)],
                external_value("B", i).wrapping_add(1)
            );
        }
        assert!(s.scalars.is_empty());
    }

    #[test]
    fn carried_recurrence_reads_previous_write() {
        // X[I] = X[I-1] + 1: X[0] reads external X[-1]; X[3] = X[-1] + 4.
        let body = LoopBody::new(vec![assign(
            "x",
            "X",
            0,
            binop(BinOp::Add, arr_at("X", -1), c(1)),
        )]);
        let s = interpret(&flat(&body), 4, 0);
        let x_init = external_value("X", -1);
        assert_eq!(s.arrays[&("X".to_string(), 3)], x_init.wrapping_add(4));
    }

    #[test]
    fn scalar_accumulator_threads_iterations() {
        // acc = acc + A[I], starting from the scalar's external init.
        let body = LoopBody::new(vec![assign_scalar(
            "s",
            "acc",
            binop(BinOp::Add, scalar("acc"), arr("A")),
        )]);
        let s = interpret(&flat(&body), 3, 0);
        let mut want = seeded_scalar_init(0, "acc");
        for i in 0..3 {
            want = want.wrapping_add(external_value("A", i));
        }
        assert_eq!(s.scalars["acc"], want);
    }

    #[test]
    fn guards_respect_polarity_and_predicate_value() {
        // if A[I] > B[I] { M[I] = A[I] } else { M[I] = B[I] } — after
        // if-conversion the predicate is a fresh scalar written in the same
        // iteration, so both polarities are exercised.
        let body = LoopBody::new(vec![if_stmt(
            binop(BinOp::Gt, arr("A"), arr("B")),
            vec![assign("t", "M", 0, arr("A"))],
            vec![assign("e", "M", 0, arr("B"))],
        )]);
        let s = interpret(&flat(&body), 8, 0);
        for i in 0..8i64 {
            let a = external_value("A", i);
            let b = external_value("B", i);
            assert_eq!(s.arrays[&("M".to_string(), i)], if a > b { a } else { b });
        }
    }

    #[test]
    fn seeds_change_inputs_but_not_structure() {
        let body = LoopBody::new(vec![assign("a", "A", 0, binop(BinOp::Mul, arr("B"), c(3)))]);
        let s0 = interpret(&flat(&body), 4, 0);
        let s1 = interpret(&flat(&body), 4, 1);
        assert_eq!(s0.arrays.len(), s1.arrays.len());
        assert_ne!(s0, s1, "different seeds must exercise different inputs");
        // Seed 0 equals the unmixed runtime semantics.
        assert_eq!(seeded_external_value(0, "Q", 5), external_value("Q", 5));
    }

    #[test]
    fn a_prefilled_window_matches_cell_by_cell_values() {
        for seed in [0, 1, 7] {
            let mut w = [0u64; 6];
            seeded_external_values(seed, "ZA", -2, &mut w);
            for (k, v) in w.iter().enumerate() {
                assert_eq!(*v, seeded_external_value(seed, "ZA", k as i64 - 2));
            }
        }
    }

    #[test]
    fn later_statement_in_same_iteration_sees_earlier_write() {
        // T[I] = A[I]; U[I] = T[I] * 2 — the T read must hit this
        // iteration's store, not external memory.
        let body = LoopBody::new(vec![
            assign("t", "T", 0, arr("A")),
            assign("u", "U", 0, binop(BinOp::Mul, arr("T"), c(2))),
        ]);
        let s = interpret(&flat(&body), 2, 0);
        for i in 0..2i64 {
            assert_eq!(
                s.arrays[&("U".to_string(), i)],
                external_value("A", i).wrapping_mul(2)
            );
        }
    }
}
