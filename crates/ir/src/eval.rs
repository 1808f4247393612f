//! Expression evaluation over `u64` wrapping arithmetic.
//!
//! Used to derive *real* runtime semantics for a lowered loop (see
//! `kn-runtime`'s `from_ir` module): the parallel schedule then computes
//! actual numbers, not just hashes, and is checked against sequential
//! execution value for value.
//!
//! Semantics: all values are `u64`; `+`, `-`, `*` wrap; `/` by zero yields
//! 0 (documented total division); comparisons yield 1/0.

use crate::expr::{BinOp, Expr};

/// Resolves the leaf reads of an expression during evaluation.
pub trait EvalContext {
    /// Value of `array[I + offset]` for the current iteration.
    fn array(&mut self, array: &str, offset: i32) -> u64;
    /// Value of a scalar variable.
    fn scalar(&mut self, name: &str) -> u64;
}

/// Evaluate `e` under `ctx`.
pub fn eval_expr(e: &Expr, ctx: &mut impl EvalContext) -> u64 {
    match e {
        Expr::Const(v) => *v as u64,
        Expr::Scalar(s) => ctx.scalar(s),
        Expr::ArrayRef { array, offset } => ctx.array(array, *offset),
        Expr::Binary(op, l, r) => {
            let a = eval_expr(l, ctx);
            let b = eval_expr(r, ctx);
            apply_op(*op, a, b)
        }
    }
}

/// Apply one binary operator to already-evaluated operands. Public so the
/// reduction epilogue (folding privatized elements back into the
/// accumulator) uses *exactly* the interpreter's arithmetic.
pub fn apply_op(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Lt => u64::from(a < b),
        BinOp::Gt => u64::from(a > b),
        BinOp::Eq => u64::from(a == b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    }
}

/// The default value of an array element never written inside the loop
/// (the "initial memory contents"): a per-(array, index) hash, so distinct
/// external inputs are distinguishable and reproducible in every engine.
pub fn external_value(array: &str, index: i64) -> u64 {
    external_value_at(name_hash(array), index)
}

/// The array-name half of [`external_value`], so a run of cells of one
/// array hashes its name once.
pub(crate) fn name_hash(array: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in array.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// [`external_value`] of the array whose [`name_hash`] is `name`.
pub(crate) fn external_value_at(name: u64, index: i64) -> u64 {
    let h = (name ^ index as u64).wrapping_mul(0x100_0000_01b3);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use std::collections::HashMap;

    struct Map {
        arrays: HashMap<(String, i32), u64>,
        scalars: HashMap<String, u64>,
    }

    impl EvalContext for Map {
        fn array(&mut self, array: &str, offset: i32) -> u64 {
            self.arrays[&(array.to_string(), offset)]
        }
        fn scalar(&mut self, name: &str) -> u64 {
            self.scalars[name]
        }
    }

    fn ctx() -> Map {
        let mut arrays = HashMap::new();
        arrays.insert(("A".to_string(), -1), 6u64);
        arrays.insert(("B".to_string(), 0), 7u64);
        let mut scalars = HashMap::new();
        scalars.insert("k".to_string(), 3u64);
        Map { arrays, scalars }
    }

    #[test]
    fn arithmetic() {
        let e = binop(
            BinOp::Add,
            binop(BinOp::Mul, arr_at("A", -1), scalar("k")),
            arr("B"),
        );
        assert_eq!(eval_expr(&e, &mut ctx()), 6 * 3 + 7);
    }

    #[test]
    fn comparisons_are_boolean() {
        assert_eq!(eval_expr(&binop(BinOp::Lt, c(1), c(2)), &mut ctx()), 1);
        assert_eq!(eval_expr(&binop(BinOp::Gt, c(1), c(2)), &mut ctx()), 0);
        assert_eq!(eval_expr(&binop(BinOp::Eq, c(2), c(2)), &mut ctx()), 1);
    }

    #[test]
    fn division_is_total() {
        assert_eq!(eval_expr(&binop(BinOp::Div, c(10), c(0)), &mut ctx()), 0);
        assert_eq!(eval_expr(&binop(BinOp::Div, c(10), c(3)), &mut ctx()), 3);
    }

    #[test]
    fn wrapping_behaviour() {
        let e = binop(BinOp::Mul, c(i64::MAX), c(16));
        let _ = eval_expr(&e, &mut ctx()); // must not panic
    }

    #[test]
    fn external_values_are_stable_and_distinct() {
        assert_eq!(external_value("A", 3), external_value("A", 3));
        assert_ne!(external_value("A", 3), external_value("A", 4));
        assert_ne!(external_value("A", 3), external_value("B", 3));
    }

    // ---- per-kind coverage: every Expr and BinOp variant ----------------

    #[test]
    fn const_negative_wraps_to_u64() {
        assert_eq!(eval_expr(&c(-1), &mut ctx()), u64::MAX);
        assert_eq!(eval_expr(&c(0), &mut ctx()), 0);
    }

    #[test]
    fn scalar_and_array_leaves_hit_the_context() {
        assert_eq!(eval_expr(&scalar("k"), &mut ctx()), 3);
        assert_eq!(eval_expr(&arr_at("A", -1), &mut ctx()), 6);
        assert_eq!(eval_expr(&arr("B"), &mut ctx()), 7);
    }

    #[test]
    fn subtraction_wraps_below_zero() {
        assert_eq!(eval_expr(&binop(BinOp::Sub, c(3), c(5)), &mut ctx()), {
            3u64.wrapping_sub(5)
        });
    }

    #[test]
    fn add_wraps_at_u64_max() {
        assert_eq!(
            eval_expr(&binop(BinOp::Add, c(-1), c(1)), &mut ctx()),
            0,
            "u64::MAX + 1 wraps to 0"
        );
    }

    #[test]
    fn min_max_semantics() {
        assert_eq!(eval_expr(&binop(BinOp::Min, c(9), c(4)), &mut ctx()), 4);
        assert_eq!(eval_expr(&binop(BinOp::Max, c(9), c(4)), &mut ctx()), 9);
        // Idempotent on equal operands.
        assert_eq!(eval_expr(&binop(BinOp::Min, c(4), c(4)), &mut ctx()), 4);
        assert_eq!(eval_expr(&binop(BinOp::Max, c(4), c(4)), &mut ctx()), 4);
    }

    #[test]
    fn min_max_add_mul_are_associative_commutative_on_samples() {
        // Spot-check the algebraic claim `is_associative_commutative` makes,
        // on values chosen to straddle wrap-around.
        let vals = [0u64, 1, 7, u64::MAX - 1, u64::MAX];
        let apply =
            |op: BinOp, a: u64, b: u64| eval_expr(&binop(op, c(a as i64), c(b as i64)), &mut ctx());
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max] {
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(apply(op, a, b), apply(op, b, a), "{op:?} commutes");
                    for &d in &vals {
                        let l = apply(op, apply(op, a, b), d);
                        let r = apply(op, a, apply(op, b, d));
                        assert_eq!(l, r, "{op:?} associates");
                    }
                }
            }
        }
    }

    /// Oracle for the SNIPPETS scan loop `a[i] = val; val = val * f`:
    /// after three iterations the stores must be `v0*f, v0*f^2, v0*f^3`
    /// computed by hand with wrapping arithmetic.
    #[test]
    fn snippets_val_times_f_oracle() {
        struct Scan {
            val: u64,
            f: u64,
        }
        impl EvalContext for Scan {
            fn array(&mut self, _: &str, _: i32) -> u64 {
                unreachable!("scan loop reads no arrays")
            }
            fn scalar(&mut self, name: &str) -> u64 {
                match name {
                    "val" => self.val,
                    "f" => self.f,
                    _ => unreachable!(),
                }
            }
        }
        let v0 = external_value("val", -1);
        let f = external_value("f", -1);
        let mut ctx = Scan { val: v0, f };
        let update = binop(BinOp::Mul, scalar("val"), scalar("f"));
        let mut stores = Vec::new();
        for _ in 0..3 {
            ctx.val = eval_expr(&update, &mut ctx);
            stores.push(ctx.val);
        }
        let hand = [
            v0.wrapping_mul(f),
            v0.wrapping_mul(f).wrapping_mul(f),
            v0.wrapping_mul(f).wrapping_mul(f).wrapping_mul(f),
        ];
        assert_eq!(stores, hand);
    }
}
