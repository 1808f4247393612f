//! The compiled certifier against the reference interpreter.
//!
//! `check_equivalence` compiles both programs to slot-indexed code. The
//! oracle here is the comparison it replaced, built from the reference
//! semantics: `interpret` for the original, `run_transformed` for the
//! pieces and epilogues, `observable` for the projection, then the first
//! location (arrays by name and index, then scalars by name) whose values
//! differ, a location one side never wrote reading as its seeded value.
//! Both must give the same `Ok`/`Err` and the identical first
//! `EquivMismatch`, on the certified transform and on sabotaged copies of
//! it.

use kn_ir::stmt::Target;
use kn_ir::{
    if_convert, interpret, interpret_into, seeded_external_value, seeded_scalar_init, BinOp, Expr,
    GuardedAssign, Store,
};
use kn_workloads::{random_transformable_body, RandomXformConfig};
use kn_xform::{
    check_equivalence, observable, run_transformed, transform_flat, EquivMismatch, EquivOptions,
    TransformOptions, Transformed,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The reference certification: map-based stores, semantic comparison.
fn oracle(
    original: &[GuardedAssign],
    t: &Transformed,
    opts: &EquivOptions,
) -> Result<(), Box<EquivMismatch>> {
    for seed in 0..opts.seeds {
        let full = interpret(original, opts.iters, seed);
        // `run_transformed` panics on an epilogue element no piece wrote;
        // find that element first, as the compiled path reports it.
        let mut pieces = Store::default();
        for p in &t.pieces {
            interpret_into(&mut pieces, &p.body, opts.iters, seed);
        }
        for ep in &t.epilogues {
            let key = |i: i64| (ep.elements.clone(), i);
            if let Some(i) = (0..opts.iters as i64).find(|&i| !pieces.arrays.contains_key(&key(i)))
            {
                let at = |s: &Store| {
                    s.arrays
                        .get(&key(i))
                        .copied()
                        .unwrap_or_else(|| seeded_external_value(seed, &ep.elements, i))
                };
                return Err(Box::new(EquivMismatch {
                    seed,
                    location: format!("{}[{i}]", ep.elements),
                    original: at(&full),
                    transformed: at(&pieces),
                    unwritten: true,
                }));
            }
        }
        let a = observable(&full, t);
        let b = observable(&run_transformed(t, opts.iters, seed), t);
        if let Some(m) = first_diff(seed, &a, &b) {
            return Err(Box::new(m));
        }
    }
    Ok(())
}

fn first_diff(seed: u64, a: &Store, b: &Store) -> Option<EquivMismatch> {
    let mismatch = |location: String, original: u64, transformed: u64| EquivMismatch {
        seed,
        location,
        original,
        transformed,
        unwritten: false,
    };
    let arrays: BTreeSet<_> = a.arrays.keys().chain(b.arrays.keys()).collect();
    for k in arrays {
        let init = || seeded_external_value(seed, &k.0, k.1);
        let va = a.arrays.get(k).copied().unwrap_or_else(init);
        let vb = b.arrays.get(k).copied().unwrap_or_else(init);
        if va != vb {
            return Some(mismatch(format!("{}[{}]", k.0, k.1), va, vb));
        }
    }
    let scalars: BTreeSet<_> = a.scalars.keys().chain(b.scalars.keys()).collect();
    for k in scalars {
        let init = || seeded_scalar_init(seed, k);
        let va = a.scalars.get(k).copied().unwrap_or_else(init);
        let vb = b.scalars.get(k).copied().unwrap_or_else(init);
        if va != vb {
            return Some(mismatch(format!("scalar {k}"), va, vb));
        }
    }
    None
}

/// The `pick`-th (wrapping) statement over all pieces, as `(piece, stmt)`.
fn nth_stmt(t: &Transformed, pick: usize) -> Option<(usize, usize)> {
    let all: Vec<(usize, usize)> = t
        .pieces
        .iter()
        .enumerate()
        .flat_map(|(p, piece)| (0..piece.body.len()).map(move |s| (p, s)))
        .collect();
    (!all.is_empty()).then(|| all[pick % all.len()])
}

fn shift_first_array_ref(e: &mut Expr) -> bool {
    match e {
        Expr::ArrayRef { offset, .. } => {
            *offset += 1;
            true
        }
        Expr::Binary(_, l, r) => shift_first_array_ref(l) || shift_first_array_ref(r),
        _ => false,
    }
}

/// The certified transform and sabotaged copies of it: an epilogue's
/// operator flipped, one piece statement dropped, the pieces reversed,
/// one array offset shifted by one.
fn variants(t: &Transformed, pick: usize) -> Vec<(&'static str, Transformed)> {
    let mut out = vec![("certified", t.clone())];
    if !t.epilogues.is_empty() {
        let mut v = t.clone();
        let ep = &mut v.epilogues[pick % t.epilogues.len()];
        ep.op = match ep.op {
            BinOp::Add => BinOp::Mul,
            BinOp::Mul => BinOp::Add,
            BinOp::Min => BinOp::Max,
            _ => BinOp::Min,
        };
        out.push(("epilogue op flipped", v));
    }
    if let Some((p, s)) = nth_stmt(t, pick) {
        let mut v = t.clone();
        v.pieces[p].body.remove(s);
        out.push(("statement dropped", v));

        let mut v = t.clone();
        let assign = &mut v.pieces[p].body[s].assign;
        if let Target::Array { offset, .. } = &mut assign.target {
            *offset -= 1;
        } else {
            shift_first_array_ref(&mut assign.rhs);
        }
        out.push(("offset shifted", v));
    }
    let mut v = t.clone();
    v.pieces.reverse();
    out.push(("pieces reversed", v));
    out
}

/// The body corpus: guarded compares canonicalized away (`reduction/max`
/// removes a predicate scalar), reads at positive and negative offsets
/// (`livermore23`), and every skip code.
#[test]
fn compiled_certifier_matches_the_reference_on_the_body_corpus() {
    for name in [
        "figure7",
        "livermore5",
        "livermore23",
        "fissionable/twophase",
        "fissionable/islands",
        "fissionable/storage",
        "reduction/sum",
        "reduction/max",
        "reduction/scan",
        "reduction/nonassoc",
    ] {
        let flat = if_convert(&kn_workloads::body_by_name(name).expect("corpus body"));
        for opts in [
            TransformOptions::all(),
            TransformOptions {
                fission: true,
                reduce: false,
            },
            TransformOptions {
                fission: false,
                reduce: true,
            },
        ] {
            let out = transform_flat(name, &flat, &opts).expect("certified transform");
            for pick in 0..3 {
                for (what, t) in variants(&out.transformed, pick) {
                    let eq = EquivOptions::default();
                    let got = check_equivalence(&flat, &t, &eq);
                    assert_eq!(got, oracle(&flat, &t, &eq), "{name} {opts:?}: {what}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Same verdict and the identical first counterexample as the
    /// reference, on every transform mode, on certified and sabotaged
    /// programs, including the 0-iteration and short runs.
    #[test]
    fn compiled_certifier_matches_the_reference(
        seed in 0u64..1_000_000,
        stmts in 1usize..=5,
        reductions in 0usize..=2,
        mode in 0usize..3,
        pick in 0usize..64,
        iters in 0u32..=48,
    ) {
        let body = random_transformable_body(seed, &RandomXformConfig { stmts, reductions });
        let flat = if_convert(&body);
        let opts = match mode {
            0 => TransformOptions::all(),
            1 => TransformOptions { fission: true, reduce: false },
            _ => TransformOptions { fission: false, reduce: true },
        };
        let out = transform_flat("prop", &flat, &opts).expect("certified transform");
        let eq = EquivOptions { iters, seeds: 8 };
        for (what, t) in variants(&out.transformed, pick) {
            let got = check_equivalence(&flat, &t, &eq);
            let want = oracle(&flat, &t, &eq);
            prop_assert_eq!(got, want, "{} (mode {})", what, mode);
        }
    }
}
