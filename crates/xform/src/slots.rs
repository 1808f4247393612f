//! Slot-compiled execution for the differential harness.
//!
//! [`check_equivalence`](crate::check_equivalence) runs the same two
//! programs — the original flat body, and the transformed pieces plus
//! their epilogues — on every seed. This module compiles both once into
//! straight-line code over one flat `u64` memory, so a seed costs a
//! prefill, two runs and a slice comparison instead of string-keyed map
//! traffic. The reference semantics stay in [`kn_ir::interp`] and
//! [`crate::run_transformed`]; the property suite pins this module
//! against them.
//!
//! Memory layout: one slot per scalar, in name order, then for each array
//! (in name order) the runs of indices its accesses can touch. An access
//! at offset `c` over `iters` iterations touches `[c, iters-1+c]`;
//! overlapping or adjacent intervals of one array merge into one run, so
//! memory is bounded by accesses × iterations whatever the offsets are.
//! Walking the observable slots in layout order visits locations in the
//! order the reference comparison does: arrays by name then index, then
//! scalars by name.

use crate::diff::EquivMismatch;
use crate::pipeline::Transformed;
use kn_ir::{
    apply_op, seeded_external_values, seeded_scalar_init, BinOp, Expr, GuardedAssign, Target,
};
use std::collections::{BTreeMap, BTreeSet};

/// A memory word read or written by a statement: `mem[at]` for a scalar,
/// `mem[at + i]` in iteration `i` for an array cell.
#[derive(Clone, Copy)]
struct Cell {
    at: usize,
    per_iter: bool,
}

impl Cell {
    fn index(self, i: usize) -> usize {
        if self.per_iter {
            self.at + i
        } else {
            self.at
        }
    }
}

/// One postfix instruction of a compiled right-hand side.
enum Op {
    Const(u64),
    Load(Cell),
    Apply(BinOp),
}

struct Stmt {
    /// `(predicate slot, required polarity)`; all must hold to fire.
    guards: Vec<(usize, bool)>,
    /// The right-hand side in postfix order.
    code: Vec<Op>,
    target: Cell,
}

/// An epilogue: `scalar = fold(op, seeded scalar, elements[0..iters])`.
struct Fold {
    scalar: usize,
    op: BinOp,
    elements: Cell,
    /// The element array's name, to report an unwritten element.
    name: String,
}

/// A maximal run of indices `lo..lo+len` of one array, at `mem[base..]`.
struct Run {
    lo: i64,
    len: usize,
    base: usize,
}

struct ArrayMem {
    name: String,
    runs: Vec<Run>,
    /// Compared after each seed (not introduced by the transform).
    observed: bool,
}

/// Both programs of one certification, compiled against one layout.
pub(crate) struct Compiled {
    iters: usize,
    /// Scalar names by slot, and whether each is compared.
    scalars: Vec<(String, bool)>,
    arrays: Vec<ArrayMem>,
    words: usize,
    original: Vec<Stmt>,
    pieces: Vec<Vec<Stmt>>,
    folds: Vec<Fold>,
}

impl Compiled {
    /// Lay out memory for `original` and `t` over `iters` iterations and
    /// compile both programs against it.
    pub(crate) fn new(original: &[GuardedAssign], t: &Transformed, iters: u32) -> Self {
        // One symbol table for both programs: every scalar, and every
        // offset each array is accessed at.
        let mut names: BTreeSet<&str> = BTreeSet::new();
        let mut offsets: BTreeMap<&str, BTreeSet<i32>> = BTreeMap::new();
        for ga in original.iter().chain(t.pieces.iter().flat_map(|p| &p.body)) {
            names.extend(ga.guards.iter().map(|g| g.predicate.as_str()));
            names.extend(ga.assign.rhs.scalar_reads());
            let writes = match &ga.assign.target {
                Target::Array { array, offset } => Some((array.as_str(), *offset)),
                Target::Scalar(s) => {
                    names.insert(s);
                    None
                }
            };
            for (a, off) in ga.assign.rhs.array_reads().into_iter().chain(writes) {
                offsets.entry(a).or_default().insert(off);
            }
        }
        for ep in &t.epilogues {
            names.insert(&ep.scalar);
            offsets.entry(&ep.elements).or_default().insert(0);
        }
        let removed: BTreeSet<&str> = t.removed_scalars.iter().map(String::as_str).collect();
        let introduced: BTreeSet<&str> = t.introduced_arrays.iter().map(String::as_str).collect();
        let scalars: Vec<(String, bool)> = names
            .iter()
            .map(|s| (s.to_string(), !removed.contains(s)))
            .collect();
        // With no iterations nothing runs; one word per run keeps every
        // access resolvable.
        let span = i64::from(iters.max(1));
        let mut words = scalars.len();
        let mut arrays = Vec::with_capacity(offsets.len());
        for (name, offs) in &offsets {
            let mut runs: Vec<Run> = Vec::new();
            // Offsets ascend, so each interval ends past the last one.
            for &off in offs {
                let lo = i64::from(off);
                match runs.last_mut() {
                    Some(r) if lo <= r.lo + r.len as i64 => r.len = (lo + span - r.lo) as usize,
                    _ => runs.push(Run {
                        lo,
                        len: span as usize,
                        base: 0,
                    }),
                }
            }
            for r in &mut runs {
                r.base = words;
                words += r.len;
            }
            arrays.push(ArrayMem {
                name: name.to_string(),
                runs,
                observed: !introduced.contains(name),
            });
        }
        let mut c = Compiled {
            iters: iters as usize,
            scalars,
            arrays,
            words,
            original: Vec::new(),
            pieces: Vec::new(),
            folds: Vec::new(),
        };
        c.original = original.iter().map(|ga| c.stmt(ga)).collect();
        c.pieces = t
            .pieces
            .iter()
            .map(|p| p.body.iter().map(|ga| c.stmt(ga)).collect())
            .collect();
        c.folds = t
            .epilogues
            .iter()
            .map(|ep| Fold {
                scalar: c.scalar(&ep.scalar),
                op: ep.op,
                elements: c.array(&ep.elements, 0),
                name: ep.elements.clone(),
            })
            .collect();
        c
    }

    fn scalar(&self, name: &str) -> usize {
        self.scalars
            .binary_search_by(|(s, _)| s.as_str().cmp(name))
            .expect("every scalar has a slot")
    }

    fn array(&self, name: &str, offset: i32) -> Cell {
        let a = self
            .arrays
            .binary_search_by(|a| a.name.as_str().cmp(name))
            .expect("every array has a layout");
        let off = i64::from(offset);
        let r = self.arrays[a]
            .runs
            .iter()
            .find(|r| r.lo <= off && off < r.lo + r.len as i64)
            .expect("every access lies in a run");
        Cell {
            at: r.base + (off - r.lo) as usize,
            per_iter: true,
        }
    }

    fn stmt(&self, ga: &GuardedAssign) -> Stmt {
        let mut code = Vec::new();
        self.expr(&ga.assign.rhs, &mut code);
        let target = match &ga.assign.target {
            Target::Array { array, offset } => self.array(array, *offset),
            Target::Scalar(s) => Cell {
                at: self.scalar(s),
                per_iter: false,
            },
        };
        Stmt {
            guards: ga
                .guards
                .iter()
                .map(|g| (self.scalar(&g.predicate), g.polarity))
                .collect(),
            code,
            target,
        }
    }

    fn expr(&self, e: &Expr, code: &mut Vec<Op>) {
        match e {
            Expr::Const(v) => code.push(Op::Const(*v as u64)),
            Expr::Scalar(s) => code.push(Op::Load(Cell {
                at: self.scalar(s),
                per_iter: false,
            })),
            Expr::ArrayRef { array, offset } => code.push(Op::Load(self.array(array, *offset))),
            Expr::Binary(op, l, r) => {
                self.expr(l, code);
                self.expr(r, code);
                code.push(Op::Apply(*op));
            }
        }
    }

    /// Run both programs on seeds `0..seeds` and return the first
    /// counterexample, exactly as the reference comparison would.
    pub(crate) fn check(&self, seeds: u64) -> Result<(), Box<EquivMismatch>> {
        let mut init = vec![0u64; self.words];
        let mut a = vec![0u64; self.words];
        let mut b = vec![0u64; self.words];
        let mut written = vec![false; self.words];
        let mut stack = Vec::new();
        for seed in 0..seeds {
            self.prefill(seed, &mut init);
            a.copy_from_slice(&init);
            b.copy_from_slice(&init);
            run(&self.original, self.iters, &mut a, &mut written, &mut stack);
            // Only the pieces' writes decide whether a fold has an element
            // to read; an element no piece wrote fails certification.
            written.fill(false);
            for piece in &self.pieces {
                run(piece, self.iters, &mut b, &mut written, &mut stack);
            }
            for f in &self.folds {
                let mut acc = init[f.scalar];
                for i in 0..self.iters {
                    let at = f.elements.index(i);
                    if !written[at] {
                        return Err(Box::new(EquivMismatch {
                            seed,
                            location: format!("{}[{i}]", f.name),
                            original: a[at],
                            transformed: b[at],
                            unwritten: true,
                        }));
                    }
                    acc = apply_op(f.op, acc, b[at]);
                }
                b[f.scalar] = acc;
            }
            if let Some(m) = self.first_diff(seed, &a, &b) {
                return Err(Box::new(m));
            }
        }
        Ok(())
    }

    /// Seeded initial memory: every scalar's and every array cell's value
    /// before either program runs.
    fn prefill(&self, seed: u64, init: &mut [u64]) {
        for (slot, (name, _)) in self.scalars.iter().enumerate() {
            init[slot] = seeded_scalar_init(seed, name);
        }
        for a in &self.arrays {
            for r in &a.runs {
                seeded_external_values(seed, &a.name, r.lo, &mut init[r.base..r.base + r.len]);
            }
        }
    }

    fn first_diff(&self, seed: u64, a: &[u64], b: &[u64]) -> Option<EquivMismatch> {
        let mismatch = |location: String, at: usize| EquivMismatch {
            seed,
            location,
            original: a[at],
            transformed: b[at],
            unwritten: false,
        };
        for arr in self.arrays.iter().filter(|arr| arr.observed) {
            for r in &arr.runs {
                let span = r.base..r.base + r.len;
                if let Some(k) = a[span.clone()]
                    .iter()
                    .zip(&b[span])
                    .position(|(x, y)| x != y)
                {
                    let at = r.base + k;
                    return Some(mismatch(format!("{}[{}]", arr.name, r.lo + k as i64), at));
                }
            }
        }
        self.scalars
            .iter()
            .enumerate()
            .find(|&(slot, (_, observed))| *observed && a[slot] != b[slot])
            .map(|(slot, (name, _))| mismatch(format!("scalar {name}"), slot))
    }
}

/// Execute `body` for `iters` iterations against `mem`, statements in
/// order within each iteration — the loop's serial semantics.
fn run(body: &[Stmt], iters: usize, mem: &mut [u64], written: &mut [bool], stack: &mut Vec<u64>) {
    for i in 0..iters {
        for s in body {
            if !s.guards.iter().all(|&(p, pol)| (mem[p] != 0) == pol) {
                continue;
            }
            for op in &s.code {
                let v = match *op {
                    Op::Const(v) => v,
                    Op::Load(c) => mem[c.index(i)],
                    Op::Apply(op) => {
                        let r = stack.pop().expect("postfix operand");
                        let l = stack.pop().expect("postfix operand");
                        apply_op(op, l, r)
                    }
                };
                stack.push(v);
            }
            let at = s.target.index(i);
            mem[at] = stack.pop().expect("postfix result");
            written[at] = true;
        }
    }
}
