//! The per-instance index every program-shaped table is addressed by.
//!
//! A [`Program`] normally covers a rectangular instance space — every
//! instance is `(node, iter)` with bounds discoverable in one pass — so
//! per-instance tables can be flat `Vec`s indexed by `node * iters + iter`
//! instead of `HashMap<InstanceId, _>`. On the timing hot path (one lookup
//! per dependence edge per instance) this removes all hashing and heap
//! churn.
//!
//! Hand-built programs are not obliged to be rectangular, though: a single
//! instance at iteration 10⁹ would stretch the rectangle to `nodes × 10⁹`
//! slots. When the rectangle is much larger than the instance count the
//! index falls back to a compact map, so degenerate programs stay cheap
//! instead of aborting on allocation.
//!
//! [`StartTable`] is the one per-instance result table built over an
//! index: the `(processor, start cycle)` of every instance of a timed or
//! simulated program.

use crate::machine::Cycle;
use crate::program::{Program, ProgramError};
use kn_ddg::{Ddg, InstanceId, NodeId};
use std::collections::HashMap;

/// When the `nodes × iters` rectangle exceeds this many times the actual
/// instance count (plus slack for tiny programs), use the sparse fallback.
const SPARSE_FACTOR: usize = 8;
const SPARSE_SLACK: usize = 4096;

/// Marks a rectangle slot that holds no instance of the program.
const ABSENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
enum Index {
    /// `assign[node * iters + iter]` is the instance's processor, or
    /// [`ABSENT`]. Slot index == flat rectangle index.
    Dense(Vec<u32>),
    /// Slots are assigned `0..len` in program order, so parallel tables
    /// stay `prog.len()`-sized; `insts[slot]` is `(instance, processor)`.
    Sparse {
        slot: HashMap<InstanceId, u32>,
        insts: Vec<(InstanceId, u32)>,
    },
}

/// Processor assignment of every instance of one program, plus the slot
/// geometry for any other per-instance table of the same program.
#[derive(Clone, Debug)]
pub struct InstanceIndex {
    /// Rectangle bounds: the graph's node count and the program's
    /// iteration count, stretched to cover every instance.
    nodes: usize,
    iters: u32,
    len: usize,
    index: Index,
}

impl InstanceIndex {
    /// One pass over the program: find the bounds, build the assignment
    /// table, and reject duplicate instances.
    pub fn build(prog: &Program, g: &Ddg) -> Result<Self, ProgramError> {
        let mut nodes = g.node_count();
        let mut iters = prog.iters.max(1);
        for inst in prog.seqs.iter().flatten() {
            nodes = nodes.max(inst.node.index() + 1);
            iters = iters.max(inst.iter + 1);
        }
        let len = prog.len();
        let rectangle = nodes.saturating_mul(iters as usize);
        let index = if rectangle > len.saturating_mul(SPARSE_FACTOR) + SPARSE_SLACK {
            let mut slot = HashMap::with_capacity(len);
            let mut insts = Vec::with_capacity(len);
            for (p, seq) in prog.seqs.iter().enumerate() {
                for &inst in seq {
                    if slot.insert(inst, insts.len() as u32).is_some() {
                        return Err(ProgramError::DuplicateInstance);
                    }
                    insts.push((inst, p as u32));
                }
            }
            Index::Sparse { slot, insts }
        } else {
            let mut assign = vec![ABSENT; rectangle];
            for (p, seq) in prog.seqs.iter().enumerate() {
                for &inst in seq {
                    let a = &mut assign[inst.node.index() * iters as usize + inst.iter as usize];
                    if *a != ABSENT {
                        return Err(ProgramError::DuplicateInstance);
                    }
                    *a = p as u32;
                }
            }
            Index::Dense(assign)
        };
        Ok(Self {
            nodes,
            iters,
            len,
            index,
        })
    }

    /// Number of instances indexed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Size for a parallel per-instance table.
    #[inline]
    pub fn table_len(&self) -> usize {
        match &self.index {
            Index::Dense(assign) => assign.len(),
            Index::Sparse { insts, .. } => insts.len(),
        }
    }

    /// `(processor, slot)` of `inst`, or `None` when the instance is not
    /// part of the program (including instances outside the rectangular
    /// bounds, e.g. a successor `iter + distance` past the last iteration).
    #[inline]
    pub fn lookup(&self, inst: InstanceId) -> Option<(usize, usize)> {
        match &self.index {
            Index::Dense(assign) => {
                if inst.node.index() >= self.nodes || inst.iter >= self.iters {
                    return None;
                }
                let slot = inst.node.index() * self.iters as usize + inst.iter as usize;
                let p = assign[slot];
                (p != ABSENT).then_some((p as usize, slot))
            }
            Index::Sparse { slot, insts } => slot.get(&inst).map(|&s| {
                let s = s as usize;
                (insts[s].1 as usize, s)
            }),
        }
    }

    /// Processor of `inst`, or `None` when it is not part of the program.
    #[inline]
    pub fn proc_of(&self, inst: InstanceId) -> Option<usize> {
        self.lookup(inst).map(|(p, _)| p)
    }

    /// Slot of an instance **known to be part of the program** (e.g. taken
    /// from its `seqs`, or positively identified via [`Self::lookup`]).
    #[inline]
    pub fn slot(&self, inst: InstanceId) -> usize {
        match &self.index {
            Index::Dense(_) => {
                debug_assert!(inst.node.index() < self.nodes && inst.iter < self.iters);
                inst.node.index() * self.iters as usize + inst.iter as usize
            }
            Index::Sparse { slot, .. } => slot[&inst] as usize,
        }
    }

    /// Every indexed instance as `(instance, processor, slot)`: node-major
    /// for the dense index, program order for the sparse one.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (InstanceId, usize, usize)> + '_ {
        let iters = self.iters as usize;
        let (dense, sparse) = match &self.index {
            Index::Dense(assign) => (Some(assign), None),
            Index::Sparse { insts, .. } => (None, Some(insts)),
        };
        let dense = dense.into_iter().flat_map(move |assign| {
            assign.iter().enumerate().filter_map(move |(s, &p)| {
                let inst = InstanceId {
                    node: NodeId((s / iters) as u32),
                    iter: (s % iters) as u32,
                };
                (p != ABSENT).then_some((inst, p as usize, s))
            })
        });
        let sparse = sparse.into_iter().flat_map(|insts| {
            insts
                .iter()
                .enumerate()
                .map(|(s, &(inst, p))| (inst, p as usize, s))
        });
        dense.chain(sparse)
    }

    /// Check that `prog` — the program this index was built from — covers
    /// each instance of `g`'s nodes for iterations `0..prog.iters` exactly
    /// once. Duplicates were rejected by [`Self::build`]; with none, the
    /// instance count and the index bounds decide coverage.
    pub(crate) fn check_cover(&self, prog: &Program, g: &Ddg) -> Result<(), ProgramError> {
        let want = g.node_count() * prog.iters as usize;
        if self.len != want {
            return Err(ProgramError::IncompleteCover {
                have: self.len,
                want,
            });
        }
        // The bounds start at `prog.iters.max(1)`, so stretched bounds alone
        // do not prove a foreign instance: an empty `iters == 0` program has
        // none.
        if self.nodes > g.node_count() || self.iters > prog.iters {
            if let Some(foreign) = prog
                .seqs
                .iter()
                .flatten()
                .find(|i| i.node.index() >= g.node_count() || i.iter >= prog.iters)
            {
                return Err(ProgramError::ForeignInstance(*foreign));
            }
        }
        Ok(())
    }
}

/// `(processor, start cycle)` of every instance of a timed program: one
/// start cycle per slot of the program's [`InstanceIndex`].
///
/// Equality is semantic: two tables are equal when they hold the same
/// instances with the same processors and starts, whichever index layout
/// each was built on.
#[derive(Clone)]
pub struct StartTable {
    index: InstanceIndex,
    start: Vec<Cycle>,
}

impl StartTable {
    /// Pair an index with its per-slot start cycles.
    pub fn new(index: InstanceIndex, start: Vec<Cycle>) -> Self {
        assert_eq!(start.len(), index.table_len(), "one start per slot");
        Self { index, start }
    }

    /// `(processor, start)` of an instance, if present.
    #[inline]
    pub fn get(&self, inst: InstanceId) -> Option<(usize, Cycle)> {
        self.index
            .lookup(inst)
            .map(|(p, slot)| (p, self.start[slot]))
    }

    /// Start cycle of an instance, if present.
    pub fn start_of(&self, inst: InstanceId) -> Option<Cycle> {
        self.get(inst).map(|(_, t)| t)
    }

    /// Processor of an instance, if present.
    pub fn proc_of(&self, inst: InstanceId) -> Option<usize> {
        self.index.proc_of(inst)
    }

    /// Every entry as `(instance, (processor, start))`: node-major for a
    /// dense index, program order for a sparse one.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, (usize, Cycle))> + '_ {
        self.index
            .iter()
            .map(|(inst, p, slot)| (inst, (p, self.start[slot])))
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no instance was timed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for StartTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(inst, v)| other.get(inst) == Some(v))
    }
}

impl Eq for StartTable {}

impl std::fmt::Debug for StartTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::DdgBuilder;

    fn inst(node: u32, iter: u32) -> InstanceId {
        InstanceId {
            node: NodeId(node),
            iter,
        }
    }

    fn two_node_graph() -> Ddg {
        let mut b = DdgBuilder::new();
        b.node("x");
        b.node("y");
        b.build().unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(0, 1)], vec![inst(1, 0)]],
            iters: 2,
        };
        let d = InstanceIndex::build(&prog, &g).unwrap();
        assert_eq!(d.proc_of(inst(0, 0)), Some(0));
        assert_eq!(d.proc_of(inst(0, 1)), Some(0));
        assert_eq!(d.proc_of(inst(1, 0)), Some(1));
        assert_eq!(d.proc_of(inst(1, 1)), None, "in bounds but absent");
        assert_eq!(d.proc_of(inst(1, 7)), None, "iteration out of bounds");
        assert_eq!(d.proc_of(inst(9, 0)), None, "node out of bounds");
        assert_eq!(d.lookup(inst(0, 1)), Some((0, d.slot(inst(0, 1)))));
        let all: Vec<_> = d.iter().map(|(i, p, _)| (i, p)).collect();
        assert_eq!(all, [(inst(0, 0), 0), (inst(0, 1), 0), (inst(1, 0), 1)]);
    }

    #[test]
    fn duplicates_rejected() {
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(0, 0)]],
            iters: 1,
        };
        assert!(matches!(
            InstanceIndex::build(&prog, &g),
            Err(ProgramError::DuplicateInstance)
        ));
    }

    #[test]
    fn bounds_cover_instances_beyond_declared_iters() {
        // Hand-built programs may exceed `prog.iters`; the table stretches.
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(1, 5)]],
            iters: 1,
        };
        let d = InstanceIndex::build(&prog, &g).unwrap();
        assert_eq!(d.proc_of(inst(1, 5)), Some(0));
        assert_eq!(d.proc_of(inst(1, 4)), None);
    }

    #[test]
    fn degenerate_high_iteration_uses_sparse_fallback() {
        // One instance at iteration 2^31: the rectangle would be ~2 * 2^31
        // slots (> 8 GB of u32); the sparse index keeps it at one entry.
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(1, 1 << 31)], vec![inst(0, 0)]],
            iters: 1,
        };
        let d = InstanceIndex::build(&prog, &g).unwrap();
        assert!(matches!(d.index, Index::Sparse { .. }));
        assert_eq!(d.table_len(), 2);
        assert_eq!(d.proc_of(inst(1, 1 << 31)), Some(0));
        assert_eq!(d.proc_of(inst(0, 0)), Some(1));
        assert_eq!(d.proc_of(inst(0, 7)), None);
        // Slots are distinct and within the table.
        let (a, b) = (d.slot(inst(1, 1 << 31)), d.slot(inst(0, 0)));
        assert!(a != b && a < 2 && b < 2);
        let all: Vec<_> = d.iter().map(|(i, p, _)| (i, p)).collect();
        assert_eq!(all, [(inst(1, 1 << 31), 0), (inst(0, 0), 1)]);
        // Duplicates still rejected in sparse mode.
        let dup = Program {
            seqs: vec![vec![inst(1, 1 << 31)], vec![inst(1, 1 << 31)]],
            iters: 1,
        };
        assert!(matches!(
            InstanceIndex::build(&dup, &g),
            Err(ProgramError::DuplicateInstance)
        ));
    }

    #[test]
    fn start_tables_compare_by_content_across_layouts() {
        // The same two entries over a dense and a sparse index.
        let g = two_node_graph();
        let near = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(1, 0)]],
            iters: 1,
        };
        let mut far_g = DdgBuilder::new();
        far_g.node("x");
        far_g.node("y");
        for i in 0..5000 {
            far_g.node(format!("pad{i}"));
        }
        let far_g = far_g.build().unwrap();
        let dense = InstanceIndex::build(&near, &g).unwrap();
        let sparse = InstanceIndex::build(&near, &far_g).unwrap();
        assert!(matches!(dense.index, Index::Dense(_)));
        assert!(matches!(sparse.index, Index::Sparse { .. }));
        let starts = |d: &InstanceIndex, a: Cycle, b: Cycle| {
            let mut s = vec![0; d.table_len()];
            s[d.slot(inst(0, 0))] = a;
            s[d.slot(inst(1, 0))] = b;
            StartTable::new(d.clone(), s)
        };
        assert_eq!(starts(&dense, 0, 3), starts(&sparse, 0, 3));
        assert_ne!(starts(&dense, 0, 3), starts(&sparse, 0, 4));
        assert_eq!(starts(&dense, 0, 3).get(inst(1, 0)), Some((1, 3)));
        assert_eq!(starts(&sparse, 0, 3).get(inst(1, 1)), None);
    }
}
