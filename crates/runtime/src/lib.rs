#![forbid(unsafe_code)]
//! # kn-runtime — real threaded execution of scheduled loops
//!
//! The paper evaluates on a simulated multiprocessor; this crate goes one
//! step further and *runs* a scheduled [`Program`] on OS threads — one
//! thread per processor, values flowing through mpsc channels exactly
//! where the schedule has a cross-processor dependence edge. It serves two
//! purposes:
//!
//! 1. **semantic validation** — a schedule is only correct if the parallel
//!    execution computes the same values as the sequential loop; the test
//!    suite checks bit-identical results against the sequential
//!    interpreter for every workload and for randomized loops;
//! 2. **a demonstration** that the paper's transformed loops (per-processor
//!    subloops with sends/receives, Figures 7(e)/10) are directly
//!    executable on a real MIMD machine (a multicore host).
//!
//! ## Value model
//!
//! Each node computes one `u64` per iteration: `v = f(iter, inputs)` where
//! `inputs` are the values of its dependence predecessors, **in edge
//! declaration order**. A predecessor from before iteration 0 (distance
//! running off the front of the loop) contributes a per-node boundary
//! value — the loop's "initial array contents". Both engines use the same
//! convention, so results are comparable bit for bit.

pub mod from_ir;

pub use from_ir::{semantics_from_ir, FromIrError};

use kn_ddg::{intra_topo_order, Ddg, InstanceId, NodeId};
use kn_sched::{Program, ProgramError};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-node computation: `f(iteration, operand values) -> value`.
pub type NodeFn = Arc<dyn Fn(u32, &[u64]) -> u64 + Send + Sync>;

/// Node semantics for a whole graph.
#[derive(Clone)]
pub struct Semantics {
    fns: Vec<NodeFn>,
}

impl Semantics {
    /// Build from explicit per-node functions (indexed by `NodeId`).
    pub fn new(fns: Vec<NodeFn>) -> Self {
        Self { fns }
    }

    /// Default semantics: a strong hash of `(node, iteration, operands…)`.
    /// Any scheduling error — wrong operand, wrong iteration, wrong order —
    /// changes downstream values with overwhelming probability, which is
    /// exactly what a validation oracle wants.
    pub fn hashing(g: &Ddg) -> Self {
        let fns = g
            .node_ids()
            .map(|v| {
                let id = v.0 as u64;
                let f: NodeFn = Arc::new(move |iter, inputs| {
                    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ id.wrapping_mul(0x100_0000_01b3);
                    h = mix(h, iter as u64);
                    for &x in inputs {
                        h = mix(h, x);
                    }
                    h
                });
                f
            })
            .collect();
        Self { fns }
    }

    /// The boundary value standing in for `(node, iteration < 0)` operands.
    pub fn boundary(node: NodeId) -> u64 {
        (node.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Evaluate node `node` at iteration `iter` on operand values `inputs`.
    pub fn eval(&self, node: NodeId, iter: u32, inputs: &[u64]) -> u64 {
        (self.fns[node.index()])(iter, inputs)
    }
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = z.rotate_left(31).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 29)
}

/// Errors from the threaded executor.
#[derive(Debug)]
pub enum RuntimeError {
    /// The program failed validation before any thread was spawned.
    Program(ProgramError),
    /// A worker thread panicked.
    WorkerPanic,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Program(e) => write!(f, "invalid program: {e}"),
            RuntimeError::WorkerPanic => write!(f, "worker thread panicked"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ProgramError> for RuntimeError {
    fn from(e: ProgramError) -> Self {
        RuntimeError::Program(e)
    }
}

/// All values computed by a run, keyed by `(node, iteration)`.
pub type Values = HashMap<(NodeId, u32), u64>;

/// Gather a node instance's operand values. `lookup` resolves an in-range
/// predecessor instance to its value.
fn gather_inputs(g: &Ddg, inst: InstanceId, mut lookup: impl FnMut(InstanceId) -> u64) -> Vec<u64> {
    let mut inputs = Vec::with_capacity(g.in_degree(inst.node));
    for (_, e) in g.in_edges(inst.node) {
        if e.distance > inst.iter {
            inputs.push(Semantics::boundary(e.src));
        } else {
            inputs.push(lookup(InstanceId {
                node: e.src,
                iter: inst.iter - e.distance,
            }));
        }
    }
    inputs
}

/// Reference engine: execute the loop sequentially, iteration by
/// iteration, statements in intra-iteration topological order.
pub fn run_sequential(g: &Ddg, sem: &Semantics, iters: u32) -> Values {
    let order = intra_topo_order(g).expect("validated graph");
    let mut values: Values = HashMap::with_capacity(g.node_count() * iters as usize);
    for i in 0..iters {
        for &v in &order {
            let inst = InstanceId { node: v, iter: i };
            let inputs = gather_inputs(g, inst, |p| values[&(p.node, p.iter)]);
            values.insert((v, i), sem.eval(v, i, &inputs));
        }
    }
    values
}

/// Execute a scheduled program on real threads — one per processor, values
/// crossing processors through channels. Blocks until completion.
///
/// The program is validated first (feasible order) so the thread phase
/// cannot deadlock. Predecessor instances that are not part of the program
/// contribute their boundary value (only relevant when executing a subset
/// program, e.g. a Cyclic core in isolation).
pub fn run_threaded(g: &Ddg, sem: &Semantics, prog: &Program) -> Result<Values, RuntimeError> {
    // A deadlocking order would hang real threads; reject it up front using
    // the static timing oracle (costs are irrelevant for feasibility).
    // Its start table doubles as the processor index of every instance.
    let probe = kn_sched::MachineConfig::new(prog.processors().max(1), 1);
    let assign = kn_sched::static_times(prog, g, &probe)?.start;
    let nprocs = prog.processors();
    type Msg = ((u32, u32), u64);
    let mut senders = Vec::with_capacity(nprocs);
    let mut receivers = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let (s, r) = std::sync::mpsc::channel::<Msg>();
        senders.push(s);
        receivers.push(r);
    }

    let results = std::thread::scope(|scope| -> Result<Vec<Values>, RuntimeError> {
        let mut handles = Vec::with_capacity(nprocs);
        for (p, receiver) in receivers.into_iter().enumerate() {
            let seq = &prog.seqs[p];
            let senders = senders.clone();
            let assign = &assign;
            let sem = sem.clone();
            handles.push(scope.spawn(move || -> Values {
                let mut local: Values = HashMap::with_capacity(seq.len());
                let mut inbox: HashMap<(u32, u32), u64> = HashMap::new();
                for &inst in seq {
                    let inputs = gather_inputs(g, inst, |pred| match assign.proc_of(pred) {
                        None => Semantics::boundary(pred.node),
                        Some(pp) if pp == p => local[&(pred.node, pred.iter)],
                        Some(_) => {
                            let key = (pred.node.0, pred.iter);
                            loop {
                                if let Some(&v) = inbox.get(&key) {
                                    break v;
                                }
                                let (k, v) =
                                    receiver.recv().expect("sender alive while values pending");
                                inbox.insert(k, v);
                            }
                        }
                    });
                    let value = sem.eval(inst.node, inst.iter, &inputs);
                    local.insert((inst.node, inst.iter), value);
                    // Forward to every distinct remote consumer processor.
                    let mut sent: Vec<usize> = Vec::new();
                    for (_, e) in g.out_edges(inst.node) {
                        let succ = InstanceId {
                            node: e.dst,
                            iter: inst.iter + e.distance,
                        };
                        if let Some(sp) = assign.proc_of(succ) {
                            if sp != p && !sent.contains(&sp) {
                                sent.push(sp);
                                senders[sp]
                                    .send(((inst.node.0, inst.iter), value))
                                    .expect("receiver alive");
                            }
                        }
                    }
                }
                local
            }));
        }
        drop(senders);
        let mut out = Vec::with_capacity(nprocs);
        for h in handles {
            out.push(h.join().map_err(|_| RuntimeError::WorkerPanic)?);
        }
        Ok(out)
    })?;

    let mut merged: Values = HashMap::with_capacity(prog.len());
    for part in results {
        merged.extend(part);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::DdgBuilder;
    use kn_sched::{cyclic_schedule, CyclicOptions, MachineConfig, ScheduleTable};

    fn figure7() -> Ddg {
        let mut b = DdgBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        let d = b.node("D");
        let e = b.node("E");
        b.carried(a, a);
        b.carried(e, a);
        b.dep(a, bb);
        b.dep(bb, c);
        b.carried(d, d);
        b.carried(c, d);
        b.dep(d, e);
        b.build().unwrap()
    }

    fn pattern_program(g: &Ddg, m: &MachineConfig, iters: u32) -> Program {
        let out = cyclic_schedule(g, m, &CyclicOptions::default()).unwrap();
        ScheduleTable::new(out.instantiate(iters)).to_program(iters)
    }

    #[test]
    fn threaded_matches_sequential_on_figure7() {
        let g = figure7();
        let m = MachineConfig::new(2, 2);
        let iters = 200;
        let prog = pattern_program(&g, &m, iters);
        let sem = Semantics::hashing(&g);
        let seq = run_sequential(&g, &sem, iters);
        let par = run_threaded(&g, &sem, &prog).unwrap();
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq, par, "parallel execution must be bit-identical");
    }

    #[test]
    fn real_arithmetic_semantics() {
        // Figure 7 with actual arithmetic: A[i] = A[i-1] * E[i-1] etc.
        // (wrapping u64), checked against the sequential interpreter and a
        // hand-rolled value for iteration 0.
        let g = figure7();
        let fns: Vec<NodeFn> = vec![
            // A: inputs in edge order: A(d1), E(d1)
            Arc::new(|_, x: &[u64]| x[0].wrapping_mul(x[1])),
            // B: input A
            Arc::new(|_, x: &[u64]| x[0]),
            // C: input B
            Arc::new(|_, x: &[u64]| x[0]),
            // D: inputs D(d1), C(d1)
            Arc::new(|_, x: &[u64]| x[0].wrapping_mul(x[1]).wrapping_add(1)),
            // E: input D
            Arc::new(|_, x: &[u64]| x[0]),
        ];
        let sem = Semantics::new(fns);
        let m = MachineConfig::new(2, 2);
        let iters = 50;
        let prog = pattern_program(&g, &m, iters);
        let par = run_threaded(&g, &sem, &prog).unwrap();
        let seq = run_sequential(&g, &sem, iters);
        assert_eq!(par, seq);
        let a0 = Semantics::boundary(NodeId(0)).wrapping_mul(Semantics::boundary(NodeId(4)));
        assert_eq!(par[&(NodeId(0), 0)], a0);
    }

    #[test]
    fn boundary_values_are_stable_per_node() {
        assert_eq!(
            Semantics::boundary(NodeId(3)),
            Semantics::boundary(NodeId(3))
        );
        assert_ne!(
            Semantics::boundary(NodeId(3)),
            Semantics::boundary(NodeId(4))
        );
    }

    #[test]
    fn single_processor_program_runs() {
        let g = figure7();
        let m = MachineConfig::new(1, 2);
        let iters = 30;
        let prog = pattern_program(&g, &m, iters);
        let sem = Semantics::hashing(&g);
        assert_eq!(
            run_threaded(&g, &sem, &prog).unwrap(),
            run_sequential(&g, &sem, iters)
        );
    }

    #[test]
    fn many_processor_doall_runs() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        let iters = 64;
        // Hand-built program: x on P0..P3 round robin, y two procs over to
        // force communication on every edge.
        let mut seqs = vec![Vec::new(); 4];
        for i in 0..iters {
            seqs[(i % 4) as usize].push(InstanceId { node: x, iter: i });
            seqs[((i + 2) % 4) as usize].push(InstanceId { node: y, iter: i });
        }
        let prog = Program { seqs, iters };
        let sem = Semantics::hashing(&g);
        assert_eq!(
            run_threaded(&g, &sem, &prog).unwrap(),
            run_sequential(&g, &sem, iters)
        );
    }

    #[test]
    fn deadlocking_program_rejected_before_spawning() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        let prog = Program {
            seqs: vec![vec![
                InstanceId { node: y, iter: 0 },
                InstanceId { node: x, iter: 0 },
            ]],
            iters: 1,
        };
        let sem = Semantics::hashing(&g);
        assert!(matches!(
            run_threaded(&g, &sem, &prog),
            Err(RuntimeError::Program(ProgramError::Deadlock { .. }))
        ));
    }

    #[test]
    fn subset_program_uses_boundaries_for_missing_preds() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        // Program contains only y: its x operand falls back to boundary.
        let prog = Program {
            seqs: vec![vec![InstanceId { node: y, iter: 0 }]],
            iters: 1,
        };
        let sem = Semantics::hashing(&g);
        let vals = run_threaded(&g, &sem, &prog).unwrap();
        let expect = sem.eval(y, 0, &[Semantics::boundary(x)]);
        assert_eq!(vals[&(y, 0)], expect);
    }

    #[test]
    fn hashing_semantics_sensitive_to_operand_order() {
        let g = figure7();
        let sem = Semantics::hashing(&g);
        let a = sem.eval(NodeId(0), 0, &[1, 2]);
        let b = sem.eval(NodeId(0), 0, &[2, 1]);
        assert_ne!(a, b);
    }
}
