#![forbid(unsafe_code)]
//! # kn-doacross — the DOACROSS baseline (Cytron 1986)
//!
//! The iteration-pipelining technique the paper compares against:
//! iterations are interleaved over `p` processors (`iteration i` runs on
//! processor `i mod p`), each iteration executes the loop body *serially*
//! in a fixed statement order, and loop-carried dependences become
//! cross-processor synchronization. All parallelism inside an iteration is
//! ignored — the unit of scheduling is the whole iteration, which is
//! exactly the limitation the paper's technique removes (§1).
//!
//! Includes the paper's "optimal reordering" variant (Figure 8(b)): the
//! body statement order is chosen to minimize the pipeline delay, by
//! exhaustive search over topological orders when the body is small and by
//! a delay-driven heuristic otherwise. "In general, optimal reordering of
//! nodes is NP-hard" (paper §3, citing Cytron).
//!
//! DOACROSS does not require dependence distances to be normalized; any
//! distance is handled by the synchronization.

use kn_ddg::{all_intra_topo_orders, intra_topo_order, Ddg, InstanceId, NodeId};
use kn_sched::{Cycle, MachineConfig, Program, ProgramError, TimedProgram};

/// How the loop body is ordered inside each iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reorder {
    /// The natural (smallest-node-id topological) statement order — how the
    /// programmer wrote the loop.
    Natural,
    /// A caller-supplied order (must be a topological order of the
    /// distance-0 subgraph).
    Fixed(Vec<NodeId>),
    /// Minimize the pipeline delay: exhaustive over topological orders when
    /// there are at most `exhaustive_cap` of them, else the delay-driven
    /// heuristic.
    Best { exhaustive_cap: usize },
}

impl Default for Reorder {
    fn default() -> Self {
        Reorder::Best {
            exhaustive_cap: 5040,
        }
    }
}

/// Options for [`doacross_schedule`].
#[derive(Clone, Debug, Default)]
pub struct DoacrossOptions {
    pub reorder: Reorder,
    /// Optional static certification hook, run on the timed program before
    /// it is returned. `kn-verify` provides `certify_timed_hook`; `kn-core`
    /// installs it in debug builds.
    pub certify: Option<CertifyTimedHook>,
}

/// Signature of the [`DoacrossOptions::certify`] hook.
pub type CertifyTimedHook = fn(&Ddg, &MachineConfig, &TimedProgram) -> Result<(), String>;

/// A complete DOACROSS schedule.
#[derive(Clone, Debug)]
pub struct DoacrossSchedule {
    /// The statement order used in every iteration.
    pub body_order: Vec<NodeId>,
    /// Per-processor iteration-interleaved program.
    pub program: Program,
    /// Static timing under estimated communication costs.
    pub timing: TimedProgram,
    /// The compile-time pipeline delay of `body_order` (see [`delay`]).
    pub delay: Cycle,
}

impl DoacrossSchedule {
    /// Completion time under estimated costs.
    pub fn makespan(&self) -> Cycle {
        self.timing.makespan
    }
}

/// Build the DOACROSS program: processor `j` executes iterations
/// `j, j+p, j+2p, …`, each as the serial statement sequence `order`.
pub fn doacross_program(order: &[NodeId], processors: usize, iters: u32) -> Program {
    let mut seqs: Vec<Vec<InstanceId>> = vec![Vec::new(); processors];
    for i in 0..iters {
        let p = i as usize % processors;
        for &n in order {
            seqs[p].push(InstanceId { node: n, iter: i });
        }
    }
    Program { seqs, iters }
}

/// Cytron's compile-time pipeline delay for a body order: the minimum
/// stagger `d` between the starts of consecutive iterations such that every
/// loop-carried dependence is satisfied, assuming consecutive iterations
/// run on different processors (the worst — and for `p ≥ 2` the typical —
/// placement) and charging the machine's estimated communication cost.
///
/// `start_{i+dist}(v) ≥ finish_i(u) + comm` with `start_i(x) = i*d + off(x)`
/// gives `d ≥ (ready(u) - off(v)) / dist` per edge.
pub fn delay(g: &Ddg, order: &[NodeId], m: &MachineConfig) -> Cycle {
    let mut off = vec![0 as Cycle; g.node_count()];
    let mut t = 0;
    for &n in order {
        off[n.index()] = t;
        t += g.latency(n) as Cycle;
    }
    let mut d = 0 as Cycle;
    for (_, e) in g.carried_edges() {
        let fin = off[e.src.index()] + g.latency(e.src) as Cycle;
        let ready = m.remote_ready(fin, m.edge_cost(e));
        let need = ready.saturating_sub(off[e.dst.index()]);
        // Distance > 1 spreads the slack over `distance` iteration gaps.
        d = d.max(need.div_ceil(e.distance as Cycle));
    }
    d
}

/// The delay-driven heuristic order: a topological order of the distance-0
/// subgraph that schedules loop-carried *consumers* as early and
/// loop-carried *producers* as late as dependences allow, shrinking
/// `ready(src) - off(dst)` for every carried edge.
pub fn heuristic_order(g: &Ddg) -> Vec<NodeId> {
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    for v in g.node_ids() {
        indeg[v.index()] = g.intra_in_degree(v);
    }
    // Priority: nodes feeding carried edges late (+), nodes consuming
    // carried values early (-). Ties by node id for determinism.
    let weight = |v: NodeId| -> i64 {
        let mut w = 0i64;
        for (_, e) in g.out_edges(v) {
            if e.distance >= 1 {
                w += g.latency(v) as i64;
            }
        }
        for (_, e) in g.in_edges(v) {
            if e.distance >= 1 {
                w -= g.latency(e.src) as i64;
            }
        }
        w
    };
    let mut ready: Vec<NodeId> = g.node_ids().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        // Smallest weight first (consumers early, producers late).
        let (pos, _) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| (weight(v), v.0))
            .expect("nonempty");
        let v = ready.swap_remove(pos);
        order.push(v);
        for (_, e) in g.out_edges(v) {
            if e.distance == 0 {
                let d = e.dst.index();
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(e.dst);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Pick the body order according to `reorder`, minimizing [`delay`]
/// (ties broken toward the natural order).
pub fn choose_order(g: &Ddg, m: &MachineConfig, reorder: &Reorder) -> Vec<NodeId> {
    match reorder {
        Reorder::Natural => intra_topo_order(g).expect("validated graph"),
        Reorder::Fixed(order) => order.clone(),
        Reorder::Best { exhaustive_cap } => {
            let natural = intra_topo_order(g).expect("validated graph");
            let candidates = all_intra_topo_orders(g, *exhaustive_cap + 1);
            if candidates.len() <= *exhaustive_cap {
                candidates
                    .into_iter()
                    .min_by_key(|o| delay(g, o, m))
                    .unwrap_or(natural)
            } else {
                // Too many orders: compare natural vs heuristic.
                let h = heuristic_order(g);
                if delay(g, &h, m) < delay(g, &natural, m) {
                    h
                } else {
                    natural
                }
            }
        }
    }
}

/// Build and statically time a DOACROSS schedule for `iters` iterations on
/// `m.processors` processors.
pub fn doacross_schedule(
    g: &Ddg,
    m: &MachineConfig,
    iters: u32,
    opts: &DoacrossOptions,
) -> Result<DoacrossSchedule, ProgramError> {
    let body_order = choose_order(g, m, &opts.reorder);
    let program = doacross_program(&body_order, m.processors, iters);
    let timing = program.check_and_time(g, m)?;
    if let Some(certify) = opts.certify {
        certify(g, m, &timing).map_err(ProgramError::Certify)?;
    }
    let d = delay(g, &body_order, m);
    Ok(DoacrossSchedule {
        body_order,
        program,
        timing,
        delay: d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::DdgBuilder;
    use kn_sched::ScheduleTable;

    /// Paper Figure 7 loop.
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

    /// A DOALL loop (no carried edges).
    fn doall() -> Ddg {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        b.build().unwrap()
    }

    #[test]
    fn figure7_doacross_is_fully_serial() {
        // Paper Figure 8: the (E, A) carried chain plus sync cost leaves no
        // pipelining; DOACROSS time equals sequential time (Sp = 0) even
        // with optimal reordering.
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let iters = 10;
        let seq = g.body_latency() * iters as u64;
        for reorder in [
            Reorder::Natural,
            Reorder::Best {
                exhaustive_cap: 5040,
            },
        ] {
            let s = doacross_schedule(
                &g,
                &m,
                iters,
                &DoacrossOptions {
                    reorder,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                s.makespan() >= seq,
                "DOACROSS cannot beat sequential here: {} < {seq}",
                s.makespan()
            );
        }
    }

    #[test]
    fn figure7_delay_is_at_least_body_latency() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let natural = intra_topo_order(&g).unwrap();
        // A is first, E is last; E -> A carried with k=2 forces the next
        // iteration to start after the whole body plus comm slack.
        assert!(delay(&g, &natural, &m) >= g.body_latency());
    }

    #[test]
    fn doall_speedup_near_processor_count() {
        let g = doall();
        let m = MachineConfig::new(4, 2);
        let iters = 40;
        let s = doacross_schedule(&g, &m, iters, &DoacrossOptions::default()).unwrap();
        let seq = g.body_latency() * iters as u64;
        // No carried deps: iterations perfectly parallel over 4 procs.
        assert_eq!(s.makespan(), seq / 4);
        assert_eq!(s.delay, 0);
    }

    #[test]
    fn program_round_robins_iterations() {
        let g = doall();
        let prog = doacross_program(&intra_topo_order(&g).unwrap(), 3, 7);
        assert_eq!(prog.processors(), 3);
        assert_eq!(prog.seqs[0].len(), 3 * 2); // iterations 0,3,6
        assert_eq!(prog.seqs[1].len(), 2 * 2); // iterations 1,4
        assert_eq!(prog.seqs[0][0].iter, 0);
        assert_eq!(prog.seqs[0][2].iter, 3);
    }

    #[test]
    fn schedule_validates_against_machine_model() {
        let g = figure7();
        let m = MachineConfig::new(3, 2);
        let s = doacross_schedule(&g, &m, 9, &DoacrossOptions::default()).unwrap();
        ScheduleTable::from_timed(&s.timing)
            .validate(&g, &m)
            .unwrap();
        assert_eq!(s.program.len(), 9 * g.node_count());
    }

    #[test]
    fn reordering_helps_when_it_can() {
        // u (producer of carried value) naturally sits last; v (consumer)
        // first. With u early / v late the delay shrinks.
        //   order-sensitive: w1 w2 u? Let's build: v consumes u's carried
        //   value; u and v are independent within an iteration; filler w
        //   extends the body.
        let mut b = DdgBuilder::new();
        let u = b.node_lat("u", 1);
        let v = b.node_lat("v", 1);
        let w = b.node_lat("w", 4);
        b.carried(u, v);
        let g = b.build().unwrap();
        let m = MachineConfig::new(4, 1);
        let natural = intra_topo_order(&g).unwrap(); // u v w by id
        let bad = vec![w, u, v]; // u late, v early next iteration? v at off 5
        let best = choose_order(
            &g,
            &m,
            &Reorder::Best {
                exhaustive_cap: 100,
            },
        );
        assert!(delay(&g, &best, &m) <= delay(&g, &natural, &m));
        assert!(delay(&g, &best, &m) <= delay(&g, &bad, &m));
        // Optimal: u first (fin 1), v last (off 5): delay = max(0, 1-5) = 0.
        assert_eq!(delay(&g, &best, &m), 0);
        let _ = (u, v);
    }

    #[test]
    fn heuristic_order_is_topological() {
        let g = figure7();
        let order = heuristic_order(&g);
        assert_eq!(order.len(), g.node_count());
        let mut pos = vec![0usize; g.node_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for (_, e) in g.intra_edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn delay_spreads_over_distance() {
        // u -> v carried at distance 2: the slack amortizes over two
        // iteration gaps.
        let mut b = DdgBuilder::new();
        let u = b.node_lat("u", 6);
        let v = b.node("v");
        b.dep_dist(u, v, 2);
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 1);
        let order = vec![u, v];
        // off(u)=0 fin 6, remote ready 6; off(v)=6 -> need 0 -> d=0.
        assert_eq!(delay(&g, &order, &m), 0);
        let order = vec![v, u];
        // off(v)=0; u fin 7, ready 7; need 7 over 2 gaps -> ceil(7/2)=4.
        assert_eq!(delay(&g, &order, &m), 4);
    }

    #[test]
    fn single_processor_doacross_is_sequential() {
        let g = figure7();
        let m = MachineConfig::new(1, 2);
        let s = doacross_schedule(&g, &m, 6, &DoacrossOptions::default()).unwrap();
        assert_eq!(s.makespan(), 6 * g.body_latency());
    }

    #[test]
    fn unnormalized_distances_supported() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        b.dep_dist(x, x, 3);
        let g = b.build().unwrap();
        let m = MachineConfig::new(3, 1);
        let s = doacross_schedule(&g, &m, 9, &DoacrossOptions::default()).unwrap();
        ScheduleTable::from_timed(&s.timing)
            .validate(&g, &m)
            .unwrap();
        // Distance 3 means iterations {0,1,2} are independent: with 3
        // processors the chain advances 3 iterations per latency.
        assert_eq!(s.makespan(), 3);
    }
}
