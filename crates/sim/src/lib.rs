#![forbid(unsafe_code)]
//! # kn-sim — simulated asynchronous MIMD multiprocessor
//!
//! The evaluation substrate for the paper's §4 experiments. Processors
//! execute their program sequences asynchronously: each instance starts as
//! soon as (a) the previous instance on the same processor finished and
//! (b) every operand has arrived. Communication is **fully overlapped**
//! (sends never block) and every message's actual cost fluctuates between
//! the compile-time estimate and `estimate + mm - 1` cycles — the paper's
//! `mm` traffic model ("the run time cost of each communication link varied
//! between k and k+mm-1", §4). `mm = 1` reproduces the static schedule
//! exactly; `mm = 5` under-estimates communication by up to 2.3× (the
//! paper's "very unstable asynchronous traffic").
//!
//! Fluctuation is sampled *per message* by hashing `(seed, edge, iteration)`
//! so results are deterministic and independent of event-processing order.
//!
//! [`simulate`] is not a simulator of its own: it runs `kn-sched`'s one
//! dataflow-timing kernel ([`kn_sched::time_program`]) with the fluctuating
//! message cost, where `static_times` runs it with the estimate. The
//! [`event`] engine adds what the kernel cannot express — link contention.

pub mod event;

pub use event::{simulate_event, simulate_event_with, EventEngine, LinkModel};

use kn_ddg::{Ddg, EdgeId, InstanceId};
use kn_sched::{
    time_program, Cycle, InstanceIndex, MachineConfig, Program, ProgramError, StartTable,
};

/// Run-time communication traffic model.
#[derive(Clone, Copy, Debug)]
pub struct TrafficModel {
    /// Fluctuation factor: actual message cost is
    /// `estimate + (0 .. mm-1)`. `mm = 1` means no fluctuation.
    pub mm: u32,
    /// Seed for the per-message hash.
    pub seed: u64,
}

impl TrafficModel {
    /// The paper's three experimental settings.
    pub fn stable(seed: u64) -> Self {
        Self { mm: 1, seed }
    }

    /// Deterministic per-message fluctuation in `0..mm`.
    #[inline]
    pub fn fluctuation(&self, edge: EdgeId, iter: u32) -> u32 {
        if self.mm <= 1 {
            return 0;
        }
        // SplitMix64-style mix of (seed, edge, iter): uniform enough for a
        // traffic model and perfectly reproducible.
        let mut z = self
            .seed
            .wrapping_add((edge.0 as u64) << 32)
            .wrapping_add(iter as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z % self.mm as u64) as u32
    }
}

/// How to execute a program: interconnect capacity plus the event-queue
/// engine driving the discrete-event simulator. The single knob the
/// experiment drivers, CLI, and bench harness all plumb through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Interconnect capacity model.
    pub link: LinkModel,
    /// Event-queue implementation (only consulted when the event engine
    /// runs; see [`SimOptions::run`]).
    pub engine: EventEngine,
}

impl SimOptions {
    /// One-message-at-a-time links with the default (calendar) engine.
    pub fn contended() -> Self {
        Self {
            link: LinkModel::SingleMessage,
            ..Self::default()
        }
    }

    /// Execute `prog` under these options. [`LinkModel::Unlimited`] runs
    /// the timing kernel with the traffic model's message cost
    /// ([`simulate`]) — the event engine reproduces it cycle for cycle
    /// (tested), and the kernel's sweep is the cheaper of the two;
    /// [`LinkModel::SingleMessage`] runs the event engine with the chosen
    /// queue. Use [`simulate_event_with`] directly to force the event
    /// engine on uncontended links.
    pub fn run(
        &self,
        prog: &kn_sched::Program,
        g: &Ddg,
        m: &MachineConfig,
        traffic: &TrafficModel,
    ) -> Result<SimResult, ProgramError> {
        match self.link {
            LinkModel::Unlimited => simulate(prog, g, m, traffic),
            LinkModel::SingleMessage => {
                simulate_event_with(prog, g, m, traffic, self.link, self.engine)
            }
        }
    }
}

/// Per-processor execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycles spent executing instances.
    pub busy: Cycle,
    /// Completion time of the processor's last instance.
    pub finish: Cycle,
    /// Number of instances executed.
    pub executed: usize,
}

/// Result of a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Start cycle and processor per instance.
    pub start: StartTable,
    /// Completion time of the whole program.
    pub makespan: Cycle,
    /// Cross-processor messages: delivered by the event engine, charged
    /// by [`simulate`] (which re-charges the operands of a retried
    /// consumer).
    pub messages: u64,
    /// Total actual communication cycles across those messages.
    pub comm_cycles: u64,
    /// Per-processor statistics.
    pub procs: Vec<ProcStats>,
}

impl SimResult {
    /// A completed run: every instance of `prog` started as `start` says,
    /// which also fixes the per-processor statistics.
    fn finished(
        prog: &Program,
        g: &Ddg,
        start: StartTable,
        makespan: Cycle,
        messages: u64,
        comm_cycles: u64,
    ) -> Self {
        let procs = prog
            .seqs
            .iter()
            .map(|seq| ProcStats {
                busy: seq.iter().map(|i| g.latency(i.node) as Cycle).sum(),
                finish: seq.last().map_or(0, |&i| {
                    start.start_of(i).expect("every instance started") + g.latency(i.node) as Cycle
                }),
                executed: seq.len(),
            })
            .collect();
        Self {
            start,
            makespan,
            messages,
            comm_cycles,
            procs,
        }
    }

    /// Start cycle of an instance.
    pub fn start_of(&self, inst: InstanceId) -> Option<Cycle> {
        self.start.start_of(inst)
    }

    /// Machine utilization: busy cycles over (processors × makespan).
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.procs.is_empty() {
            return 0.0;
        }
        let busy: Cycle = self.procs.iter().map(|p| p.busy).sum();
        busy as f64 / (self.makespan as f64 * self.procs.len() as f64)
    }
}

/// Sequential execution time: one processor, no communication — the `s` of
/// the paper's percentage-parallelism metric.
pub fn sequential_time(g: &Ddg, iters: u32) -> Cycle {
    g.body_latency() * iters as u64
}

/// Execute `prog` on the simulated multiprocessor.
///
/// ```
/// use kn_ddg::{DdgBuilder, InstanceId};
/// use kn_sched::{MachineConfig, Program};
/// use kn_sim::{simulate, TrafficModel};
///
/// let mut b = DdgBuilder::new();
/// let x = b.node("x");
/// let y = b.node("y");
/// b.dep(x, y);
/// let g = b.build().unwrap();
///
/// // y runs on another processor: one message, k = 3.
/// let m = MachineConfig::new(2, 3);
/// let prog = Program {
///     seqs: vec![
///         vec![InstanceId { node: x, iter: 0 }],
///         vec![InstanceId { node: y, iter: 0 }],
///     ],
///     iters: 1,
/// };
/// let r = simulate(&prog, &g, &m, &TrafficModel::stable(0)).unwrap();
/// assert_eq!(r.messages, 1);
/// assert_eq!(r.makespan, 4); // x: [0,1), message, y starts at 3
/// ```
///
/// This is the dataflow-timing kernel, [`kn_sched::time_program`], with
/// one of its two cost functions: each message costs the machine's
/// estimate plus the traffic model's fluctuation (`kn_sched::static_times`
/// charges the estimate alone). Start times are the least fixpoint of the
/// dataflow constraints, so the result is *the* asynchronous execution (it
/// does not depend on any event ordering). `messages` and `comm_cycles`
/// count every message cost the kernel charges, including re-charges when
/// a consumer is tried again after waiting on another operand.
pub fn simulate(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    traffic: &TrafficModel,
) -> Result<SimResult, ProgramError> {
    let index = InstanceIndex::build(prog, g)?;
    let mut messages = 0u64;
    let mut comm_cycles = 0u64;
    let timed = time_program(prog, g, m, index, |eid, e, iter| {
        let cost = m.edge_cost(e) + traffic.fluctuation(eid, iter);
        messages += 1;
        comm_cycles += cost as u64;
        cost
    })?;
    Ok(SimResult::finished(
        prog,
        g,
        timed.start,
        timed.makespan,
        messages,
        comm_cycles,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::DdgBuilder;
    use kn_sched::{cyclic_schedule, static_times, CyclicOptions, Placement, ScheduleTable};

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

    fn figure7_program(m: &MachineConfig, iters: u32) -> (Ddg, Program) {
        let g = figure7();
        let out = cyclic_schedule(&g, m, &CyclicOptions::default()).unwrap();
        let table = ScheduleTable::new(out.instantiate(iters));
        let prog = table.to_program(iters);
        (g, prog)
    }

    #[test]
    fn stable_traffic_reproduces_static_schedule_exactly() {
        // The pinning invariant: with mm = 1 (actual = estimated), the
        // asynchronous execution of the scheduled program gives exactly the
        // start times the scheduler computed.
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 12);
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(7)).unwrap();
        let stat = static_times(&prog, &g, &m).unwrap();
        assert_eq!(sim.makespan, stat.makespan);
        assert_eq!(sim.start, stat.start);
    }

    #[test]
    fn fluctuation_only_delays() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 16);
        let base = simulate(&prog, &g, &m, &TrafficModel::stable(1)).unwrap();
        for mm in [2u32, 3, 5] {
            let noisy = simulate(&prog, &g, &m, &TrafficModel { mm, seed: 42 }).unwrap();
            assert!(
                noisy.makespan >= base.makespan,
                "mm={mm}: {} < {}",
                noisy.makespan,
                base.makespan
            );
            // Every instance starts no earlier than in the stable run
            // (monotonicity of the dataflow fixpoint).
            for (inst, (_, t)) in base.start.iter() {
                assert!(noisy.start_of(inst) >= Some(t));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 10);
        let a = simulate(&prog, &g, &m, &TrafficModel { mm: 5, seed: 9 }).unwrap();
        let b = simulate(&prog, &g, &m, &TrafficModel { mm: 5, seed: 9 }).unwrap();
        assert_eq!(a.makespan, b.makespan);
        let c = simulate(&prog, &g, &m, &TrafficModel { mm: 5, seed: 10 }).unwrap();
        // Different seed: allowed to differ (and virtually always does).
        let _ = c;
    }

    #[test]
    fn message_accounting() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 3);
        let prog = Program {
            seqs: vec![
                vec![InstanceId { node: x, iter: 0 }],
                vec![InstanceId { node: y, iter: 0 }],
            ],
            iters: 1,
        };
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(0)).unwrap();
        assert_eq!(sim.messages, 1);
        assert_eq!(sim.comm_cycles, 3);
        // y starts at remote_ready(1, 3) = 3.
        assert_eq!(sim.start_of(InstanceId { node: y, iter: 0 }), Some(3));
    }

    #[test]
    fn messages_count_every_charge_including_retries() {
        // c0 needs a0 (ready in the first round) and b0 (which waits for
        // e0, on a processor swept after c0's). The kernel charges a -> c
        // when it first tries c0 and again when c0 is retried, so the
        // fixpoint simulator counts 4 messages where the event engine
        // delivers 3 — with identical start times.
        let mut b = DdgBuilder::new();
        let a = b.node("a");
        let bn = b.node("b");
        let c = b.node("c");
        let e = b.node("e");
        b.dep(a, c);
        b.dep(bn, c);
        b.dep(e, bn);
        let g = b.build().unwrap();
        let m = MachineConfig::new(4, 2);
        let prog = Program {
            seqs: [a, bn, c, e]
                .iter()
                .map(|&node| vec![InstanceId { node, iter: 0 }])
                .collect(),
            iters: 1,
        };
        let t = TrafficModel::stable(0);
        let fixpoint = simulate(&prog, &g, &m, &t).unwrap();
        let event = simulate_event(&prog, &g, &m, &t, LinkModel::Unlimited).unwrap();
        assert_eq!(fixpoint.start, event.start);
        assert_eq!((fixpoint.messages, fixpoint.comm_cycles), (4, 8));
        assert_eq!((event.messages, event.comm_cycles), (3, 6));
    }

    #[test]
    fn utilization_bounds() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 20);
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(3)).unwrap();
        let u = sim.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn doacross_program_simulates() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = kn_doacross::doacross_schedule(&g, &m, 8, &Default::default()).unwrap();
        let sim = simulate(&s.program, &g, &m, &TrafficModel::stable(1)).unwrap();
        assert_eq!(sim.makespan, s.makespan());
        // Fluctuating traffic degrades DOACROSS too.
        let noisy = simulate(&s.program, &g, &m, &TrafficModel { mm: 5, seed: 1 }).unwrap();
        assert!(noisy.makespan >= sim.makespan);
    }

    #[test]
    fn sequential_time_is_body_latency_times_iters() {
        let g = figure7();
        assert_eq!(sequential_time(&g, 10), 50);
    }

    #[test]
    fn deadlock_detected() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![
                InstanceId { node: y, iter: 0 },
                InstanceId { node: x, iter: 0 },
            ]],
            iters: 1,
        };
        assert!(matches!(
            simulate(&prog, &g, &m, &TrafficModel::stable(0)),
            Err(ProgramError::Deadlock { .. })
        ));
    }

    #[test]
    fn fluctuation_is_bounded_and_stable() {
        let t = TrafficModel { mm: 5, seed: 123 };
        for e in 0..20u32 {
            for i in 0..50u32 {
                let f = t.fluctuation(EdgeId(e), i);
                assert!(f < 5);
                assert_eq!(f, t.fluctuation(EdgeId(e), i), "deterministic");
            }
        }
        let stable = TrafficModel::stable(9);
        assert_eq!(stable.fluctuation(EdgeId(0), 0), 0);
    }

    #[test]
    fn pattern_schedule_stays_valid_under_mm_one() {
        // End-to-end: instantiate, convert to program, simulate, validate
        // the observed placement as a schedule.
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 8);
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(2)).unwrap();
        let placements: Vec<Placement> = sim
            .start
            .iter()
            .map(|(inst, (proc, start))| Placement { inst, proc, start })
            .collect();
        ScheduleTable::new(placements).validate(&g, &m).unwrap();
    }

    #[test]
    fn sparse_and_dense_indexing_yield_identical_sim_results() {
        // The same degenerate program, straddling the index's sparse
        // threshold from both sides: the graph's node count sets the
        // rectangle size, so padding the graph with isolated (never
        // instantiated) nodes pushes the identical program from the dense
        // index into the sparse fallback without changing its semantics.
        // Every engine must produce identical `SimResult`s on both.
        let build_graph = |pads: usize| {
            let mut b = DdgBuilder::new();
            let x = b.node("x");
            let y = b.node("y");
            b.dep(x, y);
            for i in 0..pads {
                b.node(format!("pad{i}"));
            }
            b.build().unwrap()
        };
        // len = 2, iters = 41 -> sparse iff nodes * 41 > 2 * 8 + 4096.
        let dense_g = build_graph(98); // 100 * 41 = 4100 <= 4112
        let sparse_g = build_graph(99); // 101 * 41 = 4141 > 4112
        let inst = |node, iter| InstanceId {
            node: kn_ddg::NodeId(node),
            iter,
        };
        let prog = Program {
            seqs: vec![vec![inst(0, 40)], vec![inst(1, 40)]],
            iters: 41,
        };
        // A dense index spans the rectangle; a sparse one holds the program.
        let table_len = |g: &Ddg| InstanceIndex::build(&prog, g).unwrap().table_len();
        assert_eq!(table_len(&dense_g), 4100);
        assert_eq!(table_len(&sparse_g), 2);

        let m = MachineConfig::new(2, 3);
        let t = TrafficModel { mm: 3, seed: 17 };
        let a = simulate(&prog, &dense_g, &m, &t).unwrap();
        let b = simulate(&prog, &sparse_g, &m, &t).unwrap();
        assert_eq!(a, b, "fixpoint: dense vs sparse");
        assert!(a.makespan > 0 && a.messages == 1);
        for link in [LinkModel::Unlimited, LinkModel::SingleMessage] {
            for engine in [EventEngine::Heap, EventEngine::Calendar] {
                let a = simulate_event_with(&prog, &dense_g, &m, &t, link, engine).unwrap();
                let b = simulate_event_with(&prog, &sparse_g, &m, &t, link, engine).unwrap();
                assert_eq!(a, b, "event {link:?} {engine:?}: dense vs sparse");
            }
        }
    }
}
