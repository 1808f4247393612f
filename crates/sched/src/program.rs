//! Programs: the executable form of a schedule, and the one kernel that
//! times them.
//!
//! A [`Program`] fixes, per processor, the *order* in which node instances
//! run — exactly what a compiler would emit for an asynchronous MIMD
//! machine (the per-processor subloops of the paper's Figure 7(e) and
//! Figure 10, with sends/receives implied by cross-processor edges). Actual
//! start times are then a *consequence*: each processor runs its next
//! instance as soon as the previous one finished and all operands have
//! arrived.
//!
//! Those start times are the least fixpoint of the dataflow constraints,
//! and [`time_program`] is the only code that computes it: a round-robin
//! sweep over processor heads, on tables addressed by the program's
//! [`InstanceIndex`]. Its caller supplies the cost of each cross-processor
//! message, and that cost function is all that distinguishes the two
//! timings the paper uses:
//!
//! * [`static_times`] charges the machine's estimate, `m.edge_cost(e)` —
//!   the timing the scheduler compares candidate programs by (§3);
//! * `kn_sim::simulate` charges the estimate plus the traffic model's
//!   per-message fluctuation, and counts messages as it charges them (the
//!   §4 `mm` experiments).
//!
//! The original map-based sweep is kept as the test oracle
//! ([`crate::reference::static_times`]).

use crate::dense::{InstanceIndex, StartTable};
use crate::machine::{Cycle, MachineConfig};
use kn_ddg::{Ddg, Edge, EdgeId, InstanceId};

/// Per-processor instance sequences for `iters` iterations of a loop.
#[derive(Clone, Debug)]
pub struct Program {
    /// `seqs[p]` is the ordered list of instances processor `p` executes.
    pub seqs: Vec<Vec<InstanceId>>,
    /// Number of loop iterations covered (instances have `iter < iters`).
    pub iters: u32,
}

impl Program {
    /// Number of processors (including idle ones).
    pub fn processors(&self) -> usize {
        self.seqs.len()
    }

    /// Total number of instances across all processors.
    pub fn len(&self) -> usize {
        self.seqs.iter().map(Vec::len).sum()
    }

    /// True if no instance is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of processors that execute at least one instance.
    pub fn used_processors(&self) -> usize {
        self.seqs.iter().filter(|s| !s.is_empty()).count()
    }

    /// Check that the program covers each instance of `g`'s nodes for
    /// iterations `0..iters` exactly once. Errors take precedence in the
    /// order [`ProgramError::DuplicateInstance`],
    /// [`ProgramError::IncompleteCover`], [`ProgramError::ForeignInstance`].
    pub fn check_complete(&self, g: &Ddg) -> Result<(), ProgramError> {
        InstanceIndex::build(self, g)?.check_cover(self, g)
    }

    /// [`Self::check_complete`] followed by [`static_times`], over one
    /// index: how the schedulers validate and time each candidate program.
    pub fn check_and_time(&self, g: &Ddg, m: &MachineConfig) -> Result<TimedProgram, ProgramError> {
        let index = InstanceIndex::build(self, g)?;
        index.check_cover(self, g)?;
        time_program(self, g, m, index, |_, e, _| m.edge_cost(e))
    }
}

/// Errors from program construction / timing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The same instance appears twice.
    DuplicateInstance,
    /// Not every instance of the iteration range is covered.
    IncompleteCover { have: usize, want: usize },
    /// An instance references a node/iteration outside the program's range.
    ForeignInstance(InstanceId),
    /// The per-processor orders deadlock: a dependence points "backwards"
    /// (processor A waits for an instance that sits *behind* another
    /// instance of A in its own sequence, transitively).
    Deadlock { timed: usize, total: usize },
    /// A caller-installed certification hook rejected the timed program.
    Certify(String),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::DuplicateInstance => write!(f, "instance scheduled twice"),
            ProgramError::IncompleteCover { have, want } => {
                write!(f, "program covers {have} instances, expected {want}")
            }
            ProgramError::ForeignInstance(i) => write!(f, "foreign instance {i}"),
            ProgramError::Deadlock { timed, total } => {
                write!(
                    f,
                    "program deadlocks after timing {timed}/{total} instances"
                )
            }
            ProgramError::Certify(msg) => {
                write!(f, "schedule certification failed: {msg}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// The result of timing a program: start cycles per instance plus makespan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedProgram {
    /// Start cycle and processor of every instance.
    pub start: StartTable,
    /// Completion time of the whole program.
    pub makespan: Cycle,
}

impl TimedProgram {
    /// Start cycle of an instance, if present.
    pub fn start_of(&self, inst: InstanceId) -> Option<Cycle> {
        self.start.start_of(inst)
    }

    /// Processor of an instance, if present.
    pub fn proc_of(&self, inst: InstanceId) -> Option<usize> {
        self.start.proc_of(inst)
    }
}

/// Compute start times for a program under the machine's *estimated* costs:
/// every processor executes its sequence in order, starting each instance at
/// `max(previous finish on this processor, operand-ready times)`.
///
/// Operands come from dependence edges `(u → v, d)`: instance `(v, i)` waits
/// for `(u, i - d)` whenever `i ≥ d` **and** that instance is part of the
/// program. Dependences on instances outside the program (e.g. Flow-in
/// producers when timing a Cyclic-only program) are treated as ready at
/// cycle 0, which matches the paper's practice of measuring the Cyclic core
/// in isolation (§3 footnote 16).
pub fn static_times(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
) -> Result<TimedProgram, ProgramError> {
    let index = InstanceIndex::build(prog, g)?;
    time_program(prog, g, m, index, |_, e, _| m.edge_cost(e))
}

/// The dataflow-timing kernel: time `prog` (indexed by `index`, built from
/// the same program) with `message_cost(edge_id, edge, consumer_iter)`
/// cycles charged for each operand that crosses processors.
///
/// Operand and processor-order rules are those of [`static_times`]. The
/// sweep visits processors round-robin and drains each as far as its
/// operands allow, so `message_cost` is called once per remote operand
/// each time its consumer is tried — again if the consumer then waits on
/// a later operand. The order of calls is deterministic.
pub fn time_program<F>(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    index: InstanceIndex,
    mut message_cost: F,
) -> Result<TimedProgram, ProgramError>
where
    F: FnMut(EdgeId, &Edge, u32) -> u32,
{
    const UNTIMED: Cycle = Cycle::MAX;
    let total = prog.len();
    let mut start = vec![UNTIMED; index.table_len()];
    let mut head = vec![0usize; prog.processors()];
    let mut clock = vec![0 as Cycle; prog.processors()];
    let mut timed = 0usize;
    let mut makespan = 0;

    // Terminates in at most `total` productive rounds.
    loop {
        let mut progress = false;
        for (p, seq) in prog.seqs.iter().enumerate() {
            // A processor may become ready again immediately; drain greedily.
            'drain: while let Some(&inst) = seq.get(head[p]) {
                let mut ready = clock[p];
                for (eid, e) in g.in_edges(inst.node) {
                    if e.distance > inst.iter {
                        continue;
                    }
                    let pred = InstanceId {
                        node: e.src,
                        iter: inst.iter - e.distance,
                    };
                    // An operand from outside the program is ready at 0.
                    let Some((sp, slot)) = index.lookup(pred) else {
                        continue;
                    };
                    if start[slot] == UNTIMED {
                        break 'drain;
                    }
                    let fin = m.finish(start[slot], g.latency(pred.node));
                    let r = if sp == p {
                        m.local_ready(fin)
                    } else {
                        m.remote_ready(fin, message_cost(eid, e, inst.iter))
                    };
                    ready = ready.max(r);
                }
                let fin = m.finish(ready, g.latency(inst.node));
                start[index.slot(inst)] = ready;
                clock[p] = fin;
                makespan = makespan.max(fin);
                head[p] += 1;
                timed += 1;
                progress = true;
            }
        }
        if timed == total {
            return Ok(TimedProgram {
                start: StartTable::new(index, start),
                makespan,
            });
        }
        if !progress {
            return Err(ProgramError::Deadlock { timed, total });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::{DdgBuilder, NodeId};

    fn inst(node: u32, iter: u32) -> InstanceId {
        InstanceId {
            node: NodeId(node),
            iter,
        }
    }

    /// x -> y intra, one iteration, both on P0.
    #[test]
    fn sequential_chain_times() {
        let mut b = DdgBuilder::new();
        let x = b.node_lat("x", 2);
        let y = b.node_lat("y", 3);
        b.dep(x, y);
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 2);
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(1, 0)]],
            iters: 1,
        };
        prog.check_complete(&g).unwrap();
        let t = static_times(&prog, &g, &m).unwrap();
        assert_eq!(t.start_of(inst(0, 0)), Some(0));
        assert_eq!(t.start_of(inst(1, 0)), Some(2));
        assert_eq!(t.makespan, 5);
        let _ = (x, y);
    }

    #[test]
    fn cross_processor_adds_comm_delay() {
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        b.dep(NodeId(0), NodeId(1));
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 3);
        let prog = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(1, 0)]],
            iters: 1,
        };
        let t = static_times(&prog, &g, &m).unwrap();
        // x finishes at 1; remote ready = 1 + 3 - 1 = 3.
        assert_eq!(t.start_of(inst(1, 0)), Some(3));
    }

    #[test]
    fn carried_dependence_across_iterations() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        b.carried(x, x);
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(0, 1), inst(0, 2)]],
            iters: 3,
        };
        let t = static_times(&prog, &g, &m).unwrap();
        assert_eq!(t.start_of(inst(0, 2)), Some(2));
        assert_eq!(t.makespan, 3);
    }

    #[test]
    fn deadlock_detected() {
        // y before x on the same processor, but x -> y forces x first…
        // on one processor that's fine (x ready at 0 — no wait, y needs x
        // which is *behind* it). Deadlock.
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        b.dep(NodeId(0), NodeId(1));
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![inst(1, 0), inst(0, 0)]],
            iters: 1,
        };
        let err = static_times(&prog, &g, &m).unwrap_err();
        assert_eq!(err, ProgramError::Deadlock { timed: 0, total: 2 });
    }

    #[test]
    fn missing_pred_treated_as_ready() {
        // Program contains only y; its pred x is absent -> ready at 0.
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        b.dep(NodeId(0), NodeId(1));
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![inst(1, 0)]],
            iters: 1,
        };
        let t = static_times(&prog, &g, &m).unwrap();
        assert_eq!(t.start_of(inst(1, 0)), Some(0));
    }

    #[test]
    fn completeness_check() {
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        let g = b.build().unwrap();
        let ok = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(1, 0)]],
            iters: 1,
        };
        ok.check_complete(&g).unwrap();
        let dup = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(0, 0)]],
            iters: 1,
        };
        assert_eq!(
            dup.check_complete(&g).unwrap_err(),
            ProgramError::DuplicateInstance
        );
        let incomplete = Program {
            seqs: vec![vec![inst(0, 0)]],
            iters: 1,
        };
        assert!(matches!(
            incomplete.check_complete(&g).unwrap_err(),
            ProgramError::IncompleteCover { .. }
        ));
        let foreign = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(5, 0)]],
            iters: 1,
        };
        assert!(matches!(
            foreign.check_complete(&g).unwrap_err(),
            ProgramError::ForeignInstance(_)
        ));
    }

    #[test]
    fn completeness_errors_keep_their_precedence() {
        let mut b = DdgBuilder::new();
        b.node("x");
        b.node("y");
        let g = b.build().unwrap();
        // Duplicated, incomplete and foreign at once: the duplicate wins.
        let all_three = Program {
            seqs: vec![vec![inst(0, 0), inst(5, 0)], vec![inst(0, 0)]],
            iters: 2,
        };
        assert_eq!(
            all_three.check_complete(&g),
            Err(ProgramError::DuplicateInstance)
        );
        // Incomplete and foreign: the count is reported.
        let short = Program {
            seqs: vec![vec![inst(0, 0), inst(5, 0)]],
            iters: 2,
        };
        assert_eq!(
            short.check_complete(&g),
            Err(ProgramError::IncompleteCover { have: 2, want: 4 })
        );
        // Right count, two foreign instances: the first in program order.
        let foreign = Program {
            seqs: vec![vec![inst(0, 0), inst(0, 1)], vec![inst(1, 2), inst(3, 0)]],
            iters: 2,
        };
        assert_eq!(
            foreign.check_complete(&g),
            Err(ProgramError::ForeignInstance(inst(1, 2)))
        );
        let m = MachineConfig::new(2, 1);
        assert_eq!(
            foreign.check_and_time(&g, &m).unwrap_err(),
            ProgramError::ForeignInstance(inst(1, 2))
        );
    }

    #[test]
    fn empty_program_with_zero_iterations_is_complete() {
        let mut b = DdgBuilder::new();
        b.node("x");
        b.node("y");
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 1);
        let empty = Program {
            seqs: vec![vec![], vec![]],
            iters: 0,
        };
        assert_eq!(empty.check_complete(&g), Ok(()));
        let t = empty.check_and_time(&g, &m).unwrap();
        assert_eq!(t.makespan, 0);
        assert!(t.start.is_empty());
        // With no iterations any instance is one too many.
        let stray = Program {
            seqs: vec![vec![inst(0, 0)], vec![]],
            iters: 0,
        };
        assert_eq!(
            stray.check_complete(&g),
            Err(ProgramError::IncompleteCover { have: 1, want: 0 })
        );
    }

    #[test]
    fn foreign_instance_at_iteration_2_pow_31_stays_small() {
        let mut b = DdgBuilder::new();
        b.node("x");
        b.node("y");
        let g = b.build().unwrap();
        let prog = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(1, 1 << 31)]],
            iters: 1,
        };
        // The index behind the check holds two slots, not 2 x 2^31.
        assert_eq!(InstanceIndex::build(&prog, &g).unwrap().table_len(), 2);
        assert_eq!(
            prog.check_complete(&g),
            Err(ProgramError::ForeignInstance(inst(1, 1 << 31)))
        );
    }

    #[test]
    fn used_processors_counts_nonempty() {
        let prog = Program {
            seqs: vec![vec![inst(0, 0)], vec![], vec![inst(1, 0)]],
            iters: 1,
        };
        assert_eq!(prog.processors(), 3);
        assert_eq!(prog.used_processors(), 2);
    }
}
