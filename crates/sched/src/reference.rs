//! The retained map-based implementations — the executable
//! specifications the optimized code is tested against.
//!
//! [`cyclic_schedule_ref`] is the original `Cyclic-sched` implementation,
//! byte for byte in behavior: `live` in a `BTreeMap`, `remaining` in a
//! `HashMap`, a freshly allocated and sorted [`CanonState`] per anchor
//! placement, and the full-state [`StateDictionary`]. It exists for three
//! reasons:
//!
//! 1. **equivalence testing** — golden-snapshot and property tests assert
//!    the arena scheduler emits byte-identical `Placement` sequences and
//!    identical patterns (see `tests/golden_equivalence.rs`);
//! 2. **benchmarking** — the `kn-bench` binary measures the optimized core
//!    against this baseline and records the ratio in `BENCH_sched.json`;
//! 3. **legibility** — the maps-and-sorts formulation reads closest to the
//!    paper's Figure 4 and is the best starting point for understanding
//!    the scheduler.
//!
//! [`time_program`] / [`static_times`] are the original map-based
//! dataflow-timing sweep, the oracle that property tests hold
//! [`crate::program::time_program`] to: same `(processor, start)` per
//! instance, same makespan, same deadlock report, same message-cost calls.
//!
//! Nothing in the production pipeline calls into this module.

use crate::cyclic::{CyclicError, CyclicOptions, DetectorKind};
use crate::machine::{Cycle, MachineConfig};
use crate::pattern::{BlockSchedule, Pattern, PatternOutcome};
use crate::program::{Program, ProgramError};
use crate::state::{CanonState, StateDictionary, StateStamp};
use crate::table::Placement;
use kn_ddg::{Ddg, Edge, EdgeId, InstanceId, NodeId};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A live placement: scheduled, but some successor has not yet consumed it.
#[derive(Clone, Copy, Debug)]
struct Live {
    proc: u32,
    start: Cycle,
    unconsumed: u32,
}

/// The original map-based greedy scheduler core.
pub(crate) struct GreedyRef<'g> {
    g: &'g Ddg,
    m: &'g MachineConfig,
    queue: VecDeque<InstanceId>,
    /// Instances with some, but not all, predecessors scheduled.
    remaining: HashMap<InstanceId, u32>,
    /// Placed instances that can still be read by a future `T` computation.
    live: BTreeMap<InstanceId, Live>,
    proc_free: Vec<Cycle>,
    /// Every placement, in scheduling order.
    pub(crate) placements: Vec<Placement>,
    /// Optional bound on iteration indices (None = unbounded unwinding).
    max_iters: Option<u32>,
    /// Whether any node has in-degree 0 (such roots read the raw processor
    /// frontier, which forbids the idle-frontier clamp in `canon_state`).
    has_roots: bool,
}

impl<'g> GreedyRef<'g> {
    pub(crate) fn new(g: &'g Ddg, m: &'g MachineConfig, max_iters: Option<u32>) -> Self {
        let mut s = Self {
            g,
            m,
            queue: VecDeque::new(),
            remaining: HashMap::new(),
            live: BTreeMap::new(),
            proc_free: vec![0; m.processors],
            placements: Vec::new(),
            max_iters,
            has_roots: g.node_ids().any(|v| g.in_degree(v) == 0),
        };
        for v in g.node_ids() {
            if g.intra_in_degree(v) == 0 && s.in_range(0) {
                s.queue.push_back(InstanceId { node: v, iter: 0 });
            }
        }
        s
    }

    fn in_range(&self, iter: u32) -> bool {
        self.max_iters.map(|n| iter < n).unwrap_or(true)
    }

    /// Schedule the next ready instance. `None` when the queue is empty
    /// (only possible with a finite `max_iters`).
    pub(crate) fn step(&mut self) -> Option<Placement> {
        let inst = self.queue.pop_front()?;
        let lat = self.g.latency(inst.node) as Cycle;

        // Operand availability, gathered once per predecessor edge.
        let mut preds: Vec<(u32, Cycle, u32)> = Vec::new();
        for (_, e) in self.g.in_edges(inst.node) {
            if e.distance > inst.iter {
                continue;
            }
            let pred = InstanceId {
                node: e.src,
                iter: inst.iter - e.distance,
            };
            let li = self
                .live
                .get(&pred)
                .expect("ready instance has all preds live");
            let fin = li.start + self.g.latency(pred.node) as Cycle;
            preds.push((li.proc, fin, self.m.edge_cost(e)));
        }

        // T(v, Pj) for every processor; first minimum wins (paper Fig. 4).
        let mut best_t = Cycle::MAX;
        let mut best_p = 0usize;
        for (j, &free) in self.proc_free.iter().enumerate() {
            let mut t = free;
            for &(pp, fin, c) in &preds {
                let r = if pp == j as u32 {
                    self.m.local_ready(fin)
                } else {
                    self.m.remote_ready(fin, c)
                };
                if r > t {
                    t = r;
                }
            }
            if t < best_t {
                best_t = t;
                best_p = j;
            }
        }

        self.proc_free[best_p] = best_t + lat;
        let placement = Placement {
            inst,
            proc: best_p,
            start: best_t,
        };
        self.placements.push(placement);

        let outdeg = self.g.out_degree(inst.node) as u32;
        if outdeg > 0 {
            self.live.insert(
                inst,
                Live {
                    proc: best_p as u32,
                    start: best_t,
                    unconsumed: outdeg,
                },
            );
        }

        // Consume operands: a predecessor with no remaining consumers can
        // never be referenced again and leaves the live set.
        for (_, e) in self.g.in_edges(inst.node) {
            if e.distance > inst.iter {
                continue;
            }
            let pred = InstanceId {
                node: e.src,
                iter: inst.iter - e.distance,
            };
            let li = self.live.get_mut(&pred).expect("pred is live");
            li.unconsumed -= 1;
            if li.unconsumed == 0 {
                self.live.remove(&pred);
            }
        }

        // Release successors whose predecessor counts reach zero.
        for (_, e) in self.g.out_edges(inst.node) {
            let succ = InstanceId {
                node: e.dst,
                iter: inst.iter + e.distance,
            };
            if !self.in_range(succ.iter) {
                // Out-of-range consumer: retire the producer's obligation.
                if let Some(li) = self.live.get_mut(&inst) {
                    li.unconsumed -= 1;
                    if li.unconsumed == 0 {
                        self.live.remove(&inst);
                    }
                }
                continue;
            }
            let entry = self.remaining.entry(succ).or_insert_with(|| {
                self.g
                    .in_edges(succ.node)
                    .filter(|(_, e)| e.distance <= succ.iter)
                    .count() as u32
            });
            *entry -= 1;
            if *entry == 0 {
                self.remaining.remove(&succ);
                self.queue.push_back(succ);
            }
        }

        // Source nodes (no predecessors at all) self-advance: their next
        // iteration becomes ready as soon as this one is issued.
        if self.g.in_degree(inst.node) == 0 {
            let next = InstanceId {
                node: inst.node,
                iter: inst.iter + 1,
            };
            if self.in_range(next.iter) {
                self.queue.push_back(next);
            }
        }

        Some(placement)
    }

    /// A lower bound on the start time of every *future* placement.
    pub(crate) fn future_start_floor(&self) -> Cycle {
        let frontier = self.proc_free.iter().copied().min().unwrap_or(0);
        if self.has_roots {
            return frontier;
        }
        let live_floor = self
            .live
            .values()
            .map(|l| l.start + 1)
            .min()
            .unwrap_or(Cycle::MAX);
        frontier.max(live_floor)
    }

    /// Snapshot the scheduler state relative to the just-placed anchor.
    fn canon_state(&self, anchor: Placement) -> CanonState {
        let ai = anchor.inst.iter as i64;
        let at = anchor.start as i64;
        let mut remaining: Vec<(u32, i64, u32)> = self
            .remaining
            .iter()
            .map(|(inst, &c)| (inst.node.0, inst.iter as i64 - ai, c))
            .collect();
        remaining.sort_unstable();
        let mut live: Vec<(u32, i64, u32, i64, u32)> = self
            .live
            .iter()
            .map(|(inst, l)| {
                (
                    inst.node.0,
                    inst.iter as i64 - ai,
                    l.proc,
                    l.start as i64 - at,
                    l.unconsumed,
                )
            })
            .collect();
        live.sort_unstable();
        // Idle-frontier clamp; see `crate::cyclic::Greedy::canon_state`.
        let floor = if self.has_roots {
            i64::MIN
        } else {
            self.live
                .values()
                .map(|l| l.start as i64 + 1 - at)
                .min()
                .unwrap_or(i64::MIN)
        };
        CanonState {
            anchor_node: anchor.inst.node.0,
            anchor_proc: anchor.proc as u32,
            free: self
                .proc_free
                .iter()
                .map(|&f| (f as i64 - at).max(floor))
                .collect(),
            queue: self
                .queue
                .iter()
                .map(|q| (q.node.0, q.iter as i64 - ai))
                .collect(),
            remaining,
            live,
        }
    }
}

/// The original `cyclic_schedule`: full-state dictionary, map-based core.
/// Same contract as [`crate::cyclic::cyclic_schedule`].
pub fn cyclic_schedule_ref(
    g: &Ddg,
    m: &MachineConfig,
    opts: &CyclicOptions,
) -> Result<PatternOutcome, CyclicError> {
    if !g.distances_normalized() {
        return Err(CyclicError::NotNormalized);
    }
    let cap_placements = opts.unroll_cap as usize * g.node_count();
    let mut greedy = GreedyRef::new(g, m, None);
    let mut dict = StateDictionary::new();
    let mut windows = crate::window::WindowDetector::new(g, m);
    let mut anchor_node: Option<NodeId> = None;

    while greedy.placements.len() < cap_placements {
        let Some(p) = greedy.step() else { break };
        let anchor = *anchor_node.get_or_insert(p.inst.node);
        if p.inst.node != anchor {
            continue;
        }
        let stamp = StateStamp {
            iter: p.inst.iter,
            time: p.start,
            index: greedy.placements.len() - 1,
        };
        let matched = match opts.detector {
            DetectorKind::SchedulerState => dict
                .check(greedy.canon_state(p), stamp)
                .map(|prev| (prev, stamp)),
            DetectorKind::ConfigurationWindow => {
                let floor = greedy.future_start_floor();
                windows.on_anchor(&greedy.placements, floor, stamp)
            }
        };
        if let Some((prev, cur)) = matched {
            let kernel = greedy.placements[prev.index + 1..=cur.index].to_vec();
            let prologue = greedy.placements[..=prev.index].to_vec();
            let pattern = Pattern {
                prologue,
                kernel,
                iters_per_period: cur.iter - prev.iter,
                cycles_per_period: cur.time - prev.time,
            };
            if verify_by_replay_ref(&mut greedy, &pattern, cur.index, opts.verify_periods) {
                return Ok(PatternOutcome::Found(pattern));
            }
            match opts.detector {
                DetectorKind::ConfigurationWindow => continue,
                DetectorKind::SchedulerState => {
                    return Err(CyclicError::VerificationFailed {
                        at_placement: cur.index,
                    })
                }
            }
        }
    }

    Ok(PatternOutcome::CapFallback(block_fallback_ref(
        g,
        m,
        opts.unroll_cap,
    )))
}

fn verify_by_replay_ref(
    greedy: &mut GreedyRef<'_>,
    pattern: &Pattern,
    kernel_end: usize,
    periods: u32,
) -> bool {
    let klen = pattern.kernel.len();
    if klen == 0 {
        return false;
    }
    for n in 0..klen * periods as usize {
        let r = (n / klen) as u64 + 1;
        let j = n % klen;
        let base = pattern.kernel[j];
        let expect = Placement {
            inst: InstanceId {
                node: base.inst.node,
                iter: base.inst.iter + (r as u32) * pattern.iters_per_period,
            },
            proc: base.proc,
            start: base.start + r * pattern.cycles_per_period,
        };
        let idx = kernel_end + 1 + n;
        let got = if idx < greedy.placements.len() {
            greedy.placements[idx]
        } else {
            match greedy.step() {
                Some(p) => p,
                None => return false,
            }
        };
        if got != expect {
            return false;
        }
    }
    true
}

fn block_fallback_ref(g: &Ddg, m: &MachineConfig, iters: u32) -> BlockSchedule {
    let block = greedy_finite_ref(g, m, iters);
    let makespan = block
        .iter()
        .map(|p| p.start + g.latency(p.inst.node) as Cycle)
        .max()
        .unwrap_or(0);
    BlockSchedule {
        block,
        block_iters: iters.max(1),
        period: makespan + m.comm_upper_bound as Cycle,
    }
}

/// Finite-unwinding greedy, map-based core. See
/// [`crate::cyclic::greedy_finite`].
pub fn greedy_finite_ref(g: &Ddg, m: &MachineConfig, iters: u32) -> Vec<Placement> {
    let mut greedy = GreedyRef::new(g, m, Some(iters));
    while greedy.step().is_some() {}
    greedy.placements
}

/// Raw unbounded greedy placements, map-based core. See
/// [`crate::cyclic::greedy_unbounded`].
pub fn greedy_unbounded_ref(g: &Ddg, m: &MachineConfig, max_placements: usize) -> Vec<Placement> {
    let mut greedy = GreedyRef::new(g, m, None);
    while greedy.placements.len() < max_placements {
        if greedy.step().is_none() {
            break;
        }
    }
    greedy.placements
}

/// A map-based timing: `(processor, start)` per instance plus makespan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefTiming {
    pub start: HashMap<InstanceId, (usize, Cycle)>,
    pub makespan: Cycle,
}

/// The map-based [`crate::program::static_times`].
pub fn static_times(prog: &Program, g: &Ddg, m: &MachineConfig) -> Result<RefTiming, ProgramError> {
    time_program(prog, g, m, |_, e, _| m.edge_cost(e))
}

/// The map-based [`crate::program::time_program`]: a round-robin sweep
/// over processor heads with `HashMap<InstanceId, _>` tables.
pub fn time_program<F>(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    mut message_cost: F,
) -> Result<RefTiming, ProgramError>
where
    F: FnMut(EdgeId, &Edge, u32) -> u32,
{
    let mut assign: HashMap<InstanceId, usize> = HashMap::with_capacity(prog.len());
    for (p, seq) in prog.seqs.iter().enumerate() {
        for &inst in seq {
            assign.insert(inst, p);
        }
    }
    if assign.len() != prog.len() {
        return Err(ProgramError::DuplicateInstance);
    }
    let total = prog.len();
    let mut start: HashMap<InstanceId, (usize, Cycle)> = HashMap::with_capacity(total);
    let mut head = vec![0usize; prog.processors()];
    let mut clock = vec![0 as Cycle; prog.processors()];
    let mut timed = 0usize;
    let mut makespan = 0;

    // Round-robin sweep: time any processor whose head instance has all
    // operands timed. Terminates in at most `total` productive rounds.
    loop {
        let mut progress = false;
        for p in 0..prog.processors() {
            // A processor may become ready again immediately; drain greedily.
            while head[p] < prog.seqs[p].len() {
                let inst = prog.seqs[p][head[p]];
                let mut ready: Cycle = clock[p];
                let mut ok = true;
                for (eid, e) in g.in_edges(inst.node) {
                    if e.distance > inst.iter {
                        continue;
                    }
                    let pred = InstanceId {
                        node: e.src,
                        iter: inst.iter - e.distance,
                    };
                    if let Some(pp) = assign.get(&pred) {
                        match start.get(&pred) {
                            Some(&(sp, st)) => {
                                let fin = m.finish(st, g.latency(pred.node));
                                let r = if sp == p {
                                    m.local_ready(fin)
                                } else {
                                    m.remote_ready(fin, message_cost(eid, e, inst.iter))
                                };
                                ready = ready.max(r);
                                debug_assert_eq!(sp, *pp);
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    // pred not in program: ready at 0.
                }
                if !ok {
                    break;
                }
                let fin = m.finish(ready, g.latency(inst.node));
                start.insert(inst, (p, ready));
                clock[p] = fin;
                makespan = makespan.max(fin);
                head[p] += 1;
                timed += 1;
                progress = true;
            }
        }
        if timed == total {
            return Ok(RefTiming { start, makespan });
        }
        if !progress {
            return Err(ProgramError::Deadlock { timed, total });
        }
    }
}
