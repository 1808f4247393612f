//! The complete scheduling pipeline (paper Figure 6):
//!
//! 1. identify Flow-in / Cyclic / Flow-out subsets (`classification`);
//! 2. schedule the Cyclic subset (`Cyclic-sched`);
//! 3. schedule the Flow-in subset (`Flow-in-sched`);
//! 4. schedule the Flow-out subset (`Flow-out-sched`).
//!
//! This module additionally applies the paper's §3 refinement — folding
//! non-Cyclic nodes into a relatively idle Cyclic processor when that costs
//! "little or no additional delay" — by *measuring* both variants with
//! [`Program::check_and_time`] and keeping the merged one only if its
//! makespan stays within a configurable tolerance.
//!
//! Disconnected Cyclic subgraphs are scheduled per weakly-connected
//! component (paper §2.1), each on its own processor range.

use crate::cyclic::{cyclic_schedule, CyclicError, CyclicOptions};
use crate::flow::{flow_sequences, merge_candidate, subset_latency};
use crate::machine::{Cycle, MachineConfig};
use crate::pattern::PatternOutcome;
use crate::program::{Program, ProgramError, TimedProgram};
use crate::table::Placement;
use kn_ddg::{classify, split_components, Classification, Ddg, InstanceId, NodeId};

/// Options for [`schedule_loop`].
#[derive(Clone, Debug)]
pub struct FullOptions {
    /// Options forwarded to `Cyclic-sched`.
    pub cyclic: CyclicOptions,
    /// Relative makespan slowdown tolerated by the §3 merge heuristic
    /// (e.g. `0.1` = accept the merged program if it is at most 10% slower
    /// than the separate-processors program). `None` disables merging.
    pub merge_tolerance: Option<f64>,
    /// Optional static certification hook, run on every schedule this
    /// pipeline produces before it is returned. `kn-verify` provides
    /// `certify_loop_hook`; `kn-core` installs it in debug builds so any
    /// unsound schedule fails loudly instead of silently mis-executing.
    pub certify: Option<CertifyHook>,
}

/// Signature of the [`FullOptions::certify`] hook.
pub type CertifyHook = fn(&Ddg, &MachineConfig, &LoopSchedule) -> Result<(), String>;

impl Default for FullOptions {
    fn default() -> Self {
        Self {
            cyclic: CyclicOptions::default(),
            merge_tolerance: Some(0.10),
            certify: None,
        }
    }
}

/// How the non-Cyclic nodes ended up being placed.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowDecision {
    /// The loop has no non-Cyclic nodes.
    NoFlowNodes,
    /// Figure 5: dedicated extra processors.
    Separate {
        flow_in_procs: usize,
        flow_out_procs: usize,
    },
    /// §3 heuristic: folded into an idle Cyclic processor.
    Merged { proc: usize },
}

/// Errors from [`schedule_loop`].
#[derive(Clone, Debug, PartialEq)]
pub enum SchedLoopError {
    /// Distances must be pre-normalized (see `kn_ddg::normalize_distances`;
    /// the `kn-core` facade does this automatically).
    NotNormalized,
    Cyclic(CyclicError),
    Program(ProgramError),
    /// The `FullOptions::certify` hook rejected the produced schedule.
    Certify(String),
}

impl std::fmt::Display for SchedLoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedLoopError::NotNormalized => write!(f, "distances must be 0/1"),
            SchedLoopError::Cyclic(e) => write!(f, "cyclic scheduling failed: {e}"),
            SchedLoopError::Program(e) => write!(f, "program construction failed: {e}"),
            SchedLoopError::Certify(msg) => write!(f, "schedule certification failed: {msg}"),
        }
    }
}

impl std::error::Error for SchedLoopError {}

impl From<CyclicError> for SchedLoopError {
    fn from(e: CyclicError) -> Self {
        SchedLoopError::Cyclic(e)
    }
}

impl From<ProgramError> for SchedLoopError {
    fn from(e: ProgramError) -> Self {
        SchedLoopError::Program(e)
    }
}

/// A fully scheduled loop: assignment, order, and static timing for
/// `iters` iterations.
#[derive(Clone, Debug)]
pub struct LoopSchedule {
    /// The Flow-in / Cyclic / Flow-out split.
    pub classification: Classification,
    /// Pattern (or block fallback) per Cyclic component, node ids mapped
    /// back to the input graph, processors packed onto disjoint ranges.
    pub cyclic_outcomes: Vec<PatternOutcome>,
    /// The executable program (all subsets included).
    pub program: Program,
    /// Static timing of `program` under the machine's estimated costs.
    pub timing: TimedProgram,
    /// How non-Cyclic nodes were placed.
    pub flow_decision: FlowDecision,
    /// Number of iterations materialized.
    pub iters: u32,
}

impl LoopSchedule {
    /// Completion time under estimated costs.
    pub fn makespan(&self) -> Cycle {
        self.timing.makespan
    }

    /// Steady-state cycles per iteration of the Cyclic core (the slowest
    /// component gates the loop). `None` for DOALL loops.
    pub fn cyclic_ii(&self) -> Option<f64> {
        self.cyclic_outcomes
            .iter()
            .map(|o| o.steady_ii())
            .max_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Processors actually used.
    pub fn processors_used(&self) -> usize {
        self.program.used_processors()
    }
}

/// Schedule a loop end to end (paper Figure 6) for `iters` iterations.
pub fn schedule_loop(
    g: &Ddg,
    m: &MachineConfig,
    iters: u32,
    opts: &FullOptions,
) -> Result<LoopSchedule, SchedLoopError> {
    let sched = schedule_loop_inner(g, m, iters, opts)?;
    if let Some(certify) = opts.certify {
        certify(g, m, &sched).map_err(SchedLoopError::Certify)?;
    }
    Ok(sched)
}

fn schedule_loop_inner(
    g: &Ddg,
    m: &MachineConfig,
    iters: u32,
    opts: &FullOptions,
) -> Result<LoopSchedule, SchedLoopError> {
    if !g.distances_normalized() {
        return Err(SchedLoopError::NotNormalized);
    }
    let classification = classify(g);

    // DOALL loop: no Cyclic nodes; plain iteration interleaving over the
    // whole machine is optimal up to communication (paper §2.1).
    if classification.cyclic.is_empty() {
        let seqs = flow_sequences(g, &g.node_ids().collect::<Vec<_>>(), m.processors, iters);
        let program = Program { seqs, iters };
        let timing = program.check_and_time(g, m)?;
        return Ok(LoopSchedule {
            classification,
            cyclic_outcomes: Vec::new(),
            program,
            timing,
            flow_decision: FlowDecision::NoFlowNodes,
            iters,
        });
    }

    // --- Step 2: Cyclic-sched per weakly-connected Cyclic component. ---
    let (cyclic_sub, back) = g.induced_subgraph(&classification.cyclic);
    let mut outcomes: Vec<PatternOutcome> = Vec::new();
    let mut cyclic_placements: Vec<Placement> = Vec::new();
    let mut proc_base = 0usize;
    for (comp, comp_back) in split_components(&cyclic_sub) {
        let outcome = cyclic_schedule(&comp, m, &opts.cyclic)?;
        // Map node ids: component -> cyclic subgraph -> original graph.
        let outcome = outcome
            .map_nodes(|v| back[comp_back[v.index()].index()])
            .offset_procs(proc_base);
        let placements = outcome.instantiate(iters);
        let used = placements
            .iter()
            .map(|p| p.proc + 1)
            .max()
            .unwrap_or(proc_base);
        proc_base = used;
        cyclic_placements.extend(placements);
        outcomes.push(outcome);
    }
    let cyclic_procs = proc_base;

    // Per-processor cyclic sequences, ordered by start time.
    let mut by_proc: Vec<Vec<Placement>> = vec![Vec::new(); cyclic_procs];
    for p in &cyclic_placements {
        by_proc[p.proc].push(*p);
    }
    for seq in &mut by_proc {
        seq.sort_by_key(|p| (p.start, p.inst.iter, p.inst.node.0));
    }

    let flow_in = classification.flow_in.clone();
    let flow_out = classification.flow_out.clone();
    if flow_in.is_empty() && flow_out.is_empty() {
        let seqs: Vec<Vec<InstanceId>> = by_proc
            .iter()
            .map(|ps| ps.iter().map(|p| p.inst).collect())
            .collect();
        let program = Program { seqs, iters };
        let timing = program.check_and_time(g, m)?;
        return Ok(LoopSchedule {
            classification,
            cyclic_outcomes: outcomes,
            program,
            timing,
            flow_decision: FlowDecision::NoFlowNodes,
            iters,
        });
    }

    // --- Steps 3-4: Flow-in-sched / Flow-out-sched (Figure 5). ---
    let ii = outcomes
        .iter()
        .map(|o| o.steady_ii())
        .max_by(|a, b| a.partial_cmp(b).unwrap())
        .unwrap_or(1.0)
        .max(1e-9);
    let fi_lat = subset_latency(g, &flow_in);
    let fo_lat = subset_latency(g, &flow_out);
    let fi_procs = if fi_lat == 0 {
        0
    } else {
        ((fi_lat as f64 / ii).ceil() as usize).max(1)
    };
    let fo_procs = if fo_lat == 0 {
        0
    } else {
        ((fo_lat as f64 / ii).ceil() as usize).max(1)
    };

    let separate = build_separate(g, iters, &by_proc, &flow_in, &flow_out, fi_procs, fo_procs);
    let separate_timing = separate.check_and_time(g, m)?;

    // --- §3 merge heuristic: measured, not assumed. ---
    let merged_choice = opts.merge_tolerance.and_then(|tol| {
        // Only attempt when a single pattern governs the core.
        let pattern = match outcomes.as_slice() {
            [PatternOutcome::Found(p)] => p,
            _ => return None,
        };
        let target = merge_candidate(pattern, g, fi_lat + fo_lat)?;
        let merged = build_merged(
            g,
            iters,
            &by_proc,
            &cyclic_placements,
            &flow_in,
            &flow_out,
            target,
        );
        let timing = merged.check_and_time(g, m).ok()?;
        let limit = separate_timing.makespan as f64 * (1.0 + tol);
        (timing.makespan as f64 <= limit).then_some((target, merged, timing))
    });

    let (program, timing, flow_decision) = match merged_choice {
        Some((proc, program, timing)) => (program, timing, FlowDecision::Merged { proc }),
        None => (
            separate,
            separate_timing,
            FlowDecision::Separate {
                flow_in_procs: fi_procs,
                flow_out_procs: fo_procs,
            },
        ),
    };

    Ok(LoopSchedule {
        classification,
        cyclic_outcomes: outcomes,
        program,
        timing,
        flow_decision,
        iters,
    })
}

/// Figure 5 layout: Cyclic processors first, then Flow-in processors, then
/// Flow-out processors.
fn build_separate(
    g: &Ddg,
    iters: u32,
    cyclic_by_proc: &[Vec<Placement>],
    flow_in: &[NodeId],
    flow_out: &[NodeId],
    fi_procs: usize,
    fo_procs: usize,
) -> Program {
    let mut seqs: Vec<Vec<InstanceId>> = cyclic_by_proc
        .iter()
        .map(|ps| ps.iter().map(|p| p.inst).collect())
        .collect();
    seqs.extend(flow_sequences(g, flow_in, fi_procs, iters));
    seqs.extend(flow_sequences(g, flow_out, fo_procs, iters));
    Program { seqs, iters }
}

/// §3 merged layout: non-Cyclic nodes interleaved into processor `target`.
/// Flow-in nodes of iteration `i` are keyed just before the earliest Cyclic
/// instance of iteration `i`; Flow-out nodes just after the latest. If the
/// resulting order were infeasible, timing reports a deadlock and
/// the caller falls back to the separate layout.
fn build_merged(
    g: &Ddg,
    iters: u32,
    cyclic_by_proc: &[Vec<Placement>],
    cyclic_placements: &[Placement],
    flow_in: &[NodeId],
    flow_out: &[NodeId],
    target: usize,
) -> Program {
    let mut min_start = vec![Cycle::MAX; iters as usize];
    let mut max_finish = vec![0 as Cycle; iters as usize];
    for p in cyclic_placements {
        let i = p.inst.iter as usize;
        min_start[i] = min_start[i].min(p.start);
        max_finish[i] = max_finish[i].max(p.start + g.latency(p.inst.node) as Cycle);
    }
    // Keys: 2*start for cyclic work, 2*min_start - 1 for Flow-in (before),
    // 2*max_finish + 1 for Flow-out (after); stable secondary ordering by
    // (class, iteration, topo position).
    let topo = kn_ddg::intra_topo_order(g).expect("validated graph");
    let topo_pos = {
        let mut v = vec![0usize; g.node_count()];
        for (i, &n) in topo.iter().enumerate() {
            v[n.index()] = i;
        }
        v
    };
    let mut keyed: Vec<(i128, u8, u32, usize, InstanceId)> = Vec::new();
    for p in &cyclic_by_proc[target] {
        keyed.push((
            2 * p.start as i128,
            1,
            p.inst.iter,
            topo_pos[p.inst.node.index()],
            p.inst,
        ));
    }
    for i in 0..iters {
        for &n in flow_in {
            let key = 2 * min_start[i as usize] as i128 - 1;
            keyed.push((
                key,
                0,
                i,
                topo_pos[n.index()],
                InstanceId { node: n, iter: i },
            ));
        }
        for &n in flow_out {
            let key = 2 * max_finish[i as usize] as i128 + 1;
            keyed.push((
                key,
                2,
                i,
                topo_pos[n.index()],
                InstanceId { node: n, iter: i },
            ));
        }
    }
    keyed.sort();
    let mut seqs: Vec<Vec<InstanceId>> = cyclic_by_proc
        .iter()
        .map(|ps| ps.iter().map(|p| p.inst).collect())
        .collect();
    seqs[target] = keyed.into_iter().map(|(_, _, _, _, inst)| inst).collect();
    Program { seqs, iters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ScheduleTable;
    use kn_ddg::{DdgBuilder, SubsetKind};

    /// Figure 7's all-Cyclic loop.
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

    /// A loop with all three subsets: chain in -> core -> out.
    fn mixed() -> Ddg {
        let mut b = DdgBuilder::new();
        let fin1 = b.node("i1");
        let fin2 = b.node("i2");
        let c1 = b.node("c1");
        let c2 = b.node("c2");
        let out1 = b.node("o1");
        b.dep(fin1, fin2);
        b.dep(fin2, c1);
        b.dep(c1, c2);
        b.carried(c2, c1);
        b.dep(c2, out1);
        b.build().unwrap()
    }

    #[test]
    fn figure7_full_schedule_valid() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 12, &FullOptions::default()).unwrap();
        assert_eq!(s.flow_decision, FlowDecision::NoFlowNodes);
        assert_eq!(s.program.len(), 12 * g.node_count());
        let table = ScheduleTable::from_timed(&s.timing);
        table.validate(&g, &m).unwrap();
        assert!((s.cyclic_ii().unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn mixed_loop_covers_all_subsets() {
        let g = mixed();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 10, &FullOptions::default()).unwrap();
        let c = &s.classification;
        assert_eq!(c.kind_of(g.find("i1").unwrap()), SubsetKind::FlowIn);
        assert_eq!(c.kind_of(g.find("c1").unwrap()), SubsetKind::Cyclic);
        assert_eq!(c.kind_of(g.find("o1").unwrap()), SubsetKind::FlowOut);
        assert_eq!(s.program.len(), 10 * g.node_count());
        ScheduleTable::from_timed(&s.timing)
            .validate(&g, &m)
            .unwrap();
    }

    #[test]
    fn merge_heuristic_saves_processors_when_core_is_idle() {
        // Core: c1 -> c2 -> (carried) c1: II = 2 on one processor with the
        // other slot busy... actually both on one processor; core leaves
        // plenty of idle room only if spread over 2 procs. Use a wider
        // tolerance and simply assert both variants are *valid*; the
        // decision itself is measured.
        let g = mixed();
        let m = MachineConfig::new(4, 1);
        let merged = schedule_loop(
            &g,
            &m,
            16,
            &FullOptions {
                merge_tolerance: Some(10.0),
                ..FullOptions::default()
            },
        )
        .unwrap();
        let separate = schedule_loop(
            &g,
            &m,
            16,
            &FullOptions {
                merge_tolerance: None,
                ..FullOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(
            separate.flow_decision,
            FlowDecision::Separate { .. }
        ));
        ScheduleTable::from_timed(&merged.timing)
            .validate(&g, &m)
            .unwrap();
        ScheduleTable::from_timed(&separate.timing)
            .validate(&g, &m)
            .unwrap();
        if let FlowDecision::Merged { .. } = merged.flow_decision {
            assert!(merged.processors_used() <= separate.processors_used());
        }
    }

    #[test]
    fn doall_loop_interleaves_iterations() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        let m = MachineConfig::new(4, 1);
        let s = schedule_loop(&g, &m, 8, &FullOptions::default()).unwrap();
        assert!(s.classification.is_doall());
        assert!(s.cyclic_ii().is_none());
        assert_eq!(s.processors_used(), 4);
        ScheduleTable::from_timed(&s.timing)
            .validate(&g, &m)
            .unwrap();
        // 8 iterations of latency 2 over 4 procs: makespan 4.
        assert_eq!(s.makespan(), 4);
    }

    #[test]
    fn disconnected_cyclic_components_get_disjoint_processors() {
        let mut b = DdgBuilder::new();
        let a = b.node("a");
        let c = b.node("c");
        b.carried(a, a);
        b.carried(c, c);
        let g = b.build().unwrap();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 10, &FullOptions::default()).unwrap();
        assert_eq!(s.cyclic_outcomes.len(), 2);
        let table = ScheduleTable::from_timed(&s.timing);
        table.validate(&g, &m).unwrap();
        // Each self-loop runs on its own processor at II = 1.
        assert_eq!(s.makespan(), 10);
        assert_eq!(s.processors_used(), 2);
    }

    #[test]
    fn rejects_unnormalized() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        b.dep_dist(x, x, 3);
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 1);
        assert_eq!(
            schedule_loop(&g, &m, 4, &FullOptions::default()).unwrap_err(),
            SchedLoopError::NotNormalized
        );
    }

    #[test]
    fn elliptic_filter_merges_its_flow_out_node() {
        // The real §3 case: the elliptic filter's single Flow-out node fits
        // into a Cyclic processor's idle slots; the measured merge decision
        // must fire and save a processor vs the separate layout.
        let w = kn_workloads::elliptic();
        let m = MachineConfig::new(w.procs, w.k);
        let merged = schedule_loop(&w.graph, &m, 30, &FullOptions::default()).unwrap();
        assert!(
            matches!(merged.flow_decision, FlowDecision::Merged { .. }),
            "expected merge, got {:?}",
            merged.flow_decision
        );
        let separate = schedule_loop(
            &w.graph,
            &m,
            30,
            &FullOptions {
                merge_tolerance: None,
                ..FullOptions::default()
            },
        )
        .unwrap();
        assert!(merged.processors_used() < separate.processors_used());
        // And the merged program costs (almost) nothing.
        let limit = separate.makespan() as f64 * 1.10;
        assert!((merged.makespan() as f64) <= limit);
        ScheduleTable::from_timed(&merged.timing)
            .validate(&w.graph, &m)
            .unwrap();
    }

    #[test]
    fn cytron86_uses_five_subloops_like_figure10() {
        let w = kn_workloads::cytron86();
        let m = MachineConfig::new(w.procs, w.k);
        let s = schedule_loop(&w.graph, &m, 30, &FullOptions::default()).unwrap();
        match s.flow_decision {
            FlowDecision::Separate {
                flow_in_procs,
                flow_out_procs,
            } => {
                assert_eq!(flow_in_procs, 3, "ceil(13/6) Flow-in processors");
                assert_eq!(flow_out_procs, 0);
                assert_eq!(
                    s.processors_used(),
                    5,
                    "2 Cyclic + 3 Flow-in (paper Fig. 10)"
                );
            }
            other => panic!("expected separate flow processors, got {other:?}"),
        }
    }

    #[test]
    fn timing_is_at_least_pattern_rate() {
        // The full program's makespan per iteration cannot beat the
        // pattern's steady II.
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let iters = 40;
        let s = schedule_loop(&g, &m, iters, &FullOptions::default()).unwrap();
        let per_iter = s.makespan() as f64 / iters as f64;
        assert!(per_iter + 1e-9 >= s.cyclic_ii().unwrap() * 0.99);
    }
}
