//! The dense dataflow-timing kernel (`kn_sched::time_program`, behind
//! `static_times` and `simulate`) against the map-based oracle
//! (`kn_sched::reference`): the same `(processor, start)` per instance,
//! the same makespan, the same `Deadlock { timed, total }`, and the same
//! sequence of message-cost calls, on every kind of program the pipeline
//! times.

use mimd_loop_par::ddg::{Ddg, InstanceId, SubsetKind};
use mimd_loop_par::doacross::{choose_order, doacross_program, Reorder};
use mimd_loop_par::sched::{
    reference, static_times, time_program, ArrivalConvention, FullOptions, InstanceIndex,
    MachineConfig, Program, ProgramError,
};
use mimd_loop_par::sim::TrafficModel;
use mimd_loop_par::workloads::{random_loop, RandomLoopConfig};
use proptest::prelude::*;

fn cfg(nodes: usize) -> RandomLoopConfig {
    RandomLoopConfig {
        nodes,
        lcds: nodes / 2,
        sds: nodes / 2,
        min_latency: 1,
        max_latency: 3,
    }
}

/// Kernel and oracle agree on `prog`, under the static cost and under a
/// fluctuating one. Returns whether the program deadlocked.
fn agree(prog: &Program, g: &Ddg, m: &MachineConfig, seed: u64) -> Result<bool, TestCaseError> {
    let fast = static_times(prog, g, m);
    let slow = reference::static_times(prog, g, m);
    let deadlocked = matches!(slow, Err(ProgramError::Deadlock { .. }));
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            prop_assert_eq!(f.makespan, s.makespan);
            prop_assert_eq!(f.start.len(), s.start.len());
            for (&inst, &v) in &s.start {
                prop_assert_eq!(f.start.get(inst), Some(v), "instance {}", inst);
            }
        }
        (f, s) => prop_assert_eq!(f.map(|_| ()), s.map(|_| ())),
    }

    // The simulator's cost function: every call, in order, must match.
    let traffic = TrafficModel { mm: 3, seed };
    let mut fast_calls = Vec::new();
    let mut slow_calls = Vec::new();
    let index = InstanceIndex::build(prog, g).unwrap();
    let fast = time_program(prog, g, m, index, |eid, e, iter| {
        fast_calls.push((eid, iter));
        m.edge_cost(e) + traffic.fluctuation(eid, iter)
    });
    let slow = reference::time_program(prog, g, m, |eid, e, iter| {
        slow_calls.push((eid, iter));
        m.edge_cost(e) + traffic.fluctuation(eid, iter)
    });
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            prop_assert_eq!(f.makespan, s.makespan);
            for (&inst, &v) in &s.start {
                prop_assert_eq!(f.start.get(inst), Some(v), "instance {}", inst);
            }
        }
        (f, s) => prop_assert_eq!(f.map(|_| ()), s.map(|_| ())),
    }
    prop_assert_eq!(fast_calls, slow_calls);
    Ok(deadlocked)
}

/// The same program with every iteration moved up by `1 << 20`: the
/// dependences are unchanged, but the index must fall back to a map.
fn shifted(prog: &Program) -> Program {
    let seqs = prog
        .seqs
        .iter()
        .map(|seq| {
            seq.iter()
                .map(|i| InstanceId {
                    node: i.node,
                    iter: i.iter + (1 << 20),
                })
                .collect()
        })
        .collect();
    Program {
        seqs,
        iters: prog.iters,
    }
}

/// Every processor runs its sequence backwards: usually a deadlock.
fn reversed(prog: &Program) -> Program {
    let seqs = prog
        .seqs
        .iter()
        .map(|s| s.iter().rev().copied().collect())
        .collect();
    Program {
        seqs,
        iters: prog.iters,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `schedule_loop`'s separate and merged candidates, their Cyclic-only
    /// subsets, DOACROSS natural and best orders, map-indexed copies and
    /// reversed (deadlocking) orders.
    #[test]
    fn dense_kernel_matches_map_oracle(
        seed in 0u64..5000,
        nodes in 3usize..14,
        k in 0u32..4,
        procs in 1usize..6,
        iters in 1u32..12,
        after_arrival in 0u32..2,
    ) {
        let g = random_loop(seed, &cfg(nodes));
        let arrival = if after_arrival == 1 {
            ArrivalConvention::AfterArrival
        } else {
            ArrivalConvention::ConsumeAtArrival
        };
        let m = MachineConfig { processors: procs, comm_upper_bound: k, arrival };
        let mut programs = Vec::new();
        for merge_tolerance in [None, Some(1e9)] {
            let opts = FullOptions { merge_tolerance, ..FullOptions::default() };
            let s = mimd_loop_par::sched::schedule_loop(&g, &m, iters, &opts).unwrap();
            // The schedule's own timing is the kernel's; it must be the oracle's.
            let oracle = reference::static_times(&s.program, &g, &m).unwrap();
            prop_assert_eq!(s.timing.makespan, oracle.makespan);
            let cyclic_only: Vec<Vec<InstanceId>> = s
                .program
                .seqs
                .iter()
                .map(|seq| {
                    seq.iter()
                        .copied()
                        .filter(|i| s.classification.kind_of(i.node) == SubsetKind::Cyclic)
                        .collect()
                })
                .collect();
            programs.push(Program { seqs: cyclic_only, iters });
            programs.push(s.program);
        }
        for reorder in [Reorder::Natural, Reorder::default()] {
            let order = choose_order(&g, &m, &reorder);
            programs.push(doacross_program(&order, procs, iters));
        }
        for prog in &programs {
            agree(prog, &g, &m, seed)?;
            let far = shifted(prog);
            if !far.is_empty() {
                let index = InstanceIndex::build(&far, &g).unwrap();
                prop_assert_eq!(index.table_len(), far.len(), "map-indexed");
            }
            agree(&far, &g, &m, seed)?;
            agree(&reversed(prog), &g, &m, seed)?;
        }
    }
}

/// The reversed orders above do reach the deadlock path, on both sides.
#[test]
fn reversed_orders_deadlock_identically() {
    let mut deadlocks = 0;
    for seed in 0..20 {
        let g = random_loop(seed, &cfg(8));
        let m = MachineConfig::new(3, 2);
        let order = choose_order(&g, &m, &Reorder::Natural);
        let prog = reversed(&doacross_program(&order, 3, 6));
        if agree(&prog, &g, &m, seed).unwrap() {
            deadlocks += 1;
        }
    }
    assert!(
        deadlocks >= 10,
        "only {deadlocks}/20 reversed orders deadlocked"
    );
}
