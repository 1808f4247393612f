//! A large request answers the same line whether its program is timed by
//! the dense kernel (the service path) or by the map-based oracle.

use kn_core::metrics::percentage_parallelism_clamped;
use kn_core::sched::{reference, schedule_loop, FullOptions, MachineConfig};
use kn_core::service::wire::{parse_request_line, response_json};
use kn_core::service::{execute, LoopOutcome, ScheduleRequest, ScheduleResponse, SchedulerChoice};
use kn_core::sim::sequential_time;

#[test]
fn figure7_at_200000_iterations_matches_the_oracle_timed_line() {
    let iters = 200_000;
    let parsed = parse_request_line(&format!("corpus=figure7 iters={iters} mm=3 seed=5"))
        .unwrap()
        .unwrap();
    let ScheduleRequest::Loop(r) = &parsed.req else {
        panic!("a loop request");
    };
    let got = response_json(0, &execute(&parsed.req));

    // The same schedule, simulated by the oracle sweep with the
    // simulator's message cost.
    let w = kn_core::workloads::figure7();
    let m = MachineConfig::new(w.procs, w.k);
    let s = schedule_loop(&w.graph, &m, iters, &FullOptions::default()).unwrap();
    let (mut messages, mut comm_cycles) = (0u64, 0u64);
    let timed = reference::time_program(&s.program, &w.graph, &m, |eid, e, iter| {
        let cost = m.edge_cost(e) + r.traffic.fluctuation(eid, iter);
        messages += 1;
        comm_cycles += cost as u64;
        cost
    })
    .unwrap();
    let seq_time = sequential_time(&w.graph, iters);
    let want = response_json(
        0,
        &Ok(ScheduleResponse::Loop(LoopOutcome {
            name: "figure7".into(),
            scheduler: SchedulerChoice::Cyclic,
            processors_used: s.processors_used(),
            seq_time,
            makespan: timed.makespan,
            sp: percentage_parallelism_clamped(seq_time, timed.makespan),
            messages,
            comm_cycles,
            ii: s.cyclic_ii(),
            transform: None,
        })),
    );
    assert_eq!(got, want);
    assert!(messages > 0 && timed.makespan > seq_time / 2);
}
