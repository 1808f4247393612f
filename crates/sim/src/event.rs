//! Event-driven simulator with an explicit interconnect model.
//!
//! The paper assumes **fully overlapped** communication — any number of
//! messages in flight, no link contention (§4). That is exactly
//! [`crate::simulate`]. This module generalizes the machine with a
//! discrete-event engine whose links can instead carry **one message at a
//! time** ([`LinkModel::SingleMessage`]): messages between the same
//! ordered processor pair serialize, modelling a narrow point-to-point
//! interconnect. With [`LinkModel::Unlimited`] the event engine reproduces
//! the fixpoint simulator cycle for cycle (tested), which pins its
//! correctness.
//!
//! # Event-ordering contract
//!
//! The engine guarantees, independently of the queue implementation:
//!
//! 1. **Time order**: events pop in non-decreasing cycle order.
//! 2. **FIFO ties**: events scheduled for the *same* cycle pop in the
//!    order they were pushed. Every event carries a monotone sequence
//!    number assigned at push time; the queue orders by `(cycle, seq)` and
//!    nothing else. (Before this contract existed, same-cycle ties popped
//!    in the derived `Ord` of `EventKind` — deterministic but accidental:
//!    reordering enum variants would have silently changed tie order.)
//! 3. **Link send order = event order**: a `SingleMessage` link's frontier
//!    (`link_free`) advances in the order transmissions are processed, so
//!    the FIFO tie rule is exactly the statement "messages queue on a link
//!    in send order".
//!
//! # Queue engines
//!
//! Two interchangeable queues implement the contract
//! ([`EventEngine::Heap`], [`EventEngine::Calendar`]); they produce
//! byte-identical [`SimResult`]s (corpus- and property-tested):
//!
//! * **Heap** — a `BinaryHeap` keyed by `(cycle, seq)`: `O(log n)` per
//!   operation, no tuning, the reference implementation.
//! * **Calendar** (default) — a bucketed calendar queue: a cycle-indexed
//!   ring of buckets covering `[now, now + buckets.len())`, one bucket per
//!   cycle, each bucket a vector drained in push (= seq) order, so
//!   same-cycle FIFO holds *by construction*. Push and pop are `O(1)`
//!   amortized. Events beyond the ring horizon park in an overflow heap
//!   and migrate into the ring as the horizon advances; sustained overflow
//!   pressure lazily doubles the ring (up to the internal `MAX_BUCKETS`
//!   cap), so
//!   long-horizon contention backlogs — the expensive case for the heap,
//!   whose `log n` grows with the backlog — stay `O(1)` per event. This is
//!   what makes 10⁵-iteration `SingleMessage` sweeps cheap (see
//!   `BENCH_sched.json`'s `event_entries`).

use crate::{SimResult, TrafficModel};
use kn_ddg::{Ddg, InstanceId};
use kn_sched::{
    ArrivalConvention, Cycle, InstanceIndex, MachineConfig, Program, ProgramError, StartTable,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Interconnect capacity model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LinkModel {
    /// Fully overlapped communication (the paper's assumption): unlimited
    /// messages in flight per link.
    #[default]
    Unlimited,
    /// Each directed processor pair carries one message at a time;
    /// messages queue in send order.
    SingleMessage,
}

impl LinkModel {
    /// Parse a user-facing token (CLI `--link`, service wire `link=`):
    /// `unlimited`, `single`, or `single-message`. One table so the two
    /// front ends cannot drift.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "unlimited" => Some(LinkModel::Unlimited),
            "single" | "single-message" => Some(LinkModel::SingleMessage),
            _ => None,
        }
    }
}

/// Which event-queue implementation drives the engine. Both satisfy the
/// module-level ordering contract and produce identical results; they
/// differ only in cost (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EventEngine {
    /// `BinaryHeap` keyed by `(cycle, seq)`: `O(log n)` per event.
    Heap,
    /// Bucketed calendar queue: `O(1)` amortized per event, FIFO ties by
    /// construction. The default.
    #[default]
    Calendar,
}

impl EventEngine {
    /// Parse a user-facing token (CLI `--engine`, service wire
    /// `engine=`): `heap` or `calendar`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "heap" => Some(EventEngine::Heap),
            "calendar" => Some(EventEngine::Calendar),
            _ => None,
        }
    }
}

/// `EventKind` needs no ordering of its own: ties are broken exclusively
/// by the sequence number (unique per queue), so the derived `Ord` used by
/// the heap-backed queue's tuples is never consulted between distinct
/// kinds at the same `(cycle, seq)` — such a pair cannot exist.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    /// An instance finished on a processor: `(proc, node, iter)`.
    Finish(usize, u32, u32),
    /// A remote operand became usable by `(node, iter)` on its processor.
    Arrive(u32, u32),
}

/// Heap entry: `Reverse` turns the max-heap into a min-queue on
/// `(cycle, seq)`. The `seq` component is unique, so `EventKind` never
/// decides an ordering.
type HeapEntry = Reverse<(Cycle, u64, EventKind)>;

/// Reference queue: binary heap with the FIFO tie-break.
struct HeapQueue {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
}

impl HeapQueue {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    #[inline]
    fn push(&mut self, time: Cycle, kind: EventKind) {
        self.heap.push(Reverse((time, self.seq, kind)));
        self.seq += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<(Cycle, EventKind)> {
        self.heap.pop().map(|Reverse((t, _, k))| (t, k))
    }
}

/// Ring size the calendar queue starts with; doubles under overflow
/// pressure. 1024 buckets is 24 KiB of headers — small enough to always
/// pay, large enough that short sims never resize.
const INITIAL_BUCKETS: usize = 1024;
/// Lazy-resize ceiling: ~10⁶ cycles of horizon. Beyond this span the far
/// future stays in the overflow heap (still correct, merely `O(log n)` for
/// those events).
const MAX_BUCKETS: usize = 1 << 20;

/// Bucketed calendar queue (see the module docs for the design).
///
/// Invariants:
/// * `buckets[t & mask]` holds exactly the pending events for cycle `t`,
///   for `t` in `[now, now + buckets.len())`, as `(seq, kind)` pairs in
///   increasing `seq` order;
/// * entries in `[0, cursor)` of the current bucket (`now & mask`) have
///   already been popped; past buckets are cleared when `now` advances;
/// * `overflow` holds exactly the events at cycles `>= now +
///   buckets.len()`, keyed `(cycle, seq)`.
///
/// Per-bucket seq order needs no sorting: a direct push to cycle `t`
/// happens only while `t` is inside the horizon, an overflow park only
/// while it is outside, and the horizon end is monotone — so every
/// overflow event for `t` predates (in seq) every direct push for `t`,
/// and migration drains the overflow heap in `(cycle, seq)` order before
/// any direct push can target the newly covered cycle.
struct CalendarQueue {
    buckets: Vec<Vec<(u64, EventKind)>>,
    mask: u64,
    /// Cycle owning the bucket currently being drained; never decreases.
    now: Cycle,
    /// Read index into the current bucket.
    cursor: usize,
    /// Live events stored in the ring.
    ring_len: usize,
    /// Events beyond the ring horizon.
    overflow: BinaryHeap<HeapEntry>,
    seq: u64,
}

impl CalendarQueue {
    fn new() -> Self {
        Self::with_capacity(INITIAL_BUCKETS)
    }

    /// `capacity` is rounded up to a power of two. Small capacities are
    /// used by tests to force the overflow/grow/jump paths.
    fn with_capacity(capacity: usize) -> Self {
        let n = capacity.next_power_of_two().min(MAX_BUCKETS);
        Self {
            buckets: vec![Vec::new(); n],
            mask: n as u64 - 1,
            now: 0,
            cursor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    #[inline]
    fn horizon_end(&self) -> Cycle {
        self.now + self.buckets.len() as Cycle
    }

    #[inline]
    fn push(&mut self, time: Cycle, kind: EventKind) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let seq = self.seq;
        self.seq += 1;
        if time < self.horizon_end() {
            self.buckets[(time & self.mask) as usize].push((seq, kind));
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((time, seq, kind)));
            // Every parked event is handled twice (heap round-trip plus
            // the ring), so resize eagerly: a quarter-full overflow
            // already means the horizon chronically trails the backlog.
            if self.overflow.len() * 4 > self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
                self.grow();
            }
        }
    }

    fn pop(&mut self) -> Option<(Cycle, EventKind)> {
        loop {
            let idx = (self.now & self.mask) as usize;
            if self.cursor < self.buckets[idx].len() {
                let (seq, kind) = self.buckets[idx][self.cursor];
                debug_assert!(
                    self.cursor == 0 || self.buckets[idx][self.cursor - 1].0 < seq,
                    "bucket not in push order"
                );
                let _ = seq;
                self.cursor += 1;
                self.ring_len -= 1;
                return Some((self.now, kind));
            }
            // Current bucket exhausted: recycle it and move time forward.
            self.buckets[idx].clear();
            self.cursor = 0;
            if self.ring_len > 0 {
                // Next event is inside the horizon; step one cycle.
                self.now += 1;
            } else {
                // Ring empty: jump straight to the earliest parked cycle.
                let &Reverse((t, _, _)) = self.overflow.peek()?;
                self.now = t;
            }
            self.migrate();
        }
    }

    /// Pull every parked event now inside the horizon into the ring, in
    /// `(cycle, seq)` order.
    fn migrate(&mut self) {
        let end = self.horizon_end();
        while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
            if t >= end {
                break;
            }
            let Reverse((t, s, k)) = self.overflow.pop().expect("peeked");
            self.buckets[(t & self.mask) as usize].push((s, k));
            self.ring_len += 1;
        }
    }

    /// Double the ring and re-home its live range, then drain newly
    /// covered overflow. Amortized against the overflow pressure that
    /// triggered it.
    fn grow(&mut self) {
        let new_len = (self.buckets.len() * 2).min(MAX_BUCKETS);
        if new_len == self.buckets.len() {
            return;
        }
        let new_mask = new_len as u64 - 1;
        let mut buckets: Vec<Vec<(u64, EventKind)>> = vec![Vec::new(); new_len];
        for t in self.now..self.horizon_end() {
            let old = std::mem::take(&mut self.buckets[(t & self.mask) as usize]);
            if !old.is_empty() {
                buckets[(t & new_mask) as usize] = old;
            }
        }
        self.buckets = buckets;
        self.mask = new_mask;
        self.migrate();
    }
}

/// The engine's event queue: one of the two interchangeable
/// implementations of the ordering contract.
enum Queue {
    Heap(HeapQueue),
    Calendar(CalendarQueue),
}

impl Queue {
    fn new(engine: EventEngine) -> Self {
        match engine {
            EventEngine::Heap => Queue::Heap(HeapQueue::new()),
            EventEngine::Calendar => Queue::Calendar(CalendarQueue::new()),
        }
    }

    #[inline]
    fn push(&mut self, time: Cycle, kind: EventKind) {
        match self {
            Queue::Heap(q) => q.push(time, kind),
            Queue::Calendar(q) => q.push(time, kind),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(Cycle, EventKind)> {
        match self {
            Queue::Heap(q) => q.pop(),
            Queue::Calendar(q) => q.pop(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct InstState {
    /// Predecessor values still outstanding.
    waits: u32,
    /// Max over operand-ready times seen so far.
    ready: Cycle,
}

/// Run `prog` through the event engine with the default queue
/// ([`EventEngine::Calendar`]).
pub fn simulate_event(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    traffic: &TrafficModel,
    link: LinkModel,
) -> Result<SimResult, ProgramError> {
    simulate_event_with(prog, g, m, traffic, link, EventEngine::default())
}

/// Run `prog` through the event engine with an explicit queue choice.
pub fn simulate_event_with(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    traffic: &TrafficModel,
    link: LinkModel,
    engine: EventEngine,
) -> Result<SimResult, ProgramError> {
    // Per-instance tables addressed by the program's dense index.
    let index = InstanceIndex::build(prog, g)?;
    let nprocs = prog.processors();
    let total = prog.len();

    // Per-instance dependence bookkeeping.
    let mut state: Vec<InstState> = vec![InstState { waits: 0, ready: 0 }; index.table_len()];
    for seq in prog.seqs.iter() {
        for &inst in seq {
            let waits = g
                .in_edges(inst.node)
                .filter(|(_, e)| {
                    e.distance <= inst.iter
                        && index
                            .proc_of(InstanceId {
                                node: e.src,
                                iter: inst.iter - e.distance,
                            })
                            .is_some()
                })
                .count() as u32;
            state[index.slot(inst)].waits = waits;
        }
    }

    let mut head = vec![0usize; nprocs];
    let mut busy = vec![false; nprocs];
    let mut clock = vec![0 as Cycle; nprocs];
    // Start cycle per slot; meaningful once every instance has started.
    let mut start_times: Vec<Cycle> = vec![0; index.table_len()];
    // Directed-pair link frontier, `p * nprocs + sp`.
    let mut link_free: Vec<Cycle> = vec![0; nprocs * nprocs];
    let mut queue = Queue::new(engine);
    let mut messages = 0u64;
    let mut comm_cycles = 0u64;
    let mut done = 0usize;

    // Try to issue the head instance of processor `p` at time `now`.
    let try_start = |p: usize,
                     now: Cycle,
                     head: &mut [usize],
                     busy: &mut [bool],
                     clock: &mut [Cycle],
                     state: &[InstState],
                     start_times: &mut [Cycle],
                     queue: &mut Queue| {
        if busy[p] || head[p] >= prog.seqs[p].len() {
            return;
        }
        let inst = prog.seqs[p][head[p]];
        let slot = index.slot(inst);
        let st = state[slot];
        if st.waits > 0 {
            return;
        }
        let start = clock[p].max(st.ready).max(now);
        let lat = g.latency(inst.node) as Cycle;
        start_times[slot] = start;
        busy[p] = true;
        queue.push(start + lat, EventKind::Finish(p, inst.node.0, inst.iter));
    };

    // Seed: every processor attempts its first instance at time 0.
    for p in 0..nprocs {
        try_start(
            p,
            0,
            &mut head,
            &mut busy,
            &mut clock,
            &state,
            &mut start_times,
            &mut queue,
        );
    }

    let mut makespan = 0;
    while let Some((now, kind)) = queue.pop() {
        match kind {
            EventKind::Finish(p, node, iter) => {
                let inst = InstanceId {
                    node: kn_ddg::NodeId(node),
                    iter,
                };
                clock[p] = now;
                busy[p] = false;
                head[p] += 1;
                done += 1;
                makespan = makespan.max(now);

                // Release consumers.
                for (eid, e) in g.out_edges(inst.node) {
                    let succ = InstanceId {
                        node: e.dst,
                        iter: inst.iter + e.distance,
                    };
                    let Some((sp, slot)) = index.lookup(succ) else {
                        continue;
                    };
                    if sp == p {
                        let st = &mut state[slot];
                        st.waits -= 1;
                        st.ready = st.ready.max(now);
                        if st.waits == 0 {
                            try_start(
                                p,
                                now,
                                &mut head,
                                &mut busy,
                                &mut clock,
                                &state,
                                &mut start_times,
                                &mut queue,
                            );
                        }
                    } else {
                        // Transmit. Send order on a link = event order
                        // (the FIFO tie rule of the module contract).
                        let cost = (m.edge_cost(e) + traffic.fluctuation(eid, succ.iter)).max(1);
                        messages += 1;
                        comm_cycles += cost as u64;
                        let depart = match link {
                            LinkModel::Unlimited => now,
                            LinkModel::SingleMessage => {
                                let free = &mut link_free[p * nprocs + sp];
                                let depart = (*free).max(now);
                                *free = depart + cost as Cycle;
                                depart
                            }
                        };
                        let usable = match m.arrival {
                            ArrivalConvention::ConsumeAtArrival => {
                                depart + cost.saturating_sub(1) as Cycle
                            }
                            ArrivalConvention::AfterArrival => depart + cost as Cycle,
                        };
                        queue.push(usable, EventKind::Arrive(succ.node.0, succ.iter));
                    }
                }
                // This processor may proceed with its next instance.
                try_start(
                    p,
                    now,
                    &mut head,
                    &mut busy,
                    &mut clock,
                    &state,
                    &mut start_times,
                    &mut queue,
                );
            }
            EventKind::Arrive(node, iter) => {
                let inst = InstanceId {
                    node: kn_ddg::NodeId(node),
                    iter,
                };
                let (p, slot) = index.lookup(inst).expect("in program");
                let st = &mut state[slot];
                st.waits -= 1;
                st.ready = st.ready.max(now);
                if st.waits == 0 {
                    try_start(
                        p,
                        now,
                        &mut head,
                        &mut busy,
                        &mut clock,
                        &state,
                        &mut start_times,
                        &mut queue,
                    );
                }
            }
        }
    }

    if done != total {
        return Err(ProgramError::Deadlock { timed: done, total });
    }
    Ok(SimResult::finished(
        prog,
        g,
        StartTable::new(index, start_times),
        makespan,
        messages,
        comm_cycles,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, TrafficModel};
    use kn_ddg::DdgBuilder;
    use kn_sched::{cyclic_schedule, CyclicOptions, ScheduleTable};

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

    fn fig7_program(m: &MachineConfig, iters: u32) -> (Ddg, Program) {
        let g = figure7();
        let out = cyclic_schedule(&g, m, &CyclicOptions::default()).unwrap();
        let prog = ScheduleTable::new(out.instantiate(iters)).to_program(iters);
        (g, prog)
    }

    fn both_engines() -> [EventEngine; 2] {
        [EventEngine::Heap, EventEngine::Calendar]
    }

    #[test]
    fn unlimited_links_match_fixpoint_simulator_exactly() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = fig7_program(&m, 20);
        for engine in both_engines() {
            for mm in [1u32, 3, 5] {
                let t = TrafficModel { mm, seed: 5 };
                let a = simulate(&prog, &g, &m, &t).unwrap();
                let b =
                    simulate_event_with(&prog, &g, &m, &t, LinkModel::Unlimited, engine).unwrap();
                assert_eq!(a.makespan, b.makespan, "mm={mm} {engine:?}");
                assert_eq!(a.start, b.start, "mm={mm} {engine:?}");
            }
        }
    }

    #[test]
    fn contention_only_delays() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = fig7_program(&m, 30);
        let t = TrafficModel::stable(0);
        for engine in both_engines() {
            let free =
                simulate_event_with(&prog, &g, &m, &t, LinkModel::Unlimited, engine).unwrap();
            let tight =
                simulate_event_with(&prog, &g, &m, &t, LinkModel::SingleMessage, engine).unwrap();
            assert!(tight.makespan >= free.makespan);
            for (inst, (_, s)) in free.start.iter() {
                assert!(tight.start.start_of(inst) >= Some(s), "{engine:?} {inst}");
            }
        }
    }

    #[test]
    fn contention_actually_bites_on_a_fanout() {
        // One producer feeding 4 consumers on another processor: with a
        // single-message link the transmissions serialize.
        let mut b = DdgBuilder::new();
        let src = b.node("src");
        let sinks: Vec<_> = (0..4).map(|i| b.node(format!("s{i}"))).collect();
        for &s in &sinks {
            b.dep(src, s);
        }
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 3);
        let prog = Program {
            seqs: vec![
                vec![InstanceId { node: src, iter: 0 }],
                sinks
                    .iter()
                    .map(|&n| InstanceId { node: n, iter: 0 })
                    .collect(),
            ],
            iters: 1,
        };
        let t = TrafficModel::stable(0);
        for engine in both_engines() {
            let free =
                simulate_event_with(&prog, &g, &m, &t, LinkModel::Unlimited, engine).unwrap();
            let tight =
                simulate_event_with(&prog, &g, &m, &t, LinkModel::SingleMessage, engine).unwrap();
            // Unlimited: all four messages arrive at cycle 3, the consumer
            // processor drains them serially -> makespan 7. SingleMessage:
            // departures at 1,4,7,10, usable at 3,6,9,12, last sink
            // finishes at 13.
            assert_eq!(free.makespan, 7, "{engine:?}");
            assert_eq!(tight.makespan, 13, "{engine:?}");
        }
    }

    #[test]
    fn deterministic_under_contention() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = fig7_program(&m, 25);
        let t = TrafficModel { mm: 3, seed: 11 };
        for engine in both_engines() {
            let a =
                simulate_event_with(&prog, &g, &m, &t, LinkModel::SingleMessage, engine).unwrap();
            let b =
                simulate_event_with(&prog, &g, &m, &t, LinkModel::SingleMessage, engine).unwrap();
            assert_eq!(a, b, "{engine:?}");
        }
    }

    #[test]
    fn engines_agree_byte_for_byte() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = fig7_program(&m, 40);
        for link in [LinkModel::Unlimited, LinkModel::SingleMessage] {
            for mm in [1u32, 3, 5] {
                let t = TrafficModel { mm, seed: 3 };
                let h = simulate_event_with(&prog, &g, &m, &t, link, EventEngine::Heap).unwrap();
                let c =
                    simulate_event_with(&prog, &g, &m, &t, link, EventEngine::Calendar).unwrap();
                assert_eq!(h, c, "link={link:?} mm={mm}");
            }
        }
    }

    #[test]
    fn deadlock_detected_by_event_engine() {
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
        for engine in both_engines() {
            assert!(matches!(
                simulate_event_with(
                    &prog,
                    &g,
                    &m,
                    &TrafficModel::stable(0),
                    LinkModel::Unlimited,
                    engine,
                ),
                Err(ProgramError::Deadlock { .. })
            ));
        }
    }

    // ---- queue-level regression and property tests ----

    /// Regression for the tie-break bugfix: an `Arrive` and a `Finish`
    /// scheduled for the same cycle must pop in insertion order. The old
    /// key `(cycle, EventKind)` popped `Finish` first regardless of push
    /// order (derived variant order); with the link contract "send order
    /// on a link = event order", the queue primitive the link frontier is
    /// driven from must be FIFO within a cycle.
    #[test]
    fn same_cycle_arrive_finish_pop_in_insertion_order() {
        let arrive = EventKind::Arrive(7, 3);
        let finish = EventKind::Finish(1, 7, 3);
        for engine in both_engines() {
            let mut q = Queue::new(engine);
            q.push(10, arrive);
            q.push(10, finish);
            q.push(11, finish);
            assert_eq!(q.pop(), Some((10, arrive)), "{engine:?}: FIFO within cycle");
            assert_eq!(q.pop(), Some((10, finish)), "{engine:?}");
            assert_eq!(q.pop(), Some((11, finish)), "{engine:?}");
            assert_eq!(q.pop(), None, "{engine:?}");

            // Reversed insertion order reverses the tie order — the queue
            // follows insertion, not kind.
            let mut q = Queue::new(engine);
            q.push(10, finish);
            q.push(10, arrive);
            assert_eq!(q.pop(), Some((10, finish)), "{engine:?}");
            assert_eq!(q.pop(), Some((10, arrive)), "{engine:?}");
        }
    }

    /// End-to-end regression for the link contract: two same-cycle events
    /// (the producer's `Finish` and an earlier `Arrive`) coexisting in the
    /// queue must leave the `SingleMessage` link frontier identical to the
    /// event (= send) order, which the exact makespans pin.
    #[test]
    fn link_send_order_matches_event_order_under_same_cycle_ties() {
        // p0 runs two producers back to back (x at [0,1), y at [1,2));
        // both feed consumers on p1 over the same link, and x also feeds a
        // local consumer whose Arrive-free release coincides with y's
        // Finish. Messages depart in event order: x's at 1, y's at 4.
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        let cx = b.node("cx");
        let cy = b.node("cy");
        let z = b.node("z");
        b.dep(x, cx);
        b.dep(y, cy);
        b.dep(x, z);
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 3);
        let prog = Program {
            seqs: vec![
                vec![
                    InstanceId { node: x, iter: 0 },
                    InstanceId { node: y, iter: 0 },
                    InstanceId { node: z, iter: 0 },
                ],
                vec![
                    InstanceId { node: cx, iter: 0 },
                    InstanceId { node: cy, iter: 0 },
                ],
            ],
            iters: 1,
        };
        let t = TrafficModel::stable(0);
        for engine in both_engines() {
            let r =
                simulate_event_with(&prog, &g, &m, &t, LinkModel::SingleMessage, engine).unwrap();
            // x finishes at 1: cx's message departs at 1, usable at 3.
            // y finishes at 2: cy's message departs at 4 (link busy until
            // then), usable at 6 — send order = event order.
            assert_eq!(
                r.start.get(InstanceId { node: cx, iter: 0 }),
                Some((1, 3)),
                "{engine:?}"
            );
            assert_eq!(
                r.start.get(InstanceId { node: cy, iter: 0 }),
                Some((1, 6)),
                "{engine:?}"
            );
        }
    }

    /// Drive both queues with an identical random monotone event stream
    /// (interleaved pushes and pops, bursts of same-cycle ties, spans far
    /// beyond the calendar's initial capacity) and require identical pop
    /// sequences. A tiny initial ring forces the overflow, grow, and
    /// empty-ring jump paths.
    #[test]
    fn calendar_queue_matches_heap_queue_on_random_streams() {
        let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for trial in 0..20u32 {
            let mut heap = HeapQueue::new();
            let mut cal = CalendarQueue::with_capacity(4);
            let mut now: Cycle = 0;
            let mut pending = 0usize;
            for step in 0..5_000u32 {
                if pending == 0 || next() % 3 != 0 {
                    // Push: time >= now, sometimes exactly now (tie),
                    // sometimes far beyond the ring horizon.
                    let gap = match next() % 4 {
                        0 => 0,
                        1 => next() % 3,
                        2 => next() % 64,
                        _ => next() % 4096,
                    };
                    let kind = EventKind::Arrive(trial, step);
                    heap.push(now + gap, kind);
                    cal.push(now + gap, kind);
                    pending += 1;
                } else {
                    let h = heap.pop();
                    let c = cal.pop();
                    assert_eq!(h, c, "trial {trial} step {step}");
                    now = h.expect("pending > 0").0;
                    pending -= 1;
                }
            }
            loop {
                let h = heap.pop();
                let c = cal.pop();
                assert_eq!(h, c, "trial {trial} drain");
                if h.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn calendar_queue_jumps_over_large_gaps() {
        let mut q = CalendarQueue::with_capacity(4);
        let k = EventKind::Finish(0, 0, 0);
        q.push(0, k);
        q.push(1_000_000, k);
        q.push(5_000_000, k);
        assert_eq!(q.pop(), Some((0, k)));
        assert_eq!(q.pop(), Some((1_000_000, k)));
        q.push(5_000_000, EventKind::Arrive(0, 0)); // tie with the parked event
        assert_eq!(q.pop(), Some((5_000_000, k)), "overflow order: seq-first");
        assert_eq!(q.pop(), Some((5_000_000, EventKind::Arrive(0, 0))));
        assert_eq!(q.pop(), None);
    }
}
