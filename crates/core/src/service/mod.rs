//! # Batch scheduling service — a fault-tolerant request lifecycle over
//! # the Cyclic-sched pipeline
//!
//! The experiment drivers fan independent (workload, machine) cells out
//! across threads and then exit; this module lifts that fan-out into a
//! **service**: a persistent worker pool that outlives any single driver
//! call, fed through a typed request/response pair and hardened with the
//! admission/deadline/cancellation/retry machinery real traffic needs
//! (ROADMAP north star: "serves heavy traffic from millions of users").
//!
//! ## Request lifecycle state machine
//!
//! Every admitted request moves through this machine; each submitted id
//! produces **exactly one** final response:
//!
//! ```text
//!              submit / try_submit
//!   (rejected) <---- ADMISSION ----> queued
//!                                      |  cancel()          -> cancelled
//!                                      |  deadline passed   -> expired
//!                                      |  shutdown(Shed)    -> shed
//!                                      v
//!                                   running --- panic/fault ---+
//!                                      |  cancel(), deadline   | retry with
//!                                      |  (phase boundaries)   | capped backoff,
//!                                      v                       | up to the
//!                  done(ok) / done(error) <---(budget spent)---+ attempt budget
//! ```
//!
//! * **Bounded admission** — the queue holds at most
//!   [`ServiceConfig::queue_capacity`] requests. [`Service::try_submit`]
//!   never blocks: it answers [`SubmitOutcome::WouldBlock`] on a full
//!   queue and [`SubmitOutcome::Rejected`] once shutdown has begun.
//!   [`Service::submit_opts`] blocks for space (backpressure);
//!   [`Service::submit`] is the PR 3-compatible wrapper that panics only
//!   if the service was already shut down.
//! * **Deadlines** — a per-request [`Deadline`] is enforced at dequeue
//!   (expired work is shed before wasting a worker), between retry
//!   attempts, and cooperatively at pipeline phase boundaries
//!   (parse → schedule → simulate). An expired request answers
//!   [`ServiceError::Expired`].
//! * **Cancellation** — [`Service::cancel`] removes queued work
//!   immediately ([`CancelOutcome::Dequeued`]) and flags in-flight work
//!   ([`CancelOutcome::InFlight`]) for cooperative abandonment at the
//!   next phase boundary or retry boundary; either way the id answers
//!   [`ServiceError::Cancelled`].
//! * **Retry with capped exponential backoff** — transient failures
//!   (a pipeline panic, an injected fault, a response that fails
//!   validation) are retried up to [`ServiceConfig::max_attempts`] with
//!   deterministic backoff `min(base * 2^(attempt-1), cap)`. Responses
//!   carry the attempt count ([`Completed::attempts`]). Deterministic
//!   failures ([`ServiceError::BadRequest`], [`ServiceError::Sched`]) are
//!   never retried.
//! * **Graceful drain on shutdown** — [`Service::shutdown`] stops
//!   admission, then either finishes the queued work
//!   ([`DrainPolicy::Finish`]) or sheds it with
//!   [`ServiceError::ShuttingDown`] ([`DrainPolicy::Shed`]); in-flight
//!   requests complete either way, and every worker thread is joined
//!   before `shutdown` returns. Dropping the service is
//!   `shutdown(DrainPolicy::Finish)`.
//!
//! ## Collecting responses
//!
//! [`Service::collect`] blocks until every requested id has a response;
//! an id the service has **never admitted** (or whose response was
//! already collected) answers [`ServiceError::UnknownRequest`]
//! immediately instead of blocking forever. [`Service::collect_timeout`]
//! bounds the wait: ids still pending when the timeout fires answer
//! [`ServiceError::Timeout`] and remain collectable later.
//! [`Service::drain`] waits for quiescence and removes everything.
//!
//! ## Determinism guarantee
//!
//! Responses are pure functions of their request: every stage (parsing,
//! scheduling, simulation) is deterministic, workers share no mutable
//! state, and results are keyed by request id. Therefore the multiset of
//! `(id, response)` pairs is independent of the worker count, the
//! submission order of *other* requests, and OS scheduling — a batch
//! submitted to a 1-worker service, an 8-worker service, or shuffled and
//! resubmitted yields identical responses per id (pinned by
//! `crates/core/tests/service.rs`). Retries preserve this: a retried
//! attempt re-executes the same pure function, so a transient-fault
//! recovery is byte-identical to an undisturbed run. The seeded
//! fault-injection harness ([`faultinject`]) keys faults on the request
//! id, never on timing, which is what makes every failure path above
//! testable in CI without sleeps.
//!
//! ## Fault isolation
//!
//! A request that panics inside the pipeline is caught at the worker
//! boundary: the worker survives, its scratch caches are rebuilt, and —
//! once the retry budget is spent — the id answers
//! [`ServiceError::Panicked`]. A poisoned request can never wedge the
//! pool or lose an id.
//!
//! ## Supervision: watchdog + worker replacement
//!
//! Panics are recoverable because they *return*; a worker that wedges
//! permanently (a runaway loop, an injected
//! [`StallMode::Wedge`](faultinject::StallMode)) would silently
//! shrink the pool forever. The **watchdog thread** (on by default, see
//! [`WatchdogConfig`]) samples every worker's heartbeat counter — stamped
//! at pipeline phase boundaries through [`ExecCtx::beat`] — once per
//! interval. A worker that stays busy on the *same* request for
//! [`WatchdogConfig::stuck_ticks`] consecutive intervals without its
//! heartbeat advancing is declared stuck: its in-flight request is
//! confiscated (requeued if retry budget remains — zero lost ids — else
//! answered [`ServiceError::Faulted`]), the worker is condemned and
//! detached, and a **replacement worker** is spawned so the pool never
//! shrinks. [`ServiceStats::replaced_workers`] counts interventions and
//! [`Service::health`] snapshots the whole pool ([`PoolHealth`]),
//! queryable over the wire with a `health` request line.
//!
//! ## Priority lanes + starvation guard
//!
//! Admission is no longer FIFO: each request carries a
//! [`Priority`] ([`SubmitOptions::priority`]) and the queue is three
//! lanes. Dequeue order is lane-major (`High` → `Normal` → `Low`) and
//! deadline-earliest-first within a lane (ties and deadline-less requests
//! fall back to id order). Starvation is bounded by **aging**: a request
//! that has waited [`ServiceConfig::age_promote`] dequeues (a logical
//! clock — dequeue events, not wall time) is promoted over every fresher
//! request regardless of lane, so any accepted request eventually runs
//! once load subsides (pinned by a proptest).
//!
//! ## Overload shedding (brownout)
//!
//! Past [`ServiceConfig::high_water`] queued requests the service is in
//! **brownout**: `Low` arrivals are refused outright
//! ([`RejectReason::Overloaded`]) and the TCP front-end ([`net`]) stops
//! reading sockets, letting the kernel push back on clients. At hard
//! [`ServiceConfig::queue_capacity`] a higher-priority arrival evicts the
//! least-urgent strictly-lower-priority queued request (latest deadline
//! first), which answers [`ServiceError::Overloaded`]. High-priority
//! traffic therefore keeps its deadlines while `Low` sheds first — the
//! invariant the open-loop [`loadgen`] harness and the bench
//! `overload_entries` gate pin in CI.
//!
//! ## Response cache + in-flight dedup
//!
//! At production scale most requests are the same loop on the same
//! machine config, and responses are pure functions of their requests —
//! so recomputing them is pure waste. With
//! [`ServiceConfig::cache_capacity`] > 0 the service keeps a bounded,
//! sharded response cache keyed by a canonical 64-bit fingerprint of
//! (resolved source, machine, sim options, traffic, scheduler), verified
//! against the full canonical string on every lookup so a colliding
//! digest can never serve the wrong response. Admission consults it
//! *before* a queue slot is spent: a hit answers immediately (attempt
//! count 0 — byte-identical to a fresh response on the wire), and a
//! request identical to one already queued or executing **coalesces**
//! onto that leader's waiter list instead of recomputing — each waiter
//! still gets its own id-stamped copy of the one result, and a
//! higher-priority waiter upgrades a queued leader's lane so the
//! coalition runs at the urgency of its most urgent member. A leader
//! that fails (fault, cancel, expiry) hands off to its first viable
//! waiter — promoted into the queue as the new leader with its own
//! budget — rather than poisoning the key. Lifecycle options (deadline,
//! priority, attempts) are not part of the key: they shape *whether* a
//! request completes, never *what* it computes; a request whose deadline
//! has already expired at admission bypasses the cache entirely so its
//! deterministic `expired` answer is preserved. Hits, misses, coalesced
//! waiters, and evictions are counted in [`ServiceStats`] and surfaced
//! by [`Service::health`] / the `health` wire line. The default is
//! **off** (capacity 0); `kn serve` turns it on (see `--cache-capacity`
//! / `--no-cache`).
//!
//! ## Example
//!
//! ```
//! use kn_core::service::{LoopSource, ScheduleRequest, ScheduleResponse, Service};
//!
//! let svc = Service::new(2);
//! let id = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
//! let responses = svc.collect(&[id]);
//! let Ok(ScheduleResponse::Loop(out)) = &responses[0].1 else {
//!     panic!("figure7 schedules");
//! };
//! assert_eq!(out.ii, Some(2.5));
//! ```
//!
//! The process-wide [`global`] service (sized to the machine) is what the
//! parallel experiment drivers submit to; per-call services are for tests
//! and embedders that want their own pool. Do **not** submit-and-collect
//! from *inside* a request executing on the same service — a worker
//! blocking on its own pool's results can deadlock a fully loaded pool.
//! The TCP front-end over this service lives in [`net`]; the wire format
//! it speaks is [`wire`].

mod cache;
pub mod faultinject;
pub mod loadgen;
pub mod net;
/// Operator runbook for the supervised pool (from `docs/operations.md`).
#[doc = include_str!("../../../../docs/operations.md")]
pub mod operations {}
mod request;
pub mod wire;

pub use request::{
    execute, validate_response, ExecCtx, LoopOutcome, LoopRequest, LoopSource, RequestTiming,
    ScheduleRequest, ScheduleResponse, SchedulerChoice, ServiceError, TransformMode,
    TransformSummary, WorkerScratch,
};

use cache::ResponseCache;
use faultinject::{Fault, FaultPlan, StallMode};
use request::CacheKey;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Stable handle for one submitted request. Ids are assigned in
/// submission order and never reused, so out-of-order completion remains
/// deterministically attributable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Absolute point in time by which a request must *start making
/// progress*; enforced at dequeue, between retry attempts, and at
/// pipeline phase boundaries. A request past its deadline answers
/// [`ServiceError::Expired`] without wasting further worker time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline(pub Instant);

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline(Instant::now() + d)
    }

    /// A deadline that has already passed — queued work carrying it is
    /// deterministically shed at dequeue (tests and load-shedding use
    /// this; `deadline_ms=0` on the wire produces it).
    pub fn expired() -> Self {
        Deadline(Instant::now())
    }

    /// Has the deadline passed at `now`? A deadline equal to "now" counts
    /// as expired, which is what makes [`Deadline::expired`] (and
    /// `deadline_ms=0`) deterministic: any later monotone reading is
    /// `>=` the instant it was created at.
    pub fn is_expired_at(&self, now: Instant) -> bool {
        now >= self.0
    }

    /// Has the deadline passed right now?
    pub fn is_expired(&self) -> bool {
        self.is_expired_at(Instant::now())
    }
}

/// Scheduling priority of a request. Declaration order is dequeue order:
/// `High` lanes drain before `Normal` before `Low` (subject to the aging
/// starvation guard, [`ServiceConfig::age_promote`]), and under brownout
/// `Low` is shed first (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: drained first, never brownout-shed, evicts
    /// lower-priority queued work when the queue is hard-full.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Best-effort: first to be refused past the high-water mark and
    /// first to be evicted at hard capacity.
    Low,
}

impl Priority {
    /// Lane index (0 = `High`, 1 = `Normal`, 2 = `Low`).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Wire name (`high` / `normal` / `low`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parse a wire name; `None` for anything unrecognized.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// All priorities in lane order — for per-lane reporting.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
}

/// Per-submission options: everything about a request's lifecycle that is
/// not part of the scheduling work itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Shed the request once this passes (see [`Deadline`]).
    pub deadline: Option<Deadline>,
    /// Override the service-wide [`ServiceConfig::max_attempts`] for this
    /// request.
    pub max_attempts: Option<u32>,
    /// Queue lane (see [`Priority`]); `Normal` by default.
    pub priority: Priority,
}

/// Why admission refused a request outright (no id, no response).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission is closed: shutdown has begun. Permanent.
    ShuttingDown,
    /// The request carries an inline/file DDG that failed the `kn-verify`
    /// lint pass: `code` is the stable `KN0xx` code of the first error
    /// finding (see `docs/diagnostics.md`). Deterministic — resubmitting
    /// the same graph can never succeed.
    InvalidDdg { code: String, message: String },
    /// Brownout: the queue is past [`ServiceConfig::high_water`] and this
    /// arrival is [`Priority::Low`]. Transient — resubmit once load
    /// subsides (unlike the other reasons, which are permanent for the
    /// request).
    Overloaded,
}

/// Admission verdict for [`Service::try_submit`] / [`Service::submit_opts`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted; the id will produce exactly one response.
    Accepted(RequestId),
    /// Refused outright (shutdown, or a DDG that failed lint); see
    /// [`RejectReason`]. Permanent for this request.
    Rejected(RejectReason),
    /// The queue is at capacity right now ([`Service::try_submit`] only);
    /// backing off and retrying, or using the blocking
    /// [`Service::submit_opts`], may succeed.
    WouldBlock,
}

impl SubmitOutcome {
    /// The id, if admitted.
    pub fn id(&self) -> Option<RequestId> {
        match self {
            SubmitOutcome::Accepted(id) => Some(*id),
            _ => None,
        }
    }
}

/// What [`Service::cancel`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Removed from the queue before any worker saw it; the id answers
    /// [`ServiceError::Cancelled`].
    Dequeued,
    /// A worker is executing it; it has been flagged and will abandon
    /// cooperatively at the next phase or retry boundary.
    InFlight,
    /// Already completed — the response (whatever it is) stands.
    AlreadyDone,
    /// Not an id this service is currently tracking.
    Unknown,
}

/// How [`Service::shutdown`] treats work that is still queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Finish every queued request before the workers exit (expired
    /// deadlines are still shed at dequeue as usual).
    Finish,
    /// Answer every queued request with [`ServiceError::ShuttingDown`]
    /// immediately; workers exit as soon as their in-flight request
    /// completes.
    Shed,
}

/// What [`Service::shutdown`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Requests still queued when admission closed that were answered
    /// with [`ServiceError::ShuttingDown`] ([`DrainPolicy::Shed`] only).
    pub shed: u64,
    /// Worker threads joined by this call.
    pub workers_joined: usize,
}

/// Service construction parameters. `Default` is the PR 3-compatible
/// shape: an effectively unbounded queue, one retry for transient
/// failures, millisecond-scale backoff, no fault injection.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (at least one).
    pub workers: usize,
    /// Maximum queued (not yet running) requests before admission pushes
    /// back.
    pub queue_capacity: usize,
    /// Total execution attempts per request (1 = no retry). Only
    /// transient failures (panic, injected fault, invalid response) are
    /// retried.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Deterministic fault injection (tests, CI fault-smoke); `None` in
    /// production.
    pub fault_plan: Option<FaultPlan>,
    /// Brownout threshold: once this many requests are queued, `Low`
    /// arrivals are refused ([`RejectReason::Overloaded`]) and the TCP
    /// front-end pauses socket reads. `usize::MAX` (default) disables
    /// brownout.
    pub high_water: usize,
    /// Starvation guard: a queued request older than this many dequeue
    /// events (a logical clock, not wall time) is promoted over every
    /// fresher request regardless of priority lane.
    pub age_promote: u64,
    /// Stuck-worker supervision; `None` disables the watchdog thread
    /// (then a permanently wedged worker occupies its slot forever).
    pub watchdog: Option<WatchdogConfig>,
    /// Response-cache capacity in entries; `0` (default) disables the
    /// cache **and** in-flight dedup. `kn serve` enables it (1024 unless
    /// `--cache-capacity` overrides; `--no-cache` sets 0). See the
    /// module docs' "Response cache + in-flight dedup" section.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: usize::MAX,
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            fault_plan: None,
            high_water: usize::MAX,
            age_promote: 64,
            watchdog: Some(WatchdogConfig::default()),
            cache_capacity: 0,
        }
    }
}

/// Watchdog (stuck-worker supervision) parameters. The stuck budget is
/// **logical**: `stuck_ticks` consecutive samples with an unchanged
/// heartbeat while busy on the same request — tests shrink `interval` to
/// milliseconds for a deterministic small budget, production keeps the
/// ~10 s default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Sampling period of the watchdog thread.
    pub interval: Duration,
    /// Consecutive unchanged samples (same request, same heartbeat count)
    /// before a busy worker is declared stuck. The effective wall budget
    /// is `interval * stuck_ticks`.
    pub stuck_ticks: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(200),
            stuck_ticks: 50,
        }
    }
}

/// Deterministic capped exponential backoff before retry `attempt`
/// (attempt 2 = first retry waits `base`, attempt 3 waits `2*base`, …,
/// never more than `cap`).
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration) -> Duration {
    if attempt <= 1 || base.is_zero() {
        return Duration::ZERO;
    }
    let factor = 1u32 << (attempt - 2).min(16);
    (base * factor).min(cap)
}

/// Cumulative per-service execution statistics (monotone counters; read
/// a snapshot with [`Service::stats`], diff two snapshots for batch-level
/// numbers). `completed`/`errors` count **final outcomes** — a request
/// retried twice and then succeeding is one completion, zero errors, two
/// `retries`. Phase breakdowns cover [`ScheduleRequest::Loop`] requests;
/// experiment-cell requests report only their total under `exec_ns`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed (ok or error), counting final outcomes only.
    pub completed: u64,
    /// Requests whose final response is an error.
    pub errors: u64,
    /// Extra attempts spent on transient failures.
    pub retries: u64,
    /// Requests shed because their deadline passed.
    pub expired: u64,
    /// Requests cancelled by the caller.
    pub cancelled: u64,
    /// Requests shed by `shutdown(DrainPolicy::Shed)`.
    pub shed: u64,
    /// Admission attempts answered `WouldBlock` (full queue).
    pub rejected: u64,
    /// Requests shed by the brownout policy: `Low` arrivals refused past
    /// the high-water mark plus queued requests evicted at hard capacity
    /// by a higher-priority arrival.
    pub overloaded: u64,
    /// Workers the watchdog declared stuck and replaced.
    pub replaced_workers: u64,
    /// Requests answered straight from the response cache (attempt
    /// count 0, no queue slot spent).
    pub cache_hits: u64,
    /// Cacheable requests that had to compute fresh (each registers its
    /// key as the in-flight dedup leader).
    pub cache_misses: u64,
    /// Requests that coalesced onto an identical in-flight leader's
    /// waiter list instead of recomputing.
    pub cache_coalesced: u64,
    /// Entries evicted from the response cache (LRU, bounded by
    /// [`ServiceConfig::cache_capacity`]).
    pub cache_evictions: u64,
    /// Total wall nanoseconds workers spent executing requests (all
    /// attempts).
    pub exec_ns: u64,
    /// Source-resolution (read + parse + cache lookup) nanoseconds.
    pub parse_ns: u64,
    /// Loop-transformation nanoseconds, differential certification
    /// included.
    pub transform_ns: u64,
    /// Scheduling nanoseconds.
    pub schedule_ns: u64,
    /// Simulation nanoseconds.
    pub sim_ns: u64,
}

/// One finished request: the final response plus its lifecycle record.
#[derive(Clone, Debug)]
pub struct Completed {
    pub id: RequestId,
    pub result: Result<ScheduleResponse, ServiceError>,
    /// Execution attempts consumed (0 for requests shed before any
    /// attempt: expired, cancelled while queued, shut down).
    pub attempts: u32,
    /// Wall nanoseconds from admission to final response.
    pub latency_ns: u64,
}

/// Completed responses paired with their ids, sorted by id — what
/// [`Service::collect`] and [`Service::drain`] return.
pub type Responses = Vec<(RequestId, Result<ScheduleResponse, ServiceError>)>;

/// A queued unit of work. Cloneable so the watchdog can requeue a
/// confiscated in-flight copy: the `cancel` and `attempts` handles are
/// shared across the clones (one identity per id), only `abandoned` is
/// per-dispatch.
#[derive(Clone)]
struct Job {
    id: RequestId,
    req: Arc<ScheduleRequest>,
    deadline: Option<Deadline>,
    max_attempts: u32,
    priority: Priority,
    cancel: Arc<AtomicBool>,
    /// Set by the watchdog when it confiscates this dispatch: the wedged
    /// worker must drop the job (its result no longer counts) and exit.
    abandoned: Arc<AtomicBool>,
    /// Absolute execution attempts spent on this id, across workers —
    /// survives confiscation so a requeued request keeps its budget.
    attempts: Arc<AtomicU32>,
    /// Value of the ledger's dequeue clock at admission (aging baseline).
    admitted_seq: u64,
    admitted_at: Instant,
    /// Response-cache identity, when this job is a dedup **leader**: its
    /// result is published under this key and settles the key's waiters
    /// (`None` when caching is off or the request is uncacheable).
    key: Option<Arc<CacheKey>>,
}

/// `current` value of an idle [`WorkerSlot`].
const IDLE: u64 = u64::MAX;

/// Watchdog-visible state of one worker thread.
struct WorkerSlot {
    /// Stable worker index; replacements get fresh indices.
    index: usize,
    /// Heartbeat counter, bumped at dispatch, at every pipeline phase
    /// boundary ([`ExecCtx::beat`]), and around each attempt. The
    /// watchdog declares a worker stuck only when this stops advancing
    /// while `current` stays on the same request.
    beat: Arc<AtomicU64>,
    /// Request id being executed, or [`IDLE`].
    current: AtomicU64,
    /// Set by the watchdog: this worker is replaced; exit at the next
    /// opportunity and never complete anything again.
    condemned: AtomicBool,
}

impl WorkerSlot {
    fn new(index: usize) -> Self {
        Self {
            index,
            beat: Arc::new(AtomicU64::new(0)),
            current: AtomicU64::new(IDLE),
            condemned: AtomicBool::new(false),
        }
    }
}

/// An executing request, held so the watchdog can confiscate and requeue
/// it (and `cancel` can flag it).
struct InFlight {
    job: Job,
}

/// One request coalesced onto an in-flight leader: everything needed to
/// stamp the leader's result with this id — or to promote this request
/// into a leader of its own if the current one fails.
struct Waiter {
    id: RequestId,
    deadline: Option<Deadline>,
    max_attempts: u32,
    priority: Priority,
    admitted_at: Instant,
}

/// In-flight dedup state for one cache key: the leader computing it and
/// the waiters that coalesced onto that computation. Lives in
/// [`Ledger::coalesced`] from the leader's admission until its result is
/// published (or the last viable waiter is gone).
struct Dedup {
    key: Arc<CacheKey>,
    /// The leader's request, kept so a failed leader's waiters can be
    /// promoted without re-parsing anything.
    req: Arc<ScheduleRequest>,
    leader: RequestId,
    waiters: Vec<Waiter>,
}

/// Shared queue + completed-response ledger.
struct Ledger {
    /// Priority lanes, indexed by [`Priority::lane`].
    lanes: [VecDeque<Job>; 3],
    /// Logical aging clock: total dequeue events so far. A job's age is
    /// `dequeues - admitted_seq`.
    dequeues: u64,
    done: HashMap<RequestId, Completed>,
    /// Requests currently executing on a worker.
    inflight: HashMap<RequestId, InFlight>,
    /// In-flight dedup: fingerprint → leader + waiters. An entry exists
    /// exactly while a leader with that key is queued or executing.
    coalesced: HashMap<u64, Dedup>,
    /// Ids admitted and not yet collected (superset of `done`'s keys and
    /// of everything queued/in-flight). Membership here is what
    /// distinguishes "still coming" from "never submitted / already
    /// collected" in [`Service::collect`].
    known: HashSet<RequestId>,
    /// Admitted requests without a final response yet.
    outstanding: u64,
    accepting: bool,
    next_id: u64,
    /// Next worker index to hand out (replacements get fresh indices).
    next_worker: usize,
    /// Live worker slots, in no particular order.
    slots: Vec<Arc<WorkerSlot>>,
    stats: ServiceStats,
}

/// Dequeue key within a lane: deadline-earliest-first, deadline-less work
/// after all deadline-carrying work, id order as the tiebreak.
fn urgency_key(j: &Job) -> (bool, Option<Instant>, u64) {
    (j.deadline.is_none(), j.deadline.map(|d| d.0), j.id.0)
}

impl Ledger {
    /// Total queued (not yet running) requests across all lanes.
    fn queued_len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Enqueue into the job's priority lane.
    fn push_job(&mut self, job: Job) {
        self.lanes[job.priority.lane()].push_back(job);
    }

    /// Dequeue the next job: any request aged past `age_promote` dequeue
    /// events wins first (oldest id among the aged — the starvation
    /// guard), else lane-major order with [`urgency_key`] inside the
    /// first nonempty lane. Advances the aging clock.
    fn pop_job(&mut self, age_promote: u64) -> Option<Job> {
        let now = self.dequeues;
        let mut pick: Option<(usize, usize)> = None;
        let mut oldest = u64::MAX;
        for (lane, q) in self.lanes.iter().enumerate() {
            for (i, j) in q.iter().enumerate() {
                if now.saturating_sub(j.admitted_seq) >= age_promote && j.id.0 < oldest {
                    oldest = j.id.0;
                    pick = Some((lane, i));
                }
            }
        }
        if pick.is_none() {
            for (lane, q) in self.lanes.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                let mut best = 0;
                for i in 1..q.len() {
                    if urgency_key(&q[i]) < urgency_key(&q[best]) {
                        best = i;
                    }
                }
                pick = Some((lane, best));
                break;
            }
        }
        let (lane, i) = pick?;
        self.dequeues += 1;
        self.lanes[lane].remove(i)
    }

    /// Remove a queued job by id (any lane); `None` if not queued.
    fn take_queued(&mut self, id: RequestId) -> Option<Job> {
        for q in self.lanes.iter_mut() {
            if let Some(pos) = q.iter().position(|j| j.id == id) {
                return q.remove(pos);
            }
        }
        None
    }

    /// Evict the least-urgent queued job of strictly lower priority than
    /// `p`: lowest lane first, latest deadline within it (deadline-less
    /// counts latest; highest id breaks ties). `None` when nothing
    /// strictly below `p` is queued.
    fn evict_below(&mut self, p: Priority) -> Option<Job> {
        for lane in (p.lane() + 1..3).rev() {
            let q = &self.lanes[lane];
            if q.is_empty() {
                continue;
            }
            let mut victim = 0;
            for i in 1..q.len() {
                if urgency_key(&q[i]) > urgency_key(&q[victim]) {
                    victim = i;
                }
            }
            return self.lanes[lane].remove(victim);
        }
        None
    }

    /// Record a final response. Caller notifies the condvar.
    fn complete(&mut self, c: Completed) {
        self.stats.completed += 1;
        if let Err(e) = &c.result {
            self.stats.errors += 1;
            match e {
                ServiceError::Expired => self.stats.expired += 1,
                ServiceError::Cancelled => self.stats.cancelled += 1,
                ServiceError::ShuttingDown => self.stats.shed += 1,
                ServiceError::Overloaded => self.stats.overloaded += 1,
                _ => {}
            }
        }
        self.outstanding -= 1;
        self.done.insert(c.id, c);
    }
}

/// The long-lived batch scheduling service: `workers` persistent threads
/// pulling [`ScheduleRequest`]s from a bounded shared queue. See the
/// module docs for the lifecycle contract; construction is cheap enough
/// for per-test pools but the intended production shape is one service
/// per process ([`global`]).
pub struct Service {
    ledger: Arc<(Mutex<Ledger>, Condvar)>,
    /// Live worker threads keyed by worker index; the watchdog detaches
    /// condemned workers and inserts replacements here.
    workers: Arc<Mutex<HashMap<usize, std::thread::JoinHandle<()>>>>,
    watchdog: Mutex<Option<std::thread::JoinHandle<()>>>,
    watchdog_stop: Arc<AtomicBool>,
    /// Sharded response cache; `None` when `cache_capacity` is 0.
    cache: Option<Arc<ResponseCache>>,
    config: ServiceConfig,
}

impl Service {
    /// Spawn a service with `workers` persistent worker threads and
    /// default lifecycle settings (see [`ServiceConfig`]).
    pub fn new(workers: usize) -> Self {
        Self::with_config(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        })
    }

    /// Spawn a service with explicit lifecycle settings.
    pub fn with_config(config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            max_attempts: config.max_attempts.max(1),
            ..config
        };
        let slots: Vec<Arc<WorkerSlot>> = (0..config.workers)
            .map(|i| Arc::new(WorkerSlot::new(i)))
            .collect();
        let ledger = Arc::new((
            Mutex::new(Ledger {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                dequeues: 0,
                done: HashMap::new(),
                inflight: HashMap::new(),
                coalesced: HashMap::new(),
                known: HashSet::new(),
                outstanding: 0,
                accepting: true,
                next_id: 0,
                next_worker: config.workers,
                slots: slots.clone(),
                stats: ServiceStats::default(),
            }),
            Condvar::new(),
        ));
        let cache = (config.cache_capacity > 0)
            .then(|| Arc::new(ResponseCache::new(config.cache_capacity)));
        let handles: HashMap<usize, std::thread::JoinHandle<()>> = slots
            .into_iter()
            .map(|slot| {
                (
                    slot.index,
                    spawn_worker(&ledger, &config, cache.clone(), slot),
                )
            })
            .collect();
        let workers = Arc::new(Mutex::new(handles));
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = config.watchdog.map(|wcfg| {
            let ledger = Arc::clone(&ledger);
            let workers = Arc::clone(&workers);
            let stop = Arc::clone(&watchdog_stop);
            let cfg = config.clone();
            let cache = cache.clone();
            std::thread::spawn(move || watchdog_loop(&ledger, &workers, &stop, &cfg, &cache, wcfg))
        });
        Self {
            ledger,
            workers,
            watchdog: Mutex::new(watchdog),
            watchdog_stop,
            cache,
            config,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// This service's lifecycle settings.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Canonical cache key for `req`, when caching is on and the request
    /// is cacheable. Computed *outside* the ledger lock — file sources
    /// read their content here, and hashing is pure CPU.
    fn fingerprint(&self, req: &ScheduleRequest) -> Option<Arc<CacheKey>> {
        self.cache.as_ref()?;
        request::cache_key(req).map(Arc::new)
    }

    /// Non-blocking admission: [`SubmitOutcome::WouldBlock`] when the
    /// queue is at capacity (and nothing of strictly lower priority can
    /// be evicted), [`SubmitOutcome::Rejected`] once shutdown has begun,
    /// when the request's DDG fails the lint pass, or — for
    /// [`Priority::Low`] — while the queue is past the high-water mark
    /// ([`RejectReason::Overloaded`]).
    pub fn try_submit(&self, req: ScheduleRequest, opts: SubmitOptions) -> SubmitOutcome {
        if let Some(reason) = admission_lint(&req) {
            return SubmitOutcome::Rejected(reason);
        }
        let key = self.fingerprint(&req);
        let (lock, cv) = &*self.ledger;
        let mut ledger = lock.lock().unwrap();
        if !ledger.accepting {
            return SubmitOutcome::Rejected(RejectReason::ShuttingDown);
        }
        let key = match &self.cache {
            Some(cache) => match dedup_or_key(&mut ledger, cv, cache, key, &opts, &self.config) {
                Ok(id) => return SubmitOutcome::Accepted(id),
                Err(key) => key,
            },
            None => None,
        };
        match make_room(&mut ledger, opts.priority, &self.config) {
            Room::Admit => {
                let out = SubmitOutcome::Accepted(admit(&mut ledger, req, opts, &self.config, key));
                cv.notify_all();
                out
            }
            Room::Brownout => {
                ledger.stats.overloaded += 1;
                SubmitOutcome::Rejected(RejectReason::Overloaded)
            }
            Room::Full => {
                ledger.stats.rejected += 1;
                SubmitOutcome::WouldBlock
            }
        }
    }

    /// Blocking admission: waits for queue space (backpressure), then
    /// admits. [`SubmitOutcome::Rejected`] once shutdown has begun —
    /// including while waiting — when the request's DDG fails the lint
    /// pass (checked before blocking), or under brownout for
    /// [`Priority::Low`] arrivals (refused, not blocked: waiting out a
    /// brownout at the admission gate would deepen the overload).
    pub fn submit_opts(&self, req: ScheduleRequest, opts: SubmitOptions) -> SubmitOutcome {
        if let Some(reason) = admission_lint(&req) {
            return SubmitOutcome::Rejected(reason);
        }
        let mut key = self.fingerprint(&req);
        let (lock, cv) = &*self.ledger;
        let mut ledger = lock.lock().unwrap();
        loop {
            if !ledger.accepting {
                return SubmitOutcome::Rejected(RejectReason::ShuttingDown);
            }
            // Re-check the cache on every pass: while this thread waited
            // for queue space, an identical in-flight leader may have
            // published the answer — or become coalescable.
            if let Some(cache) = &self.cache {
                match dedup_or_key(&mut ledger, cv, cache, key.clone(), &opts, &self.config) {
                    Ok(id) => return SubmitOutcome::Accepted(id),
                    Err(k) => key = k,
                }
            }
            match make_room(&mut ledger, opts.priority, &self.config) {
                Room::Admit => {
                    let out =
                        SubmitOutcome::Accepted(admit(&mut ledger, req, opts, &self.config, key));
                    cv.notify_all();
                    return out;
                }
                Room::Brownout => {
                    ledger.stats.overloaded += 1;
                    return SubmitOutcome::Rejected(RejectReason::Overloaded);
                }
                Room::Full => ledger = cv.wait(ledger).unwrap(),
            }
        }
    }

    /// Enqueue one request with default options; blocks for queue space.
    ///
    /// # Panics
    /// If the service has been shut down (submitting to a dead pool is a
    /// caller bug, matching the PR 3 contract).
    pub fn submit(&self, req: ScheduleRequest) -> RequestId {
        match self.submit_opts(req, SubmitOptions::default()) {
            SubmitOutcome::Accepted(id) => id,
            _ => panic!("service is shut down"),
        }
    }

    /// Enqueue a batch; ids are consecutive in input order.
    pub fn submit_batch(&self, reqs: Vec<ScheduleRequest>) -> Vec<RequestId> {
        reqs.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Cancel a request: queued work is removed immediately, in-flight
    /// work is flagged for cooperative abandonment at its next phase or
    /// retry boundary. See [`CancelOutcome`].
    pub fn cancel(&self, id: RequestId) -> CancelOutcome {
        let (lock, cv) = &*self.ledger;
        let mut ledger = lock.lock().unwrap();
        if let Some(job) = ledger.take_queued(id) {
            let result = Err(ServiceError::Cancelled);
            // A cancelled queued *leader* hands its key to the next
            // viable waiter rather than abandoning the coalition.
            settle_dedup(
                &mut ledger,
                self.cache.as_deref(),
                id,
                job.key.as_ref(),
                &result,
            );
            ledger.complete(Completed {
                id,
                result,
                attempts: job.attempts.load(Ordering::Relaxed),
                latency_ns: job.admitted_at.elapsed().as_nanos() as u64,
            });
            cv.notify_all();
            return CancelOutcome::Dequeued;
        }
        if let Some(inf) = ledger.inflight.get(&id) {
            inf.job.cancel.store(true, Ordering::Relaxed);
            return CancelOutcome::InFlight;
        }
        // A coalesced waiter: detach and answer just this id; the leader
        // and every other waiter are untouched.
        let waiter = ledger.coalesced.iter().find_map(|(&fp, d)| {
            d.waiters
                .iter()
                .position(|w| w.id == id)
                .map(|pos| (fp, pos))
        });
        if let Some((fp, pos)) = waiter {
            let w = ledger
                .coalesced
                .get_mut(&fp)
                .expect("dedup entry found above")
                .waiters
                .remove(pos);
            ledger.complete(Completed {
                id,
                result: Err(ServiceError::Cancelled),
                attempts: 0,
                latency_ns: w.admitted_at.elapsed().as_nanos() as u64,
            });
            cv.notify_all();
            return CancelOutcome::Dequeued;
        }
        if ledger.done.contains_key(&id) {
            return CancelOutcome::AlreadyDone;
        }
        CancelOutcome::Unknown
    }

    /// Block until every id in `ids` has a response, then remove and
    /// return them **sorted by id** (so a batch submitted in input order
    /// comes back in input order regardless of completion order). An id
    /// this service never admitted — or whose response was already
    /// collected — answers [`ServiceError::UnknownRequest`] immediately
    /// instead of blocking forever. Ids from other callers of a shared
    /// service are untouched, which is what makes the [`global`] service
    /// safe to share between concurrently running drivers.
    pub fn collect(&self, ids: &[RequestId]) -> Responses {
        self.collect_detailed(ids, None)
            .into_iter()
            .map(|c| (c.id, c.result))
            .collect()
    }

    /// [`collect`](Service::collect) with a bound on the wait: ids still
    /// pending when `timeout` elapses answer [`ServiceError::Timeout`]
    /// and **remain collectable** — their real response is not lost.
    pub fn collect_timeout(&self, ids: &[RequestId], timeout: Duration) -> Responses {
        self.collect_detailed(ids, Some(timeout))
            .into_iter()
            .map(|c| (c.id, c.result))
            .collect()
    }

    /// The full lifecycle record ([`Completed`]: attempts + latency) for
    /// each id, sorted by id. `timeout` as in
    /// [`collect_timeout`](Service::collect_timeout); `None` waits
    /// indefinitely for admitted ids.
    pub fn collect_detailed(&self, ids: &[RequestId], timeout: Option<Duration>) -> Vec<Completed> {
        let mut ids: Vec<RequestId> = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let started = Instant::now();
        let (lock, cv) = &*self.ledger;
        let mut ledger = lock.lock().unwrap();
        loop {
            // Waiting is over when every *known* id is done; unknown ids
            // (never admitted, or already collected) never block.
            let pending = ids
                .iter()
                .any(|id| ledger.known.contains(id) && !ledger.done.contains_key(id));
            if !pending {
                break;
            }
            match timeout {
                None => ledger = cv.wait(ledger).unwrap(),
                Some(t) => {
                    let Some(left) = t.checked_sub(started.elapsed()) else {
                        break;
                    };
                    let (l, res) = cv.wait_timeout(ledger, left).unwrap();
                    ledger = l;
                    if res.timed_out() {
                        break;
                    }
                }
            }
        }
        ids.into_iter()
            .map(|id| {
                if let Some(c) = ledger.done.remove(&id) {
                    ledger.known.remove(&id);
                    c
                } else {
                    let result = if ledger.known.contains(&id) {
                        Err(ServiceError::Timeout)
                    } else {
                        Err(ServiceError::UnknownRequest)
                    };
                    Completed {
                        id,
                        result,
                        attempts: 0,
                        latency_ns: 0,
                    }
                }
            })
            .collect()
    }

    /// Block until **no** request is outstanding, then remove and return
    /// every uncollected response sorted by id. Meant for single-owner
    /// services (e.g. `kn serve`); on a shared service this would also
    /// drain other callers' responses — they should use [`collect`].
    ///
    /// [`collect`]: Service::collect
    pub fn drain(&self) -> Responses {
        let (lock, cv) = &*self.ledger;
        let mut ledger = lock.lock().unwrap();
        while ledger.outstanding > 0 {
            ledger = cv.wait(ledger).unwrap();
        }
        let drained: Vec<RequestId> = ledger.done.keys().copied().collect();
        for id in &drained {
            ledger.known.remove(id);
        }
        let mut out: Vec<_> = ledger.done.drain().map(|(id, c)| (id, c.result)).collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Stop admission, settle queued work per `policy`, wait for in-flight
    /// requests to finish, and join every worker thread. Idempotent: a
    /// second call reports zero work and zero joined workers. Responses
    /// already completed (and those produced by the drain itself) remain
    /// collectable afterwards.
    pub fn shutdown(&self, policy: DrainPolicy) -> ShutdownReport {
        let (lock, cv) = &*self.ledger;
        let mut shed = 0u64;
        {
            let mut ledger = lock.lock().unwrap();
            ledger.accepting = false;
            if policy == DrainPolicy::Shed {
                for lane in 0..3 {
                    while let Some(job) = ledger.lanes[lane].pop_front() {
                        shed += 1;
                        let result = Err(ServiceError::ShuttingDown);
                        // Admission is closed, so a shed leader's waiters
                        // answer `shutting-down` too (no promotion).
                        settle_dedup(
                            &mut ledger,
                            self.cache.as_deref(),
                            job.id,
                            job.key.as_ref(),
                            &result,
                        );
                        ledger.complete(Completed {
                            id: job.id,
                            result,
                            attempts: job.attempts.load(Ordering::Relaxed),
                            latency_ns: job.admitted_at.elapsed().as_nanos() as u64,
                        });
                    }
                }
            }
            cv.notify_all();
        }
        // The watchdog must stay alive through the joins: a worker wedged
        // on an injected fault exits only once the watchdog abandons its
        // job. Replacements it spawns meanwhile land in the map and are
        // picked up by the next round of the loop. (A replacement
        // inserted after the final empty check is never joined — it still
        // exits cleanly on the closed queue, it just isn't counted.)
        let mut workers_joined = 0usize;
        loop {
            let handles: Vec<_> = {
                let mut map = self.workers.lock().unwrap();
                map.drain().collect()
            };
            if handles.is_empty() {
                break;
            }
            for (_, h) in handles {
                workers_joined += 1;
                let _ = h.join();
            }
        }
        self.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.watchdog.lock().unwrap().take() {
            let _ = h.join();
        }
        ShutdownReport {
            shed,
            workers_joined,
        }
    }

    /// Snapshot of the cumulative execution statistics.
    pub fn stats(&self) -> ServiceStats {
        self.ledger.0.lock().unwrap().stats.clone()
    }

    /// Snapshot of the pool's supervision state: per-worker heartbeats
    /// and busy ids, replacement count, per-lane queue depths, brownout
    /// state. What the wire-level `health` request renders.
    pub fn health(&self) -> PoolHealth {
        let ledger = self.ledger.0.lock().unwrap();
        let mut workers: Vec<WorkerHealth> = ledger
            .slots
            .iter()
            .map(|s| {
                let current = s.current.load(Ordering::Relaxed);
                WorkerHealth {
                    index: s.index,
                    busy: (current != IDLE).then_some(current),
                    heartbeats: s.beat.load(Ordering::Relaxed),
                }
            })
            .collect();
        workers.sort_unstable_by_key(|w| w.index);
        let queued = [
            ledger.lanes[0].len() as u64,
            ledger.lanes[1].len() as u64,
            ledger.lanes[2].len() as u64,
        ];
        PoolHealth {
            workers,
            replaced_workers: ledger.stats.replaced_workers,
            queued,
            inflight: ledger.inflight.len(),
            accepting: ledger.accepting,
            over_high_water: ledger.queued_len() >= self.config.high_water,
            cache_hits: ledger.stats.cache_hits,
            cache_misses: ledger.stats.cache_misses,
            cache_coalesced: ledger.stats.cache_coalesced,
            cache_evictions: ledger.stats.cache_evictions,
            cache_entries: self.cache.as_ref().map_or(0, |c| c.entries()),
        }
    }

    /// Is the queue at or past the brownout high-water mark right now?
    /// The TCP front-end polls this to pause socket reads (kernel
    /// backpressure). Always `false` when brownout is disabled.
    pub fn over_high_water(&self) -> bool {
        self.ledger.0.lock().unwrap().queued_len() >= self.config.high_water
    }

    /// Final responses recorded so far (monotone; equals
    /// `stats().completed`). Cheap — one lock, no waiting.
    pub fn completed_count(&self) -> u64 {
        self.ledger.0.lock().unwrap().stats.completed
    }

    /// Block until at least `n` requests have final responses. The
    /// open-loop load generator paces arrival slots with this instead of
    /// wall-clock sleeps.
    pub fn wait_for_completed(&self, n: u64) {
        let (lock, cv) = &*self.ledger;
        let mut ledger = lock.lock().unwrap();
        while ledger.stats.completed < n {
            ledger = cv.wait(ledger).unwrap();
        }
    }
}

/// One worker's entry in a [`PoolHealth`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Stable worker index (replacements get fresh indices).
    pub index: usize,
    /// Request id currently executing, if busy.
    pub busy: Option<u64>,
    /// Heartbeat count: advances at dispatch and at every pipeline phase
    /// boundary. A busy worker whose heartbeat is frozen is what the
    /// watchdog eventually replaces.
    pub heartbeats: u64,
}

/// Point-in-time supervision snapshot of the pool ([`Service::health`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolHealth {
    /// Live workers, sorted by index.
    pub workers: Vec<WorkerHealth>,
    /// Workers replaced by the watchdog so far.
    pub replaced_workers: u64,
    /// Queued requests per lane (`[high, normal, low]`).
    pub queued: [u64; 3],
    /// Requests currently executing.
    pub inflight: usize,
    /// Is admission open?
    pub accepting: bool,
    /// Is the queue at or past the brownout high-water mark?
    pub over_high_water: bool,
    /// Requests answered from the response cache at admission.
    pub cache_hits: u64,
    /// Cacheable requests that had to compute (each became a dedup
    /// leader while in flight).
    pub cache_misses: u64,
    /// Requests coalesced onto an identical in-flight leader.
    pub cache_coalesced: u64,
    /// Cache entries displaced by the LRU bound.
    pub cache_evictions: u64,
    /// Entries currently cached (gauge; 0 when caching is off).
    pub cache_entries: u64,
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown(DrainPolicy::Finish);
    }
}

/// The admission gate: lint the request's DDG (if it carries one as text
/// or a file) before it costs a queue slot and a worker. Only *semantic*
/// lint errors reject here — unreadable files and syntax errors fall
/// through so the worker reports them with the established
/// [`ServiceError::BadRequest`] messages, and corpus / in-memory sources
/// are trusted (they were built through `DdgBuilder::build`, which
/// enforces the same invariants).
fn admission_lint(req: &ScheduleRequest) -> Option<RejectReason> {
    let ScheduleRequest::Loop(r) = req else {
        return None;
    };
    let text = match &r.source {
        LoopSource::DdgText(text) => std::borrow::Cow::Borrowed(text.as_str()),
        LoopSource::DdgFile(path) => match std::fs::read_to_string(path) {
            Ok(text) => std::borrow::Cow::Owned(text),
            Err(_) => return None,
        },
        LoopSource::Corpus(_) | LoopSource::Graph { .. } => return None,
    };
    let lint = kn_verify::lint_text(&text).ok()?;
    let diag = lint.report.first_error()?;
    Some(RejectReason::InvalidDdg {
        code: diag.code.as_str().to_string(),
        message: diag.message.clone(),
    })
}

/// Admission verdict of [`make_room`].
enum Room {
    /// Space exists (possibly made by evicting a lower-priority victim).
    Admit,
    /// Past the high-water mark and the arrival is `Low`: refuse.
    Brownout,
    /// Hard-full with nothing of strictly lower priority to evict.
    Full,
}

/// Decide whether a `priority` arrival fits right now. At hard capacity
/// a strictly-lower-priority queued request is evicted to make room (the
/// victim answers [`ServiceError::Overloaded`]). Caller holds the ledger
/// lock and notifies the condvar if it admits.
fn make_room(ledger: &mut Ledger, priority: Priority, config: &ServiceConfig) -> Room {
    let queued = ledger.queued_len();
    if queued >= config.high_water && priority == Priority::Low {
        return Room::Brownout;
    }
    if queued < config.queue_capacity {
        return Room::Admit;
    }
    match ledger.evict_below(priority) {
        Some(victim) => {
            let latency_ns = victim.admitted_at.elapsed().as_nanos() as u64;
            let attempts = victim.attempts.load(Ordering::Relaxed);
            let result = Err(ServiceError::Overloaded);
            // An evicted leader sheds its coalition (see settle_dedup);
            // no cache handle needed — error results never publish.
            settle_dedup(ledger, None, victim.id, victim.key.as_ref(), &result);
            ledger.complete(Completed {
                id: victim.id,
                result,
                attempts,
                latency_ns,
            });
            Room::Admit
        }
        None => Room::Full,
    }
}

/// Admit one request under an already-held ledger lock. A `Some` key
/// registers the new request as the dedup **leader** for that
/// fingerprint: later identical arrivals coalesce onto it instead of
/// spending queue slots of their own.
fn admit(
    ledger: &mut Ledger,
    req: ScheduleRequest,
    opts: SubmitOptions,
    config: &ServiceConfig,
    key: Option<Arc<CacheKey>>,
) -> RequestId {
    let id = RequestId(ledger.next_id);
    ledger.next_id += 1;
    ledger.outstanding += 1;
    ledger.stats.submitted += 1;
    ledger.known.insert(id);
    let req = Arc::new(req);
    if let Some(k) = &key {
        ledger.stats.cache_misses += 1;
        ledger.coalesced.insert(
            k.fp,
            Dedup {
                key: Arc::clone(k),
                req: Arc::clone(&req),
                leader: id,
                waiters: Vec::new(),
            },
        );
    }
    let admitted_seq = ledger.dequeues;
    ledger.push_job(Job {
        id,
        req,
        deadline: opts.deadline,
        max_attempts: opts.max_attempts.unwrap_or(config.max_attempts).max(1),
        priority: opts.priority,
        cancel: Arc::new(AtomicBool::new(false)),
        abandoned: Arc::new(AtomicBool::new(false)),
        attempts: Arc::new(AtomicU32::new(0)),
        admitted_seq,
        admitted_at: Instant::now(),
        key,
    });
    id
}

/// Cache lookup + in-flight coalescing, under the ledger lock and
/// **before** a queue slot is spent (which is what makes a hit or a
/// coalesce work even under brownout / at hard capacity). `Ok(id)` means
/// the request is fully handled — answered from the cache, or attached
/// to an in-flight leader's waiters list. `Err(key)` hands the key back
/// for [`admit`] to register (`Err(None)` when the request must take the
/// uncached path: uncacheable, already expired, or its fingerprint
/// collides with a different in-flight canon).
fn dedup_or_key(
    ledger: &mut Ledger,
    cv: &Condvar,
    cache: &ResponseCache,
    key: Option<Arc<CacheKey>>,
    opts: &SubmitOptions,
    config: &ServiceConfig,
) -> Result<RequestId, Option<Arc<CacheKey>>> {
    let Some(key) = key else {
        return Err(None);
    };
    // A request that is already past its deadline must still answer
    // `expired` (pinned by the overload golden) — never a cached value.
    if opts.deadline.is_some_and(|d| d.is_expired()) {
        return Err(None);
    }
    if let Some(resp) = cache.get(&key) {
        let id = RequestId(ledger.next_id);
        ledger.next_id += 1;
        ledger.outstanding += 1;
        ledger.stats.submitted += 1;
        ledger.stats.cache_hits += 1;
        ledger.known.insert(id);
        ledger.complete(Completed {
            id,
            result: Ok(resp),
            attempts: 0,
            latency_ns: 0,
        });
        cv.notify_all();
        return Ok(id);
    }
    let leader = match ledger.coalesced.get(&key.fp) {
        Some(d) if d.key.canon == key.canon => d.leader,
        // Same 64-bit digest, different request: the in-flight entry owns
        // the fingerprint, so this arrival runs uncached (exactly the
        // collision rule the cache itself enforces).
        Some(_) => return Err(None),
        None => return Err(Some(key)),
    };
    let id = RequestId(ledger.next_id);
    ledger.next_id += 1;
    ledger.outstanding += 1;
    ledger.stats.submitted += 1;
    ledger.stats.cache_coalesced += 1;
    ledger.known.insert(id);
    let d = ledger
        .coalesced
        .get_mut(&key.fp)
        .expect("dedup entry checked above");
    d.waiters.push(Waiter {
        id,
        deadline: opts.deadline,
        max_attempts: opts.max_attempts.unwrap_or(config.max_attempts).max(1),
        priority: opts.priority,
        admitted_at: Instant::now(),
    });
    // A more urgent waiter lifts its still-queued leader into the
    // waiter's lane: the coalition runs at the urgency of its most
    // urgent member.
    let leader_priority = ledger
        .lanes
        .iter()
        .flatten()
        .find(|j| j.id == leader)
        .map(|j| j.priority);
    if let Some(lp) = leader_priority {
        if opts.priority.lane() < lp.lane() {
            if let Some(mut job) = ledger.take_queued(leader) {
                job.priority = opts.priority;
                ledger.push_job(job);
                cv.notify_all();
            }
        }
    }
    Ok(id)
}

/// Settle the dedup entry a finished **leader** owns (no-op for plain
/// jobs and for requeued leaders that kept their id). On success the
/// result is published to the cache and every waiter completes with its
/// own id-stamped copy; on failure the key is *not* poisoned — the next
/// viable waiter is promoted to leader and recomputes. Caller holds the
/// ledger lock and notifies the condvar afterwards.
fn settle_dedup(
    ledger: &mut Ledger,
    cache: Option<&ResponseCache>,
    id: RequestId,
    key: Option<&Arc<CacheKey>>,
    result: &Result<ScheduleResponse, ServiceError>,
) {
    let Some(key) = key else {
        return;
    };
    if ledger.coalesced.get(&key.fp).is_none_or(|d| d.leader != id) {
        return;
    }
    let d = ledger
        .coalesced
        .remove(&key.fp)
        .expect("dedup entry checked above");
    match result {
        Ok(resp) => {
            if let Some(cache) = cache {
                ledger.stats.cache_evictions += cache.insert(&d.key, resp);
            }
            let now = Instant::now();
            for w in d.waiters {
                // A waiter whose own deadline lapsed while it waited
                // answers `expired`, exactly as if it had been queued.
                let result = if w.deadline.is_some_and(|dl| dl.is_expired_at(now)) {
                    Err(ServiceError::Expired)
                } else {
                    Ok(resp.clone())
                };
                ledger.complete(Completed {
                    id: w.id,
                    result,
                    attempts: 0,
                    latency_ns: w.admitted_at.elapsed().as_nanos() as u64,
                });
            }
        }
        // An evicted leader sheds its whole coalition: the coalition was
        // riding the evicted queue slot, and re-entering the queue here
        // would undo the room the eviction just made.
        Err(ServiceError::Overloaded) => {
            for w in d.waiters {
                ledger.complete(Completed {
                    id: w.id,
                    result: Err(ServiceError::Overloaded),
                    attempts: 0,
                    latency_ns: w.admitted_at.elapsed().as_nanos() as u64,
                });
            }
        }
        Err(_) if ledger.accepting => promote_waiter(ledger, d),
        Err(_) => {
            for w in d.waiters {
                ledger.complete(Completed {
                    id: w.id,
                    result: Err(ServiceError::ShuttingDown),
                    attempts: 0,
                    latency_ns: w.admitted_at.elapsed().as_nanos() as u64,
                });
            }
        }
    }
}

/// Hand a failed leader's key to its next viable waiter: the waiter
/// becomes the new leader with a fresh retry budget and is queued
/// directly (it inherits the old leader's slot, the same rule the
/// watchdog uses when it requeues a confiscated request). Expired
/// waiters are answered and skipped.
fn promote_waiter(ledger: &mut Ledger, mut d: Dedup) {
    while !d.waiters.is_empty() {
        let w = d.waiters.remove(0);
        if w.deadline.is_some_and(|dl| dl.is_expired()) {
            ledger.complete(Completed {
                id: w.id,
                result: Err(ServiceError::Expired),
                attempts: 0,
                latency_ns: w.admitted_at.elapsed().as_nanos() as u64,
            });
            continue;
        }
        let admitted_seq = ledger.dequeues;
        let job = Job {
            id: w.id,
            req: Arc::clone(&d.req),
            deadline: w.deadline,
            max_attempts: w.max_attempts,
            priority: w.priority,
            cancel: Arc::new(AtomicBool::new(false)),
            abandoned: Arc::new(AtomicBool::new(false)),
            attempts: Arc::new(AtomicU32::new(0)),
            admitted_seq,
            admitted_at: w.admitted_at,
            key: Some(Arc::clone(&d.key)),
        };
        d.leader = w.id;
        ledger.coalesced.insert(d.key.fp, d);
        ledger.push_job(job);
        return;
    }
}

/// Spawn one worker thread on `slot`. The slot must already be
/// registered in `ledger.slots`.
fn spawn_worker(
    ledger: &Arc<(Mutex<Ledger>, Condvar)>,
    config: &ServiceConfig,
    cache: Option<Arc<ResponseCache>>,
    slot: Arc<WorkerSlot>,
) -> std::thread::JoinHandle<()> {
    let ledger = Arc::clone(ledger);
    let cfg = config.clone();
    std::thread::spawn(move || worker_loop(&ledger, &cfg, &cache, &slot))
}

fn worker_loop(
    ledger: &(Mutex<Ledger>, Condvar),
    config: &ServiceConfig,
    cache: &Option<Arc<ResponseCache>>,
    slot: &Arc<WorkerSlot>,
) {
    let (lock, cv) = ledger;
    let mut scratch = WorkerScratch::default();
    loop {
        let job = {
            let mut ledger = lock.lock().unwrap();
            loop {
                // A condemned worker has already been deregistered by the
                // watchdog; it must never dequeue or complete again.
                if slot.condemned.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = ledger.pop_job(config.age_promote) {
                    // Shed before spending a worker on it.
                    if job.cancel.load(Ordering::Relaxed) {
                        let result = Err(ServiceError::Cancelled);
                        settle_dedup(
                            &mut ledger,
                            cache.as_deref(),
                            job.id,
                            job.key.as_ref(),
                            &result,
                        );
                        ledger.complete(Completed {
                            id: job.id,
                            result,
                            attempts: job.attempts.load(Ordering::Relaxed),
                            latency_ns: job.admitted_at.elapsed().as_nanos() as u64,
                        });
                        cv.notify_all();
                        continue;
                    }
                    if let Some(d) = job.deadline {
                        if d.is_expired() {
                            let result = Err(ServiceError::Expired);
                            settle_dedup(
                                &mut ledger,
                                cache.as_deref(),
                                job.id,
                                job.key.as_ref(),
                                &result,
                            );
                            ledger.complete(Completed {
                                id: job.id,
                                result,
                                attempts: job.attempts.load(Ordering::Relaxed),
                                latency_ns: job.admitted_at.elapsed().as_nanos() as u64,
                            });
                            cv.notify_all();
                            continue;
                        }
                    }
                    ledger
                        .inflight
                        .insert(job.id, InFlight { job: job.clone() });
                    slot.current.store(job.id.0, Ordering::Relaxed);
                    slot.beat.fetch_add(1, Ordering::Relaxed);
                    break job;
                }
                if !ledger.accepting {
                    // Clean exit: deregister so health() reports only
                    // live workers.
                    ledger.slots.retain(|s| s.index != slot.index);
                    return;
                }
                ledger = cv.wait(ledger).unwrap();
            }
        };

        let (result, attempts, timing, exec_ns, retries) =
            run_attempts(&mut scratch, &job, config, slot);

        let mut ledger = lock.lock().unwrap();
        slot.current.store(IDLE, Ordering::Relaxed);
        if job.abandoned.load(Ordering::Relaxed) {
            // The watchdog confiscated this dispatch (requeued or settled
            // the id) and condemned this worker: the local result no
            // longer counts and the slot is already deregistered.
            cv.notify_all();
            return;
        }
        ledger.inflight.remove(&job.id);
        ledger.stats.retries += retries;
        ledger.stats.exec_ns += exec_ns;
        ledger.stats.parse_ns += timing.parse_ns;
        ledger.stats.transform_ns += timing.transform_ns;
        ledger.stats.schedule_ns += timing.schedule_ns;
        ledger.stats.sim_ns += timing.sim_ns;
        settle_dedup(
            &mut ledger,
            cache.as_deref(),
            job.id,
            job.key.as_ref(),
            &result,
        );
        ledger.complete(Completed {
            id: job.id,
            result,
            attempts,
            latency_ns: job.admitted_at.elapsed().as_nanos() as u64,
        });
        cv.notify_all();
    }
}

/// One pass of the watchdog: sample every live slot, bump or reset its
/// stuck counter, and replace any worker whose heartbeat has been frozen
/// on the same request for `stuck_ticks` consecutive samples.
/// `seen` maps worker index → (last beat, last current, frozen ticks).
fn watchdog_tick(
    ledger: &Arc<(Mutex<Ledger>, Condvar)>,
    workers: &Mutex<HashMap<usize, std::thread::JoinHandle<()>>>,
    config: &ServiceConfig,
    cache: &Option<Arc<ResponseCache>>,
    wcfg: WatchdogConfig,
    seen: &mut HashMap<usize, (u64, u64, u32)>,
) {
    // (victim index, replacement slot) pairs; thread spawning happens
    // after the ledger lock is released.
    let mut replaced: Vec<(usize, Arc<WorkerSlot>)> = Vec::new();
    {
        let (lock, cv) = &**ledger;
        let mut led = lock.lock().unwrap();
        let slots: Vec<Arc<WorkerSlot>> = led.slots.clone();
        let live: HashSet<usize> = slots.iter().map(|s| s.index).collect();
        seen.retain(|idx, _| live.contains(idx));
        for slot in slots {
            let beat = slot.beat.load(Ordering::Relaxed);
            let current = slot.current.load(Ordering::Relaxed);
            if current == IDLE {
                seen.remove(&slot.index);
                continue;
            }
            let entry = seen.entry(slot.index).or_insert((beat, current, 0));
            if entry.0 != beat || entry.1 != current {
                *entry = (beat, current, 0);
                continue;
            }
            entry.2 += 1;
            if entry.2 < wcfg.stuck_ticks {
                continue;
            }
            // Declared stuck. If the request just completed between the
            // loads above, leave the worker alone — it is making progress.
            seen.remove(&slot.index);
            let id = RequestId(current);
            let Some(inf) = led.inflight.remove(&id) else {
                continue;
            };
            slot.condemned.store(true, Ordering::Relaxed);
            inf.job.abandoned.store(true, Ordering::Relaxed);
            led.slots.retain(|s| s.index != slot.index);
            led.stats.replaced_workers += 1;
            // Settle the confiscated request: requeue while retry budget
            // remains (zero lost ids), else answer Faulted.
            let attempts = inf.job.attempts.load(Ordering::Relaxed);
            if attempts < inf.job.max_attempts
                && led.accepting
                && !inf.job.cancel.load(Ordering::Relaxed)
            {
                led.stats.retries += 1;
                let mut requeued = inf.job.clone();
                requeued.abandoned = Arc::new(AtomicBool::new(false));
                requeued.admitted_seq = led.dequeues;
                led.push_job(requeued);
            } else {
                let result = Err(ServiceError::Faulted(format!(
                    "worker {} declared stuck by watchdog; retry budget spent",
                    slot.index
                )));
                settle_dedup(
                    &mut led,
                    cache.as_deref(),
                    id,
                    inf.job.key.as_ref(),
                    &result,
                );
                led.complete(Completed {
                    id,
                    result,
                    attempts,
                    latency_ns: inf.job.admitted_at.elapsed().as_nanos() as u64,
                });
            }
            // Register the replacement before releasing the lock so the
            // pool size never observably dips.
            let idx = led.next_worker;
            led.next_worker += 1;
            let new_slot = Arc::new(WorkerSlot::new(idx));
            led.slots.push(Arc::clone(&new_slot));
            replaced.push((slot.index, new_slot));
        }
        if !replaced.is_empty() {
            cv.notify_all();
        }
    }
    for (victim, new_slot) in replaced {
        let idx = new_slot.index;
        let handle = spawn_worker(ledger, config, cache.clone(), new_slot);
        let mut map = workers.lock().unwrap();
        // Detach the condemned thread: joining would block on the wedge.
        // It exits on its own once it observes the abandon flag.
        map.remove(&victim);
        map.insert(idx, handle);
    }
}

/// The watchdog thread body: sample every `interval`, exit promptly when
/// `stop` is set (the interval is slept in small slices so `shutdown` —
/// and every test-scale `Drop` — never waits a full production interval).
fn watchdog_loop(
    ledger: &Arc<(Mutex<Ledger>, Condvar)>,
    workers: &Mutex<HashMap<usize, std::thread::JoinHandle<()>>>,
    stop: &AtomicBool,
    config: &ServiceConfig,
    cache: &Option<Arc<ResponseCache>>,
    wcfg: WatchdogConfig,
) {
    let interval = wcfg.interval.max(Duration::from_micros(100));
    let slice = Duration::from_millis(5).min(interval);
    let mut seen: HashMap<usize, (u64, u64, u32)> = HashMap::new();
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let nap = slice.min(interval - slept);
            std::thread::sleep(nap);
            slept += nap;
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        watchdog_tick(ledger, workers, config, cache, wcfg, &mut seen);
    }
}

/// Execute one job's attempt loop: panic guard, fault injection, response
/// validation, cooperative cancel/deadline checks, capped backoff between
/// retries. Returns (final result, attempts used, accumulated timing,
/// total exec ns, retry count).
#[allow(clippy::type_complexity)]
fn run_attempts(
    scratch: &mut WorkerScratch,
    job: &Job,
    config: &ServiceConfig,
    slot: &Arc<WorkerSlot>,
) -> (
    Result<ScheduleResponse, ServiceError>,
    u32,
    RequestTiming,
    u64,
    u64,
) {
    let mut timing = RequestTiming::default();
    let mut exec_ns = 0u64;
    let mut retries = 0u64;
    let result = loop {
        // Cooperative abandonment between attempts.
        if job.abandoned.load(Ordering::Relaxed) {
            break Err(ServiceError::Faulted(
                "dispatch abandoned by watchdog".into(),
            ));
        }
        if job.cancel.load(Ordering::Relaxed) {
            break Err(ServiceError::Cancelled);
        }
        if job.deadline.is_some_and(|d| d.is_expired()) {
            break Err(ServiceError::Expired);
        }
        // The absolute attempt counter is shared with the ledger's
        // in-flight record, so a confiscated-and-requeued request keeps
        // its spent budget.
        let attempt = job.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        slot.beat.fetch_add(1, Ordering::Relaxed);
        let ctx = ExecCtx {
            cancel: Some(Arc::clone(&job.cancel)),
            deadline: job.deadline.map(|d| d.0),
            beat: Some(Arc::clone(&slot.beat)),
        };
        let t0 = Instant::now();
        let attempt_result = run_one_attempt(scratch, job, attempt, &ctx, config, &mut timing);
        exec_ns += t0.elapsed().as_nanos() as u64;
        slot.beat.fetch_add(1, Ordering::Relaxed);
        match attempt_result {
            Ok(resp) => break Ok(resp),
            Err(e)
                if e.is_transient()
                    && attempt < job.max_attempts
                    && !job.abandoned.load(Ordering::Relaxed) =>
            {
                retries += 1;
                let wait = backoff_delay(attempt + 1, config.backoff_base, config.backoff_cap);
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
            Err(e) => break Err(e),
        }
    };
    (
        result,
        job.attempts.load(Ordering::Relaxed),
        timing,
        exec_ns,
        retries,
    )
}

fn run_one_attempt(
    scratch: &mut WorkerScratch,
    job: &Job,
    attempt: u32,
    ctx: &ExecCtx,
    config: &ServiceConfig,
    timing: &mut RequestTiming,
) -> Result<ScheduleResponse, ServiceError> {
    let fault = config
        .fault_plan
        .as_ref()
        .and_then(|p| p.fault_for(job.id, attempt))
        // Net-layer kinds are drawn by the TCP front-end's writer, not
        // the pool: the request executes normally here.
        .filter(|f| !matches!(f, Fault::SlowReader | Fault::Disconnect));
    if let Some(Fault::Stall) = fault {
        let plan = config.fault_plan.as_ref().expect("stall implies a plan");
        match plan.stall_mode {
            StallMode::Sleep => {
                // A wedged execution that self-resolves: the attempt
                // burns its stall budget and reports a transient fault
                // (which the retry loop then recovers from, deadline
                // permitting).
                if !plan.stall_duration.is_zero() {
                    std::thread::sleep(plan.stall_duration);
                }
                return Err(ServiceError::Faulted(format!(
                    "injected stall ({} attempt {attempt})",
                    job.id
                )));
            }
            StallMode::Wedge => {
                // A truly wedged execution: block until the watchdog
                // abandons the dispatch, the caller cancels, or the
                // deadline passes. Deliberately does NOT bump the
                // heartbeat — frozen heartbeats are what the watchdog
                // detects.
                loop {
                    if job.abandoned.load(Ordering::Relaxed) {
                        return Err(ServiceError::Faulted(format!(
                            "injected wedge ({} attempt {attempt}) cut off by watchdog",
                            job.id
                        )));
                    }
                    if job.cancel.load(Ordering::Relaxed) {
                        return Err(ServiceError::Cancelled);
                    }
                    if job.deadline.is_some_and(|d| d.is_expired()) {
                        return Err(ServiceError::Expired);
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(Fault::Panic) = fault {
            panic!("injected panic ({} attempt {attempt})", job.id);
        }
        let (mut result, t) = request::execute_with(scratch, &job.req, ctx);
        if let Some(Fault::Garbage) = fault {
            result = Ok(faultinject::garble(result));
        }
        (result, t)
    }));
    match outcome {
        Ok((result, t)) => {
            timing.parse_ns += t.parse_ns;
            timing.transform_ns += t.transform_ns;
            timing.schedule_ns += t.schedule_ns;
            timing.sim_ns += t.sim_ns;
            // Detect-and-recover: a response that fails the cheap sanity
            // validator (e.g. injected garbage) is a transient fault.
            match result {
                Ok(resp) => match request::validate_response(&resp) {
                    Ok(()) => Ok(resp),
                    Err(why) => Err(ServiceError::Faulted(format!(
                        "response failed validation: {why}"
                    ))),
                },
                Err(e) => Err(e),
            }
        }
        Err(payload) => {
            // The panic may have left the scratch caches mid-update;
            // start this worker's caches over rather than trust them.
            *scratch = WorkerScratch::default();
            Err(ServiceError::Panicked(panic_message(payload)))
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "request panicked".to_string()
    }
}

/// The process-wide service, sized to the machine
/// (`std::thread::available_parallelism`), created on first use and alive
/// for the rest of the process. The parallel experiment drivers submit
/// their cells here, so repeated driver calls reuse the same warm worker
/// pool instead of re-spawning threads per batch.
pub fn global() -> &'static Service {
    static GLOBAL: OnceLock<Service> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Service::new(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_collect_round_trip() {
        let svc = Service::new(2);
        let a = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        let b = svc.submit(ScheduleRequest::loop_on_corpus("cytron86"));
        let got = svc.collect(&[b, a]); // collect order is id order
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, a);
        assert_eq!(got[1].0, b);
        assert!(got.iter().all(|(_, r)| r.is_ok()));
        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.retries, 0);
        assert!(stats.exec_ns > 0);
    }

    #[test]
    fn drain_returns_everything_in_id_order() {
        let svc = Service::new(3);
        let ids = svc.submit_batch(vec![
            ScheduleRequest::loop_on_corpus("figure7"),
            ScheduleRequest::loop_on_corpus("nope"),
            ScheduleRequest::loop_on_corpus("elliptic"),
        ]);
        let got = svc.drain();
        assert_eq!(got.iter().map(|&(id, _)| id).collect::<Vec<_>>(), ids);
        assert!(got[0].1.is_ok());
        assert!(got[1].1.is_err(), "unknown corpus is an error response");
        assert!(got[2].1.is_ok());
    }

    #[test]
    fn global_service_is_shared_and_sized() {
        let svc = global();
        assert!(svc.workers() >= 1);
        let id = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        assert!(svc.collect(&[id])[0].1.is_ok());
    }

    #[test]
    fn collect_of_unknown_id_answers_immediately() {
        // The PR 3 bug: collecting a never-submitted id blocked forever.
        let svc = Service::new(1);
        let got = svc.collect(&[RequestId(999)]);
        assert!(
            matches!(&got[0].1, Err(ServiceError::UnknownRequest)),
            "{:?}",
            got[0].1
        );
        // An already-collected id is likewise unknown the second time.
        let id = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        assert!(svc.collect(&[id])[0].1.is_ok());
        let again = svc.collect(&[id]);
        assert!(
            matches!(&again[0].1, Err(ServiceError::UnknownRequest)),
            "{:?}",
            again[0].1
        );
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue() {
        let svc = Service::new(1);
        let out = svc.submit_opts(
            ScheduleRequest::loop_on_corpus("figure7"),
            SubmitOptions {
                deadline: Some(Deadline::expired()),
                ..SubmitOptions::default()
            },
        );
        let SubmitOutcome::Accepted(id) = out else {
            panic!("admission open: {out:?}");
        };
        let got = svc.collect_detailed(&[id], None);
        assert!(
            matches!(&got[0].result, Err(ServiceError::Expired)),
            "{:?}",
            got[0].result
        );
        assert_eq!(got[0].attempts, 0, "no worker time wasted");
        assert_eq!(svc.stats().expired, 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_work() {
        let svc = Service::new(2);
        let id = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        let report = svc.shutdown(DrainPolicy::Finish);
        assert_eq!(report.workers_joined, 2);
        assert_eq!(report.shed, 0);
        // Admission is closed; the finished response is still there.
        assert_eq!(
            svc.try_submit(
                ScheduleRequest::loop_on_corpus("figure7"),
                SubmitOptions::default()
            ),
            SubmitOutcome::Rejected(RejectReason::ShuttingDown)
        );
        assert_eq!(
            svc.submit_opts(
                ScheduleRequest::loop_on_corpus("figure7"),
                SubmitOptions::default()
            ),
            SubmitOutcome::Rejected(RejectReason::ShuttingDown)
        );
        assert!(svc.collect(&[id])[0].1.is_ok());
        let again = svc.shutdown(DrainPolicy::Shed);
        assert_eq!(again.workers_joined, 0);
        assert_eq!(again.shed, 0);
    }

    fn test_job(id: u64, p: Priority, deadline: Option<Deadline>, seq: u64) -> Job {
        Job {
            id: RequestId(id),
            req: Arc::new(ScheduleRequest::loop_on_corpus("figure7")),
            deadline,
            max_attempts: 2,
            priority: p,
            cancel: Arc::new(AtomicBool::new(false)),
            abandoned: Arc::new(AtomicBool::new(false)),
            attempts: Arc::new(AtomicU32::new(0)),
            admitted_seq: seq,
            admitted_at: Instant::now(),
            key: None,
        }
    }

    fn empty_ledger() -> Ledger {
        Ledger {
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            dequeues: 0,
            done: HashMap::new(),
            inflight: HashMap::new(),
            coalesced: HashMap::new(),
            known: HashSet::new(),
            outstanding: 0,
            accepting: true,
            next_id: 0,
            next_worker: 0,
            slots: Vec::new(),
            stats: ServiceStats::default(),
        }
    }

    #[test]
    fn lanes_drain_high_before_normal_before_low() {
        let mut led = empty_ledger();
        led.push_job(test_job(0, Priority::Low, None, 0));
        led.push_job(test_job(1, Priority::Normal, None, 0));
        led.push_job(test_job(2, Priority::High, None, 0));
        led.push_job(test_job(3, Priority::High, None, 0));
        let order: Vec<u64> =
            std::iter::from_fn(|| led.pop_job(u64::MAX).map(|j| j.id.0)).collect();
        assert_eq!(order, vec![2, 3, 1, 0], "lane-major, id order within");
    }

    #[test]
    fn deadline_earliest_first_within_lane() {
        let now = Instant::now();
        let far = Deadline(now + Duration::from_secs(60));
        let near = Deadline(now + Duration::from_secs(5));
        let mut led = empty_ledger();
        led.push_job(test_job(0, Priority::Normal, None, 0)); // no deadline: last
        led.push_job(test_job(1, Priority::Normal, Some(far), 0));
        led.push_job(test_job(2, Priority::Normal, Some(near), 0));
        let order: Vec<u64> =
            std::iter::from_fn(|| led.pop_job(u64::MAX).map(|j| j.id.0)).collect();
        assert_eq!(
            order,
            vec![2, 1, 0],
            "earliest deadline first, deadline-less last"
        );
    }

    #[test]
    fn aging_promotes_starved_low_over_fresh_high() {
        let mut led = empty_ledger();
        led.dequeues = 100;
        led.push_job(test_job(0, Priority::Low, None, 0)); // age 100
        led.push_job(test_job(1, Priority::High, None, 99)); // age 1
        let first = led.pop_job(64).unwrap();
        assert_eq!(first.id.0, 0, "starved Low beats fresh High once aged");
        let second = led.pop_job(64).unwrap();
        assert_eq!(second.id.0, 1);
        // Below the aging threshold, lane order rules.
        let mut led = empty_ledger();
        led.dequeues = 10;
        led.push_job(test_job(0, Priority::Low, None, 0)); // age 10 < 64
        led.push_job(test_job(1, Priority::High, None, 9));
        assert_eq!(led.pop_job(64).unwrap().id.0, 1, "no aging yet: High first");
    }

    #[test]
    fn eviction_picks_lowest_priority_least_urgent() {
        let now = Instant::now();
        let near = Deadline(now + Duration::from_secs(1));
        let far = Deadline(now + Duration::from_secs(60));
        let mut led = empty_ledger();
        led.push_job(test_job(0, Priority::Normal, Some(near), 0));
        led.push_job(test_job(1, Priority::Low, Some(near), 0));
        led.push_job(test_job(2, Priority::Low, Some(far), 0));
        // High arrival: Low lane is raided first, latest deadline inside.
        assert_eq!(led.evict_below(Priority::High).unwrap().id.0, 2);
        // Again: remaining Low (near deadline) goes before any Normal.
        assert_eq!(led.evict_below(Priority::High).unwrap().id.0, 1);
        // Now only Normal is left: evictable for High…
        assert_eq!(led.evict_below(Priority::High).unwrap().id.0, 0);
        // …and nothing below Low, ever.
        led.push_job(test_job(3, Priority::Low, None, 0));
        assert!(led.evict_below(Priority::Low).is_none());
        // A deadline-less Low counts least urgent of all.
        led.push_job(test_job(4, Priority::Low, Some(far), 0));
        assert_eq!(led.evict_below(Priority::Normal).unwrap().id.0, 3);
    }

    #[test]
    fn priority_wire_names_round_trip() {
        for p in Priority::ALL {
            assert_eq!(Priority::from_name(p.name()), Some(p));
        }
        assert_eq!(Priority::from_name("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::High < Priority::Normal && Priority::Normal < Priority::Low);
    }

    #[test]
    fn health_snapshot_reports_pool_state() {
        let svc = Service::new(2);
        let h = svc.health();
        assert_eq!(h.workers.len(), 2);
        assert_eq!(
            h.workers.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(h.replaced_workers, 0);
        assert_eq!(h.queued, [0, 0, 0]);
        assert!(h.accepting);
        assert!(!h.over_high_water, "brownout disabled by default");
        let id = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        assert!(svc.collect(&[id])[0].1.is_ok());
        let h = svc.health();
        assert!(h.workers.iter().any(|w| w.heartbeats > 0), "beats advanced");
        svc.shutdown(DrainPolicy::Finish);
        let h = svc.health();
        assert!(!h.accepting);
        assert!(h.workers.is_empty(), "exited workers deregister");
    }

    #[test]
    fn brownout_refuses_low_while_queue_past_high_water() {
        // Deterministic setup: the single worker wedges forever on id 0
        // (watchdog off, wedge exits on cancel), so id 1 is provably
        // still queued — depth ≥ 1 = high_water — when the Low arrival
        // is tried, with no timing assumptions.
        let svc = Service::with_config(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            high_water: 1,
            max_attempts: 1,
            fault_plan: Some(FaultPlan::explicit([(0, Fault::Stall)]).wedged()),
            watchdog: None,
            ..ServiceConfig::default()
        });
        let a = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        // The wedge holds the worker on id 0 until cancelled, so waiting
        // for it to leave the queue is deterministic — and afterwards the
        // queue depth below is exact, not racing the dequeue.
        while svc.health().inflight < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        let low = svc.try_submit(
            ScheduleRequest::loop_on_corpus("figure7"),
            SubmitOptions {
                priority: Priority::Low,
                ..SubmitOptions::default()
            },
        );
        assert_eq!(low, SubmitOutcome::Rejected(RejectReason::Overloaded));
        // High/Normal arrivals are never brownout-refused.
        let high = svc.try_submit(
            ScheduleRequest::loop_on_corpus("figure7"),
            SubmitOptions {
                priority: Priority::High,
                ..SubmitOptions::default()
            },
        );
        let c = high.id().expect("High admitted during brownout");
        assert_eq!(svc.stats().overloaded, 1);
        // Release the wedge; everything admitted still answers.
        svc.cancel(a);
        let got = svc.collect(&[a, b, c]);
        assert!(
            matches!(&got[0].1, Err(ServiceError::Cancelled)),
            "{:?}",
            got[0].1
        );
        assert!(got[1].1.is_ok());
        assert!(got[2].1.is_ok());
    }

    #[test]
    fn hard_capacity_evicts_lowest_priority_for_high_arrival() {
        // Same wedge trick: worker stuck on id 0, queue capacity 2 holds
        // {Normal id 1, Low id 2}. A High arrival at hard capacity must
        // evict the Low victim (answered Overloaded) and be admitted.
        let svc = Service::with_config(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_attempts: 1,
            fault_plan: Some(FaultPlan::explicit([(0, Fault::Stall)]).wedged()),
            watchdog: None,
            ..ServiceConfig::default()
        });
        let a = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        // Deterministic: the wedge pins the worker on id 0, so once it is
        // in flight the queue holds exactly what we put there.
        while svc.health().inflight < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = svc.submit(ScheduleRequest::loop_on_corpus("figure7"));
        let low = svc
            .try_submit(
                ScheduleRequest::loop_on_corpus("figure7"),
                SubmitOptions {
                    priority: Priority::Low,
                    ..SubmitOptions::default()
                },
            )
            .id()
            .expect("fills the queue");
        // Queue is hard-full; a Low arrival has nothing strictly lower
        // to evict, so it would block.
        assert_eq!(
            svc.try_submit(
                ScheduleRequest::loop_on_corpus("figure7"),
                SubmitOptions {
                    priority: Priority::Low,
                    ..SubmitOptions::default()
                },
            ),
            SubmitOutcome::WouldBlock,
        );
        let high = svc
            .try_submit(
                ScheduleRequest::loop_on_corpus("figure7"),
                SubmitOptions {
                    priority: Priority::High,
                    ..SubmitOptions::default()
                },
            )
            .id()
            .expect("High evicts the Low victim");
        let got = svc.collect(&[low]);
        assert!(
            matches!(&got[0].1, Err(ServiceError::Overloaded)),
            "{:?}",
            got[0].1
        );
        assert_eq!(svc.stats().overloaded, 1);
        svc.cancel(a);
        let rest = svc.collect(&[a, b, high]);
        assert!(matches!(&rest[0].1, Err(ServiceError::Cancelled)));
        assert!(rest[1].1.is_ok());
        assert!(rest[2].1.is_ok());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let ms = Duration::from_millis;
        assert_eq!(backoff_delay(1, ms(2), ms(50)), Duration::ZERO);
        assert_eq!(backoff_delay(2, ms(2), ms(50)), ms(2));
        assert_eq!(backoff_delay(3, ms(2), ms(50)), ms(4));
        assert_eq!(backoff_delay(4, ms(2), ms(50)), ms(8));
        assert_eq!(backoff_delay(9, ms(2), ms(50)), ms(50), "capped");
        assert_eq!(backoff_delay(40, ms(2), ms(50)), ms(50), "shift saturates");
        assert_eq!(backoff_delay(3, Duration::ZERO, ms(50)), Duration::ZERO);
    }
}
