//! Typed requests, responses, and the per-request execution pipeline.
//!
//! [`execute`] is the sequential twin of what a worker thread runs: every
//! response is a pure function of its request, which is what the service's
//! determinism guarantee (module docs) rests on.

use crate::experiments::{ablate, figures, table1};
use kn_doacross::{doacross_schedule, DoacrossOptions, Reorder};
use kn_metrics::percentage_parallelism_clamped;
use kn_sched::{Cycle, MachineConfig};
use kn_sim::{sequential_time, EventEngine, SimOptions, TrafficModel};
use kn_workloads::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where the loop to schedule comes from.
#[derive(Clone, Debug)]
pub enum LoopSource {
    /// A built-in corpus workload by name (see [`kn_workloads::by_name`]).
    Corpus(String),
    /// A `.ddg` file in the text format of [`kn_ddg::text`], read at
    /// execution time.
    DdgFile(String),
    /// DDG text supplied inline.
    DdgText(String),
    /// An in-memory graph (API callers; not expressible in the wire
    /// format).
    Graph { name: String, graph: kn_ddg::Ddg },
}

/// Which scheduler answers the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// The paper's pipeline: classification + `Cyclic-sched` + flow
    /// placement ([`kn_sched::schedule_loop`]).
    Cyclic,
    /// DOACROSS with the natural body order.
    DoacrossNatural,
    /// DOACROSS with the best reordering (exhaustive up to the same cap
    /// the figure drivers use).
    DoacrossBest,
}

impl SchedulerChoice {
    /// Wire name (`scheduler=` value).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerChoice::Cyclic => "cyclic",
            SchedulerChoice::DoacrossNatural => "doacross",
            SchedulerChoice::DoacrossBest => "doacross-best",
        }
    }
}

/// Which `kn-xform` passes to run before scheduling (`transform=` wire
/// field). Defaults to [`TransformMode::Off`], so every pre-existing
/// request — and every committed golden — is byte-identical with the
/// transform layer present. Only body-sourced corpus workloads (those
/// with a [`kn_workloads::body_by_name`] entry) can be transformed:
/// graph-only sources have no statement-level IR for the differential
/// harness to replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransformMode {
    #[default]
    Off,
    Fission,
    Reduce,
    All,
}

impl TransformMode {
    /// Wire name (`transform=` value).
    pub fn name(self) -> &'static str {
        match self {
            TransformMode::Off => "off",
            TransformMode::Fission => "fission",
            TransformMode::Reduce => "reduce",
            TransformMode::All => "all",
        }
    }

    /// Inverse of [`TransformMode::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "off" => TransformMode::Off,
            "fission" => TransformMode::Fission,
            "reduce" => TransformMode::Reduce,
            "all" => TransformMode::All,
            _ => return None,
        })
    }

    fn options(self) -> kn_xform::TransformOptions {
        kn_xform::TransformOptions {
            fission: matches!(self, TransformMode::Fission | TransformMode::All),
            reduce: matches!(self, TransformMode::Reduce | TransformMode::All),
        }
    }
}

/// What the transform front-end did to a request's loop, echoed in the
/// response so clients can tell a fissioned 3-piece schedule from a
/// monolithic one. Pass fields hold [`kn_xform::PassStatus::render`]
/// strings (`"applied"`, `"skipped(XS02)"`, `"off"`).
#[derive(Clone, Debug, PartialEq)]
pub struct TransformSummary {
    pub reduce: String,
    pub fission: String,
    /// Independently scheduled sub-loops (1 = no split).
    pub pieces: usize,
    /// Recurrence bound of the original body.
    pub mii_before: f64,
    /// Worst recurrence bound over the transformed pieces.
    pub mii_after: f64,
}

/// Schedule-and-simulate one loop on one machine configuration.
#[derive(Clone, Debug)]
pub struct LoopRequest {
    pub source: LoopSource,
    /// Processor budget; `None` = the corpus workload's paper value, or 8
    /// for non-corpus sources.
    pub procs: Option<usize>,
    /// Communication-cost estimate `k`; `None` = the corpus workload's
    /// paper value, or 3 for non-corpus sources.
    pub k: Option<u32>,
    /// Iterations executed on the simulated machine.
    pub iters: u32,
    /// Execution model: link capacity + event-queue engine.
    pub sim: SimOptions,
    /// Run-time traffic fluctuation.
    pub traffic: TrafficModel,
    pub scheduler: SchedulerChoice,
    /// Pre-scheduling loop transforms (default off; see [`TransformMode`]).
    pub transform: TransformMode,
}

impl Default for LoopRequest {
    fn default() -> Self {
        Self {
            source: LoopSource::Corpus("figure7".into()),
            procs: None,
            k: None,
            iters: 100,
            sim: SimOptions::default(),
            traffic: TrafficModel::stable(0),
            scheduler: SchedulerChoice::Cyclic,
            transform: TransformMode::Off,
        }
    }
}

/// One unit of service work. `Loop` is the externally reachable request
/// (the wire format produces only this variant); the experiment-cell
/// variants are how the parallel drivers (`run_table1_par`,
/// `contention_ablation_par`, `figure_reports_par`) submit their cells to
/// the same pool, so the repository has one fan-out engine.
#[derive(Clone, Debug)]
pub enum ScheduleRequest {
    /// Schedule and simulate one loop.
    Loop(LoopRequest),
    /// One Table 1 cell: one seed under every traffic setting of `config`.
    Table1Row {
        config: Arc<table1::Table1Config>,
        seed: u64,
    },
    /// One contention-ablation cell.
    ContentionCell {
        seed: u64,
        k: u32,
        procs: usize,
        iters: u32,
        engine: EventEngine,
    },
    /// One full figure report.
    Figure {
        workload: Workload,
        iters: u32,
        sim: SimOptions,
    },
}

impl ScheduleRequest {
    /// A default [`LoopRequest`] on a corpus workload — the common case.
    pub fn loop_on_corpus(name: &str) -> Self {
        ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::Corpus(name.to_string()),
            ..LoopRequest::default()
        })
    }
}

/// Result of a [`ScheduleRequest::Loop`].
#[derive(Clone, Debug, PartialEq)]
pub struct LoopOutcome {
    /// Source name (corpus name, file path, or supplied graph name).
    pub name: String,
    pub scheduler: SchedulerChoice,
    /// Processors the schedule actually uses.
    pub processors_used: usize,
    /// Sequential execution time for `iters` iterations.
    pub seq_time: Cycle,
    /// Simulated completion time under the request's traffic + links.
    pub makespan: Cycle,
    /// Percentage parallelism `(s - p)/s * 100`, clamped at 0.
    pub sp: f64,
    /// Cross-processor messages delivered.
    pub messages: u64,
    /// Total actual communication cycles.
    pub comm_cycles: u64,
    /// Steady-state cycles/iteration of the Cyclic core (Cyclic scheduler
    /// only; `None` for DOALL loops, DOACROSS, and multi-piece fissioned
    /// schedules, whose pieces each have their own II).
    pub ii: Option<f64>,
    /// Transform report when the request asked for one (`None` when
    /// `transform=off`, which keeps pre-transform responses byte-stable).
    pub transform: Option<TransformSummary>,
}

/// One response; the variant mirrors the request's.
#[derive(Clone, Debug)]
pub enum ScheduleResponse {
    Loop(LoopOutcome),
    Table1Row(table1::Table1Row),
    Contention {
        ours_free: f64,
        ours_contended: f64,
        doacross_free: f64,
        doacross_contended: f64,
    },
    Figure(Box<figures::FigureReport>),
}

/// Why a request failed. Every variant is a *response* — the pool stays
/// healthy and later requests are unaffected. The lifecycle layer retries
/// the [transient](ServiceError::is_transient) variants up to the attempt
/// budget before letting them stand as final.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The loop source could not be resolved (unknown corpus name,
    /// unreadable file, DDG parse error).
    BadRequest(String),
    /// The DDG parsed but failed the `kn-verify` lint pass at admission:
    /// `code` is the stable `KN0xx` diagnostic code of the first error
    /// finding (see `docs/diagnostics.md`). The request never reached a
    /// worker.
    InvalidDdg { code: String, message: String },
    /// Source resolved but the scheduler or simulator rejected it.
    Sched(String),
    /// The pipeline panicked; the worker caught it at the request
    /// boundary. Transient (retried).
    Panicked(String),
    /// An injected fault fired, or the response failed the sanity
    /// validator ([`validate_response`]). Transient (retried).
    Faulted(String),
    /// The caller cancelled the request before it produced a response.
    Cancelled,
    /// The request's deadline passed before it finished; it was shed at
    /// dequeue, between attempts, or at a pipeline phase boundary.
    Expired,
    /// The request was still queued when `shutdown(DrainPolicy::Shed)`
    /// closed the service.
    ShuttingDown,
    /// `collect` was asked for an id this service never admitted, or one
    /// whose response was already collected.
    UnknownRequest,
    /// `collect_timeout` gave up waiting; the request is still running
    /// and its real response remains collectable.
    Timeout,
    /// The brownout policy shed this request under overload: either it
    /// was still queued when a higher-priority arrival claimed the last
    /// slot, or it arrived as `Priority::Low` while the queue was past
    /// the high-water mark. Final — resubmit once load subsides.
    Overloaded,
}

impl ServiceError {
    /// Worth retrying? Panics and injected/validated faults are assumed
    /// transient; everything else is a deterministic property of the
    /// request or a lifecycle verdict that retrying cannot change.
    pub fn is_transient(&self) -> bool {
        matches!(self, ServiceError::Panicked(_) | ServiceError::Faulted(_))
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::InvalidDdg { code, message } => {
                write!(f, "invalid DDG [{code}]: {message}")
            }
            ServiceError::Sched(m) => write!(f, "scheduling failed: {m}"),
            ServiceError::Panicked(m) => write!(f, "request panicked: {m}"),
            ServiceError::Faulted(m) => write!(f, "transient fault: {m}"),
            ServiceError::Cancelled => write!(f, "cancelled"),
            ServiceError::Expired => write!(f, "deadline expired"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::UnknownRequest => write!(f, "unknown request id"),
            ServiceError::Timeout => write!(f, "collect timed out"),
            ServiceError::Overloaded => write!(f, "overloaded: shed by brownout policy"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Cooperative execution context threaded through the pipeline: the
/// request's cancellation flag and deadline, checked at phase boundaries
/// (after source resolution and after scheduling) so abandoned or expired
/// work stops before its most expensive stage instead of running to
/// completion. [`ExecCtx::none`] (no checks) is what the sequential
/// reference executor uses.
#[derive(Clone, Debug, Default)]
pub struct ExecCtx {
    pub cancel: Option<Arc<AtomicBool>>,
    pub deadline: Option<Instant>,
    /// Worker heartbeat counter, bumped on every [`ExecCtx::check`]. The
    /// watchdog declares a worker stuck only when this stops advancing
    /// while the worker stays busy on the same request — progress through
    /// phase boundaries, not wall time spent inside a phase, is what
    /// counts as liveness.
    pub beat: Option<Arc<AtomicU64>>,
}

impl ExecCtx {
    /// A context that never cancels or expires.
    pub fn none() -> Self {
        Self::default()
    }

    /// Err if the request should stop now: [`ServiceError::Cancelled`]
    /// wins over [`ServiceError::Expired`].
    pub fn check(&self) -> Result<(), ServiceError> {
        if let Some(b) = &self.beat {
            b.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return Err(ServiceError::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(ServiceError::Expired);
            }
        }
        Ok(())
    }
}

/// Cheap sanity checks on a successful response — the detection half of
/// the detect-fault-and-retry discipline. A response violating an
/// invariant the pipeline can never legitimately produce (a zero makespan
/// for scheduled work, negative parallelism, an impossible message count)
/// is treated as a transient fault and retried. Injected
/// [`Fault::Garbage`](super::faultinject::Fault::Garbage) responses are
/// built to trip these checks.
pub fn validate_response(resp: &ScheduleResponse) -> Result<(), String> {
    if let ScheduleResponse::Loop(out) = resp {
        if out.messages == u64::MAX {
            return Err("impossible message count".into());
        }
        if out.sp < 0.0 || out.sp > 100.0 {
            return Err(format!("parallelism {}% outside [0, 100]", out.sp));
        }
        if out.makespan == 0 && out.seq_time > 0 {
            return Err("zero makespan for non-empty work".into());
        }
    }
    Ok(())
}

/// Per-request phase latencies, accumulated into
/// [`ServiceStats`](super::ServiceStats). Experiment-cell requests run
/// their phases interleaved inside one cell function and report zeros
/// here (their total still lands in `exec_ns`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestTiming {
    /// Source resolution: corpus lookup or DDG read and parse.
    pub parse_ns: u64,
    /// Loop transformation, differential certification included (0 with
    /// `transform=off`).
    pub transform_ns: u64,
    pub schedule_ns: u64,
    pub sim_ns: u64,
}

/// Per-worker state reused across requests: resolved corpus workloads
/// keyed by name and parsed DDG sources keyed by the full source text
/// (not a hash — requests are externally supplied, so a colliding digest
/// must never serve the wrong graph). A long-lived service answering
/// repeated requests over the same loops skips re-building and
/// re-parsing them; the caches live as long as the worker thread.
#[derive(Default)]
pub struct WorkerScratch {
    corpus: HashMap<String, Workload>,
    parsed: HashMap<String, kn_ddg::Ddg>,
}

/// A resolved [`LoopSource`]: display name, graph, and — for corpus
/// workloads — the paper's (procs, k) to fall back on.
struct ResolvedSource {
    name: String,
    graph: kn_ddg::Ddg,
    machine_defaults: Option<(usize, u32)>,
}

impl WorkerScratch {
    fn resolve(&mut self, source: &LoopSource) -> Result<ResolvedSource, ServiceError> {
        match source {
            LoopSource::Corpus(name) => {
                if !self.corpus.contains_key(name) {
                    let w = kn_workloads::by_name(name).ok_or_else(|| {
                        ServiceError::BadRequest(format!("unknown corpus workload {name:?}"))
                    })?;
                    self.corpus.insert(name.clone(), w);
                }
                let w = &self.corpus[name];
                Ok(ResolvedSource {
                    name: w.name.to_string(),
                    graph: w.graph.clone(),
                    machine_defaults: Some((w.procs, w.k)),
                })
            }
            LoopSource::DdgFile(path) => {
                // Re-read every time (the file may change under a
                // long-lived service); the *parse* is cached by content.
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ServiceError::BadRequest(format!("cannot read {path}: {e}")))?;
                Ok(ResolvedSource {
                    name: path.clone(),
                    graph: self.parse_cached(&text)?,
                    machine_defaults: None,
                })
            }
            LoopSource::DdgText(text) => Ok(ResolvedSource {
                name: "inline".to_string(),
                graph: self.parse_cached(text)?,
                machine_defaults: None,
            }),
            LoopSource::Graph { name, graph } => Ok(ResolvedSource {
                name: name.clone(),
                graph: graph.clone(),
                machine_defaults: None,
            }),
        }
    }

    fn parse_cached(&mut self, text: &str) -> Result<kn_ddg::Ddg, ServiceError> {
        if let Some(g) = self.parsed.get(text) {
            return Ok(g.clone());
        }
        let g = kn_ddg::parse_text(text)
            .map_err(|e| ServiceError::BadRequest(format!("DDG parse error: {e}")))?;
        self.parsed.insert(text.to_string(), g.clone());
        Ok(g)
    }
}

/// Canonical identity of a cacheable request: a 64-bit FNV-1a digest of
/// the exact canonical string, kept *alongside* that string. Every cache
/// lookup compares the full canon — requests are externally supplied, so
/// a colliding digest must never serve the wrong response (the same rule
/// [`WorkerScratch`]'s parse cache follows by keying on full source
/// text).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CacheKey {
    /// FNV-1a 64 over `canon`'s bytes — the shard/bucket selector.
    pub fp: u64,
    /// The canonical rendering of (resolved source, machine, sim options,
    /// traffic model, scheduler choice). Exact-match verified on lookup.
    pub canon: String,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Compute the response-cache key for `req`, or `None` when the request
/// is not cacheable: experiment-cell variants (driver-internal, never
/// repeated across users), and file sources that cannot be read right now
/// (the worker will report the error; caching must not mask it).
///
/// The canon embeds the *resolved* source — file sources contribute path
/// **and** content, so a file edited under a long-lived service changes
/// the key — plus every field of the request that the response is a
/// function of. Lifecycle options (deadline, priority, attempt budget)
/// are deliberately absent: they shape *whether* a request completes,
/// never *what* it computes. Fields are joined with US (unit separator)
/// so adjacent values cannot reassociate.
pub(crate) fn cache_key(req: &ScheduleRequest) -> Option<CacheKey> {
    use std::fmt::Write as _;
    let ScheduleRequest::Loop(r) = req else {
        return None;
    };
    let mut canon = String::new();
    match &r.source {
        LoopSource::Corpus(name) => {
            let _ = write!(canon, "corpus\u{1f}{name}");
        }
        LoopSource::DdgFile(path) => {
            // Path matters (it is the response's `name`) and so does the
            // content (what actually gets scheduled).
            let text = std::fs::read_to_string(path).ok()?;
            let _ = write!(canon, "file\u{1f}{path}\u{1f}{text}");
        }
        LoopSource::DdgText(text) => {
            let _ = write!(canon, "text\u{1f}{text}");
        }
        LoopSource::Graph { name, graph } => {
            let _ = write!(canon, "graph\u{1f}{name}");
            for n in graph.node_ids() {
                let node = graph.node(n);
                let _ = write!(
                    canon,
                    "\u{1f}n:{}:{}:{:?}",
                    node.name, node.latency, node.stmt
                );
            }
            for e in graph.edge_ids() {
                let edge = graph.edge(e);
                let _ = write!(
                    canon,
                    "\u{1f}e:{}:{}:{}:{:?}",
                    edge.src.index(),
                    edge.dst.index(),
                    edge.distance,
                    edge.cost
                );
            }
        }
    }
    let _ = write!(
        canon,
        "\u{1f}procs={:?}\u{1f}k={:?}\u{1f}iters={}\u{1f}link={:?}\u{1f}engine={:?}\u{1f}mm={}\u{1f}seed={}\u{1f}sched={}\u{1f}xform={}",
        r.procs,
        r.k,
        r.iters,
        r.sim.link,
        r.sim.engine,
        r.traffic.mm,
        r.traffic.seed,
        r.scheduler.name(),
        r.transform.name()
    );
    let fp = fnv1a(canon.as_bytes());
    Some(CacheKey { fp, canon })
}

/// Execute one request against a worker's scratch, honoring the
/// cooperative context at phase boundaries. Returns the response (or
/// error) plus the phase timing. This is the exact function the pool
/// workers run under their panic guard.
pub(crate) fn execute_with(
    scratch: &mut WorkerScratch,
    req: &ScheduleRequest,
    ctx: &ExecCtx,
) -> (Result<ScheduleResponse, ServiceError>, RequestTiming) {
    let mut timing = RequestTiming::default();
    if let Err(e) = ctx.check() {
        return (Err(e), timing);
    }
    let result = match req {
        ScheduleRequest::Loop(r) => execute_loop(scratch, r, ctx, &mut timing),
        ScheduleRequest::Table1Row { config, seed } => Ok(ScheduleResponse::Table1Row(
            table1::table1_row(config, *seed),
        )),
        ScheduleRequest::ContentionCell {
            seed,
            k,
            procs,
            iters,
            engine,
        } => {
            let (ours_free, ours_contended, doacross_free, doacross_contended) =
                ablate::contention_cell(*seed, *k, *procs, *iters, *engine);
            Ok(ScheduleResponse::Contention {
                ours_free,
                ours_contended,
                doacross_free,
                doacross_contended,
            })
        }
        ScheduleRequest::Figure {
            workload,
            iters,
            sim,
        } => Ok(ScheduleResponse::Figure(Box::new(
            figures::figure_report_with(workload, *iters, sim),
        ))),
    };
    (result, timing)
}

/// Schedule one graph under the request's scheduler choice. In debug
/// builds every schedule the service emits is statically certified
/// (dependences, resources, coverage) before simulation; an unsound
/// scheduler change fails here with a KN03x diagnostic rather than
/// producing silently wrong goldens. Release builds skip the hooks
/// (`certify: None` by default).
fn schedule_one(
    graph: &kn_ddg::Ddg,
    m: &MachineConfig,
    r: &LoopRequest,
) -> Result<(kn_sched::Program, Option<f64>), ServiceError> {
    match r.scheduler {
        SchedulerChoice::Cyclic => {
            #[allow(unused_mut)]
            let mut opts = kn_sched::FullOptions::default();
            #[cfg(debug_assertions)]
            {
                opts.certify = Some(kn_verify::certify_loop_hook);
            }
            let s = kn_sched::schedule_loop(graph, m, r.iters, &opts)
                .map_err(|e| ServiceError::Sched(e.to_string()))?;
            let ii = s.cyclic_ii();
            Ok((s.program, ii))
        }
        SchedulerChoice::DoacrossNatural | SchedulerChoice::DoacrossBest => {
            let reorder = match r.scheduler {
                SchedulerChoice::DoacrossBest => Reorder::Best {
                    exhaustive_cap: 5040,
                },
                _ => Reorder::Natural,
            };
            #[allow(unused_mut)]
            let mut opts = DoacrossOptions {
                reorder,
                ..Default::default()
            };
            #[cfg(debug_assertions)]
            {
                opts.certify = Some(kn_verify::certify_timed_hook);
            }
            let s = doacross_schedule(graph, m, r.iters, &opts)
                .map_err(|e| ServiceError::Sched(e.to_string()))?;
            Ok((s.program, None))
        }
    }
}

fn execute_loop(
    scratch: &mut WorkerScratch,
    r: &LoopRequest,
    ctx: &ExecCtx,
    timing: &mut RequestTiming,
) -> Result<ScheduleResponse, ServiceError> {
    let t0 = Instant::now();
    let ResolvedSource {
        name,
        graph,
        machine_defaults,
    } = scratch.resolve(&r.source)?;
    timing.parse_ns = t0.elapsed().as_nanos() as u64;
    // Transform stage. Only body-sourced corpus workloads carry the
    // statement-level IR the passes and the differential harness need.
    let xform = match r.transform {
        TransformMode::Off => None,
        mode => {
            let t = Instant::now();
            let LoopSource::Corpus(cname) = &r.source else {
                return Err(ServiceError::BadRequest(
                    "transform= requires a body-sourced corpus workload".to_string(),
                ));
            };
            let body = kn_workloads::body_by_name(cname).ok_or_else(|| {
                ServiceError::BadRequest(format!(
                    "corpus workload {cname:?} is graph-only; transform= needs statement-level IR"
                ))
            })?;
            // `transform_loop` differentially certifies every applied
            // transform; a certification failure means the pass itself is
            // unsound, which must surface as an error, never as a wrong
            // (but fast) schedule.
            let out = kn_xform::transform_loop(&name, &body, &mode.options())
                .map_err(|e| ServiceError::Sched(format!("transform: {e}")))?;
            timing.transform_ns = t.elapsed().as_nanos() as u64;
            Some(out)
        }
    };
    // Phase boundary: parse/transform -> schedule.
    ctx.check()?;

    let (default_procs, default_k) = machine_defaults.unwrap_or((8, 3));
    let procs = r.procs.unwrap_or(default_procs);
    if procs == 0 {
        // MachineConfig::new panics on an empty pool; a zero budget is a
        // request error, not a pipeline fault.
        return Err(ServiceError::BadRequest(
            "procs must be at least 1".to_string(),
        ));
    }
    let m = MachineConfig::new(procs, r.k.unwrap_or(default_k));

    // The loops the simulator runs: the transformed pieces (in manifest
    // order) when a pass fired, else the resolved graph unchanged.
    let piece_graphs: Vec<kn_ddg::Ddg> = match &xform {
        Some(out) if out.changed() => out
            .transformed
            .pieces
            .iter()
            .map(|p| p.graph.clone())
            .collect(),
        _ => vec![graph.clone()],
    };

    let t1 = Instant::now();
    let mut programs = Vec::with_capacity(piece_graphs.len());
    for g in &piece_graphs {
        programs.push(schedule_one(g, &m, r)?);
    }
    timing.schedule_ns = t1.elapsed().as_nanos() as u64;
    // Phase boundary: schedule -> simulate.
    ctx.check()?;

    // Pieces run back-to-back (the fission sequencing manifest), so their
    // simulated times, message counts, and communication cycles sum; the
    // O(pieces) reduction epilogues are not simulated (they are loop-free
    // folds, negligible next to `iters` iterations of loop body).
    let t2 = Instant::now();
    let mut makespan: Cycle = 0;
    let mut messages = 0u64;
    let mut comm_cycles = 0u64;
    let mut processors_used = 0usize;
    for ((program, _), g) in programs.iter().zip(&piece_graphs) {
        let sim = r
            .sim
            .run(program, g, &m, &r.traffic)
            .map_err(|e| ServiceError::Sched(e.to_string()))?;
        makespan += sim.makespan;
        messages += sim.messages;
        comm_cycles += sim.comm_cycles;
        processors_used = processors_used.max(program.used_processors());
    }
    timing.sim_ns = t2.elapsed().as_nanos() as u64;
    let ii = if programs.len() == 1 {
        programs[0].1
    } else {
        None
    };

    // Sequential baseline is always the *original* loop — that is the
    // program the user asked to run, and what a transform has to beat.
    let seq_time = sequential_time(&graph, r.iters);
    Ok(ScheduleResponse::Loop(LoopOutcome {
        name,
        scheduler: r.scheduler,
        processors_used,
        seq_time,
        makespan,
        sp: percentage_parallelism_clamped(seq_time, makespan),
        messages,
        comm_cycles,
        ii,
        transform: xform.map(|out| TransformSummary {
            reduce: out.report.reduce.render(),
            fission: out.report.fission.render(),
            pieces: piece_graphs.len(),
            mii_before: out.report.mii_before,
            mii_after: out.report.mii_after,
        }),
    }))
}

/// Execute one request sequentially with a fresh scratch — the reference
/// the service's responses are tested against, and the sequential
/// baseline the throughput bench compares to.
pub fn execute(req: &ScheduleRequest) -> Result<ScheduleResponse, ServiceError> {
    execute_with(&mut WorkerScratch::default(), req, &ExecCtx::none()).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_loop_executes_with_paper_defaults() {
        let r = execute(&ScheduleRequest::loop_on_corpus("figure7")).unwrap();
        let ScheduleResponse::Loop(out) = r else {
            panic!("loop request yields a loop response");
        };
        assert_eq!(out.name, "figure7");
        assert_eq!(out.ii, Some(2.5), "paper defaults (2 PEs, k=2) apply");
        assert!(out.sp > 40.0);
    }

    #[test]
    fn doacross_loop_has_no_ii() {
        let r = execute(&ScheduleRequest::Loop(LoopRequest {
            scheduler: SchedulerChoice::DoacrossNatural,
            ..LoopRequest::default()
        }))
        .unwrap();
        let ScheduleResponse::Loop(out) = r else {
            panic!("loop response");
        };
        assert_eq!(out.ii, None);
        assert_eq!(out.sp, 0.0, "DOACROSS cannot pipeline figure7");
    }

    #[test]
    fn inline_ddg_and_graph_sources_agree() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../corpus/figure7.ddg"
        ))
        .unwrap();
        let graph = kn_ddg::parse_text(&text).unwrap();
        let base = LoopRequest {
            procs: Some(2),
            k: Some(2),
            ..LoopRequest::default()
        };
        let a = execute(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::DdgText(text),
            ..base.clone()
        }))
        .unwrap();
        let b = execute(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::Graph {
                name: "g".into(),
                graph,
            },
            ..base
        }))
        .unwrap();
        let (ScheduleResponse::Loop(a), ScheduleResponse::Loop(b)) = (a, b) else {
            panic!("loop responses");
        };
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.sp, b.sp);
    }

    #[test]
    fn bad_sources_are_errors() {
        for (req, needle) in [
            (ScheduleRequest::loop_on_corpus("nope"), "unknown corpus"),
            (
                ScheduleRequest::Loop(LoopRequest {
                    source: LoopSource::DdgFile("no/such/file.ddg".into()),
                    ..LoopRequest::default()
                }),
                "cannot read",
            ),
            (
                ScheduleRequest::Loop(LoopRequest {
                    source: LoopSource::DdgText("node A\nedge A -> B".into()),
                    ..LoopRequest::default()
                }),
                "parse error",
            ),
        ] {
            let e = execute(&req).unwrap_err();
            let ServiceError::BadRequest(m) = &e else {
                panic!("expected BadRequest, got {e:?}");
            };
            assert!(m.contains(needle), "{m:?} should contain {needle:?}");
        }
    }

    #[test]
    fn zero_processor_budget_is_bad_request_not_panic() {
        // MachineConfig::new panics on procs=0; the service must diagnose
        // it as a request error instead (reachable from the wire:
        // `corpus=figure7 procs=0`).
        let e = execute(&ScheduleRequest::Loop(LoopRequest {
            procs: Some(0),
            ..LoopRequest::default()
        }))
        .unwrap_err();
        assert!(
            matches!(&e, ServiceError::BadRequest(m) if m.contains("procs")),
            "{e:?}"
        );
    }

    #[test]
    fn zero_iterations_answer_an_empty_schedule_not_panic() {
        // `iters=0` times an empty program: every scheduler and engine
        // answers makespan 0 rather than failing the worker.
        use crate::service::wire::{parse_request_line, response_json};
        for (line, want) in [
            (
                "corpus=figure7 iters=0",
                r#""scheduler": "cyclic", "processors_used": 0, "seq_time": 0, "makespan": 0, "sp": 0, "messages": 0, "comm_cycles": 0, "ii": 2.5}"#,
            ),
            (
                "corpus=figure7 iters=0 scheduler=doacross",
                r#""scheduler": "doacross", "processors_used": 0, "seq_time": 0, "makespan": 0, "sp": 0, "messages": 0, "comm_cycles": 0, "ii": null}"#,
            ),
            (
                "corpus=cytron86 iters=0 scheduler=doacross engine=heap link=single",
                r#""scheduler": "doacross", "processors_used": 0, "seq_time": 0, "makespan": 0, "sp": 0, "messages": 0, "comm_cycles": 0, "ii": null}"#,
            ),
            (
                "corpus=figure7 iters=0 engine=calendar link=single mm=3 seed=5",
                r#""scheduler": "cyclic", "processors_used": 0, "seq_time": 0, "makespan": 0, "sp": 0, "messages": 0, "comm_cycles": 0, "ii": 2.5}"#,
            ),
        ] {
            let parsed = parse_request_line(line).unwrap().unwrap();
            let got = response_json(0, &execute(&parsed.req));
            assert!(
                got.starts_with(r#"{"id": 0, "status": "ok", "kind": "loop""#)
                    && got.ends_with(want),
                "{line}: {got}"
            );
        }
    }

    #[test]
    fn unnormalized_graph_is_sched_error_not_panic() {
        // dist=3 self-loop: schedule_loop refuses (NotNormalized).
        let text = "node X\nedge X -> X dist=3\n";
        let e = execute(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::DdgText(text.into()),
            ..LoopRequest::default()
        }))
        .unwrap_err();
        assert!(matches!(e, ServiceError::Sched(_)), "{e:?}");
    }

    #[test]
    fn scratch_caches_are_reused() {
        let mut scratch = WorkerScratch::default();
        let req = ScheduleRequest::loop_on_corpus("figure7");
        let (a, _) = execute_with(&mut scratch, &req, &ExecCtx::none());
        assert_eq!(scratch.corpus.len(), 1);
        let (b, _) = execute_with(&mut scratch, &req, &ExecCtx::none());
        assert_eq!(scratch.corpus.len(), 1, "second hit reuses the cache");
        let (Ok(ScheduleResponse::Loop(a)), Ok(ScheduleResponse::Loop(b))) = (a, b) else {
            panic!("loop responses");
        };
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn pre_cancelled_context_abandons_at_the_first_boundary() {
        let cancel = Arc::new(AtomicBool::new(true));
        let ctx = ExecCtx {
            cancel: Some(cancel),
            ..ExecCtx::default()
        };
        let (r, timing) = execute_with(
            &mut WorkerScratch::default(),
            &ScheduleRequest::loop_on_corpus("figure7"),
            &ctx,
        );
        assert!(matches!(r, Err(ServiceError::Cancelled)), "{r:?}");
        assert_eq!(timing.schedule_ns, 0, "no scheduling work was done");
    }

    #[test]
    fn expired_context_abandons_between_phases() {
        let ctx = ExecCtx {
            deadline: Some(Instant::now()),
            ..ExecCtx::default()
        };
        let (r, _) = execute_with(
            &mut WorkerScratch::default(),
            &ScheduleRequest::loop_on_corpus("figure7"),
            &ctx,
        );
        assert!(matches!(r, Err(ServiceError::Expired)), "{r:?}");
    }

    #[test]
    fn validator_accepts_real_responses_and_rejects_garbage() {
        let real = execute(&ScheduleRequest::loop_on_corpus("figure7")).unwrap();
        assert!(validate_response(&real).is_ok());
        let ScheduleResponse::Loop(mut out) = real else {
            panic!("loop response");
        };
        out.messages = u64::MAX;
        assert!(validate_response(&ScheduleResponse::Loop(out.clone())).is_err());
        out.messages = 0;
        out.sp = -1.0;
        assert!(validate_response(&ScheduleResponse::Loop(out.clone())).is_err());
        out.sp = 0.0;
        out.makespan = 0;
        assert!(validate_response(&ScheduleResponse::Loop(out)).is_err());
    }

    #[test]
    fn cache_keys_separate_work_relevant_fields_only() {
        let base = || ScheduleRequest::Loop(LoopRequest::default());
        let a = cache_key(&base()).expect("corpus loops are cacheable");
        let b = cache_key(&base()).unwrap();
        assert_eq!(a, b, "identical requests share one key");
        // Every work-relevant field separates keys.
        for (what, req) in [
            (
                "corpus",
                ScheduleRequest::Loop(LoopRequest {
                    source: LoopSource::Corpus("cytron86".into()),
                    ..LoopRequest::default()
                }),
            ),
            (
                "procs",
                ScheduleRequest::Loop(LoopRequest {
                    procs: Some(4),
                    ..LoopRequest::default()
                }),
            ),
            (
                "iters",
                ScheduleRequest::Loop(LoopRequest {
                    iters: 99,
                    ..LoopRequest::default()
                }),
            ),
            (
                "traffic seed",
                ScheduleRequest::Loop(LoopRequest {
                    traffic: TrafficModel { mm: 1, seed: 1 },
                    ..LoopRequest::default()
                }),
            ),
            (
                "scheduler",
                ScheduleRequest::Loop(LoopRequest {
                    scheduler: SchedulerChoice::DoacrossNatural,
                    ..LoopRequest::default()
                }),
            ),
            (
                "transform",
                ScheduleRequest::Loop(LoopRequest {
                    transform: TransformMode::All,
                    ..LoopRequest::default()
                }),
            ),
        ] {
            let other = cache_key(&req).unwrap();
            assert_ne!(a.canon, other.canon, "{what} must separate canons");
            assert_ne!(a.fp, other.fp, "{what} must separate fingerprints");
        }
        // Experiment-cell variants and unreadable files are uncacheable.
        assert!(cache_key(&ScheduleRequest::ContentionCell {
            seed: 0,
            k: 2,
            procs: 2,
            iters: 10,
            engine: EventEngine::Calendar,
        })
        .is_none());
        assert!(cache_key(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::DdgFile("no/such/file.ddg".into()),
            ..LoopRequest::default()
        }))
        .is_none());
    }

    #[test]
    fn file_key_covers_path_and_content() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/figure7.ddg");
        let text = std::fs::read_to_string(path).unwrap();
        let file = cache_key(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::DdgFile(path.into()),
            ..LoopRequest::default()
        }))
        .unwrap();
        assert!(file.canon.contains(&text), "content is in the canon");
        assert!(file.canon.contains(path), "path is in the canon");
        // Same content supplied inline is a *different* key: the
        // response's name field differs (path vs "inline").
        let inline = cache_key(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::DdgText(text),
            ..LoopRequest::default()
        }))
        .unwrap();
        assert_ne!(file.canon, inline.canon);
    }

    #[test]
    fn transform_off_responses_are_unchanged_by_the_transform_layer() {
        let r = execute(&ScheduleRequest::loop_on_corpus("figure7")).unwrap();
        let ScheduleResponse::Loop(out) = r else {
            panic!("loop response");
        };
        assert_eq!(out.transform, None, "default responses carry no report");
    }

    #[test]
    fn fission_splits_twophase_into_three_summed_pieces() {
        let r = execute(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::Corpus("fissionable/twophase".into()),
            transform: TransformMode::Fission,
            ..LoopRequest::default()
        }))
        .unwrap();
        let ScheduleResponse::Loop(out) = r else {
            panic!("loop response");
        };
        let t = out.transform.expect("transform report present");
        assert_eq!(t.fission, "applied");
        assert_eq!(t.reduce, "off");
        assert_eq!(t.pieces, 3);
        assert_eq!(out.ii, None, "multi-piece schedules have no single II");
        assert!(out.makespan > 0);
    }

    #[test]
    fn reduction_request_reports_mii_collapse() {
        let r = execute(&ScheduleRequest::Loop(LoopRequest {
            source: LoopSource::Corpus("reduction/sum".into()),
            transform: TransformMode::All,
            ..LoopRequest::default()
        }))
        .unwrap();
        let ScheduleResponse::Loop(out) = r else {
            panic!("loop response");
        };
        let t = out.transform.expect("transform report present");
        assert_eq!(t.reduce, "applied");
        assert!((t.mii_before - 2.0).abs() < 1e-6, "{}", t.mii_before);
        assert!(t.mii_after < 1e-6, "{}", t.mii_after);
    }

    #[test]
    fn transform_time_is_its_own_phase_not_parse_time() {
        let run = |transform| {
            let req = ScheduleRequest::Loop(LoopRequest {
                source: LoopSource::Corpus("reduction/sum".into()),
                transform,
                ..LoopRequest::default()
            });
            let (r, timing) = execute_with(&mut WorkerScratch::default(), &req, &ExecCtx::none());
            r.unwrap();
            timing
        };
        assert_eq!(run(TransformMode::Off).transform_ns, 0);
        let on = run(TransformMode::All);
        assert!(on.transform_ns > 0, "{on:?}");
    }

    #[test]
    fn transform_negatives_answer_with_exact_skip_codes() {
        for (corpus, field, want) in [
            ("fissionable/storage", "fission", "skipped(XS03)"),
            ("reduction/scan", "reduce", "skipped(XR02)"),
            ("reduction/nonassoc", "reduce", "skipped(XR01)"),
        ] {
            let r = execute(&ScheduleRequest::Loop(LoopRequest {
                source: LoopSource::Corpus(corpus.into()),
                transform: TransformMode::All,
                ..LoopRequest::default()
            }))
            .unwrap();
            let ScheduleResponse::Loop(out) = r else {
                panic!("loop response");
            };
            let t = out.transform.expect("transform report present");
            let got = if field == "fission" {
                &t.fission
            } else {
                &t.reduce
            };
            assert_eq!(got, want, "{corpus}");
        }
    }

    #[test]
    fn transform_on_graph_only_sources_is_bad_request() {
        for source in [
            LoopSource::Corpus("cytron86".into()),
            LoopSource::DdgText("node A\n".into()),
        ] {
            let e = execute(&ScheduleRequest::Loop(LoopRequest {
                source,
                transform: TransformMode::All,
                ..LoopRequest::default()
            }))
            .unwrap_err();
            assert!(matches!(&e, ServiceError::BadRequest(_)), "{e:?}");
        }
    }

    #[test]
    fn transform_mode_names_round_trip() {
        for mode in [
            TransformMode::Off,
            TransformMode::Fission,
            TransformMode::Reduce,
            TransformMode::All,
        ] {
            assert_eq!(TransformMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(TransformMode::from_name("maybe"), None);
    }

    #[test]
    fn transient_errors_are_exactly_panics_and_faults() {
        assert!(ServiceError::Panicked("x".into()).is_transient());
        assert!(ServiceError::Faulted("x".into()).is_transient());
        for e in [
            ServiceError::BadRequest("x".into()),
            ServiceError::Sched("x".into()),
            ServiceError::Cancelled,
            ServiceError::Expired,
            ServiceError::ShuttingDown,
            ServiceError::UnknownRequest,
            ServiceError::Timeout,
        ] {
            assert!(!e.is_transient(), "{e:?}");
        }
    }
}
