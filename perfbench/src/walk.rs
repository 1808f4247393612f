//! The in-process walk: one request through each layer's public
//! functions, in the order the service's worker runs them, with a span
//! around every call. Its rendered response is what every served line is
//! compared against, and its schedules and transforms are what the
//! checker certifies.

use crate::trace::Tracer;
use kn_core::ddg::Ddg;
use kn_core::doacross::{doacross_schedule, DoacrossOptions, DoacrossSchedule, Reorder};
use kn_core::ir::GuardedAssign;
use kn_core::metrics::percentage_parallelism_clamped;
use kn_core::sched::{schedule_loop, Cycle, FullOptions, LoopSchedule, MachineConfig};
use kn_core::service::{
    LoopOutcome, LoopRequest, LoopSource, ScheduleResponse, SchedulerChoice, ServiceError,
    TransformMode, TransformSummary,
};
use kn_core::sim::sequential_time;
use kn_core::xform::{transform_loop, TransformOptions, TransformOutput};

/// A scheduled piece of the loop (the whole loop unless fission split it).
pub enum PieceSchedule {
    Cyclic(LoopSchedule),
    Doacross(DoacrossSchedule),
}

pub struct Piece {
    pub graph: Ddg,
    pub schedule: PieceSchedule,
    /// Cross-processor messages the simulation delivered.
    pub messages: u64,
}

/// Everything the walk produced for one request.
pub struct Walk {
    pub result: Result<ScheduleResponse, ServiceError>,
    pub machine: Option<MachineConfig>,
    pub pieces: Vec<Piece>,
    /// The if-converted original body and the transform output, when the
    /// request asked for a transform.
    pub xform: Option<(Vec<GuardedAssign>, TransformOutput)>,
}

impl Walk {
    /// Node instances scheduled and simulated (nodes × iterations, summed
    /// over pieces).
    pub fn instances(&self) -> u64 {
        self.pieces
            .iter()
            .map(|p| {
                let iters = match &p.schedule {
                    PieceSchedule::Cyclic(s) => s.iters,
                    PieceSchedule::Doacross(d) => d.program.iters,
                };
                p.graph.node_count() as u64 * u64::from(iters)
            })
            .sum()
    }
}

/// Walk one loop request. Span names are the layer names the per-layer
/// metrics use: `verify.lint`, `resolve`, `xform`, `sched`, `doacross`,
/// `sim`, all inside one `exec` span.
pub fn walk(r: &LoopRequest, t: &mut Tracer) -> Walk {
    let mut w = Walk {
        result: Err(ServiceError::Cancelled),
        machine: None,
        pieces: Vec::new(),
        xform: None,
    };
    // Admission lint runs on file and inline sources before the request
    // takes a queue slot.
    let text = match &r.source {
        LoopSource::DdgFile(path) => std::fs::read_to_string(path).ok(),
        LoopSource::DdgText(text) => Some(text.clone()),
        _ => None,
    };
    if let Some(text) = text {
        let rejected = t.span("verify.lint", |_| {
            let lint = kn_core::verify::lint_text(&text).ok()?;
            let d = lint.report.first_error()?;
            Some(ServiceError::InvalidDdg {
                code: d.code.as_str().to_string(),
                message: d.message.clone(),
            })
        });
        if let Some(e) = rejected {
            w.result = Err(e);
            return w;
        }
    }
    w.result = t
        .span("exec", |t| walk_loop(r, t, &mut w))
        .map(ScheduleResponse::Loop);
    w
}

fn walk_loop(r: &LoopRequest, t: &mut Tracer, w: &mut Walk) -> Result<LoopOutcome, ServiceError> {
    let (name, graph, defaults) = t.span("resolve", |_| resolve(&r.source))?;
    if r.transform != TransformMode::Off {
        let LoopSource::Corpus(cname) = &r.source else {
            return Err(ServiceError::BadRequest(
                "transform= requires a body-sourced corpus workload".to_string(),
            ));
        };
        let body = kn_core::workloads::body_by_name(cname).ok_or_else(|| {
            ServiceError::BadRequest(format!(
                "corpus workload {cname:?} is graph-only; transform= needs statement-level IR"
            ))
        })?;
        let opts = TransformOptions {
            fission: matches!(r.transform, TransformMode::Fission | TransformMode::All),
            reduce: matches!(r.transform, TransformMode::Reduce | TransformMode::All),
        };
        let out = t
            .span("xform", |_| transform_loop(&name, &body, &opts))
            .map_err(|e| ServiceError::Sched(format!("transform: {e}")))?;
        w.xform = Some((kn_core::ir::if_convert(&body), out));
    }
    let (default_procs, default_k) = defaults.unwrap_or((8, 3));
    let procs = r.procs.unwrap_or(default_procs);
    if procs == 0 {
        return Err(ServiceError::BadRequest(
            "procs must be at least 1".to_string(),
        ));
    }
    let m = MachineConfig::new(procs, r.k.unwrap_or(default_k));
    w.machine = Some(m.clone());

    let piece_graphs: Vec<Ddg> = match &w.xform {
        Some((_, out)) if out.changed() => out
            .transformed
            .pieces
            .iter()
            .map(|p| p.graph.clone())
            .collect(),
        _ => vec![graph.clone()],
    };
    let mut ii = None;
    for g in &piece_graphs {
        let (schedule, piece_ii) = schedule_piece(g, &m, r, t)?;
        ii = piece_ii;
        w.pieces.push(Piece {
            graph: g.clone(),
            schedule,
            messages: 0,
        });
    }
    let mut makespan: Cycle = 0;
    let mut messages = 0u64;
    let mut comm_cycles = 0u64;
    let mut processors_used = 0usize;
    for p in &mut w.pieces {
        let program = match &p.schedule {
            PieceSchedule::Cyclic(s) => &s.program,
            PieceSchedule::Doacross(d) => &d.program,
        };
        let sim = t
            .span("sim", |_| r.sim.run(program, &p.graph, &m, &r.traffic))
            .map_err(|e| ServiceError::Sched(e.to_string()))?;
        makespan += sim.makespan;
        messages += sim.messages;
        comm_cycles += sim.comm_cycles;
        p.messages = sim.messages;
        processors_used = processors_used.max(program.used_processors());
    }
    if w.pieces.len() != 1 {
        ii = None;
    }
    let seq_time = sequential_time(&graph, r.iters);
    let transform = w.xform.as_ref().map(|(_, out)| TransformSummary {
        reduce: out.report.reduce.render(),
        fission: out.report.fission.render(),
        pieces: piece_graphs.len(),
        mii_before: out.report.mii_before,
        mii_after: out.report.mii_after,
    });
    Ok(LoopOutcome {
        name,
        scheduler: r.scheduler,
        processors_used,
        seq_time,
        makespan,
        sp: percentage_parallelism_clamped(seq_time, makespan),
        messages,
        comm_cycles,
        ii,
        transform,
    })
}

type Resolved = (String, Ddg, Option<(usize, u32)>);

fn resolve(source: &LoopSource) -> Result<Resolved, ServiceError> {
    let parse = |text: &str| {
        kn_core::ddg::parse_text(text)
            .map_err(|e| ServiceError::BadRequest(format!("DDG parse error: {e}")))
    };
    match source {
        LoopSource::Corpus(name) => {
            let w = kn_core::workloads::by_name(name).ok_or_else(|| {
                ServiceError::BadRequest(format!("unknown corpus workload {name:?}"))
            })?;
            Ok((w.name.to_string(), w.graph, Some((w.procs, w.k))))
        }
        LoopSource::DdgFile(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ServiceError::BadRequest(format!("cannot read {path}: {e}")))?;
            Ok((path.clone(), parse(&text)?, None))
        }
        LoopSource::DdgText(text) => Ok(("inline".to_string(), parse(text)?, None)),
        LoopSource::Graph { name, graph } => Ok((name.clone(), graph.clone(), None)),
    }
}

fn schedule_piece(
    g: &Ddg,
    m: &MachineConfig,
    r: &LoopRequest,
    t: &mut Tracer,
) -> Result<(PieceSchedule, Option<f64>), ServiceError> {
    match r.scheduler {
        SchedulerChoice::Cyclic => {
            let s = t
                .span("sched", |_| {
                    schedule_loop(g, m, r.iters, &FullOptions::default())
                })
                .map_err(|e| ServiceError::Sched(e.to_string()))?;
            let ii = s.cyclic_ii();
            Ok((PieceSchedule::Cyclic(s), ii))
        }
        SchedulerChoice::DoacrossNatural | SchedulerChoice::DoacrossBest => {
            let reorder = if r.scheduler == SchedulerChoice::DoacrossBest {
                Reorder::Best {
                    exhaustive_cap: 5040,
                }
            } else {
                Reorder::Natural
            };
            let opts = DoacrossOptions {
                reorder,
                ..Default::default()
            };
            let s = t
                .span("doacross", |_| doacross_schedule(g, m, r.iters, &opts))
                .map_err(|e| ServiceError::Sched(e.to_string()))?;
            Ok((PieceSchedule::Doacross(s), None))
        }
    }
}
