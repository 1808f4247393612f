//! The traced run: the same seeded requests sent in-process, once through
//! the `Service` (admission, cache, queue, workers) and once walked layer
//! by layer with a span around every call. Gives the per-layer metrics.

use crate::check::Expected;
use crate::client::{Conn, Server, SERVER_WORKERS};
use crate::gen::{Traffic, CACHE_CAPACITY};
use crate::stats::{geomean, mean, median, ratio};
use crate::trace::{self_times, Tracer};
use crate::walk::{walk, PieceSchedule, Walk};
use crate::{Metric, Report};
use kn_core::ddg::{classify, split_components, Ddg};
use kn_core::sched::flow::{merge_candidate, subset_latency};
use kn_core::sched::PatternOutcome;
use kn_core::sched::{cyclic_schedule, static_times, FullOptions, LoopSchedule, MachineConfig};
use kn_core::service::wire::{parse_request_line, response_json};
use kn_core::service::{
    execute, DrainPolicy, LoopRequest, ScheduleRequest, ScheduleResponse, Service, ServiceConfig,
    ServiceStats, SubmitOptions, SubmitOutcome, TransformMode,
};
use kn_core::xform::{check_equivalence, EquivOptions};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Round trips timed by the hit-path probes.
const HIT_PROBES: usize = 1000;

fn parse(line: &str) -> Result<(ScheduleRequest, SubmitOptions), String> {
    let p = parse_request_line(line)
        .map_err(|e| format!("{line}: {e}"))?
        .ok_or_else(|| format!("{line}: not a request"))?;
    let opts = SubmitOptions {
        priority: p.priority,
        ..SubmitOptions::default()
    };
    Ok((p.req, opts))
}

/// What the in-process `Service` replay measured.
struct Replay {
    submit_ns: Vec<f64>,
    latency_ns: u64,
    refused: u64,
    errors: u64,
    requests: u64,
    wall_ns: u64,
    delta: ServiceStats,
    replaced_workers: u64,
    hit_ns: Option<f64>,
}

fn delta(a: &ServiceStats, b: &ServiceStats) -> ServiceStats {
    ServiceStats {
        retries: b.retries - a.retries,
        expired: b.expired - a.expired,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        cache_coalesced: b.cache_coalesced - a.cache_coalesced,
        cache_evictions: b.cache_evictions - a.cache_evictions,
        exec_ns: b.exec_ns - a.exec_ns,
        ..ServiceStats::default()
    }
}

/// One submission: (submit ns, final latency ns if admitted, ok?).
type Outcome = (f64, Option<(u64, bool)>);

fn submit_and_collect(svc: &Service, line: &str) -> Result<Outcome, String> {
    let (req, opts) = parse(line)?;
    let t0 = Instant::now();
    let out = svc.try_submit(req, opts);
    let submit_ns = t0.elapsed().as_nanos() as f64;
    Ok(match out {
        SubmitOutcome::Accepted(id) => {
            let c = svc
                .collect_detailed(&[id], None)
                .pop()
                .expect("one id in, one completion out");
            (submit_ns, Some((c.latency_ns, c.result.is_ok())))
        }
        _ => (submit_ns, None),
    })
}

/// Replay the workload's closed loop against an in-process service
/// configured like the server (same workers and cache capacity).
fn replay(traffic: &Traffic, dur: Duration) -> Result<Replay, String> {
    let svc = Service::with_config(ServiceConfig {
        workers: SERVER_WORKERS,
        cache_capacity: CACHE_CAPACITY,
        ..ServiceConfig::default()
    });
    for line in &traffic.warmup {
        let (_, done) = submit_and_collect(&svc, line)?;
        if !matches!(done, Some((_, true))) {
            return Err(format!("warm-up request failed in process: {line}"));
        }
    }
    let before = svc.stats();
    let start = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    for i in 0.. {
        if start.elapsed() >= dur {
            break;
        }
        outcomes.push(submit_and_collect(&svc, &traffic.line(i))?);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = svc.stats();
    let hit_ns = match traffic.hottest() {
        Some(hot) => {
            submit_and_collect(&svc, hot)?;
            let mut xs = Vec::with_capacity(HIT_PROBES);
            for _ in 0..HIT_PROBES {
                let t0 = Instant::now();
                submit_and_collect(&svc, hot)?;
                xs.push(t0.elapsed().as_nanos() as f64);
            }
            Some(median(&xs))
        }
        None => None,
    };
    svc.shutdown(DrainPolicy::Finish);
    Ok(Replay {
        submit_ns: outcomes.iter().map(|o| o.0).collect(),
        latency_ns: outcomes.iter().filter_map(|o| o.1).map(|d| d.0).sum(),
        refused: outcomes.iter().filter(|o| o.1.is_none()).count() as u64,
        errors: outcomes
            .iter()
            .filter(|o| matches!(o.1, Some((_, false))))
            .count() as u64,
        requests: outcomes.len() as u64,
        wall_ns,
        delta: delta(&before, &after),
        replaced_workers: after.replaced_workers,
        hit_ns,
    })
}

/// Median loopback round trip of a cached request against the real
/// server, in ns.
fn tcp_hit_ns(kn: &Path, hot: &str) -> Result<f64, String> {
    let server = Server::spawn(kn, CACHE_CAPACITY)?;
    let mut c = Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut xs = Vec::with_capacity(HIT_PROBES);
    for k in 0..=HIT_PROBES {
        let t0 = Instant::now();
        c.send(hot).map_err(|e| format!("send: {e}"))?;
        let resp = c.recv().map_err(|e| format!("read: {e}"))?;
        if !resp.contains("\"status\": \"ok\"") {
            return Err(format!("hit probe failed: {resp}"));
        }
        if k > 0 {
            xs.push(t0.elapsed().as_nanos() as f64);
        }
    }
    Ok(median(&xs))
}

/// Would `schedule_loop` have built and timed a merged candidate next to
/// the separate one? (Flow nodes exist, one pattern governs the core, and
/// a processor has room for them.)
fn two_candidates(s: &LoopSchedule, g: &Ddg) -> bool {
    let c = &s.classification;
    if c.cyclic.is_empty() || (c.flow_in.is_empty() && c.flow_out.is_empty()) {
        return false;
    }
    match s.cyclic_outcomes.as_slice() {
        [PatternOutcome::Found(p)] => {
            let lat = subset_latency(g, &c.flow_in) + subset_latency(g, &c.flow_out);
            merge_candidate(p, g, lat).is_some()
        }
        _ => false,
    }
}

/// Re-time the sub-phases of `schedule_loop` by calling its public
/// building blocks on the same inputs, each in its own span.
fn sched_probes(s: &LoopSchedule, g: &Ddg, m: &MachineConfig, t: &mut Tracer) -> bool {
    let two = two_candidates(s, g);
    let candidates = if two { 2 } else { 1 };
    t.span("probe.sched", |t| {
        let cls = classify(g);
        if !cls.cyclic.is_empty() {
            let (sub, _) = g.induced_subgraph(&cls.cyclic);
            let opts = FullOptions::default().cyclic;
            for (comp, _) in split_components(&sub) {
                let out = t.span("sched.cyclic", |_| cyclic_schedule(&comp, m, &opts));
                std::hint::black_box(out.is_ok());
            }
        }
        t.span("sched.instantiate", |_| {
            for o in &s.cyclic_outcomes {
                std::hint::black_box(o.instantiate(s.iters).len());
            }
        });
        t.span("sched.check_complete", |_| {
            for _ in 0..candidates {
                std::hint::black_box(s.program.check_complete(g).is_ok());
            }
        });
        t.span("sched.static_times", |_| {
            for _ in 0..candidates {
                std::hint::black_box(static_times(&s.program, g, m).is_ok());
            }
        });
    });
    two
}

/// Per-request facts gathered alongside the spans.
#[derive(Default)]
struct Walked {
    execute_ns: u64,
    sched_instances: u64,
    instances: u64,
    messages: u64,
    cyclic_pieces: u64,
    two_candidate_pieces: u64,
    xform: Option<XformFacts>,
}

struct XformFacts {
    applied: bool,
    pieces: usize,
    makespan_ratio: Option<f64>,
}

fn makespan(w: &Walk) -> Option<u64> {
    match &w.result {
        Ok(ScheduleResponse::Loop(out)) if out.makespan > 0 => Some(out.makespan),
        _ => None,
    }
}

pub fn run(traffic: &Traffic, seconds: f64, kn: &Path, spans_path: &str) -> Result<Report, String> {
    let w = traffic.workload;
    let replay = replay(traffic, Duration::from_secs_f64(seconds / 2.0))?;

    let mut t = Tracer::new(true);
    let mut facts: Vec<Walked> = Vec::new();
    let mut mismatches = 0u64;
    let mut walk_errors = 0u64;
    for j in 0..w.walk_sample() {
        let line = traffic.line(j);
        t.request(j);
        let parsed = t
            .span("wire.parse", |_| parse_request_line(&line))
            .map_err(|e| format!("{line}: {e}"))?
            .ok_or_else(|| format!("{line}: not a request"))?;
        let ScheduleRequest::Loop(r) = &parsed.req else {
            return Err("the wire format only makes loop requests".into());
        };
        let mut f = Walked::default();
        // Untraced reference timing, before or after the walk in turn so
        // neither side always runs on warm caches.
        let time_execute = |f: &mut Walked| {
            let t0 = Instant::now();
            let out = execute(&parsed.req);
            f.execute_ns = t0.elapsed().as_nanos() as u64;
            out
        };
        let reference = if j % 2 == 0 {
            Some(time_execute(&mut f))
        } else {
            None
        };
        let wk = walk(r, &mut t);
        let reference = reference.unwrap_or_else(|| time_execute(&mut f));
        let json = t.span("wire.render", |_| response_json(j, &wk.result));
        if json != response_json(j, &reference) {
            mismatches += 1;
        }
        if wk.result.is_err() {
            walk_errors += 1;
        }
        probe(r, &wk, &mut t, &mut f);
        let e = Expected::new(wk);
        if e.certify_error.is_some() {
            mismatches += 1;
        }
        facts.push(f);
    }

    let hit_ns = replay.hit_ns;
    let net_overhead_ns = match (traffic.hottest(), hit_ns) {
        (Some(hot), Some(hit)) => tcp_hit_ns(kn, hot)? - hit,
        _ => 0.0,
    };
    std::fs::write(spans_path, t.to_tsv()).map_err(|e| format!("{spans_path}: {e}"))?;

    // Self time per (request, layer), and total duration per layer.
    let selfs = self_times(&t.spans);
    let mut per_req: HashMap<(u64, &str), u64> = HashMap::new();
    let mut dur_by_layer: HashMap<&str, u64> = HashMap::new();
    for (s, st) in t.spans.iter().zip(&selfs) {
        *per_req.entry((s.req, s.layer)).or_default() += st;
        *dur_by_layer.entry(s.layer).or_default() += s.dur_ns();
    }
    let n = w.walk_sample();
    // Mean per-request self time (µs) over the requests where the layer
    // ran; 0 when it never ran.
    let layer_us = |layer: &str| {
        let xs: Vec<f64> = (0..n)
            .filter_map(|j| per_req.get(&(j, layer)).map(|&v| v as f64 / 1e3))
            .collect();
        mean(&xs)
    };
    let sum = |layer: &str| *dur_by_layer.get(layer).unwrap_or(&0) as f64;
    let execute_total: f64 = facts.iter().map(|f| f.execute_ns as f64).sum();
    let layers_total: f64 = ["resolve", "xform", "sched", "doacross", "sim"]
        .iter()
        .map(|l| sum(l))
        .sum();
    let xf: Vec<&XformFacts> = facts.iter().filter_map(|f| f.xform.as_ref()).collect();
    let sched_instances: u64 = facts.iter().map(|f| f.sched_instances).sum();
    let instances: u64 = facts.iter().map(|f| f.instances).sum();
    let cyclic_pieces: u64 = facts.iter().map(|f| f.cyclic_pieces).sum();
    let two: u64 = facts.iter().map(|f| f.two_candidate_pieces).sum();
    let d = &replay.delta;
    let lookups = (d.cache_hits + d.cache_misses + d.cache_coalesced) as f64;
    let hit_us = hit_ns.map_or(0.0, |h| h / 1e3);

    let metrics = vec![
        Metric::new("wire.parse_us", layer_us("wire.parse"), "us"),
        Metric::new("wire.render_us", layer_us("wire.render"), "us"),
        Metric::new("net.overhead_us", net_overhead_ns / 1e3, "us"),
        Metric::new("service.submit_us", mean(&replay.submit_ns) / 1e3, "us"),
        Metric::new(
            "service.wait_share",
            ratio(
                replay.latency_ns as f64 - d.exec_ns as f64,
                replay.latency_ns as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "service.busy_share",
            ratio(
                d.exec_ns as f64,
                replay.wall_ns as f64 * SERVER_WORKERS as f64,
            ),
            "ratio",
        ),
        Metric::new("service.refused", replay.refused as f64, "count"),
        Metric::new("service.expired", d.expired as f64, "count"),
        Metric::new("service.retries", d.retries as f64, "count"),
        Metric::new(
            "service.replaced_workers",
            replay.replaced_workers as f64,
            "count",
        ),
        Metric::new(
            "cache.hit_rate",
            ratio(d.cache_hits as f64, lookups),
            "ratio",
        ),
        Metric::new(
            "cache.coalesced_share",
            ratio(d.cache_coalesced as f64, lookups),
            "ratio",
        ),
        Metric::new("cache.evictions", d.cache_evictions as f64, "count"),
        Metric::new("cache.hit_us", hit_us, "us"),
        Metric::new("resolve.us", layer_us("resolve"), "us"),
        Metric::new("verify.lint_us", layer_us("verify.lint"), "us"),
        Metric::new("xform.us", layer_us("xform"), "us"),
        Metric::new("xform.certify_us", layer_us("xform.certify"), "us"),
        Metric::new(
            "xform.certify_share",
            ratio(sum("xform.certify"), sum("xform")),
            "ratio",
        ),
        Metric::new(
            "xform.applied",
            xf.iter().filter(|x| x.applied).count() as f64,
            "count",
        ),
        Metric::new(
            "xform.pieces_mean",
            mean(&xf.iter().map(|x| x.pieces as f64).collect::<Vec<_>>()),
            "count",
        ),
        Metric::new(
            "xform.makespan_ratio",
            geomean(
                &xf.iter()
                    .filter_map(|x| x.makespan_ratio)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        Metric::new("sched.us", layer_us("sched"), "us"),
        Metric::new("sched.cyclic_us", layer_us("sched.cyclic"), "us"),
        Metric::new("sched.instantiate_us", layer_us("sched.instantiate"), "us"),
        Metric::new(
            "sched.check_complete_us",
            layer_us("sched.check_complete"),
            "us",
        ),
        Metric::new(
            "sched.static_times_us",
            layer_us("sched.static_times"),
            "us",
        ),
        Metric::new(
            "sched.ns_per_instance",
            ratio(sum("sched"), sched_instances as f64),
            "ns",
        ),
        Metric::new(
            "sched.to_cyclic_ratio",
            ratio(sum("sched"), sum("sched.cyclic")),
            "ratio",
        ),
        Metric::new(
            "sched.two_candidate_share",
            ratio(two as f64, cyclic_pieces as f64),
            "ratio",
        ),
        Metric::new("doacross.us", layer_us("doacross"), "us"),
        Metric::new("sim.us", layer_us("sim"), "us"),
        Metric::new(
            "sim.ns_per_instance",
            ratio(sum("sim"), instances as f64),
            "ns",
        ),
        Metric::new(
            "sim.messages",
            mean(&facts.iter().map(|f| f.messages as f64).collect::<Vec<_>>()),
            "count",
        ),
        Metric::new("exec.self_us", layer_us("exec"), "us"),
        Metric::new(
            "trace.unaccounted_share",
            ratio(execute_total - layers_total, execute_total),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_share",
            ratio(sum("exec") - execute_total, execute_total),
            "ratio",
        ),
    ];
    eprintln!(
        "traced {}: replay {} requests in {:.2} s ({} refused, {} errors); walked {n} requests; spans in {spans_path}",
        w.name(),
        replay.requests,
        replay.wall_ns as f64 / 1e9,
        replay.refused,
        replay.errors
    );
    let self_total: HashMap<&str, u64> =
        t.spans
            .iter()
            .zip(&selfs)
            .fold(HashMap::new(), |mut acc, (s, st)| {
                *acc.entry(s.layer).or_default() += st;
                acc
            });
    let mut rows: Vec<(&&str, &u64)> = self_total.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    eprintln!("self time by layer over the walk (ms):");
    for (layer, ns) in rows {
        eprintln!("  {layer:<22} {:>10.3}", *ns as f64 / 1e6);
    }
    Ok(Report {
        correct: mismatches == 0,
        attempted: replay.requests + n,
        failed: replay.refused + replay.errors + walk_errors + mismatches,
        metrics,
    })
}

/// Probes that re-time pieces of the walk: transform certification at
/// the pipeline's default strength, the transform's makespan effect, and
/// the sub-phases of `schedule_loop`.
fn probe(r: &LoopRequest, wk: &Walk, t: &mut Tracer, f: &mut Walked) {
    f.instances = wk.instances();
    f.messages = wk.pieces.iter().map(|p| p.messages).sum();
    if let Some((original, out)) = &wk.xform {
        if out.changed() {
            let ok = t.span("xform.certify", |_| {
                check_equivalence(original, &out.transformed, &EquivOptions::default()).is_ok()
            });
            std::hint::black_box(ok);
        }
        let off = walk(
            &LoopRequest {
                transform: TransformMode::Off,
                ..r.clone()
            },
            &mut Tracer::new(false),
        );
        f.xform = Some(XformFacts {
            applied: out.changed(),
            pieces: wk.pieces.len(),
            makespan_ratio: makespan(wk)
                .zip(makespan(&off))
                .map(|(on, off)| on as f64 / off as f64),
        });
    }
    if let Some(m) = &wk.machine {
        for p in &wk.pieces {
            if let PieceSchedule::Cyclic(s) = &p.schedule {
                f.cyclic_pieces += 1;
                f.sched_instances += p.graph.node_count() as u64 * u64::from(s.iters);
                if sched_probes(s, &p.graph, m, t) {
                    f.two_candidate_pieces += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_candidate_detection_matches_flow_shape() {
        // figure7 is all Cyclic: one candidate. cytron86 has Flow-in nodes.
        let m = MachineConfig::new(2, 2);
        let fig7 = kn_core::workloads::figure7();
        let s =
            kn_core::sched::schedule_loop(&fig7.graph, &m, 50, &FullOptions::default()).unwrap();
        assert!(!two_candidates(&s, &fig7.graph));
    }
}
