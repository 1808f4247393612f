//! Line-oriented wire format for `kn serve`.
//!
//! **Requests** are one per line, whitespace-separated `key=value`
//! fields; blank lines and `#` comments are skipped. Exactly one source
//! field is required:
//!
//! ```text
//! corpus=figure7 k=2 procs=2 iters=100 link=single engine=heap
//! ddg=corpus/livermore5.ddg k=2 procs=4 iters=80 scheduler=doacross mm=3 seed=11
//! ```
//!
//! | key | values | default |
//! |---|---|---|
//! | `corpus` | built-in workload name ([`kn_workloads::by_name`]) | — |
//! | `ddg` | path to a text-format DDG file | — |
//! | `k` | communication estimate | corpus value, else 3 |
//! | `procs` | processor budget | corpus value, else 8 |
//! | `iters` | simulated iterations | 100 |
//! | `link` | `unlimited` \| `single` | `unlimited` |
//! | `engine` | `calendar` \| `heap` | `calendar` |
//! | `scheduler` | `cyclic` \| `doacross` \| `doacross-best` | `cyclic` |
//! | `transform` | `off` \| `fission` \| `reduce` \| `all` (pre-scheduling loop transforms; body-sourced corpus workloads only) | `off` |
//! | `mm` | traffic fluctuation factor | 1 |
//! | `seed` | traffic seed | 0 |
//! | `deadline_ms` | per-request deadline in milliseconds | none |
//! | `priority` | `high` \| `normal` \| `low` (queue lane; `low` sheds first under brownout) | `normal` |
//!
//! A repeated key is a parse error — last-wins would silently mask a
//! typo in a machine-generated batch.
//!
//! The bare line `health` is not a scheduling request: it answers one
//! JSON [`PoolHealth`] snapshot ([`health_json`]) in sequence with the
//! other responses, so operators can probe a loaded server over the same
//! connection that is feeding it work.
//!
//! **Responses** are one JSON object per line, in request order, carrying
//! the request id and either the outcome or an error. Responses contain
//! no timing fields — they are deterministic and CI diffs them against a
//! committed golden (`corpus/service_golden.jsonl`); throughput and
//! per-phase latency go to the separate stats JSON
//! ([`throughput_json`]), which varies run to run and is uploaded as an
//! artifact instead of diffed.

use super::{
    LoopOutcome, LoopRequest, LoopSource, PoolHealth, Priority, ScheduleRequest, ScheduleResponse,
    SchedulerChoice, ServiceError, ServiceStats, TransformMode,
};
use kn_sim::{EventEngine, LinkModel, TrafficModel};

/// A parsed request line: the request itself plus the lifecycle options
/// the wire format can attach to it.
#[derive(Clone, Debug)]
pub struct ParsedRequest {
    pub req: ScheduleRequest,
    /// `deadline_ms=` field: how long after admission the request stays
    /// worth executing. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// `priority=` field: queue lane (default `normal`).
    pub priority: Priority,
}

/// Is this line the `health` probe? (Checked before request parsing;
/// the probe takes no `key=value` fields.)
pub fn is_health_line(line: &str) -> bool {
    line.trim() == "health"
}

/// Parse one request line. `Ok(None)` = blank or comment line.
pub fn parse_request_line(line: &str) -> Result<Option<ParsedRequest>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut source: Option<LoopSource> = None;
    let mut req = LoopRequest::default();
    let mut mm: u32 = 1;
    let mut seed: u64 = 0;
    let mut deadline_ms: Option<u64> = None;
    let mut priority = Priority::Normal;
    let mut seen: Vec<&str> = Vec::new();
    for field in line.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("field {field:?} is not key=value"))?;
        if seen.contains(&key) {
            return Err(format!("duplicate key {key:?}"));
        }
        seen.push(key);
        let mut set_source = |s: LoopSource| -> Result<(), String> {
            if source.is_some() {
                return Err("more than one source field (corpus=/ddg=)".into());
            }
            source = Some(s);
            Ok(())
        };
        match key {
            "corpus" => set_source(LoopSource::Corpus(value.to_string()))?,
            "ddg" => set_source(LoopSource::DdgFile(value.to_string()))?,
            "k" => req.k = Some(parse_num(key, value)?),
            "procs" => req.procs = Some(parse_num(key, value)?),
            "iters" => req.iters = parse_num(key, value)?,
            "mm" => mm = parse_num(key, value)?,
            "seed" => seed = parse_num(key, value)?,
            "deadline_ms" => deadline_ms = Some(parse_num(key, value)?),
            "priority" => {
                priority = Priority::from_name(value)
                    .ok_or_else(|| format!("unknown priority {value:?} (high|normal|low)"))?
            }
            "link" => {
                req.sim.link = LinkModel::from_name(value)
                    .ok_or_else(|| format!("unknown link model {value:?}"))?
            }
            "engine" => {
                req.sim.engine = EventEngine::from_name(value)
                    .ok_or_else(|| format!("unknown engine {value:?}"))?
            }
            "scheduler" => {
                req.scheduler = match value {
                    "cyclic" => SchedulerChoice::Cyclic,
                    "doacross" => SchedulerChoice::DoacrossNatural,
                    "doacross-best" => SchedulerChoice::DoacrossBest,
                    other => return Err(format!("unknown scheduler {other:?}")),
                }
            }
            "transform" => {
                req.transform = TransformMode::from_name(value).ok_or_else(|| {
                    format!("unknown transform {value:?} (off|fission|reduce|all)")
                })?
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    let source = source.ok_or("missing source field (corpus= or ddg=)")?;
    req.source = source;
    req.traffic = TrafficModel { mm, seed };
    Ok(Some(ParsedRequest {
        req: ScheduleRequest::Loop(req),
        deadline_ms,
        priority,
    }))
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{key}={value:?} is not a valid number"))
}

/// Full JSON string escaping. Error text can carry anything a panic
/// message contains (newlines included); a raw control character would
/// split one response across lines and break the one-JSON-object-per-line
/// contract.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn opt_f64(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v}"),
        None => "null".to_string(),
    }
}

fn f64_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(", "))
}

/// Render one response as a JSON line. Deterministic: field order is
/// fixed, floats use Rust's shortest-round-trip formatting, and no
/// timing information is included (see module docs).
pub fn response_json(id: u64, resp: &Result<ScheduleResponse, ServiceError>) -> String {
    response_json_with(id, resp, 1)
}

/// [`response_json`] with the attempt count from the retry layer. An
/// `"attempts"` field is appended only when the request was actually
/// retried (`attempts > 1`), so fault-free output — and the committed
/// goldens — are byte-identical with or without the lifecycle layer.
pub fn response_json_with(
    id: u64,
    resp: &Result<ScheduleResponse, ServiceError>,
    attempts: u32,
) -> String {
    let mut line = base_response_json(id, resp);
    if attempts > 1 {
        debug_assert!(line.ends_with('}'));
        line.truncate(line.len() - 1);
        line.push_str(&format!(", \"attempts\": {attempts}}}"));
    }
    line
}

fn base_response_json(id: u64, resp: &Result<ScheduleResponse, ServiceError>) -> String {
    match resp {
        // Lint rejections carry their stable KN0xx code as a dedicated
        // field so clients (and the goldens) can assert on the code
        // without parsing the message.
        Err(e @ ServiceError::InvalidDdg { code, .. }) => format!(
            "{{\"id\": {id}, \"status\": \"error\", \"code\": \"{}\", \"error\": \"{}\"}}",
            esc(code),
            esc(&e.to_string())
        ),
        Err(e) => format!("{{\"id\": {id}, \"status\": \"error\", \"error\": \"{}\"}}", esc(&e.to_string())),
        Ok(ScheduleResponse::Loop(out)) => loop_json(id, out),
        Ok(ScheduleResponse::Table1Row(row)) => format!(
            "{{\"id\": {id}, \"status\": \"ok\", \"kind\": \"table1_row\", \"seed\": {}, \"cyclic_nodes\": {}, \"ours\": {}, \"doacross\": {}}}",
            row.seed,
            row.cyclic_nodes,
            f64_list(&row.ours),
            f64_list(&row.doacross),
        ),
        Ok(ScheduleResponse::Contention {
            ours_free,
            ours_contended,
            doacross_free,
            doacross_contended,
        }) => format!(
            "{{\"id\": {id}, \"status\": \"ok\", \"kind\": \"contention\", \"ours_free\": {ours_free}, \"ours_contended\": {ours_contended}, \"doacross_free\": {doacross_free}, \"doacross_contended\": {doacross_contended}}}"
        ),
        Ok(ScheduleResponse::Figure(r)) => format!(
            "{{\"id\": {id}, \"status\": \"ok\", \"kind\": \"figure\", \"name\": \"{}\", \"seq_time\": {}, \"ours_time\": {}, \"ours_sp\": {}, \"doacross_sp\": {}, \"ii\": {}}}",
            esc(&r.name),
            r.seq_time,
            r.ours_time,
            r.ours_sp,
            r.doacross_sp,
            opt_f64(r.ours_ii),
        ),
    }
}

fn loop_json(id: u64, out: &LoopOutcome) -> String {
    // The `transform` object appears only when the request asked for a
    // transform, so `transform=off` traffic — and every committed golden
    // predating the transform layer — renders byte-identically.
    let transform = match &out.transform {
        None => String::new(),
        Some(t) => format!(
            ", \"transform\": {{\"reduce\": \"{}\", \"fission\": \"{}\", \"pieces\": {}, \"mii_before\": {:.3}, \"mii_after\": {:.3}}}",
            esc(&t.reduce),
            esc(&t.fission),
            t.pieces,
            t.mii_before,
            t.mii_after,
        ),
    };
    format!(
        "{{\"id\": {id}, \"status\": \"ok\", \"kind\": \"loop\", \"name\": \"{}\", \"scheduler\": \"{}\", \"processors_used\": {}, \"seq_time\": {}, \"makespan\": {}, \"sp\": {}, \"messages\": {}, \"comm_cycles\": {}, \"ii\": {}{transform}}}",
        esc(&out.name),
        out.scheduler.name(),
        out.processors_used,
        out.seq_time,
        out.makespan,
        out.sp,
        out.messages,
        out.comm_cycles,
        opt_f64(out.ii),
    )
}

/// Render a [`PoolHealth`] snapshot as one JSON line, answered in
/// sequence for a `health` request line. Unlike scheduling responses
/// this is *not* deterministic (heartbeats and queue depths are live
/// state), so health lines never appear in replayed golden corpora.
pub fn health_json(id: u64, h: &PoolHealth) -> String {
    let workers: Vec<String> = h
        .workers
        .iter()
        .map(|w| {
            let busy = match w.busy {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"index\": {}, \"busy\": {busy}, \"heartbeats\": {}}}",
                w.index, w.heartbeats
            )
        })
        .collect();
    format!(
        "{{\"id\": {id}, \"status\": \"ok\", \"kind\": \"health\", \"workers\": [{}], \"replaced_workers\": {}, \"queued_high\": {}, \"queued_normal\": {}, \"queued_low\": {}, \"inflight\": {}, \"accepting\": {}, \"over_high_water\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_coalesced\": {}, \"cache_evictions\": {}, \"cache_entries\": {}}}",
        workers.join(", "),
        h.replaced_workers,
        h.queued[0],
        h.queued[1],
        h.queued[2],
        h.inflight,
        h.accepting,
        h.over_high_water,
        h.cache_hits,
        h.cache_misses,
        h.cache_coalesced,
        h.cache_evictions,
        h.cache_entries,
    )
}

/// Render the batch throughput/latency stats as JSON (schema
/// `kn-service-throughput-v4`; v2 added the lifecycle counters —
/// retries, expired, cancelled, shed, rejected — v3 the response-cache
/// counters: hits, misses, coalesced, evictions, plus the
/// `cache_entries` gauge sampled at render time — and v4
/// `replaced_workers` and `transform_ns`, the transform phase that v3
/// counted into `parse_ns`). This is the
/// run-varying half of the serve output: wall-clock, requests/second,
/// and the per-phase latency split the workers measured.
/// `requests`/`errors` count *responses* (including malformed lines
/// answered before reaching the pool), so they can exceed the pool-level
/// counters in `stats`.
pub fn throughput_json(
    workers: usize,
    requests: u64,
    errors: u64,
    wall_ns: u64,
    stats: &ServiceStats,
    cache_entries: u64,
) -> String {
    let throughput_rps = if wall_ns > 0 {
        requests as f64 * 1e9 / wall_ns as f64
    } else {
        0.0
    };
    format!(
        "{{\n  \"schema\": \"kn-service-throughput-v4\",\n  \"workers\": {workers},\n  \"requests\": {requests},\n  \"errors\": {errors},\n  \"retries\": {},\n  \"expired\": {},\n  \"cancelled\": {},\n  \"shed\": {},\n  \"rejected\": {},\n  \"replaced_workers\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"cache_coalesced\": {},\n  \"cache_evictions\": {},\n  \"cache_entries\": {cache_entries},\n  \"wall_ns\": {wall_ns},\n  \"throughput_rps\": {throughput_rps:.2},\n  \"exec_ns\": {},\n  \"parse_ns\": {},\n  \"transform_ns\": {},\n  \"schedule_ns\": {},\n  \"sim_ns\": {}\n}}\n",
        stats.retries,
        stats.expired,
        stats.cancelled,
        stats.shed,
        stats.rejected,
        stats.replaced_workers,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_coalesced,
        stats.cache_evictions,
        stats.exec_ns,
        stats.parse_ns,
        stats.transform_ns,
        stats.schedule_ns,
        stats.sim_ns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_sim::SimOptions;

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert!(parse_request_line("").unwrap().is_none());
        assert!(parse_request_line("   ").unwrap().is_none());
        assert!(parse_request_line("# a comment").unwrap().is_none());
    }

    #[test]
    fn full_line_round_trips_every_field() {
        let parsed = parse_request_line(
            "corpus=figure7 k=2 procs=4 iters=60 link=single engine=heap scheduler=doacross mm=3 seed=9 deadline_ms=250",
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.deadline_ms, Some(250));
        let ScheduleRequest::Loop(r) = parsed.req else {
            panic!("wire produces loop requests");
        };
        assert!(matches!(&r.source, LoopSource::Corpus(n) if n == "figure7"));
        assert_eq!(r.k, Some(2));
        assert_eq!(r.procs, Some(4));
        assert_eq!(r.iters, 60);
        assert_eq!(r.sim.link, LinkModel::SingleMessage);
        assert_eq!(r.sim.engine, EventEngine::Heap);
        assert_eq!(r.scheduler, SchedulerChoice::DoacrossNatural);
        assert_eq!(r.traffic.mm, 3);
        assert_eq!(r.traffic.seed, 9);
    }

    #[test]
    fn defaults_leave_machine_to_the_corpus() {
        let parsed = parse_request_line("corpus=elliptic").unwrap().unwrap();
        assert_eq!(parsed.deadline_ms, None);
        let ScheduleRequest::Loop(r) = parsed.req else {
            panic!("loop request");
        };
        assert_eq!(r.k, None);
        assert_eq!(r.procs, None);
        assert_eq!(r.iters, 100);
        assert_eq!(r.sim, SimOptions::default());
    }

    #[test]
    fn malformed_lines_are_diagnosed() {
        for (line, needle) in [
            ("corpus=figure7 ddg=x.ddg", "more than one source"),
            ("k=3", "missing source"),
            ("corpus=figure7 iters=abc", "not a valid number"),
            ("corpus=figure7 flavor=mild", "unknown field"),
            ("corpus=figure7 engine=abacus", "unknown engine"),
            ("corpus=figure7 link=carrier-pigeon", "unknown link"),
            ("corpus=figure7 scheduler=magic", "unknown scheduler"),
            ("justaword", "not key=value"),
            ("corpus=figure7 k=2 k=3", "duplicate key \"k\""),
            ("corpus=figure7 corpus=figure3", "duplicate key \"corpus\""),
            ("corpus=figure7 deadline_ms=fast", "not a valid number"),
            ("corpus=figure7 priority=urgent", "unknown priority"),
            ("corpus=figure7 priority=low priority=high", "duplicate key"),
        ] {
            let e = parse_request_line(line).unwrap_err();
            assert!(
                e.contains(needle),
                "{line:?}: {e:?} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn priority_key_parses_and_defaults_to_normal() {
        let p = parse_request_line("corpus=figure7 priority=high")
            .unwrap()
            .unwrap();
        assert_eq!(p.priority, Priority::High);
        let p = parse_request_line("corpus=figure7").unwrap().unwrap();
        assert_eq!(p.priority, Priority::Normal);
    }

    #[test]
    fn health_line_is_recognized_and_rendered() {
        assert!(is_health_line("health"));
        assert!(is_health_line("  health  "));
        assert!(!is_health_line("healthy"));
        assert!(!is_health_line("# health"));
        let h = PoolHealth {
            workers: vec![
                super::super::WorkerHealth {
                    index: 0,
                    busy: Some(7),
                    heartbeats: 42,
                },
                super::super::WorkerHealth {
                    index: 2,
                    busy: None,
                    heartbeats: 9,
                },
            ],
            replaced_workers: 1,
            queued: [1, 2, 3],
            inflight: 1,
            accepting: true,
            over_high_water: false,
            cache_hits: 10,
            cache_misses: 4,
            cache_coalesced: 6,
            cache_evictions: 2,
            cache_entries: 2,
        };
        let line = health_json(5, &h);
        assert_eq!(
            line,
            "{\"id\": 5, \"status\": \"ok\", \"kind\": \"health\", \"workers\": [{\"index\": 0, \"busy\": 7, \"heartbeats\": 42}, {\"index\": 2, \"busy\": null, \"heartbeats\": 9}], \"replaced_workers\": 1, \"queued_high\": 1, \"queued_normal\": 2, \"queued_low\": 3, \"inflight\": 1, \"accepting\": true, \"over_high_water\": false, \"cache_hits\": 10, \"cache_misses\": 4, \"cache_coalesced\": 6, \"cache_evictions\": 2, \"cache_entries\": 2}"
        );
        assert_eq!(line.lines().count(), 1);
    }

    #[test]
    fn response_json_is_stable_and_escaped() {
        let ok = ScheduleResponse::Loop(LoopOutcome {
            name: "fig \"7\"".into(),
            scheduler: SchedulerChoice::Cyclic,
            processors_used: 2,
            seq_time: 500,
            makespan: 255,
            sp: 49.0,
            messages: 10,
            comm_cycles: 20,
            ii: Some(2.5),
            transform: None,
        });
        let line = response_json(3, &Ok(ok));
        assert_eq!(
            line,
            "{\"id\": 3, \"status\": \"ok\", \"kind\": \"loop\", \"name\": \"fig \\\"7\\\"\", \"scheduler\": \"cyclic\", \"processors_used\": 2, \"seq_time\": 500, \"makespan\": 255, \"sp\": 49, \"messages\": 10, \"comm_cycles\": 20, \"ii\": 2.5}"
        );
        let err = response_json(4, &Err(ServiceError::BadRequest("no".into())));
        assert_eq!(
            err,
            "{\"id\": 4, \"status\": \"error\", \"error\": \"bad request: no\"}"
        );
    }

    #[test]
    fn transform_field_parses_and_defaults_off() {
        let p = parse_request_line("corpus=reduction/sum transform=all")
            .unwrap()
            .unwrap();
        let ScheduleRequest::Loop(r) = p.req else {
            panic!("loop request");
        };
        assert_eq!(r.transform, super::TransformMode::All);
        let p = parse_request_line("corpus=figure7").unwrap().unwrap();
        let ScheduleRequest::Loop(r) = p.req else {
            panic!("loop request");
        };
        assert_eq!(r.transform, super::TransformMode::Off);
        let e = parse_request_line("corpus=figure7 transform=alchemy").unwrap_err();
        assert!(e.contains("unknown transform"), "{e:?}");
    }

    #[test]
    fn transform_summary_renders_with_fixed_precision() {
        let ok = ScheduleResponse::Loop(LoopOutcome {
            name: "reduction/sum".into(),
            scheduler: SchedulerChoice::Cyclic,
            processors_used: 2,
            seq_time: 300,
            makespan: 120,
            sp: 60.0,
            messages: 0,
            comm_cycles: 0,
            ii: Some(1.0),
            transform: Some(super::super::TransformSummary {
                reduce: "applied".into(),
                fission: "skipped(XS01)".into(),
                pieces: 1,
                mii_before: 2.0,
                mii_after: 0.0,
            }),
        });
        let line = response_json(9, &Ok(ok));
        assert!(
            line.ends_with(
                "\"transform\": {\"reduce\": \"applied\", \"fission\": \"skipped(XS01)\", \"pieces\": 1, \"mii_before\": 2.000, \"mii_after\": 0.000}}"
            ),
            "{line:?}"
        );
        assert_eq!(line.lines().count(), 1);
    }

    #[test]
    fn attempts_field_appears_only_after_a_retry() {
        let err: Result<ScheduleResponse, ServiceError> =
            Err(ServiceError::Panicked("boom".into()));
        // attempts <= 1 renders exactly like the pre-lifecycle format, so
        // the committed goldens stay byte-identical.
        assert_eq!(response_json_with(0, &err, 1), response_json(0, &err));
        assert_eq!(response_json_with(0, &err, 0), response_json(0, &err));
        let retried = response_json_with(0, &err, 3);
        assert!(retried.ends_with(", \"attempts\": 3}"), "{retried:?}");
        assert!(retried.starts_with("{\"id\": 0, "), "{retried:?}");
    }

    #[test]
    fn control_characters_in_error_text_stay_on_one_line() {
        // Panic payloads are routinely multi-line (assert_eq! output);
        // the response must still be exactly one valid JSON line.
        let err = response_json(
            7,
            &Err(ServiceError::Panicked("left:\n  1\nright:\t2\u{1}".into())),
        );
        assert_eq!(err.lines().count(), 1, "{err:?}");
        assert!(err.contains("left:\\n  1\\nright:\\t2\\u0001"), "{err:?}");
    }

    #[test]
    fn throughput_json_has_schema_rate_and_lifecycle_counters() {
        let stats = ServiceStats {
            submitted: 4,
            completed: 4,
            errors: 1,
            retries: 2,
            shed: 1,
            cache_hits: 3,
            cache_coalesced: 1,
            exec_ns: 4000,
            parse_ns: 1000,
            schedule_ns: 2000,
            sim_ns: 500,
            ..Default::default()
        };
        let j = throughput_json(2, 4, 1, 2_000_000_000, &stats, 5);
        assert!(j.contains("\"schema\": \"kn-service-throughput-v4\""));
        assert!(j.contains("\"throughput_rps\": 2.00"));
        assert!(j.contains("\"errors\": 1"));
        assert!(j.contains("\"retries\": 2"));
        assert!(j.contains("\"shed\": 1"));
        assert!(j.contains("\"rejected\": 0"));
        assert!(j.contains("\"cache_hits\": 3"));
        assert!(j.contains("\"cache_misses\": 0"));
        assert!(j.contains("\"cache_coalesced\": 1"));
        assert!(j.contains("\"cache_evictions\": 0"));
        assert!(j.contains("\"cache_entries\": 5"));
    }

    #[test]
    fn throughput_json_v4_splits_transform_from_parse_and_counts_replacements() {
        let stats = ServiceStats {
            replaced_workers: 2,
            parse_ns: 1000,
            transform_ns: 7000,
            schedule_ns: 2000,
            ..Default::default()
        };
        let j = throughput_json(1, 3, 0, 1_000_000_000, &stats, 0);
        assert!(
            j.contains("\"schema\": \"kn-service-throughput-v4\""),
            "{j}"
        );
        assert!(j.contains("\"replaced_workers\": 2"), "{j}");
        // Fields keep one order: parse, transform, schedule, sim.
        let at = |k: &str| {
            j.find(&format!("\"{k}\": "))
                .unwrap_or_else(|| panic!("{k} in {j}"))
        };
        assert!(j.contains("\"parse_ns\": 1000,") && j.contains("\"transform_ns\": 7000,"));
        assert!(at("parse_ns") < at("transform_ns") && at("transform_ns") < at("schedule_ns"));
        assert!(
            at("rejected") < at("replaced_workers") && at("replaced_workers") < at("cache_hits")
        );
    }
}
