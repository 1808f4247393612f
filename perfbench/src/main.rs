//! Request-boundary benchmark of `kn serve`.
//!
//! ```text
//! kn-perfbench --kn PATH --workload sched_cold|xform_cold|zipf_hot
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` starts the release server, drives the workload's seeded
//! traffic over loopback TCP from one closed-loop client, checks every
//! response and prints the end-to-end metrics. `--trace 1` sends the same
//! traffic in-process and prints the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A correctness
//! mismatch exits 1 after printing it; a run that cannot be carried out
//! exits 1 without it. See `README.md` next to this file.

mod check;
mod client;
mod gen;
mod stats;
mod trace;
mod traced;
mod walk;

use check::Expected;
use client::{json_u64, Sample, Server};
use gen::{Traffic, Workload, CACHE_CAPACITY};
use kn_core::service::wire::parse_request_line;
use kn_core::service::ScheduleRequest;
use stats::{geomean, median, percentile, ratio};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Generated `.ddg` files and span dumps, relative to the working
/// directory (the checkout root).
const WORK_DIR: &str = ".bench_work";
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// p99 wants at least this many samples per run.
const MIN_SAMPLES: usize = 1000;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for m in &self.metrics {
            println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    kn: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut kn) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--kn" => kn = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        kn: kn.ok_or("--kn is required")?,
    })
}

/// Check every served response; returns the mismatch messages and, per
/// sample, its request line and whether it is a checked ok response.
type Checked = (Vec<String>, Vec<String>, Vec<bool>);

fn check_samples(traffic: &Traffic, samples: &[Sample]) -> Result<Checked, String> {
    let lines: Vec<String> = samples.iter().map(|s| traffic.line(s.index)).collect();
    let mut distinct: Vec<&String> = lines.iter().collect();
    distinct.sort();
    distinct.dedup();
    // Two checker threads, after the measured window has closed.
    let expected: HashMap<&String, Expected> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let part: Vec<&String> = distinct.iter().skip(k).step_by(2).copied().collect();
                s.spawn(move || -> Result<Vec<(&String, Expected)>, String> {
                    part.into_iter()
                        .map(|line| {
                            let parsed = parse_request_line(line)
                                .map_err(|e| format!("{line}: {e}"))?
                                .ok_or_else(|| format!("{line}: not a request"))?;
                            let ScheduleRequest::Loop(r) = &parsed.req else {
                                return Err("the wire format only makes loop requests".into());
                            };
                            let w = walk::walk(r, &mut trace::Tracer::new(false));
                            Ok((line, Expected::new(w)))
                        })
                        .collect()
                })
            })
            .collect();
        let mut all = HashMap::new();
        for h in handles {
            all.extend(h.join().expect("checker thread does not panic")?);
        }
        Ok::<_, String>(all)
    })?;
    let mut errors = Vec::new();
    let mut ok = Vec::with_capacity(samples.len());
    for (s, line) in samples.iter().zip(&lines) {
        let e = &expected[line];
        match e.check(&s.response, s.index) {
            Ok(()) => ok.push(e.is_ok()),
            Err(m) => {
                errors.push(format!("request {} ({line}): {m}", s.index));
                ok.push(false);
            }
        }
    }
    Ok((errors, lines, ok))
}

fn run_e2e(args: &Args, traffic: &Traffic) -> Result<Report, String> {
    let w = args.workload;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::spawn(&args.kn, CACHE_CAPACITY)?;
        let warm = client::send_all(s.addr, &traffic.warmup)?;
        if let Some(bad) = warm.iter().find(|l| !l.contains("\"status\": \"ok\"")) {
            return Err(format!("warm-up request failed: {bad}"));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");

    let dur = Duration::from_secs_f64(args.seconds);
    let samples = client::closed_loop(server.addr, |i| traffic.line(i), dur)?;
    let attempted = samples.len();

    // Server lifecycle: still up, no worker replaced, then its counters
    // and peak memory, then stop it.
    if let Some(status) = server.exited() {
        return Err(format!("server exited during the run: {status}"));
    }
    let health = server.health()?;
    let replaced = json_u64(&health, "replaced_workers")
        .ok_or_else(|| format!("no replaced_workers in health line: {health}"))?;
    if replaced > 0 {
        return Err(format!("the watchdog replaced {replaced} worker(s)"));
    }
    let rss_mb = server.peak_rss_mb()?;
    drop(server);

    if samples.len() < MIN_SAMPLES {
        eprintln!(
            "warning: {} samples; p99 wants at least {MIN_SAMPLES}",
            samples.len()
        );
    }

    let (errors, lines, ok) = check_samples(traffic, &samples)?;
    for e in errors.iter().take(5) {
        eprintln!("MISMATCH {e}");
    }
    let lat_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_ns() as f64 / 1e6)
        .collect();
    let n_ok = ok.iter().filter(|&&o| o).count();
    // From the start of sending to the last answer.
    let wall_s = samples.iter().map(|s| s.recv_ns).max().unwrap_or(0) as f64 / 1e9;
    let within = samples
        .iter()
        .zip(&ok)
        .filter(|(s, &o)| o && s.latency_ns() as f64 / 1e6 <= w.slo_ms())
        .count();
    // Schedule quality over the distinct requests answered, so a hot
    // request counts once. Checked ok responses are byte-identical to the
    // walk's, so their own seq_time and makespan are the checked values.
    let mut quality: HashMap<&String, f64> = HashMap::new();
    for ((s, line), &o) in samples.iter().zip(&lines).zip(&ok) {
        if let Some(x) = speedup_of(&s.response).filter(|_| o) {
            quality.insert(line, x);
        }
    }
    let speedups: Vec<f64> = quality.into_values().collect();
    let hits = json_u64(&health, "cache_hits").unwrap_or(0);
    let misses = json_u64(&health, "cache_misses").unwrap_or(0);
    eprintln!(
        "{} seed {}: {} requests attempted, {} answered, {} ok, {} mismatched; {} s; server cache hits {hits} misses {misses}",
        w.name(),
        args.seed,
        attempted,
        samples.len(),
        n_ok,
        errors.len(),
        args.seconds
    );
    eprintln!(
        "latency over {} samples in {wall_s:.3} s; setup_s over {SETUPS} set-ups {:?}",
        samples.len(),
        setup_s
    );
    let metrics = vec![
        Metric::new("throughput_rps", ratio(n_ok as f64, wall_s), "req/s"),
        Metric::new("latency_p50_ms", median(&lat_ms), "ms"),
        Metric::new("latency_p99_ms", percentile(&lat_ms, 0.99), "ms"),
        Metric::new("slo_share", ratio(within as f64, attempted as f64), "ratio"),
        Metric::new("ok_share", ratio(n_ok as f64, attempted as f64), "ratio"),
        Metric::new("speedup_geomean", geomean(&speedups), "ratio"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
    ];
    Ok(Report {
        correct: errors.is_empty(),
        attempted: attempted as u64,
        failed: (attempted - n_ok) as u64,
        metrics,
    })
}

/// `seq_time / makespan` read back from a response line.
fn speedup_of(response: &str) -> Option<f64> {
    let seq = json_u64(response, "seq_time")? as f64;
    let makespan = json_u64(response, "makespan")? as f64;
    (makespan > 0.0).then(|| seq / makespan)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: kn-perfbench --kn PATH --workload sched_cold|xform_cold|zipf_hot --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let dir = format!("{WORK_DIR}/{}-s{}", args.workload.name(), args.seed);
    let traffic = Traffic::new(args.workload, args.seed, &dir);
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{dir}: {e}"))
        .and_then(|()| traffic.write_files().map_err(|e| format!("{dir}: {e}")))
        .and_then(|()| {
            if args.trace {
                let spans = format!("{dir}/spans.tsv");
                traced::run(&traffic, args.seconds, &args.kn, &spans)
            } else {
                run_e2e(&args, &traffic)
            }
        });
    match result {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("kn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
