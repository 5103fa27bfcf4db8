//! The repository benchmark: seeded open-loop serving workloads driven
//! through the public `ServingSession` API, with output checks, end-to-end
//! metrics, and a traced run that breaks serving time down by layer.
//!
//! ```text
//! dsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics, and
//! how to read the trace.

mod checks;
mod host;
mod measure;
mod output;
mod replay;
mod spans;
mod stats;
mod workload;

use std::time::Instant;

use measure::{JobDigest, PassFigures};
use output::{metric_line, parse_metric_line, result_json, Metric};
use spans::Spans;
use workload::{Prepared, Workload};

/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPS: usize = 7;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: dsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let wait0 = host::runq_wait_ns();
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("fact workload {}", args.workload.name());
    println!("fact seed {}", args.seed);
    println!("fact nproc {}", host::nproc());
    println!("fact profile {}", host::profile());
    println!(
        "fact runq_wait_ms {:.3}",
        (host::runq_wait_ns() - wait0) as f64 / 1e6
    );
    let (attempted, metrics) = match result {
        Ok(r) => r,
        Err((attempted, e)) => {
            // A failed check fails the run: report it, print no metrics.
            eprintln!("check failed: {e}");
            let line = result_json(false, attempted.max(1), attempted.max(1), &[])
                .expect("an empty result serializes");
            println!("{line}");
            std::process::exit(1);
        }
    };
    for m in &metrics {
        let line = metric_line(m);
        // Names and units are single tokens, so every line reads back.
        assert_eq!(
            parse_metric_line(&line).as_ref(),
            Some(m),
            "unreadable metric line"
        );
        println!("{line}");
    }
    match result_json(true, attempted, 0, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Prepares the workload [`SETUP_REPS`] times and keeps the last; returns
/// it with the median preparation time.
fn setup(args: &Args) -> (Prepared, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(workload::prepare(args.workload, args.seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        prepared.expect("at least one set-up"),
        stats::median(&times),
    )
}

/// A run's outcome: `(queries attempted, metrics)`, or the queries
/// attempted and the check that failed.
type RunResult = Result<(u64, Vec<Metric>), (u64, String)>;

/// Serves every session of one pass and checks each.
fn pass(args: &Args, prepared: &Prepared, spans: &mut Spans) -> Result<Vec<JobDigest>, String> {
    prepared
        .jobs
        .iter()
        .map(|job| {
            let runtime = prepared.runtime(job.tiers);
            let run = workload::drive(job, runtime, spans);
            measure::digest(args.workload, job, run, &runtime.reference)
        })
        .collect()
}

/// The end-to-end run: passes until `--seconds` have gone by, tracing off.
fn untraced(args: &Args) -> RunResult {
    let (prepared, prepare_s) = setup(args);
    let start = Instant::now();
    let mut passes: Vec<PassFigures> = Vec::new();
    let mut attempted = 0;
    let mut off = Spans::new(false);
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let digests = pass(args, &prepared, &mut off).map_err(|e| (attempted, e))?;
        attempted += digests.iter().map(|d| d.submitted).sum::<u64>();
        let figures = measure::figures(&digests).map_err(|e| (attempted, e))?;
        if passes
            .first()
            .is_some_and(|p| p.fingerprint != figures.fingerprint)
        {
            let e = "outcome fingerprint changed between passes";
            return Err((attempted, e.into()));
        }
        passes.push(figures);
    }
    let first = &passes[0];
    println!("fact fingerprint {:016x}", first.fingerprint);
    let rates: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.submitted as f64 / p.serve_s))
        .collect();
    println!(
        "fact passes {} queries_per_s {}",
        passes.len(),
        rates.join(",")
    );
    println!("fact queries_per_pass {}", first.submitted);
    println!(
        "fact latency_tail_percentile {} beyond {}",
        first.latency_tail.percentile, first.latency_tail.beyond
    );
    let build_s = stats::median(&passes.iter().map(|p| p.build_s).collect::<Vec<_>>());
    let serve_s: f64 = passes.iter().map(|p| p.serve_s).sum();
    let metrics = vec![
        Metric::new("queries_per_s", attempted as f64 / serve_s, "1/s"),
        Metric::new("setup_s", prepare_s + build_s, "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        Metric::new("latency_p50_s", first.latency_p50_s, "s"),
        Metric::new("latency_tail_s", first.latency_tail.value, "s"),
        Metric::new("slo_violation_ratio", first.slo_violation_ratio(), "ratio"),
        Metric::new("failed_ratio", first.failed_ratio(), "ratio"),
        Metric::new("fid", first.fid, "fid"),
        Metric::new("gpu_s_per_query", first.gpu_s_per_query, "s"),
    ];
    Ok((attempted, metrics))
}

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".dsbench_out";

/// Per-call average in `unit_ns` units; `0` when nothing was called.
fn per(total_ns: u64, items: u64, unit_ns: f64) -> f64 {
    if items == 0 {
        0.0
    } else {
        total_ns as f64 / items as f64 / unit_ns
    }
}

/// The traced run: untraced and traced passes alternate until `--seconds`
/// have gone by (at least one of each), then the first pass's inner-layer
/// calls are replayed and timed. Reports every per-layer metric.
fn traced(args: &Args) -> RunResult {
    let prepared = workload::prepare(args.workload, args.seed);
    let mut spans = Spans::new(true);
    let mut off = Spans::new(false);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first: Option<(PassFigures, Vec<JobDigest>)> = None;
    let mut attempted = 0;
    let start = Instant::now();
    for i in 0.. {
        if i >= 2 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let on = i % 2 == 1;
        let rec = if on { &mut spans } else { &mut off };
        let digests = pass(args, &prepared, rec).map_err(|e| (attempted, e))?;
        attempted += digests.iter().map(|d| d.submitted).sum::<u64>();
        let figures = measure::figures(&digests).map_err(|e| (attempted, e))?;
        if on { &mut traced_s } else { &mut plain_s }.push(figures.serve_s);
        match &first {
            None => first = Some((figures, digests)),
            Some((f, _)) if f.fingerprint != figures.fingerprint => {
                return Err((attempted, "traced and untraced outcomes differ".into()))
            }
            Some(_) => {}
        }
    }
    let (figures, digests) = first.expect("at least two passes ran");
    println!("fact fingerprint {:016x}", figures.fingerprint);
    println!(
        "fact passes {} traced {}",
        plain_s.len() + traced_s.len(),
        traced_s.len()
    );
    let served = spans.spans().len();

    let mut calls = replay::Calls::default();
    for (job, d) in prepared.jobs.iter().zip(&digests) {
        replay::session(job, prepared.runtime(job.tiers), d, &mut spans, &mut calls);
    }
    let queries = figures.submitted;
    let completed: u64 = digests.iter().map(|d| d.completed()).sum();
    let batches: u64 = digests.iter().map(|d| d.batches).sum();
    let batch_size_mean = completed as f64 / batches.max(1) as f64;
    // Pending events in steady state: every busy worker's batch-done event
    // plus the arrivals submitted for the coming control interval.
    let job = &prepared.jobs[0];
    let per_tick = job.arrivals.len() as f64 * job.config.control_interval.as_secs_f64()
        / job.horizon.as_secs_f64();
    let depth = job.config.num_workers + per_tick.ceil() as usize;
    let event_ns = replay::event_queue(depth, args.seed, &mut spans);
    let events = queries as f64 + calls.generate as f64 / batch_size_mean + calls.ticks as f64;

    let totals = spans::fold(spans.spans());
    let total = |name: &str| totals.iter().find(|t| t.name == name);
    let ns = |name: &str| total(name).map_or(0, |t| t.total_ns);
    let items = |name: &str| total(name).map_or(0, |t| t.items);
    let durations = |name: &str, unit_ns: f64| {
        let d: Vec<f64> = spans
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect();
        stats::sorted(&d)
    };
    let steps = durations("serve.step", 1e6);
    let ticks = durations("control.tick", 1e3);
    let step_tail = stats::tail(&steps).expect("the traced pass stepped");
    let tick_tail = stats::tail(&ticks).expect("the replay ticked");
    println!(
        "fact serve.step_ms_tail_percentile {} beyond {}",
        step_tail.percentile, step_tail.beyond
    );
    println!(
        "fact control.tick_us_tail_percentile {} beyond {}",
        tick_tail.percentile, tick_tail.beyond
    );

    // Serving time of one traced pass, against the inner layers' replayed
    // time for the same pass: the remainder is the engine's own cost.
    let serving_ns = stats::median(&traced_s) * 1e9;
    let fid_ns = ns("metrics.rolling_fid") + ns("metrics.fid_fit");
    let inner_ns = (ns("imagegen.generate")
        + ns("imagegen.confidence")
        + ns("imagegen.router")
        + ns("control.tick")
        + fid_ns) as f64
        + events * event_ns;
    let self_us = (serving_ns - inner_ns) / queries as f64 / 1e3;
    let (mut lookups, mut hits, mut swap_s) = (0, 0, 0.0);
    for d in &digests {
        let a = &d.report.addon_stats;
        lookups += a.total_lookups();
        hits += a.hits[0] + a.hits[1];
        swap_s += a.swap_secs[0] + a.swap_secs[1];
    }

    for t in &totals {
        println!(
            "layer {} spans {} items {} total_ms {:.3} self_ms {:.3}",
            t.name,
            t.spans,
            t.items,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    println!(
        "layer sim.self per_pass_ms {:.3} of serving_ms {:.3} (replayed inner {:.3}, events {:.0})",
        (serving_ns - inner_ns) / 1e6,
        serving_ns / 1e6,
        inner_ns / 1e6,
        events
    );

    let q = queries as f64;
    let metrics = vec![
        Metric::new(
            "serve.step_ms_p50",
            stats::quantile_sorted(&steps, 0.5),
            "ms",
        ),
        Metric::new("serve.step_ms_tail", step_tail.value, "ms"),
        Metric::new(
            "serve.submit_us",
            per(ns("serve.submit"), items("serve.submit"), 1e3),
            "us",
        ),
        Metric::new(
            "serve.poll_us_per_outcome",
            per(ns("serve.poll"), items("serve.poll"), 1e3),
            "us",
        ),
        Metric::new(
            "serve.finish_ms",
            per(
                ns("serve.finish"),
                total("serve.finish").map_or(0, |t| t.spans),
                1e6,
            ),
            "ms",
        ),
        Metric::new("sim.self_us_per_query", self_us, "us"),
        Metric::new("sim.batch_size_mean", batch_size_mean, "count"),
        Metric::new("simkit.event_ns", event_ns, "ns"),
        Metric::new(
            "imagegen.generate_us",
            per(ns("imagegen.generate"), calls.generate, 1e3),
            "us",
        ),
        Metric::new(
            "imagegen.generate_per_query",
            calls.generate as f64 / q,
            "count",
        ),
        Metric::new(
            "imagegen.confidence_us",
            per(ns("imagegen.confidence"), calls.confidence, 1e3),
            "us",
        ),
        Metric::new(
            "imagegen.confidence_per_query",
            calls.confidence as f64 / q,
            "count",
        ),
        Metric::new(
            "imagegen.router_us",
            per(ns("imagegen.router"), calls.router, 1e3),
            "us",
        ),
        Metric::new(
            "imagegen.router_per_query",
            calls.router as f64 / q,
            "count",
        ),
        Metric::new(
            "imagegen.useful_ratio",
            completed as f64 / calls.generate.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "control.tick_us_p50",
            stats::quantile_sorted(&ticks, 0.5),
            "us",
        ),
        Metric::new("control.tick_us_tail", tick_tail.value, "us"),
        Metric::new("control.ticks", calls.ticks as f64, "count"),
        Metric::new(
            "metrics.fid_fold_us_per_response",
            per(fid_ns, calls.fid_rows, 1e3),
            "us",
        ),
        Metric::new(
            "addons.hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        Metric::new("addons.swap_s_per_query", swap_s / q, "s"),
        Metric::new(
            "trace.overhead_ratio",
            stats::median(&traced_s) / stats::median(&plain_s),
            "ratio",
        ),
    ];

    let header = [
        format!("workload {}", args.workload.name()),
        format!("seed {}", args.seed),
        format!("nproc {}", host::nproc()),
        format!("profile {}", host::profile()),
        format!("queries_per_pass {queries}"),
        format!(
            "spans_served {served} replayed {}",
            spans.spans().len() - served
        ),
    ];
    let path = std::path::Path::new(SPAN_DIR).join(format!("{}.spans", args.workload.name()));
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| spans.write(std::io::BufWriter::new(f), &header))
        .map_err(|e| (attempted, format!("writing {}: {e}", path.display())))?;
    println!("fact spans {}", path.display());
    Ok((attempted, metrics))
}
