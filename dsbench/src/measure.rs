//! Checks each session's outcomes and turns a pass into end-to-end
//! numbers.

use std::collections::{HashMap, HashSet};

use diffserve_core::{QueryOutcome, RunReport};
use diffserve_linalg::Mat;
use diffserve_metrics::{frechet_distance, GaussianStats};

use crate::checks::{self, Fnv};
use crate::stats::{self, Tail};
use crate::workload::{Job, JobRun, Tiers, Workload};

/// Covariance ridge of the report's FID (`RunReport::fid`).
const FID_RIDGE: f64 = 1e-6;

/// What the benchmark keeps of one session once its checks passed.
#[derive(Debug, Clone)]
pub struct JobDigest {
    /// Fingerprint of the session's outcome stream and report.
    pub fingerprint: u64,
    /// Queries submitted.
    pub submitted: u64,
    /// Completed after due + SLO.
    pub late: u64,
    /// Dropped, polled or accounted by `finish()`.
    pub failed: u64,
    /// Latency of each completion from its due arrival, seconds.
    pub latencies: Vec<f64>,
    /// FID of the completed responses against the reference set.
    pub fid: f64,
    /// Summed GPU-seconds of the completed responses.
    pub gpu_s: f64,
    /// Ladder tier each arrival completed at (`None` if it did not).
    pub final_tier: Vec<Option<usize>>,
    /// Distinct (tier, completion instant) pairs: completions that share
    /// both left the engine in one batch.
    pub batches: u64,
    /// The session's final report.
    pub report: RunReport,
    /// Wall seconds building the session.
    pub build_s: f64,
    /// Wall seconds serving it.
    pub serve_s: f64,
}

impl JobDigest {
    /// Completed queries.
    pub fn completed(&self) -> u64 {
        self.latencies.len() as u64
    }
}

/// Runs the per-session output checks and keeps what the metrics need.
/// Errors name the session and the check that failed.
pub fn digest(
    workload: Workload,
    job: &Job,
    run: JobRun,
    reference: &GaussianStats,
) -> Result<JobDigest, String> {
    let fail = |what: String| format!("{}: {what}", job.label);
    let res = checks::conservation(&run.tickets, &run.outcomes, &run.report).map_err(fail)?;
    let index: HashMap<u64, usize> = run
        .tickets
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let slo = job.config.slo.as_secs_f64();
    let mut d = JobDigest {
        fingerprint: 0,
        submitted: res.submitted,
        late: 0,
        failed: res.dropped + res.unresolved,
        latencies: Vec::with_capacity(res.completed as usize),
        fid: f64::NAN,
        gpu_s: 0.0,
        final_tier: vec![None; run.tickets.len()],
        batches: 0,
        report: run.report,
        build_s: run.build_s,
        serve_s: run.serve_s,
    };
    let mut batches = HashSet::new();
    for o in &run.outcomes {
        if let QueryOutcome::Completed(r) = o {
            let i = index[&r.id.0];
            let lat = r.completion.as_secs_f64() - job.arrivals[i].due.as_secs_f64();
            d.late += u64::from(lat > slo);
            d.latencies.push(lat);
            d.gpu_s += r.gpu_time;
            d.final_tier[i] = Some(r.tier_index);
            batches.insert((r.tier_index, r.completion.as_micros()));
        }
    }
    d.batches = batches.len() as u64;
    let rows = run.outcomes.iter().filter_map(|o| match o {
        QueryOutcome::Completed(r) => Some(r.features.as_slice()),
        QueryOutcome::Dropped { .. } => None,
    });
    d.fid = fid(rows, reference);
    // Equal up to summation order: the report folds its responses in its
    // own order.
    let want = d.report.fid;
    if (d.fid - want).abs() > 1e-9 * want.abs() && !(d.fid.is_nan() && want.is_nan()) {
        return Err(fail(format!(
            "FID of the polled responses {}, report {want}",
            d.fid
        )));
    }
    if d.late != d.report.late {
        return Err(fail(format!(
            "{} completions past due + SLO, report says {} late",
            d.late, d.report.late
        )));
    }
    if job.tiers == Tiers::Ladder
        && job.settings.policy.uses_cascade()
        && d.report.tier_breakdown.get(1).map_or(0, |t| t.completions) == 0
    {
        return Err(fail("ladder run served no mid-tier traffic".into()));
    }
    if workload == Workload::FleetAddons {
        let a = &d.report.addon_stats;
        let hits = a.hits[0] + a.hits[1];
        if hits == 0 || hits == a.total_lookups() {
            return Err(fail(format!(
                "add-on caches saw {hits} hits in {} lookups; want both",
                a.total_lookups()
            )));
        }
    }
    let mut h = Fnv::default();
    checks::fingerprint(&mut h, &run.outcomes, &d.report);
    d.fingerprint = h.value();
    Ok(d)
}

/// FID of feature rows against `reference`.
pub fn fid<'a>(rows: impl Iterator<Item = &'a [f64]>, reference: &GaussianStats) -> f64 {
    let rows: Vec<&[f64]> = rows.collect();
    GaussianStats::fit(&Mat::from_rows(&rows), FID_RIDGE)
        .ok()
        .and_then(|g| frechet_distance(&g, reference).ok())
        .unwrap_or(f64::NAN)
}

/// One pass's end-to-end figures.
#[derive(Debug, Clone)]
pub struct PassFigures {
    /// Fingerprint over every session of the pass.
    pub fingerprint: u64,
    /// Queries submitted.
    pub submitted: u64,
    /// Completed after due + SLO.
    pub late: u64,
    /// Dropped or unresolved.
    pub failed: u64,
    /// Each session's median latency from due arrival to completion,
    /// averaged over the pass's sessions, seconds.
    pub latency_p50_s: f64,
    /// Tail latency of every completion in the pass, by the ten-beyond
    /// rule.
    pub latency_tail: Tail,
    /// Each session's FID against the reference set, averaged over the
    /// pass's sessions.
    pub fid: f64,
    /// GPU-seconds per completed query.
    pub gpu_s_per_query: f64,
    /// Wall seconds serving, summed over sessions.
    pub serve_s: f64,
    /// Wall seconds building sessions, summed.
    pub build_s: f64,
}

impl PassFigures {
    /// (late + dropped + unresolved) / submitted.
    pub fn slo_violation_ratio(&self) -> f64 {
        (self.late + self.failed) as f64 / self.submitted as f64
    }

    /// (dropped + unresolved) / submitted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.submitted as f64
    }
}

/// Folds a pass's sessions into its figures.
pub fn figures(digests: &[JobDigest]) -> Result<PassFigures, String> {
    let mut h = Fnv::default();
    let mut latencies = Vec::new();
    let mut medians = Vec::new();
    let (mut submitted, mut late, mut failed, mut gpu_s) = (0, 0, 0, 0.0);
    let (mut serve_s, mut build_s) = (0.0, 0.0);
    for d in digests {
        h.word(d.fingerprint);
        latencies.extend_from_slice(&d.latencies);
        if !d.latencies.is_empty() {
            medians.push(stats::median(&d.latencies));
        }
        submitted += d.submitted;
        late += d.late;
        failed += d.failed;
        gpu_s += d.gpu_s;
        serve_s += d.serve_s;
        build_s += d.build_s;
    }
    if latencies.is_empty() {
        return Err("no query completed".into());
    }
    let n = digests.len() as f64;
    let fid = digests.iter().map(|d| d.fid).sum::<f64>() / n;
    let sorted = stats::sorted(&latencies);
    Ok(PassFigures {
        fingerprint: h.value(),
        submitted,
        late,
        failed,
        // Per-session medians, averaged: pooling sessions of different
        // policies makes a mixture whose median sits on one policy's
        // service-time constant for most seeds.
        latency_p50_s: medians.iter().sum::<f64>() / medians.len() as f64,
        latency_tail: stats::tail(&sorted).expect("non-empty"),
        fid,
        gpu_s_per_query: gpu_s / latencies.len() as f64,
        serve_s,
        build_s,
    })
}
