//! Run reports: the measurements every experiment consumes.

use diffserve_metrics::{frechet_distance, GaussianStats, SloTracker};
use diffserve_simkit::time::SimDuration;
use diffserve_trace::IncidentLog;

use crate::addons::AddonStats;
use crate::policy::Policy;
use crate::query::{CompletedResponse, ModelTier};

/// Aggregate and time-series results of one serving run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The policy that produced this run.
    pub policy: Policy,
    /// Queries that entered the system.
    pub total_queries: u64,
    /// Queries completed (on time or late).
    pub completed: u64,
    /// Queries preemptively dropped.
    pub dropped: u64,
    /// Queries completed after their deadline.
    pub late: u64,
    /// Overall SLO violation ratio (late + dropped over total).
    pub violation_ratio: f64,
    /// Mean completion latency in seconds.
    pub mean_latency: f64,
    /// FID of all completed responses against the reference set.
    pub fid: f64,
    /// Windowed FID over time: `(window start seconds, fid)`. Windows with
    /// too few responses are omitted.
    pub fid_series: Vec<(f64, f64)>,
    /// Windowed SLO violation ratio over time.
    pub violation_series: Vec<(f64, f64)>,
    /// Windowed observed demand (QPS) over time.
    pub demand_series: Vec<(f64, f64)>,
    /// Confidence threshold chosen by the controller over time.
    pub threshold_series: Vec<(f64, f64)>,
    /// Deferral-estimation error over time: at each control tick, the mean
    /// absolute gap between the deferral profile `f(t)` the allocator
    /// solved against and the empirical profile of the confidences the
    /// window actually produced (a one-step-ahead prediction error). With
    /// the online estimator enabled this shrinks back after a difficulty
    /// shift; with the offline profile it stays elevated. Empty for
    /// policies that never run the cascade.
    pub deferral_error_series: Vec<(f64, f64)>,
    /// Mean of the windowed FID series (the paper's "Avg FID" bars).
    pub mean_windowed_fid: f64,
    /// Fraction of completed responses served by the heavy model.
    pub heavy_fraction: f64,
    /// Mean end-to-end latency (seconds) of heavy-tier completions only —
    /// the escalated-query latency that restart-vs-resume escalation
    /// changes. `0.0` when nothing escalated.
    pub mean_heavy_latency: f64,
    /// Escalated queries whose heavy pass resumed from light-tier latents
    /// (skipped at least one denoise step). Always `0` in restart mode.
    pub resumed_queries: u64,
    /// Mean heavy denoise steps skipped per resumed query; `0.0` when no
    /// query resumed.
    pub mean_reused_steps: f64,
    /// Mean single-query GPU-seconds consumed per completed query (see
    /// [`CompletedResponse::gpu_time`]) — the efficiency axis the
    /// `ext_pipeline` benchmark compares across escalation modes.
    pub gpu_time_per_query: f64,
    /// Every perturbation the run's fault engine actually fired — scheduled
    /// scenario events, mid-run injections, and hazard-drawn faults alike —
    /// stamped with its firing instant.
    /// [`Scenario::from_incident_log`](diffserve_trace::Scenario::from_incident_log)
    /// turns this back into a replayable scenario (bit-exact on the
    /// discrete-event simulator), closing the loop from "a weird run
    /// happened" to "it's now a regression test".
    pub incident_log: IncidentLog,
    /// Per-tier add-on module-cache accounting (hits, misses, swap
    /// seconds). All-zero when [`SystemConfig::addons`] is unset or no
    /// query carried an add-on.
    ///
    /// [`SystemConfig::addons`]: crate::config::SystemConfig::addons
    pub addon_stats: AddonStats,
    /// Per-ladder-tier completion statistics, cheapest tier first, derived
    /// from each response's [`CompletedResponse::tier_index`]. Two entries
    /// on legacy runs; empty when nothing completed.
    pub tier_breakdown: Vec<TierStats>,
}

/// Completion statistics of one ladder tier within a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TierStats {
    /// 0-based ladder tier (0 = cheapest).
    pub tier: usize,
    /// Responses this tier produced.
    pub completions: u64,
    /// Mean end-to-end latency (seconds) of this tier's completions;
    /// `0.0` with none.
    pub mean_latency: f64,
    /// FID of this tier's completions against the reference set; `NaN`
    /// with fewer than two.
    pub fid: f64,
    /// Responses that completed *deeper* than this tier — queries that
    /// escalated past (or, under predictive routing, skipped) it.
    pub escalated_past: u64,
}

/// FID of a set of completed responses against the reference Gaussian;
/// `NaN` with fewer than two responses. Takes any iterator of borrowed
/// responses, so a subset can be scored without cloning it.
pub fn fid_of_responses<'a>(
    responses: impl IntoIterator<Item = &'a CompletedResponse>,
    reference: &GaussianStats,
    ridge: f64,
) -> f64 {
    let rows: Vec<&[f64]> = responses
        .into_iter()
        .map(|r| r.features.as_slice())
        .collect();
    fid_of_rows(&rows, reference, ridge)
}

/// FID of borrowed feature rows against the reference Gaussian, fit in
/// place; `NaN` with fewer than two rows or on numerical failure.
fn fid_of_rows(rows: &[&[f64]], reference: &GaussianStats, ridge: f64) -> f64 {
    match GaussianStats::fit_rows(rows, ridge) {
        Ok(g) => frechet_distance(&g, reference).unwrap_or(f64::NAN),
        Err(_) => f64::NAN,
    }
}

/// Windowed FID over completion time. Windows with fewer than
/// `min_samples` responses are omitted (their covariance would be noise).
pub fn windowed_fid(
    responses: &[CompletedResponse],
    reference: &GaussianStats,
    window: SimDuration,
    min_samples: usize,
) -> Vec<(f64, f64)> {
    if responses.is_empty() {
        return Vec::new();
    }
    let end = responses
        .iter()
        .map(|r| r.completion)
        .max()
        .expect("non-empty responses");
    let nwin = (end.as_micros() / window.as_micros() + 1) as usize;
    let mut buckets: Vec<Vec<&CompletedResponse>> = vec![Vec::new(); nwin];
    for r in responses {
        let w = (r.completion.as_micros() / window.as_micros()) as usize;
        buckets[w].push(r);
    }
    let mut series = Vec::new();
    for (w, bucket) in buckets.iter().enumerate() {
        if bucket.len() < min_samples.max(2) {
            continue;
        }
        let rows: Vec<&[f64]> = bucket.iter().map(|r| r.features.as_slice()).collect();
        if let Ok(g) = GaussianStats::fit_rows(&rows, 1e-3) {
            if let Ok(d) = frechet_distance(&g, reference) {
                series.push((w as f64 * window.as_secs_f64(), d));
            }
        }
    }
    series
}

impl RunReport {
    /// Assembles a report from raw run observations. Shared by the
    /// discrete-event simulator and the thread-based cluster runtime so the
    /// two are compared on identical accounting.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        policy: Policy,
        total_queries: u64,
        slo: &SloTracker,
        responses: &[CompletedResponse],
        reference: &GaussianStats,
        window: SimDuration,
        demand_series: Vec<(f64, f64)>,
        threshold_series: Vec<(f64, f64)>,
        deferral_error_series: Vec<(f64, f64)>,
        incident_log: IncidentLog,
        addon_stats: AddonStats,
    ) -> RunReport {
        let fid = fid_of_responses(responses, reference, 1e-6);
        let fid_series = windowed_fid(responses, reference, window, 24);
        let mean_windowed_fid = if fid_series.is_empty() {
            fid
        } else {
            fid_series.iter().map(|(_, f)| f).sum::<f64>() / fid_series.len() as f64
        };
        let heavy_count = responses
            .iter()
            .filter(|r| r.tier == ModelTier::Heavy)
            .count();
        let heavy_latency_sum: f64 = responses
            .iter()
            .filter(|r| r.tier == ModelTier::Heavy)
            .map(|r| r.latency_secs())
            .sum();
        let resumed: Vec<&CompletedResponse> =
            responses.iter().filter(|r| r.reused_steps > 0).collect();
        let gpu_time_sum: f64 = responses.iter().map(|r| r.gpu_time).sum();
        let violation_series = slo
            .windowed_violation_ratio(window)
            .into_iter()
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect();
        let num_tiers = responses
            .iter()
            .map(|r| r.tier_index + 1)
            .max()
            .unwrap_or(0);
        let mut tier_counts = vec![0u64; num_tiers];
        for r in responses {
            tier_counts[r.tier_index] += 1;
        }
        let mut escalated_past = responses.len() as u64;
        let tier_breakdown = tier_counts
            .into_iter()
            .enumerate()
            .map(|(t, completions)| {
                escalated_past -= completions;
                // One tier's rows at a time keeps the peak footprint of
                // the breakdown to the largest tier.
                let mut rows = Vec::with_capacity(completions as usize);
                let mut latency_sum = 0.0;
                for r in responses.iter().filter(|r| r.tier_index == t) {
                    rows.push(r.features.as_slice());
                    latency_sum += r.latency_secs();
                }
                TierStats {
                    tier: t,
                    completions,
                    mean_latency: if rows.is_empty() {
                        0.0
                    } else {
                        latency_sum / rows.len() as f64
                    },
                    fid: fid_of_rows(&rows, reference, 1e-6),
                    escalated_past,
                }
            })
            .collect();
        RunReport {
            policy,
            total_queries,
            completed: slo.on_time() + slo.late(),
            dropped: slo.dropped(),
            late: slo.late(),
            violation_ratio: slo.violation_ratio(),
            mean_latency: slo.mean_latency(),
            fid,
            fid_series,
            violation_series,
            demand_series,
            threshold_series,
            deferral_error_series,
            incident_log,
            addon_stats,
            mean_windowed_fid,
            heavy_fraction: if responses.is_empty() {
                0.0
            } else {
                heavy_count as f64 / responses.len() as f64
            },
            mean_heavy_latency: if heavy_count == 0 {
                0.0
            } else {
                heavy_latency_sum / heavy_count as f64
            },
            resumed_queries: resumed.len() as u64,
            mean_reused_steps: if resumed.is_empty() {
                0.0
            } else {
                resumed.iter().map(|r| r.reused_steps as f64).sum::<f64>() / resumed.len() as f64
            },
            gpu_time_per_query: if responses.is_empty() {
                0.0
            } else {
                gpu_time_sum / responses.len() as f64
            },
            tier_breakdown,
        }
    }

    /// Seconds after a perturbation at `event_time` until the windowed SLO
    /// violation ratio first returns to at most `target` — the scenario
    /// harness's recovery-time metric. Returns `None` if no window at or
    /// after `event_time` recovers (or the series is empty).
    ///
    /// Windows are keyed by their start time, so the result is quantized to
    /// the run's `metrics_window`.
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_core::{Policy, RunReport};
    ///
    /// let mut report = RunReport::empty(Policy::DiffServe);
    /// report.violation_series = vec![(0.0, 0.0), (20.0, 0.5), (40.0, 0.3), (60.0, 0.05)];
    /// // Perturbation at t=20s; the system is back under 10% violations at t=60s.
    /// assert_eq!(report.recovery_time_after(20.0, 0.1), Some(40.0));
    /// assert_eq!(report.recovery_time_after(20.0, 0.01), None);
    /// ```
    pub fn recovery_time_after(&self, event_time: f64, target: f64) -> Option<f64> {
        self.violation_series
            .iter()
            .filter(|&&(t, _)| t >= event_time)
            .find(|&&(_, v)| v <= target)
            .map(|&(t, _)| t - event_time)
    }

    /// An all-zero report for `policy` — a starting point for tests and
    /// doctests that fill in specific fields.
    pub fn empty(policy: Policy) -> RunReport {
        RunReport {
            policy,
            total_queries: 0,
            completed: 0,
            dropped: 0,
            late: 0,
            violation_ratio: 0.0,
            mean_latency: 0.0,
            fid: f64::NAN,
            fid_series: Vec::new(),
            violation_series: Vec::new(),
            demand_series: Vec::new(),
            threshold_series: Vec::new(),
            deferral_error_series: Vec::new(),
            incident_log: Vec::new(),
            addon_stats: AddonStats::default(),
            mean_windowed_fid: f64::NAN,
            heavy_fraction: 0.0,
            mean_heavy_latency: 0.0,
            resumed_queries: 0,
            mean_reused_steps: 0.0,
            gpu_time_per_query: 0.0,
            tier_breakdown: Vec::new(),
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<18} queries={:<6} fid={:<6.2} slo_viol={:<6.3} mean_lat={:<5.2}s heavy={:<5.3} dropped={}",
            self.policy.name(),
            self.total_queries,
            self.fid,
            self.violation_ratio,
            self.mean_latency,
            self.heavy_fraction,
            self.dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_key_numbers() {
        let r = RunReport {
            policy: Policy::DiffServe,
            total_queries: 100,
            completed: 95,
            dropped: 5,
            late: 2,
            violation_ratio: 0.07,
            mean_latency: 1.5,
            fid: 17.25,
            fid_series: vec![],
            violation_series: vec![],
            demand_series: vec![],
            threshold_series: vec![],
            deferral_error_series: vec![],
            incident_log: vec![],
            addon_stats: AddonStats::default(),
            mean_windowed_fid: 17.0,
            heavy_fraction: 0.6,
            mean_heavy_latency: 2.1,
            resumed_queries: 0,
            mean_reused_steps: 0.0,
            gpu_time_per_query: 0.9,
            tier_breakdown: Vec::new(),
        };
        let s = r.summary();
        assert!(s.contains("DiffServe"));
        assert!(s.contains("17.25"));
        assert!(s.contains("0.070"));
    }
}
