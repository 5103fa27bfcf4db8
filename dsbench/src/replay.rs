//! Replayed inner-layer calls: the traced run times each inner layer from
//! outside by calling that layer's public functions again with the pass's
//! own inputs — the served prompts, the tiers each query passed through,
//! the per-tick demand — and recording a span around each group of calls.
//!
//! The replay follows the engine's call pattern, not its exact sequence:
//! a completed query at ladder tier `f` is taken to have passed through
//! every tier from its entry tier to `f` (with a discriminator score at
//! each tier below the last, on cascade policies), and dropped queries
//! are taken to have cost nothing. Control ticks see each window's
//! arrivals, escalations and replayed confidences, with empty queues.

use std::time::Instant;

use diffserve_core::serve::session_rolling_fid;
use diffserve_core::{CascadeRuntime, ControlObservation, ServingSession};
use diffserve_imagegen::{
    DiffusionModel, Discriminator, GeneratedImage, OnlinePredictiveRouter, OnlineRouterConfig,
};
use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::{SimDuration, SimTime};
use diffserve_simkit::EventQueue;
use rand::Rng;

use crate::measure::{self, JobDigest};
use crate::spans::Spans;
use crate::workload::{self, Job};

/// Calls made by one replay of a pass.
#[derive(Debug, Default)]
pub struct Calls {
    /// `DiffusionModel::generate` calls.
    pub generate: u64,
    /// `Discriminator::confidence` calls.
    pub confidence: u64,
    /// `OnlinePredictiveRouter` entry and observe calls.
    pub router: u64,
    /// Control ticks stepped.
    pub ticks: u64,
    /// Feature rows folded into FID.
    pub fid_rows: u64,
}

/// The model tiers and boundary discriminators a runtime serves.
fn tiers(runtime: &CascadeRuntime) -> (Vec<&DiffusionModel>, Vec<&Discriminator>) {
    match &runtime.ladder {
        Some(a) => (a.models.iter().collect(), a.discriminators.iter().collect()),
        None => (
            vec![&runtime.spec.light, &runtime.spec.heavy],
            vec![&runtime.discriminator],
        ),
    }
}

/// Replays one session's inner-layer calls under a `replay.session` span,
/// adding them to `calls`.
pub fn session(
    job: &Job,
    runtime: &CascadeRuntime,
    d: &JobDigest,
    spans: &mut Spans,
    calls: &mut Calls,
) {
    let (models, discs) = tiers(runtime);
    let last = models.len() - 1;
    let cascade = job.settings.policy.uses_cascade();
    let ladder = runtime.num_tiers() > 2;
    let mut router = job
        .config
        .ladder
        .as_ref()
        .filter(|l| l.predictive_routing && cascade && ladder)
        .map(|l| {
            OnlinePredictiveRouter::new(
                last,
                OnlineRouterConfig {
                    observation_noise: l.predictive_observation_noise,
                    learning_rate: l.predictive_learning_rate,
                    min_observations: l.predictive_min_observations,
                    margin: l.predictive_margin,
                },
            )
        });
    let spec = ServingSession::builder()
        .runtime(runtime)
        .config(job.config.clone())
        .settings(job.settings.clone())
        .validate()
        .expect("benchmark jobs are valid configurations");
    let mut control = spec.control_loop();
    control.bootstrap(job.settings.peak_demand_hint);

    let root = spans.open("replay.session", None, 0);
    let step = job.config.control_interval;
    let ticks = job.horizon.as_micros().div_ceil(step.as_micros());
    let mut next = 0;
    let mut images: Vec<(usize, GeneratedImage)> = Vec::new();
    let mut passes: Vec<(usize, usize, usize)> = Vec::new();
    // Features of each replayed final-tier image: the served responses.
    let mut served: Vec<f64> = Vec::new();
    for tick in 0..ticks {
        let until = SimTime::ZERO + step * (tick + 1);
        let first = next;
        while job.arrivals.get(next).is_some_and(|a| a.due < until) {
            next += 1;
        }
        // (arrival, entry tier, final tier) of each query completed from
        // this window.
        passes.clear();
        let mut direct = vec![0u64; models.len()];
        let routed = calls.router;
        let t0 = Instant::now();
        for i in first..next {
            let Some(f) = d.final_tier[i] else { continue };
            let prompt = workload::prompt(runtime, &job.arrivals[i]);
            let entry = if !cascade {
                f
            } else if let Some(r) = router.as_mut() {
                calls.router += 1;
                let entry = r.entry_tier(&prompt).min(f);
                for k in entry..=f.min(last - 1) {
                    r.observe(k, &prompt, k < f);
                    calls.router += 1;
                }
                entry
            } else {
                0
            };
            direct[entry] += 1;
            passes.push((i, entry, f));
        }
        if router.is_some() {
            let n = calls.router - routed;
            spans.record("imagegen.router", Some(root), tick, (t0, Instant::now()), n);
        }

        images.clear();
        let t0 = Instant::now();
        for &(i, entry, f) in &passes {
            let prompt = workload::prompt(runtime, &job.arrivals[i]);
            for (k, model) in models.iter().enumerate().take(f + 1).skip(entry) {
                images.push((k, model.generate(&prompt)));
            }
        }
        let n = images.len() as u64;
        calls.generate += n;
        spans.record(
            "imagegen.generate",
            Some(root),
            tick,
            (t0, Instant::now()),
            n,
        );

        let mut end = 0;
        for &(_, entry, f) in &passes {
            end += f + 1 - entry;
            served.extend_from_slice(&images[end - 1].1.features);
        }

        let mut confidences = Vec::new();
        let mut deep = vec![Vec::new(); last.saturating_sub(1)];
        let t0 = Instant::now();
        if cascade {
            for (k, image) in images.iter().filter(|(k, _)| *k < last) {
                let c = discs[*k].confidence(&image.features);
                match k {
                    0 => confidences.push(c),
                    k => deep[k - 1].push(c),
                }
            }
        }
        let n = (confidences.len() + deep.iter().map(Vec::len).sum::<usize>()) as u64;
        calls.confidence += n;
        spans.record(
            "imagegen.confidence",
            Some(root),
            tick,
            (t0, Instant::now()),
            n,
        );

        let obs = ControlObservation {
            now: until,
            arrivals: (next - first) as u64,
            heavy_arrivals: passes.iter().filter(|p| p.2 > p.1 || p.1 > 0).count() as u64,
            alive_workers: job.config.num_workers,
            effective_capacity: job.config.num_workers as f64,
            current_light_batch: 1,
            current_heavy_batch: 1,
            confidences,
            tier_queues: if ladder {
                vec![0; models.len()]
            } else {
                Vec::new()
            },
            deep_confidences: if ladder { deep } else { Vec::new() },
            tier_direct_arrivals: if router.is_some() { direct } else { Vec::new() },
            ..Default::default()
        };
        let t0 = Instant::now();
        std::hint::black_box(control.step(&obs));
        spans.record("control.tick", Some(root), tick, (t0, Instant::now()), 1);
        calls.ticks += 1;
    }

    let rows = || served.chunks_exact(runtime.reference.dim());
    let n = rows().len() as u64;
    let t0 = Instant::now();
    let mut rolling = session_rolling_fid(&runtime.reference);
    for row in rows() {
        rolling.push(row);
    }
    std::hint::black_box(rolling.estimate());
    let t1 = Instant::now();
    spans.record("metrics.rolling_fid", Some(root), 0, (t0, t1), n);
    std::hint::black_box(measure::fid(rows(), &runtime.reference));
    spans.record("metrics.fid_fit", Some(root), 0, (t1, Instant::now()), n);
    calls.fid_rows += n;
    spans.close_n(root, d.submitted);
}

/// Push + pop pairs timed by [`event_queue`].
const EVENT_PAIRS: u64 = 400_000;

/// Times `EventQueue` push + pop pairs with `depth` events pending, the
/// engine's steady state. Returns nanoseconds per pair.
pub fn event_queue(depth: usize, seed: u64, spans: &mut Spans) -> f64 {
    let mut rng = seeded_rng(derive_seed(seed, 0xE7E7));
    let mut q: EventQueue<[u64; 3]> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth.max(1) as u64 {
        q.push(SimTime::from_micros(rng.gen_range(0..10_000_000)), [i; 3]);
    }
    let gaps: Vec<u64> = (0..1024).map(|_| rng.gen_range(1..10_000_000)).collect();
    let t0 = Instant::now();
    for i in 0..EVENT_PAIRS {
        let (t, e) = q.pop().expect("queue stays at depth");
        let gap = SimDuration::from_micros(gaps[(i % 1024) as usize]);
        q.push(t + gap, std::hint::black_box(e));
    }
    let t1 = Instant::now();
    spans.record("simkit.event_queue", None, 0, (t0, t1), EVENT_PAIRS);
    (t1 - t0).as_nanos() as f64 / EVENT_PAIRS as f64
}
