//! The benchmark's workloads: what each one serves, how its inputs are made
//! from the seed, and how one pass drives them open loop through the public
//! [`ServingSession`] API.

use std::time::Instant;

use diffserve_core::{
    AddonsConfig, CascadeRuntime, LadderConfig, Policy, QueryOutcome, QuerySpec, RunReport,
    RunSettings, ServingSession, SystemConfig,
};
use diffserve_imagegen::{cascade1, ladder3, DiscriminatorConfig, FeatureSpec, Prompt};
use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::{SimDuration, SimTime};
use diffserve_trace::{
    poisson_arrivals, standard_scenarios, synthesize_azure_trace, AddonMix, AzureTraceConfig,
    Scenario, Trace,
};
use rand::Rng;

use crate::spans::Spans;

/// Seed of the offline artifacts (dataset, discriminators, reference set).
/// Fixed, so every workload seed serves the same prepared models; the
/// workload seed only shapes the traffic.
const RUNTIME_SEED: u64 = 20250509;

/// Prompts in the prepared dataset.
const DATASET_SIZE: usize = 1500;

/// Fleet size of the two fleet workloads.
const FLEET: usize = 1000;

/// How a fleet workload replays the diurnal curve: independent replays
/// per pass (pooled, so one replay's luck does not set the outcome), the
/// simulated length of each, and trough and peak demand.
#[derive(Debug, Clone, Copy)]
struct Replay {
    replicas: u64,
    secs: u64,
    qps: (f64, f64),
}

/// `fleet_replay`: enough demand that the fleet queues at the peak.
const FLEET_REPLAY: Replay = Replay {
    replicas: 8,
    secs: 200,
    qps: (150.0, 1500.0),
};

/// `fleet_addons`: module swaps cost capacity and the cold caches make
/// each replay's start chaotic, so more, shorter replays at lower demand.
const FLEET_ADDONS: Replay = Replay {
    replicas: 32,
    secs: 50,
    qps: (60.0, 500.0),
};

/// Workers in the scenario sweep.
const SWEEP_WORKERS: usize = 8;

/// Demand of the scenario sweep's base trace.
const SWEEP_QPS: f64 = 6.0;

/// Simulated length of each scenario-sweep run.
const SWEEP_SECS: u64 = 240;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1000-worker sim, two-tier cascade, DiffServe, Azure diurnal demand.
    FleetReplay,
    /// `FleetReplay` with add-on serving on.
    FleetAddons,
    /// 8-worker sim across the standard scenarios and every policy.
    ScenarioSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetReplay,
        Workload::FleetAddons,
        Workload::ScenarioSweep,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetReplay => "fleet_replay",
            Workload::FleetAddons => "fleet_addons",
            Workload::ScenarioSweep => "scenario_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether any run of the workload needs the three-tier ladder runtime.
    fn needs_ladder(self) -> bool {
        self == Workload::ScenarioSweep
    }
}

/// One query the generator will submit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the query is due, relative to the start of serving.
    pub due: SimTime,
    /// Index of its prompt in the prepared dataset.
    pub prompt: usize,
    /// Add-on module it requires, if any.
    pub addon: Option<usize>,
}

/// Which prepared runtime a job serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiers {
    /// SD-Turbo → SDv1.5.
    Cascade,
    /// The three-tier `ladder3` ladder.
    Ladder,
}

/// One serving session of a workload: configuration plus generated inputs.
#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable label (`policy/scenario`).
    pub label: String,
    /// Runtime served.
    pub tiers: Tiers,
    /// System configuration.
    pub config: SystemConfig,
    /// Policy and allocator settings.
    pub settings: RunSettings,
    /// Worker churn the backend replays, if any.
    pub scenario: Option<Scenario>,
    /// The open-loop arrival schedule, sorted by due time.
    pub arrivals: Vec<Arrival>,
    /// How long serving runs past the start: the trace plus a drain.
    pub horizon: SimDuration,
}

/// The prepared runtimes and generated jobs of one workload.
#[derive(Debug)]
pub struct Prepared {
    /// The two-tier cascade runtime.
    pub cascade: CascadeRuntime,
    /// The three-tier ladder runtime, when a job needs it.
    pub ladder: Option<CascadeRuntime>,
    /// The sessions one pass serves, in order.
    pub jobs: Vec<Job>,
}

impl Prepared {
    /// The runtime a job serves.
    pub fn runtime(&self, tiers: Tiers) -> &CascadeRuntime {
        match tiers {
            Tiers::Cascade => &self.cascade,
            Tiers::Ladder => self.ladder.as_ref().expect("ladder runtime prepared"),
        }
    }
}

fn disc_config() -> DiscriminatorConfig {
    DiscriminatorConfig {
        train_prompts: 500,
        epochs: 10,
        ..Default::default()
    }
}

/// Prepares the offline artifacts and generates the workload's inputs from
/// `seed`: the set-up phase that `setup_s` times.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let cascade = CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        DATASET_SIZE,
        RUNTIME_SEED,
        disc_config(),
    );
    let ladder = workload.needs_ladder().then(|| {
        CascadeRuntime::prepare_ladder(
            ladder3(FeatureSpec::default()),
            DATASET_SIZE,
            RUNTIME_SEED,
            disc_config(),
        )
    });
    let jobs = jobs(workload, seed);
    Prepared {
        cascade,
        ladder,
        jobs,
    }
}

/// Drain after the last arrival: four SLOs, as the batch wrappers use.
fn drain(config: &SystemConfig) -> SimDuration {
    config.slo * 4
}

/// Independent users: a Poisson schedule over `trace`, each query with a
/// uniformly drawn dataset prompt and, when `mix` is set, its add-on draw.
fn open_loop(trace: &Trace, seed: u64, mix: Option<&AddonMix>) -> Vec<Arrival> {
    let mut rng = seeded_rng(derive_seed(seed, 0xA881));
    let times = poisson_arrivals(trace, &mut rng);
    let mut prompts = seeded_rng(derive_seed(seed, 0x9807));
    times
        .into_iter()
        .enumerate()
        .map(|(i, due)| Arrival {
            due,
            prompt: prompts.gen_range(0..DATASET_SIZE),
            addon: mix.and_then(|m| m.draw(i as u64, due)),
        })
        .collect()
}

fn azure(min_qps: f64, max_qps: f64, secs: u64) -> Trace {
    synthesize_azure_trace(&AzureTraceConfig {
        min_qps,
        max_qps,
        duration: SimDuration::from_secs(secs),
        ..Default::default()
    })
    .expect("valid azure trace")
}

fn jobs(workload: Workload, seed: u64) -> Vec<Job> {
    match workload {
        Workload::FleetReplay | Workload::FleetAddons => {
            let replay = if workload == Workload::FleetAddons {
                FLEET_ADDONS
            } else {
                FLEET_REPLAY
            };
            let trace = azure(replay.qps.0, replay.qps.1, replay.secs);
            (0..replay.replicas)
                .map(|r| {
                    let seed = derive_seed(seed, r);
                    let mut config = SystemConfig {
                        num_workers: FLEET,
                        seed: derive_seed(seed, 0xC0DE),
                        ..Default::default()
                    };
                    if workload == Workload::FleetAddons {
                        config.addons = Some(AddonsConfig::demo(derive_seed(seed, 0xADD0)));
                    }
                    let mix = config.addons.as_ref().map(|a| &a.mix);
                    let arrivals = open_loop(&trace, seed, mix);
                    Job {
                        label: format!("diffserve/azure#{r}"),
                        tiers: Tiers::Cascade,
                        settings: RunSettings::new(Policy::DiffServe, trace.max_qps()),
                        horizon: trace.duration() + drain(&config),
                        config,
                        scenario: None,
                        arrivals,
                    }
                })
                .collect()
        }
        Workload::ScenarioSweep => {
            let base = Trace::constant(SWEEP_QPS, SimDuration::from_secs(SWEEP_SECS))
                .expect("valid base trace");
            let config = SystemConfig {
                num_workers: SWEEP_WORKERS,
                seed: derive_seed(seed, 0xC0DE),
                ..Default::default()
            };
            let ladder_config = SystemConfig {
                ladder: Some(LadderConfig::default()),
                ..config.clone()
            };
            let mut jobs = Vec::new();
            for (i, scenario) in standard_scenarios(&base, SWEEP_WORKERS)
                .into_iter()
                .enumerate()
            {
                let trace = scenario.effective_trace();
                // One arrival stream per scenario, shared by every policy
                // so the policies are compared on paired inputs.
                let arrivals = open_loop(&trace, derive_seed(seed, i as u64), None);
                let horizon = trace.duration() + drain(&config);
                let runs = Policy::all()
                    .into_iter()
                    .map(|p| (p, Tiers::Cascade, &config))
                    .chain(
                        [Policy::DiffServe, Policy::DiffServeStatic]
                            .into_iter()
                            .map(|p| (p, Tiers::Ladder, &ladder_config)),
                    );
                for (policy, tiers, config) in runs {
                    let ladder = if tiers == Tiers::Ladder {
                        "ladder3/"
                    } else {
                        ""
                    };
                    jobs.push(Job {
                        label: format!("{ladder}{}/{}", policy.name(), scenario.name()),
                        tiers,
                        config: config.clone(),
                        settings: RunSettings::new(policy, trace.max_qps()),
                        scenario: Some(scenario.clone()),
                        arrivals: arrivals.clone(),
                        horizon,
                    });
                }
            }
            jobs
        }
    }
}

/// What one job's session returned.
#[derive(Debug)]
pub struct JobRun {
    /// Ticket ids in submission (= arrival) order.
    pub tickets: Vec<u64>,
    /// Every outcome polled, in poll order.
    pub outcomes: Vec<QueryOutcome>,
    /// The final report.
    pub report: RunReport,
    /// Wall seconds spent building the session.
    pub build_s: f64,
    /// Wall seconds from the first submit to the end of `finish()`.
    pub serve_s: f64,
}

/// The prompt an arrival is served with.
pub fn prompt(runtime: &CascadeRuntime, a: &Arrival) -> Prompt {
    runtime.dataset.prompts()[a.prompt]
}

fn spec_for(runtime: &CascadeRuntime, a: &Arrival) -> QuerySpec {
    let mut spec = QuerySpec::new().at(a.due).prompt(prompt(runtime, a));
    if let Some(m) = a.addon {
        spec = spec.addon(m);
    }
    spec
}

/// Drives one job open loop: each control interval, submit the arrivals
/// due in it, advance the engine to its end, and poll. Spans go to
/// `spans` (a disabled recorder costs a branch per call).
pub fn drive(job: &Job, runtime: &CascadeRuntime, spans: &mut Spans) -> JobRun {
    let b0 = Instant::now();
    let mut builder = ServingSession::builder()
        .runtime(runtime)
        .config(job.config.clone())
        .settings(job.settings.clone());
    if let Some(s) = &job.scenario {
        builder = builder.scenario(s.clone());
    }
    let mut session = builder
        .build()
        .expect("benchmark jobs are valid configurations");
    let build_s = b0.elapsed().as_secs_f64();
    let step = job.config.control_interval;
    let end = SimTime::ZERO + job.horizon;
    let mut tickets = Vec::with_capacity(job.arrivals.len());
    let mut outcomes = Vec::with_capacity(job.arrivals.len());
    let mut t = SimTime::ZERO;
    let mut tick = 0u64;
    let s0 = Instant::now();
    let root = spans.open("serve.session", None, 0);
    while t < end {
        let until = (t + step).min(end);
        let sub = spans.open("serve.submit", Some(root), tick);
        let first = tickets.len();
        while let Some(a) = job.arrivals.get(tickets.len()).filter(|a| a.due < until) {
            tickets.push(session.submit_spec(spec_for(runtime, a)).id.0);
        }
        spans.close_n(sub, (tickets.len() - first) as u64);
        let run = spans.open("serve.step", Some(root), tick);
        session.run_until(until);
        spans.close(run);
        let poll = spans.open("serve.poll", Some(root), tick);
        let got = session.poll();
        spans.close_n(poll, got.len() as u64);
        outcomes.extend(got);
        t = until;
        tick += 1;
    }
    let fin = spans.open("serve.finish", Some(root), tick);
    let report = session.finish();
    spans.close(fin);
    spans.close_n(root, tickets.len() as u64);
    JobRun {
        tickets,
        outcomes,
        report,
        build_s,
        serve_s: s0.elapsed().as_secs_f64(),
    }
}
