//! Golden-report fingerprints for the nine standard scenarios, an
//! add-on-serving golden on a 64-worker fleet that pins affinity routing,
//! and a FID golden that pins the per-tier FIDs and the live rolling-FID
//! estimate every observer tap sees, on the two-tier cascade and on the
//! three-tier ladder.
//!
//! The discrete-event simulator promises bit-determinism, and this PR's
//! arena refactor of its hot paths must not move a single bit of any
//! report. These fingerprints were captured immediately *before* the
//! refactor (and after the health-weighted JSQ fix, which they therefore
//! include); the tests prove every later change to the dispatch path is
//! behavior-preserving.
//!
//! Regenerating (only when a PR *intends* to change simulator behavior):
//! `cargo test --release --test golden_reports -- --ignored --nocapture`
//! prints the current table; paste it over `EXPECTED`.

use diffserve::prelude::*;
use diffserve_simkit::time::{SimDuration, SimTime};
use std::sync::OnceLock;

fn runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            1500,
            2024,
            DiscriminatorConfig {
                train_prompts: 500,
                epochs: 10,
                ..Default::default()
            },
        )
    })
}

fn system() -> SystemConfig {
    SystemConfig {
        num_workers: 8,
        ..Default::default()
    }
}

fn scenarios() -> Vec<Scenario> {
    let base = Trace::constant(6.0, SimDuration::from_secs(90)).unwrap();
    standard_scenarios(&base, system().num_workers)
}

/// FNV-1a over every aggregate and every series of a [`RunReport`], floats
/// by bit pattern. Two reports with equal fingerprints are (for practical
/// purposes) bit-identical to downstream analysis.
fn fingerprint(report: &RunReport) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    eat(&mut h, report.total_queries);
    eat(&mut h, report.completed);
    eat(&mut h, report.dropped);
    eat(&mut h, report.late);
    eat(&mut h, report.violation_ratio.to_bits());
    eat(&mut h, report.mean_latency.to_bits());
    eat(&mut h, report.fid.to_bits());
    eat(&mut h, report.mean_windowed_fid.to_bits());
    eat(&mut h, report.heavy_fraction.to_bits());
    for series in [
        &report.fid_series,
        &report.violation_series,
        &report.demand_series,
        &report.threshold_series,
        &report.deferral_error_series,
    ] {
        eat(&mut h, series.len() as u64);
        for &(t, v) in series {
            eat(&mut h, t.to_bits());
            eat(&mut h, v.to_bits());
        }
    }
    eat(&mut h, report.incident_log.len() as u64);
    for incident in &report.incident_log {
        eat(&mut h, incident.at.as_secs_f64().to_bits());
        // Debug formatting of f64 round-trips exactly, so the encoded
        // event is a faithful stand-in for its bits.
        for b in format!("{:?}", incident.event).bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

/// [`fingerprint`] extended with the stage-level-serving aggregates. The
/// legacy fingerprint stays byte-for-byte what it was (so the restart-mode
/// goldens never move); staged-mode runs pin the new fields too.
fn fingerprint_staged(report: &RunReport) -> u64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h = fingerprint(report);
    eat(&mut h, report.resumed_queries);
    eat(&mut h, report.mean_reused_steps.to_bits());
    eat(&mut h, report.mean_heavy_latency.to_bits());
    eat(&mut h, report.gpu_time_per_query.to_bits());
    h
}

fn run(scenario: &Scenario) -> RunReport {
    let peak = scenario.effective_trace().max_qps();
    run_scenario(
        runtime(),
        &system(),
        &RunSettings::new(Policy::DiffServe, peak),
        scenario,
    )
}

fn run_staged(scenario: &Scenario) -> RunReport {
    let peak = scenario.effective_trace().max_qps();
    let mut sys = system();
    sys.resume_from_latents = true;
    run_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServe, peak),
        scenario,
    )
}

/// Captured fingerprints, one per standard scenario, in
/// [`standard_scenarios`] order.
const EXPECTED: [(&str, u64); 9] = [
    ("steady", 0xd8ed52b884601f25),
    ("flash-crowd", 0xe76c0f0d1a9c20a0),
    ("worker-failure", 0x9261ecf885adb356),
    ("double-failure", 0x06f6ae7f4757288e),
    ("cascading-failure", 0xe13991380b2bb5dd),
    ("demand-shock", 0xbe9a6df3f0c0dee6),
    ("hard-prompts", 0x05f52f29b6e485b5),
    ("brownout", 0x6f7dd204e407548a),
    ("load-correlated-cascade", 0x1ea72e005de39ea8),
];

/// Every standard scenario's report must match its pre-refactor golden
/// fingerprint bit for bit.
#[test]
fn standard_scenario_reports_match_goldens() {
    for (scenario, &(name, expected)) in scenarios().iter().zip(EXPECTED.iter()) {
        assert_eq!(scenario.name(), name, "scenario order drifted");
        let got = fingerprint(&run(scenario));
        assert_eq!(
            got, expected,
            "{name}: report fingerprint {got:#018x} != golden {expected:#018x} — \
             the simulator's behavior changed; if intentional, regenerate with \
             `cargo test --release --test golden_reports -- --ignored --nocapture`"
        );
    }
}

/// Captured fingerprints for the same nine scenarios with stage-level
/// serving enabled (`resume_from_latents = true`), hashed with
/// [`fingerprint_staged`] so the resume aggregates are pinned too.
const EXPECTED_RESUME: [(&str, u64); 9] = [
    ("steady", 0x8b183ab52f05225a),
    ("flash-crowd", 0xff5f84b3aeec2ddd),
    ("worker-failure", 0xc4bf129c1415bdf3),
    ("double-failure", 0x627876e12f72fe7a),
    ("cascading-failure", 0x14691d2c085a13a7),
    ("demand-shock", 0x6ab5f40fbaf78b5f),
    ("hard-prompts", 0x3a30f2ca978fe412),
    ("brownout", 0x01e5301ca4f6e5b4),
    ("load-correlated-cascade", 0xd2ac06480b0cb2b3),
];

/// Staged-mode runs are just as deterministic as restart-mode runs: every
/// standard scenario with resume enabled must match its golden fingerprint
/// bit for bit, resume aggregates included.
#[test]
fn staged_scenario_reports_match_goldens() {
    for (scenario, &(name, expected)) in scenarios().iter().zip(EXPECTED_RESUME.iter()) {
        assert_eq!(scenario.name(), name, "scenario order drifted");
        let report = run_staged(scenario);
        let got = fingerprint_staged(&report);
        assert_eq!(
            got, expected,
            "{name}: staged report fingerprint {got:#018x} != golden {expected:#018x} — \
             the resume path's behavior changed; if intentional, regenerate with \
             `cargo test --release --test golden_reports -- --ignored --nocapture`"
        );
    }
}

/// Fleet size of the add-on golden: large enough that idle workers tie on
/// load, the affinity scan can stop early, and fail-stops hit some tiers.
const ADDON_WORKERS: usize = 64;

fn addons_system() -> SystemConfig {
    SystemConfig {
        num_workers: ADDON_WORKERS,
        addons: Some(AddonsConfig::demo(2024)),
        ..Default::default()
    }
}

fn addons_scenarios() -> Vec<Scenario> {
    let base = Trace::constant(40.0, SimDuration::from_secs(60)).unwrap();
    standard_scenarios(&base, ADDON_WORKERS)
}

/// [`fingerprint`] extended with the add-on cache accounting, so a changed
/// affinity pick shows even where it leaves the latency aggregates alone.
fn fingerprint_addons(report: &RunReport) -> u64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h = fingerprint(report);
    let stats = &report.addon_stats;
    for slot in 0..2 {
        eat(&mut h, stats.hits[slot]);
        eat(&mut h, stats.misses[slot]);
        eat(&mut h, stats.swap_secs[slot].to_bits());
    }
    h
}

fn run_addons(policy: Policy, scenario: &Scenario) -> RunReport {
    let peak = scenario.effective_trace().max_qps();
    run_scenario(
        runtime(),
        &addons_system(),
        &RunSettings::new(policy, peak),
        scenario,
    )
}

/// The policies the add-on golden serves under. DiffServe's allocations
/// keep every tier staffed; Proteus's random tier split also sends add-on
/// queries to tiers with no primaries, so its runs take the pending-switch
/// and whole-fleet affinity fallbacks.
const ADDON_POLICIES: [Policy; 2] = [Policy::DiffServe, Policy::Proteus];

/// Every `(policy, scenario)` pair of the add-on golden, in
/// [`ADDON_POLICIES`] × [`standard_scenarios`] order.
fn addon_cases() -> Vec<(Policy, Scenario)> {
    ADDON_POLICIES
        .iter()
        .flat_map(|&p| addons_scenarios().into_iter().map(move |s| (p, s)))
        .collect()
}

/// Captured fingerprints of the nine standard scenarios served with the
/// demo add-on mix on [`ADDON_WORKERS`] workers under each of
/// [`ADDON_POLICIES`], hashed with [`fingerprint_addons`].
const EXPECTED_ADDONS: [(&str, &str, u64); 18] = [
    ("DiffServe", "steady", 0x16d8df466f73d030),
    ("DiffServe", "flash-crowd", 0xc595954e93bf13a7),
    ("DiffServe", "worker-failure", 0xd303f992b53fd6cf),
    ("DiffServe", "double-failure", 0x733426718e4ac5b8),
    ("DiffServe", "cascading-failure", 0x1f034c56dfb35f88),
    ("DiffServe", "demand-shock", 0x95d4837100a0c42d),
    ("DiffServe", "hard-prompts", 0x22f3b0a85114fb84),
    ("DiffServe", "brownout", 0x242545cb93a998c7),
    ("DiffServe", "load-correlated-cascade", 0xc4aa61cb507fcab5),
    ("Proteus", "steady", 0x3f8979b0ab9aa172),
    ("Proteus", "flash-crowd", 0x3b8ece59c1b806f0),
    ("Proteus", "worker-failure", 0x0945ff1a6769b05d),
    ("Proteus", "double-failure", 0x1a9f3e5eed0c949e),
    ("Proteus", "cascading-failure", 0xaf95570f968f0066),
    ("Proteus", "demand-shock", 0x3087a980e2ab997d),
    ("Proteus", "hard-prompts", 0x3fbac9f5b0b3f17c),
    ("Proteus", "brownout", 0xd8614032ea1edebe),
    ("Proteus", "load-correlated-cascade", 0x559cedcf3f4e5ee8),
];

/// Add-on serving is as deterministic as plain serving: every standard
/// scenario on the add-on fleet must match its golden fingerprint bit for
/// bit, cache hits, misses and swap seconds included.
#[test]
fn addon_scenario_reports_match_goldens() {
    let cases = addon_cases();
    assert_eq!(cases.len(), EXPECTED_ADDONS.len());
    for ((policy, scenario), &(pname, name, expected)) in cases.iter().zip(EXPECTED_ADDONS.iter()) {
        assert_eq!(
            (policy.name(), scenario.name()),
            (pname, name),
            "case order drifted"
        );
        let report = run_addons(*policy, scenario);
        assert!(
            report.addon_stats.total_lookups() > 0,
            "{pname}/{name}: the mix must attach add-ons"
        );
        let got = fingerprint_addons(&report);
        assert_eq!(
            got, expected,
            "{pname}/{name}: add-on report fingerprint {got:#018x} != golden {expected:#018x} — \
             affinity routing or cache accounting changed; if intentional, regenerate \
             with `cargo test --release --test golden_reports -- --ignored --nocapture`"
        );
    }
}

/// The three-tier `ladder3` runtime, trained like [`runtime`].
fn ladder3_runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare_ladder(
            ladder3(FeatureSpec::default()),
            1500,
            2024,
            DiscriminatorConfig {
                train_prompts: 500,
                epochs: 10,
                ..Default::default()
            },
        )
    })
}

/// The standard scenarios the FID golden serves: a steady run, a fail-stop
/// and a difficulty shift.
const FID_SCENARIOS: [&str; 3] = ["steady", "worker-failure", "hard-prompts"];

/// Every `(ladder?, scenario)` case of the FID golden: the cascade first,
/// then the ladder, each over [`FID_SCENARIOS`].
fn fid_cases() -> Vec<(bool, Scenario)> {
    [false, true]
        .into_iter()
        .flat_map(|ladder| {
            scenarios()
                .into_iter()
                .filter(|s| FID_SCENARIOS.contains(&s.name()))
                .map(move |s| (ladder, s))
        })
        .collect()
}

/// Serves one FID-golden case through a session with an observer attached
/// and hashes what the report fingerprints leave out: the bits of every
/// `fid_estimate` the observer taps see, then each tier's completions, FID,
/// escalated-past count and mean latency from `tier_breakdown`.
fn fingerprint_fid(ladder: bool, scenario: &Scenario) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let (rt, config) = if ladder {
        let config = SystemConfig {
            ladder: Some(LadderConfig::default()),
            ..system()
        };
        (ladder3_runtime(), config)
    } else {
        (runtime(), system())
    };
    let trace = scenario.effective_trace();
    let horizon = SimTime::ZERO + trace.duration() + config.slo * 4;
    let mut taps: Vec<u64> = Vec::new();
    let mut session = ServingSession::builder()
        .runtime(rt)
        .config(config)
        .settings(RunSettings::new(Policy::DiffServe, trace.max_qps()))
        .scenario(scenario.clone())
        .build()
        .expect("valid session");
    session.observer(|snap| taps.push(snap.fid_estimate.to_bits()));
    session.replay_trace(&trace);
    session.run_until(horizon);
    let report = session.finish();
    assert!(
        taps.iter().any(|&bits| f64::from_bits(bits).is_finite()),
        "{}: the rolling estimate must warm up",
        scenario.name()
    );
    assert_eq!(report.tier_breakdown.len(), if ladder { 3 } else { 2 });

    let mut h = OFFSET;
    eat(&mut h, taps.len() as u64);
    for bits in taps {
        eat(&mut h, bits);
    }
    eat(&mut h, report.tier_breakdown.len() as u64);
    for tier in &report.tier_breakdown {
        eat(&mut h, tier.completions);
        eat(&mut h, tier.fid.to_bits());
        eat(&mut h, tier.escalated_past);
        eat(&mut h, tier.mean_latency.to_bits());
    }
    h
}

/// Captured [`fingerprint_fid`] values, in [`fid_cases`] order.
const EXPECTED_FID: [(&str, &str, u64); 6] = [
    ("cascade1", "steady", 0x0a14901cc2966d75),
    ("cascade1", "worker-failure", 0x82163ca45ae9cbcb),
    ("cascade1", "hard-prompts", 0x7c03ba8cb936d853),
    ("ladder3", "steady", 0xee21bfaf3bc33a93),
    ("ladder3", "worker-failure", 0x80800a3bc47ed959),
    ("ladder3", "hard-prompts", 0x4da2f20262e3c398),
];

fn tiers_name(ladder: bool) -> &'static str {
    if ladder {
        "ladder3"
    } else {
        "cascade1"
    }
}

/// The per-tier FIDs and the stream of live rolling-FID estimates match
/// their goldens bit for bit, on the cascade and on the ladder.
#[test]
fn tier_fid_and_fid_estimate_taps_match_goldens() {
    let cases = fid_cases();
    assert_eq!(cases.len(), EXPECTED_FID.len());
    for ((ladder, scenario), &(tiers, name, expected)) in cases.iter().zip(EXPECTED_FID.iter()) {
        assert_eq!(
            (tiers_name(*ladder), scenario.name()),
            (tiers, name),
            "case order drifted"
        );
        let got = fingerprint_fid(*ladder, scenario);
        assert_eq!(
            got, expected,
            "{tiers}/{name}: FID fingerprint {got:#018x} != golden {expected:#018x} — \
             the tier breakdown or the rolling FID estimate changed; if intentional, regenerate \
             with `cargo test --release --test golden_reports -- --ignored --nocapture`"
        );
    }
}

/// Prints the current fingerprint tables for pasting into `EXPECTED`,
/// `EXPECTED_RESUME`, `EXPECTED_ADDONS` and `EXPECTED_FID`.
#[test]
#[ignore = "generator, not a check — run with --ignored --nocapture"]
fn print_current_fingerprints() {
    println!("EXPECTED:");
    for scenario in scenarios() {
        println!(
            "    (\"{}\", {:#018x}),",
            scenario.name(),
            fingerprint(&run(&scenario))
        );
    }
    println!("EXPECTED_RESUME:");
    for scenario in scenarios() {
        println!(
            "    (\"{}\", {:#018x}),",
            scenario.name(),
            fingerprint_staged(&run_staged(&scenario))
        );
    }
    println!("EXPECTED_ADDONS:");
    for (policy, scenario) in addon_cases() {
        println!(
            "    (\"{}\", \"{}\", {:#018x}),",
            policy.name(),
            scenario.name(),
            fingerprint_addons(&run_addons(policy, &scenario))
        );
    }
    println!("EXPECTED_FID:");
    for (ladder, scenario) in fid_cases() {
        println!(
            "    (\"{}\", \"{}\", {:#018x}),",
            tiers_name(ladder),
            scenario.name(),
            fingerprint_fid(ladder, &scenario)
        );
    }
}
