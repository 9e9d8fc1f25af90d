//! Cross-crate acceptance tests for the pluggable interaction-scheduler
//! layer.
//!
//! Three claims are pinned here, matching the layer's contract:
//!
//! 1. **The `Uniform` strategy is trajectory-preserving.** Extracting the
//!    hard-wired uniform pair draw into a strategy object must not move a
//!    single sample on any engine: the silence times below were captured on
//!    the pre-refactor engines (seed for seed) and the scheduled runs must
//!    reproduce them exactly.
//! 2. **`WeightedPairs` simulates one law on every backend.** The exact
//!    per-agent engine, the count engine's indexed and present routes on
//!    an enumerated index, and its present route on the interned index
//!    consume randomness differently, so their per-seed trajectories
//!    differ — but the silence *distributions* must agree, checked on
//!    means within the repo's 1.5·t·SE allowance at n ∈ {8, 32, 128}.
//! 3. **The weighted model checker predicts the weighted engines.** The
//!    Gauss–Seidel solver under a pair measure must match 200-trial
//!    count-engine means at n ∈ {2, 3, 4} within 1.5·t·SE.

use analysis::t_quantile_975;
use processes::LeaderState;
use ssle_pp::prelude::*;

const BUDGET: u64 = u64::MAX >> 8;

/// Pre-refactor silence times (interactions) of `Fratricide::new(n)` from
/// the all-leaders configuration, captured on the engines before the
/// scheduler layer existed. Seeds are `[3, 7, 11, 42]`.
const FRAT_PINS: &[(usize, &str, [u64; 4])] = &[
    (12, "exact", [83, 115, 183, 108]),
    (12, "batched", [84, 81, 59, 147]),
    (12, "batchcount", [84, 81, 59, 147]),
    (12, "interned", [89, 177, 221, 173]),
    (40, "exact", [645, 1047, 1571, 1630]),
    (40, "batched", [527, 1701, 1201, 1385]),
    (40, "batchcount", [1646, 1639, 1059, 1540]),
    (40, "interned", [1678, 2873, 1740, 862]),
];

/// Pre-refactor silence times of `SilentNStateSsr::new(16)` from the
/// all-same-rank configuration; seeds are `[3, 7, 11]`.
const SSR_PINS: &[(&str, [u64; 3])] = &[
    ("exact", [1775, 2149, 1948]),
    ("batched", [2132, 2066, 1825]),
    ("batchcount", [2132, 2066, 1825]),
];

fn engine_by_label(label: &str) -> Engine {
    match label {
        "exact" => Engine::Exact,
        "batched" => Engine::Batched,
        "batchcount" => Engine::BatchedCounts,
        other => panic!("unknown engine label {other}"),
    }
}

#[test]
fn uniform_scheduler_is_trajectory_preserving_on_every_engine() {
    let seeds = [3u64, 7, 11, 42];
    for &(n, label, pins) in FRAT_PINS {
        let frat = Fratricide::new(n);
        let init = frat.all_leaders_configuration();
        for (seed, pin) in seeds.iter().zip(pins) {
            let report = if label == "interned" {
                RunSpec::new(AsInterned(frat))
                    .engine(Engine::Batched)
                    .budget(BUDGET)
                    .init(init.clone())
                    .seed(*seed)
                    .run_one()
                    .unwrap()
            } else {
                RunSpec::new(frat)
                    .engine(engine_by_label(label))
                    .budget(BUDGET)
                    .init(init.clone())
                    .seed(*seed)
                    .run_one()
                    .unwrap()
            };
            assert!(report.outcome.is_silent());
            assert_eq!(
                report.outcome.interactions.count(),
                pin,
                "fratricide n={n} seed={seed} on {label}: scheduled run diverged \
                 from the pre-refactor trajectory"
            );
        }
    }
    for &(label, pins) in SSR_PINS {
        let protocol = SilentNStateSsr::new(16);
        let init = protocol.all_same_rank_configuration();
        for (seed, pin) in [3u64, 7, 11].iter().zip(pins) {
            let report = RunSpec::new(protocol)
                .engine(engine_by_label(label))
                .budget(BUDGET)
                .init(init.clone())
                .seed(*seed)
                .run_one()
                .unwrap();
            assert!(report.outcome.is_silent());
            assert_eq!(
                report.outcome.interactions.count(),
                pin,
                "ssr n=16 seed={seed} on {label}: the spec-driven run diverged from \
                 the pre-refactor trajectory"
            );
        }
    }
}

fn mean_and_se(samples: &[f64]) -> (f64, f64) {
    let summary = Summary::from_samples(samples);
    (summary.mean, summary.std_dev / (samples.len() as f64).sqrt())
}

/// Weighted fratricide: leaders meet at five times the baseline rate.
fn boosted_rates() -> PairRates<LeaderState> {
    PairRates::new(1).with_rate(LeaderState::Leader, LeaderState::Leader, 5)
}

#[test]
fn weighted_silence_distributions_agree_across_all_four_backends() {
    let scheduler = InteractionScheduler::WeightedPairs(boosted_rates());
    for (n, trials) in [(8usize, 80), (32, 48), (128, 24)] {
        let times = |backend: &str, base: u64| -> Vec<f64> {
            run_trials(&TrialPlan::new(trials, base), |_, seed| {
                let frat = Fratricide::new(n);
                let init = frat.all_leaders_configuration();
                let spec = |p| {
                    RunSpec::new(p)
                        .budget(BUDGET)
                        .scheduler(scheduler.clone())
                        .init(init.clone())
                        .seed(seed)
                };
                let outcome = match backend {
                    "exact" => spec(frat).run_one().unwrap().outcome,
                    "indexed" => spec(frat).engine(Engine::Batched).run_one().unwrap().outcome,
                    "dense" => {
                        let mut sim = BatchedSimulation::try_new_scheduled(
                            ForceDense(frat),
                            &init,
                            seed,
                            &scheduler,
                        )
                        .unwrap();
                        sim.run_until_silent(BUDGET)
                    }
                    "interned" => {
                        RunSpec::new(AsInterned(frat))
                            .engine(Engine::Batched)
                            .budget(BUDGET)
                            .scheduler(scheduler.clone())
                            .init(init.clone())
                            .seed(seed)
                            .run_one()
                            .unwrap()
                            .outcome
                    }
                    other => panic!("unknown backend {other}"),
                };
                assert!(outcome.is_silent());
                outcome.interactions.count() as f64 / n as f64
            })
        };
        let exact = times("exact", 211 + n as u64);
        let (me, se_e) = mean_and_se(&exact);
        for backend in ["indexed", "dense", "interned"] {
            let other = times(backend, 307 + n as u64);
            let (mb, se_b) = mean_and_se(&other);
            let combined = (se_e * se_e + se_b * se_b).sqrt();
            let allowance = 1.5 * t_quantile_975(trials - 1) * combined.max(1e-9);
            let gap = (me - mb).abs();
            assert!(
                gap <= allowance,
                "weighted fratricide n={n}: exact mean {me:.3} vs {backend} mean {mb:.3} \
                 (gap {gap:.3} > 1.5·t·SE allowance {allowance:.3})"
            );
        }
    }
}

#[test]
fn weighted_mcheck_predicts_count_engine_means_at_tiny_n() {
    let scheduler = InteractionScheduler::WeightedPairs(boosted_rates());
    let trials = 200usize;
    for n in [2usize, 3, 4] {
        let frat = Fratricide::new(n);
        let init = frat.all_leaders_configuration();
        let solved =
            expected_silence_time_scheduled(frat, &init, &scheduler, &MCheckOptions::default())
                .unwrap();
        let samples = run_trials(&TrialPlan::new(trials, 997 + n as u64), |_, seed| {
            let report = RunSpec::new(frat)
                .engine(Engine::Batched)
                .budget(BUDGET)
                .scheduler(scheduler.clone())
                .init(init.clone())
                .seed(seed)
                .run_one()
                .unwrap();
            assert!(report.outcome.is_silent());
            report.outcome.interactions.count() as f64
        });
        let (mean, se) = mean_and_se(&samples);
        let allowance = 1.5 * t_quantile_975(trials - 1) * se.max(1e-9);
        let gap = (mean - solved.expected_interactions).abs();
        assert!(
            gap <= allowance,
            "n={n}: weighted mcheck expects {:.4} interactions, 200-trial mean is {mean:.4} \
             (gap {gap:.4} > 1.5·t·SE allowance {allowance:.4})",
            solved.expected_interactions
        );
    }
}

#[test]
fn churn_recovery_composes_with_scenarios_across_crates() {
    // A full-stack drive: Silent-n-state-SSR on the batched engine, a churn
    // plan that replaces agents mid-run, and the protocol re-stabilizes into
    // a correct ranking after every event.
    let n = 12usize;
    let protocol = SilentNStateSsr::new(n);
    let plan = ChurnPlan::periodic(
        4_000,
        20_000,
        2,
        ChurnAction::Replace { count: 2, state: CorruptionTarget::Fixed(SilentRank(0)) },
    );
    let reports = run_trials(&TrialPlan::new(6, 41), |_, seed| {
        RunSpec::new(protocol)
            .engine(Engine::Batched)
            .budget(BUDGET)
            .init(protocol.all_same_rank_configuration())
            .seed(seed)
            .churn(plan.clone())
            .run_one()
            .unwrap()
    });
    for report in &reports {
        assert!(report.outcome.is_silent());
        assert_eq!(report.final_population(), n);
        assert_eq!(report.events.len(), 2);
        assert!(protocol.is_correctly_ranked(&report.final_config));
    }
}

/// One fired perturbation as `(at, corrupted, joined, departed,
/// population_after, restabilization)`.
type EventPin = (u64, usize, usize, usize, usize, Option<u64>);

/// Agents corrupted per fault burst in the perturbed pins.
const BURST: usize = 5;

/// Perturbed `Fratricide::new(30)` runs from the all-leaders configuration
/// at seed 5, one row per `(plans, engine)`: the final interaction count,
/// the final population, and every fired event. Captured before faults and
/// churn shared one driver, so the merge order, the engine-side victim and
/// departure draws, and the per-event silence bookkeeping are all pinned.
#[rustfmt::skip]
const PERTURBED_PINS: &[(&str, &str, u64, usize, &[EventPin])] = &[
    ("faults", "exact", 8768, 30, &[
        (2000, 5, 0, 0, 30, Some(473)),
        (5000, 5, 0, 0, 30, Some(232)),
        (8000, 5, 0, 0, 30, Some(768)),
    ]),
    ("faults", "batched", 8348, 30, &[
        (2000, 5, 0, 0, 30, Some(1264)),
        (5000, 5, 0, 0, 30, Some(603)),
        (8000, 5, 0, 0, 30, Some(348)),
    ]),
    ("faults", "batchcount", 8348, 30, &[
        (2000, 5, 0, 0, 30, Some(1264)),
        (5000, 5, 0, 0, 30, Some(603)),
        (8000, 5, 0, 0, 30, Some(348)),
    ]),
    ("faults", "interned", 8392, 30, &[
        (2000, 5, 0, 0, 30, Some(332)),
        (5000, 5, 0, 0, 30, Some(938)),
        (8000, 5, 0, 0, 30, Some(392)),
    ]),
    ("churn", "exact", 8722, 30, &[
        (2000, 0, 4, 4, 30, Some(435)),
        (5000, 0, 4, 4, 30, Some(1132)),
        (8000, 0, 4, 4, 30, Some(722)),
    ]),
    ("churn", "batched", 8148, 30, &[
        (2000, 0, 4, 4, 30, Some(268)),
        (5000, 0, 4, 4, 30, Some(1895)),
        (8000, 0, 4, 4, 30, Some(148)),
    ]),
    ("churn", "batchcount", 8148, 30, &[
        (2000, 0, 4, 4, 30, Some(268)),
        (5000, 0, 4, 4, 30, Some(1895)),
        (8000, 0, 4, 4, 30, Some(148)),
    ]),
    ("churn", "interned", 8656, 30, &[
        (2000, 0, 4, 4, 30, Some(319)),
        (5000, 0, 4, 4, 30, Some(908)),
        (8000, 0, 4, 4, 30, Some(656)),
    ]),
    ("both", "exact", 5807, 36, &[
        (2000, 0, 3, 0, 33, Some(435)),
        (5000, 5, 0, 0, 33, None),
        (5000, 0, 3, 0, 36, Some(807)),
    ]),
    ("both", "batched", 7408, 36, &[
        (2000, 0, 3, 0, 33, Some(560)),
        (5000, 5, 0, 0, 33, None),
        (5000, 0, 3, 0, 36, Some(2408)),
    ]),
    ("both", "batchcount", 8068, 36, &[
        (2000, 0, 3, 0, 33, Some(560)),
        (5000, 5, 0, 0, 33, None),
        (5000, 0, 3, 0, 36, Some(3068)),
    ]),
    ("both", "interned", 6525, 36, &[
        (2000, 0, 3, 0, 33, Some(891)),
        (5000, 5, 0, 0, 33, None),
        (5000, 0, 3, 0, 36, Some(1525)),
    ]),
];

/// The perturbed spec for `plans`: `"faults"` is a periodic fault plan,
/// `"churn"` a periodic `Replace` churn plan, and `"both"` a fault plan and
/// a churn plan that fire at one shared index (5 000).
fn perturbed_run<P>(protocol: P, engine: Engine, plans: &str) -> TrialReport<LeaderState>
where
    P: CountProtocol<State = LeaderState> + Clone + Sync,
{
    let leader = CorruptionTarget::Fixed(LeaderState::Leader);
    let spec = RunSpec::new(protocol)
        .engine(engine)
        .budget(BUDGET)
        .init(Configuration::uniform(LeaderState::Leader, 30))
        .seed(5);
    let spec = match plans {
        "faults" => spec.faults(FaultPlan::periodic(2_000, 3_000, 3, BURST, leader)),
        "churn" => spec.churn(ChurnPlan::periodic(
            2_000,
            3_000,
            3,
            ChurnAction::Replace { count: 4, state: leader },
        )),
        "both" => spec.faults(FaultPlan::one_shot(5_000, BURST, leader.clone())).churn(
            ChurnPlan::periodic(2_000, 3_000, 2, ChurnAction::Join { count: 3, state: leader }),
        ),
        other => panic!("unknown plan set {other}"),
    };
    spec.run_one().unwrap()
}

/// Every fired event of a perturbed run, in time order.
fn event_pins(report: &TrialReport<LeaderState>) -> Vec<EventPin> {
    report
        .events
        .iter()
        .map(|r| {
            let rest = r.restabilization.map(|i| i.count());
            (r.at.count(), r.corrupted, r.joined, r.departed, r.population_after, rest)
        })
        .collect()
}

#[test]
fn perturbed_runs_are_pinned_seed_for_seed_on_every_engine() {
    let frat = Fratricide::new(30);
    let mut rows = Vec::new();
    for plans in ["faults", "churn", "both"] {
        for label in ["exact", "batched", "batchcount", "interned"] {
            let report = if label == "interned" {
                perturbed_run(AsInterned(frat), Engine::Batched, plans)
            } else {
                perturbed_run(frat, engine_by_label(label), plans)
            };
            assert!(report.outcome.is_silent(), "{plans} on {label}");
            rows.push((
                plans,
                label,
                report.outcome.interactions.count(),
                report.final_population(),
                event_pins(&report),
            ));
        }
    }
    assert_eq!(rows.len(), PERTURBED_PINS.len());
    for (row, &(plans, label, interactions, population, events)) in rows.iter().zip(PERTURBED_PINS)
    {
        assert_eq!((row.0, row.1), (plans, label));
        assert_eq!(
            (row.2, row.3, row.4.as_slice()),
            (interactions, population, events),
            "{plans} on {label}: the perturbed trajectory moved"
        );
    }
}
