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
        assert_eq!(report.churn.len(), 2);
        assert!(protocol.is_correctly_ranked(&report.final_config));
    }
}
