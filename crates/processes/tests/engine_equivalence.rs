//! Cross-engine checks for the foundational processes: the batched engine's
//! silence-time distributions must match the specialized samplers, which are
//! themselves validated against the paper's closed forms.

use ppsim::prelude::*;
use processes::{
    simulate_epidemic_interactions, simulate_fratricide_interactions,
    simulate_roll_call_interactions, Coupon, CouponState, Epidemic, EpidemicState, Fratricide,
    LeaderState, RollCall,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const BUDGET: u64 = u64::MAX >> 8;

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[test]
fn batched_epidemic_matches_the_specialized_sampler() {
    let n = 150;
    let trials = 200;
    let plan = TrialPlan::new(trials, 5);
    // The epidemic becomes silent exactly when everyone is infected, so the
    // batched silence time samples T_n.
    let batched = run_trials(&plan, |_, seed| {
        let protocol = Epidemic::new(n);
        let config = protocol.single_source_configuration();
        let mut sim = BatchedSimulation::new(protocol, &config, seed);
        assert!(sim.run_until_silent(BUDGET).is_silent());
        assert_eq!(sim.count_of(&EpidemicState::Infected), n as u64);
        sim.interactions().count() as f64
    });
    let specialized = run_trials(&plan, |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xEE11D);
        simulate_epidemic_interactions(n, 1, &mut rng) as f64
    });
    let (mb, ms) = (mean(&batched), mean(&specialized));
    let relative_gap = (mb - ms).abs() / ms;
    assert!(relative_gap < 0.08, "batched mean {mb:.0} vs specialized mean {ms:.0}");
}

#[test]
fn batched_fratricide_matches_the_specialized_sampler() {
    let n = 120;
    let trials = 200;
    let plan = TrialPlan::new(trials, 8);
    let batched = run_trials(&plan, |_, seed| {
        let protocol = Fratricide::new(n);
        let config = protocol.all_leaders_configuration();
        let mut sim = BatchedSimulation::new(protocol, &config, seed);
        assert!(sim.run_until_silent(BUDGET).is_silent());
        assert_eq!(sim.count_of(&LeaderState::Leader), 1);
        sim.interactions().count() as f64
    });
    let specialized = run_trials(&plan, |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF8A7);
        simulate_fratricide_interactions(n, n, &mut rng) as f64
    });
    let (mb, ms) = (mean(&batched), mean(&specialized));
    let relative_gap = (mb - ms).abs() / ms;
    assert!(relative_gap < 0.08, "batched mean {mb:.0} vs specialized mean {ms:.0}");
}

/// The batch-count mode on the few-state processes — the regime it was built
/// for, where per-cell multiplicities are large and whole bundles of
/// identical transitions are applied per epoch. Its silence-time
/// distributions must still match the specialized samplers (which validate
/// the paper's closed forms), on both the enumerated and interned backends.
#[test]
fn batchcount_matches_the_specialized_samplers() {
    let trials = 200;

    // Epidemic T_n: silence = everyone infected.
    let n = 150;
    let plan = TrialPlan::new(trials, 5);
    let batchcount = run_trials(&plan, |_, seed| {
        let protocol = Epidemic::new(n);
        let config = protocol.single_source_configuration();
        let mut sim = BatchedSimulation::new(protocol, &config, seed)
            .with_sampling_mode(SamplingMode::BatchCount);
        assert!(sim.run_until_silent(BUDGET).is_silent());
        assert_eq!(sim.count_of(&EpidemicState::Infected), n as u64);
        assert!(
            sim.counters().get(Counter::EpochsOpened) > 0,
            "n = 150 must engage the epoch path"
        );
        sim.interactions().count() as f64
    });
    let specialized = run_trials(&plan, |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xEE11D);
        simulate_epidemic_interactions(n, 1, &mut rng) as f64
    });
    let (mb, ms) = (mean(&batchcount), mean(&specialized));
    assert!(
        (mb - ms).abs() / ms < 0.08,
        "epidemic: batchcount mean {mb:.0} vs specialized mean {ms:.0}"
    );

    // Fratricide from all leaders: silence = one leader left.
    let n = 120;
    let plan = TrialPlan::new(trials, 8);
    let batchcount = run_trials(&plan, |_, seed| {
        let protocol = Fratricide::new(n);
        let config = protocol.all_leaders_configuration();
        let mut sim = BatchedSimulation::new(protocol, &config, seed)
            .with_sampling_mode(SamplingMode::BatchCount);
        assert!(sim.run_until_silent(BUDGET).is_silent());
        assert_eq!(sim.count_of(&LeaderState::Leader), 1);
        sim.interactions().count() as f64
    });
    let specialized = run_trials(&plan, |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF8A7);
        simulate_fratricide_interactions(n, n, &mut rng) as f64
    });
    let (mb, ms) = (mean(&batchcount), mean(&specialized));
    assert!(
        (mb - ms).abs() / ms < 0.08,
        "fratricide: batchcount mean {mb:.0} vs specialized mean {ms:.0}"
    );
}

#[test]
fn batched_and_exact_epidemic_agree_per_seed_on_the_verdict() {
    // Both engines must (a) report non-silence from a single source, (b)
    // silence after completion, and (c) produce the all-infected multiset.
    for seed in 0..10 {
        let protocol = Epidemic::new(40);
        let init = protocol.single_source_configuration();
        let exact = RunSpec::new(protocol)
            .engine(Engine::Exact)
            .budget(BUDGET)
            .init(init.clone())
            .seed(seed)
            .run_one()
            .unwrap();
        let batched = RunSpec::new(protocol)
            .engine(Engine::Batched)
            .budget(BUDGET)
            .init(init)
            .seed(seed)
            .run_one()
            .unwrap();
        assert_eq!(exact.outcome.reason, batched.outcome.reason);
        assert!(Epidemic::is_complete(&exact.final_config));
        assert!(Epidemic::is_complete(&batched.final_config));
    }
}

#[test]
fn epidemic_backends_agree_across_scenario_families() {
    // The indexed and present routes must report the same non-null
    // pair weight and silence verdict on matching configurations from every
    // seeded-epidemic corner case, for many (n, seed) pairs.
    for n in [2usize, 3, 17, 64] {
        for seed in 0..8 {
            for scenario in Epidemic::adversarial_scenarios() {
                let protocol = Epidemic::new(n);
                let init = scenario.configuration(&protocol, seed);
                let indexed = BatchedSimulation::new(protocol, &init, seed);
                let dense = BatchedSimulation::new(ForceDense(protocol), &init, seed);
                assert_eq!(
                    indexed.active_pairs(),
                    dense.active_pairs(),
                    "scenario {} n={n} seed={seed}",
                    scenario.name()
                );
                assert_eq!(indexed.is_silent(), dense.is_silent());
                // Both backends silence into the all-infected multiset.
                let mut indexed = indexed;
                let mut dense = dense;
                assert!(indexed.run_until_silent(BUDGET).is_silent());
                assert!(dense.run_until_silent(BUDGET).is_silent());
                assert_eq!(indexed.count_of(&EpidemicState::Infected), n as u64);
                assert_eq!(dense.count_of(&EpidemicState::Infected), n as u64);
            }
        }
    }
}

#[test]
fn coupon_backends_agree_across_scenario_families() {
    for n in [2usize, 5, 33] {
        for seed in 0..8 {
            for scenario in Coupon::adversarial_scenarios() {
                let protocol = Coupon::new(n);
                let init = scenario.configuration(&protocol, seed);
                let indexed = BatchedSimulation::new(protocol, &init, seed);
                let dense = BatchedSimulation::new(ForceDense(protocol), &init, seed);
                assert_eq!(
                    indexed.active_pairs(),
                    dense.active_pairs(),
                    "scenario {} n={n} seed={seed}",
                    scenario.name()
                );
                assert_eq!(indexed.is_silent(), dense.is_silent());
                let mut indexed = indexed;
                let mut dense = dense;
                assert!(indexed.run_until_silent(BUDGET).is_silent());
                assert!(dense.run_until_silent(BUDGET).is_silent());
                assert_eq!(indexed.count_of(&CouponState::Fresh), 0);
                assert_eq!(dense.count_of(&CouponState::Fresh), 0);
            }
        }
    }
}

#[test]
fn roll_call_engines_agree_per_seed_on_the_verdict() {
    // Roll call's roster states cannot be enumerated up front, so the
    // batched route goes through the interned backend. Both engines must
    // report non-silence from the canonical start, silence after completion,
    // and the all-full-roster multiset.
    for seed in 0..10 {
        let protocol = RollCall::new(24);
        let init = protocol.initial_configuration();
        let exact = RunSpec::new(protocol)
            .engine(Engine::Exact)
            .budget(BUDGET)
            .init(init.clone())
            .seed(seed)
            .run_one()
            .unwrap();
        let interned = RunSpec::new(protocol)
            .engine(Engine::Batched)
            .budget(BUDGET)
            .init(init)
            .seed(seed)
            .run_one()
            .unwrap();
        assert_eq!(exact.outcome.reason, interned.outcome.reason);
        assert!(exact.outcome.is_silent());
        assert!(RollCall::is_complete(&exact.final_config));
        assert!(RollCall::is_complete(&interned.final_config));
        // Silence is reported at the completing interaction, which needs at
        // least enough interactions for every agent to have spoken once.
        assert!(exact.outcome.interactions.count() >= 12);
        assert!(interned.outcome.interactions.count() >= 12);
    }
}

#[test]
fn roll_call_silence_times_match_the_specialized_sampler_on_both_engines() {
    // The engines' silence times and the specialized sampler's completion
    // count all sample R_n (Lemma 2.9); compare the three means pairwise.
    let n = 60;
    let trials = 120;
    let plan = TrialPlan::new(trials, 77);
    let engine_times = |engine: Engine, salt: u64| {
        run_trials(&plan, |_, seed| {
            let protocol = RollCall::new(n);
            let report = RunSpec::new(protocol)
                .engine(engine)
                .budget(BUDGET)
                .init(protocol.initial_configuration())
                .seed(seed ^ salt)
                .run_one()
                .unwrap();
            assert!(report.outcome.is_silent());
            report.outcome.interactions.count() as f64
        })
    };
    let exact = engine_times(Engine::Exact, 0x1111);
    let interned = engine_times(Engine::Batched, 0x2222);
    let batchcount = engine_times(Engine::BatchedCounts, 0x4444);
    let specialized = run_trials(&plan, |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3333);
        simulate_roll_call_interactions(n, &mut rng) as f64
    });
    let ms = mean(&specialized);
    for (label, m) in [
        ("exact", mean(&exact)),
        ("interned", mean(&interned)),
        ("interned batchcount", mean(&batchcount)),
    ] {
        let relative_gap = (m - ms).abs() / ms;
        assert!(relative_gap < 0.08, "{label} mean {m:.0} vs specialized mean {ms:.0}");
    }
}

#[test]
fn batched_coupon_collector_requires_at_least_half_n_interactions() {
    // The deterministic lower bound holds per-run, not just in expectation:
    // each interaction touches two agents.
    for seed in 0..20 {
        let n = 64;
        let protocol = Coupon::new(n);
        let config = protocol.all_fresh_configuration();
        let mut sim = BatchedSimulation::new(protocol, &config, seed);
        assert!(sim.run_until_silent(BUDGET).is_silent());
        assert_eq!(sim.count_of(&CouponState::Collected), n as u64);
        assert!(sim.interactions().count() >= n as u64 / 2);
    }
}
