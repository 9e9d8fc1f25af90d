//! Property-based tests for the simulation substrate.

mod common;

use common::Spread;
use ppsim::prelude::*;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};

/// A protocol whose transition conserves the sum of all states: useful for
/// checking that the simulator applies transitions to exactly the scheduled
/// pair and nobody else.
#[derive(Clone, Copy, Debug)]
struct MassConserving {
    n: usize,
}

impl Protocol for MassConserving {
    type State = u64;
    fn population_size(&self) -> usize {
        self.n
    }
    fn transition(&self, a: &u64, b: &u64, _rng: &mut dyn RngCore) -> (u64, u64) {
        // Move one unit from the responder to the initiator when possible.
        if *b > 0 {
            (a + 1, b - 1)
        } else {
            (*a, *b)
        }
    }
    fn is_null(&self, _a: &u64, b: &u64) -> bool {
        *b == 0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulation_conserves_mass(
        n in 2usize..40,
        seed in any::<u64>(),
        steps in 0u64..2_000,
        initial in 0u64..100,
    ) {
        let protocol = MassConserving { n };
        let config = Configuration::uniform(initial, n);
        let total_before: u64 = config.iter().sum();
        let mut sim = Simulation::new(protocol, config, seed);
        sim.run_for(steps);
        let total_after: u64 = sim.configuration().iter().sum();
        prop_assert_eq!(total_before, total_after);
        prop_assert_eq!(sim.interactions().count(), steps);
    }

    #[test]
    fn identical_seeds_give_identical_executions(
        n in 2usize..30,
        seed in any::<u64>(),
        steps in 0u64..1_000,
    ) {
        let run = |seed| {
            let protocol = MassConserving { n };
            let mut sim = Simulation::new(protocol, Configuration::uniform(3u64, n), seed);
            sim.run_for(steps);
            sim.configuration().clone()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn scheduler_never_pairs_an_agent_with_itself(
        n in 2usize..50,
        seed in any::<u64>(),
    ) {
        let mut scheduler = Scheduler::new(n, seed);
        for _ in 0..500 {
            let pair = scheduler.next_pair();
            prop_assert_ne!(pair.initiator, pair.responder);
            prop_assert!(pair.initiator.index() < n);
            prop_assert!(pair.responder.index() < n);
        }
    }

    #[test]
    fn parallel_time_is_interactions_over_n(
        n in 2usize..100,
        steps in 0u64..10_000,
    ) {
        let t = Interactions::new(steps).to_parallel_time(n);
        prop_assert!((t.value() - steps as f64 / n as f64).abs() < 1e-9);
        prop_assert_eq!(t.to_interactions(n), Interactions::new(steps));
    }

    #[test]
    fn trial_seeds_are_deterministic_and_distinct(
        trials in 1usize..64,
        base in any::<u64>(),
    ) {
        let plan = TrialPlan::new(trials, base);
        let seeds: Vec<u64> = (0..trials).map(|i| plan.seed_for(i)).collect();
        let replay: Vec<u64> = (0..trials).map(|i| plan.seed_for(i)).collect();
        prop_assert_eq!(&seeds, &replay);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), trials);
    }

    #[test]
    fn run_trials_matches_sequential_for_pure_functions(
        trials in 0usize..32,
        base in any::<u64>(),
    ) {
        let plan = TrialPlan::new(trials, base).with_threads(4);
        let parallel = run_trials(&plan, |i, seed| seed ^ i as u64);
        let sequential = run_trials_sequential(trials, base, |i, seed| seed ^ i as u64);
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn state_counts_sum_to_population(
        states in proptest::collection::vec(0u8..5, 1..60),
    ) {
        let config = Configuration::from_states(states.clone());
        let counts = config.state_counts();
        let total: usize = counts.values().sum();
        prop_assert_eq!(total, states.len());
        for (state, count) in counts {
            prop_assert_eq!(states.iter().filter(|&&s| s == state).count(), count);
        }
    }

    // Fault injection preserves the engine invariants on every backend: the
    // population size never changes, the count tables stay non-negative and
    // sum to n, and the interned engine's incrementally maintained row
    // weights still match a from-scratch recount after the burst.
    #[test]
    fn fault_injection_preserves_invariants_on_all_backends(
        n in 2usize..40,
        seed in any::<u64>(),
        steps in 0u64..1_500,
        k in 0usize..12,
        target in 0u8..5,
    ) {
        let k = k.min(n);
        let protocol = Spread { n };
        let init = Configuration::from_fn(n, |i| (i % 5) as u8);
        let states = vec![target; k];
        let mut fault_rng = ScenarioRng::seed_from_u64(seed ^ 0xF417);

        // Exact engine: the population vector keeps its length and at most
        // k agents change state.
        let mut exact = Simulation::new(protocol, init.clone(), seed);
        exact.run_for(steps);
        let before = exact.configuration().clone();
        exact.inject_states(&states, &mut fault_rng);
        prop_assert_eq!(exact.configuration().len(), n);
        let changed = before
            .iter()
            .zip(exact.configuration().iter())
            .filter(|(a, b)| a != b)
            .count();
        prop_assert!(changed <= k);
        prop_assert_eq!(exact.last_change(), exact.interactions());

        // Batched engine, both static backends: counts sum to n (they are
        // u64, so non-negativity rides on the sum staying exact), and the
        // incrementally repaired pair weight matches a from-scratch rebuild.
        let mut indexed = BatchedSimulation::new(protocol, &init, seed);
        let mut dense = BatchedSimulation::new(ForceDense(protocol), &init, seed);
        // Interned backend: same burst, plus the row-weight audit.
        let mut interned = InternedSimulation::new(AsInterned(protocol), &init, seed);
        for _ in 0..2 {
            // Two rounds: a burst right after `steps` interactions, and a
            // second burst after running on from the corrupted counts.
            indexed.run_for(steps);
            dense.run_for(steps);
            interned.run_for(steps);
            indexed.inject_states(&states, &mut fault_rng);
            dense.inject_states(&states, &mut fault_rng);
            interned.inject_states(&states, &mut fault_rng);

            let sum: u64 = indexed.state_counts().map(|(_, c)| c).sum();
            prop_assert_eq!(sum, n as u64);
            let sum: u64 = dense.state_counts().map(|(_, c)| c).sum();
            prop_assert_eq!(sum, n as u64);
            let sum: u64 = interned.state_counts().map(|(_, c)| c).sum();
            prop_assert_eq!(sum, n as u64);

            let rebuilt = BatchedSimulation::new(protocol, &indexed.to_configuration(), 0);
            prop_assert_eq!(
                indexed.active_pairs(),
                rebuilt.active_pairs(),
                "indexed rows diverged from a rebuild after the burst"
            );
            prop_assert_eq!(
                dense.active_pairs(),
                BatchedSimulation::new(ForceDense(protocol), &dense.to_configuration(), 0)
                    .active_pairs()
            );
            prop_assert_eq!(
                interned.recount_active_pairs(),
                interned.active_pairs(),
                "interned incremental rows diverged from the recount after the burst"
            );
        }
    }

    // The batch-count epoch machinery preserves the engine invariants on
    // every backend: interaction clocks never overrun the requested budget,
    // count tables still sum to n, applied transitions never exceed elapsed
    // interactions, and the incrementally maintained pair weights survive a
    // from-scratch audit — after plain epochs AND after a mid-run fault
    // burst lands between epochs.
    #[test]
    fn batchcount_epochs_preserve_invariants_on_all_backends(
        n in 2usize..60,
        seed in any::<u64>(),
        steps in 0u64..3_000,
        k in 0usize..12,
        target in 0u8..5,
    ) {
        let protocol = Spread { n };
        let init = Configuration::from_fn(n, |i| (i % 5) as u8);
        let mut fault_rng = ScenarioRng::seed_from_u64(seed ^ 0xBC17);
        let states = vec![target; k.min(n)];

        let mut indexed = BatchedSimulation::new(protocol, &init, seed)
            .with_sampling_mode(SamplingMode::BatchCount);
        let mut dense = BatchedSimulation::new(ForceDense(protocol), &init, seed)
            .with_sampling_mode(SamplingMode::BatchCount);
        let mut interned = InternedSimulation::new(AsInterned(protocol), &init, seed)
            .with_sampling_mode(SamplingMode::BatchCount);

        for round in 0u64..2 {
            // Round 0: plain batch-count epochs. Round 1: re-run after a
            // burst corrupted the counts mid-run.
            indexed.run_for(steps);
            dense.run_for(steps);
            interned.run_for(steps);

            prop_assert!(indexed.interactions().count() <= (round + 1) * steps);
            prop_assert!(indexed.transitions() <= indexed.interactions().count());
            prop_assert!(interned.transitions() <= interned.interactions().count());

            let sum: u64 = indexed.state_counts().map(|(_, c)| c).sum();
            prop_assert_eq!(sum, n as u64, "indexed counts round {}", round);
            let sum: u64 = dense.state_counts().map(|(_, c)| c).sum();
            prop_assert_eq!(sum, n as u64, "dense counts round {}", round);
            let sum: u64 = interned.state_counts().map(|(_, c)| c).sum();
            prop_assert_eq!(sum, n as u64, "interned counts round {}", round);

            let rebuilt = BatchedSimulation::new(protocol, &indexed.to_configuration(), 0);
            prop_assert_eq!(
                indexed.active_pairs(),
                rebuilt.active_pairs(),
                "indexed rows diverged from a rebuild after batch-count epochs"
            );
            prop_assert_eq!(indexed.is_silent(), rebuilt.is_silent());
            prop_assert_eq!(
                dense.active_pairs(),
                BatchedSimulation::new(ForceDense(protocol), &dense.to_configuration(), 0)
                    .active_pairs()
            );
            prop_assert_eq!(
                interned.recount_active_pairs(),
                interned.active_pairs(),
                "interned incremental rows diverged from the recount after batch-count epochs"
            );

            indexed.inject_states(&states, &mut fault_rng);
            dense.inject_states(&states, &mut fault_rng);
            interned.inject_states(&states, &mut fault_rng);
        }
    }

    // A resolved fault plan is pure data: times strictly increase, every
    // event carries exactly k target states, and the expansion is a function
    // of (plan, seed) alone.
    #[test]
    fn fault_plans_resolve_deterministically(
        seed in any::<u64>(),
        start in 0u64..10_000,
        period in 1u64..5_000,
        bursts in 0u32..20,
        mean_gap in 1u64..2_000,
        horizon in 0u64..20_000,
        k in 0usize..8,
    ) {
        let plans = [
            FaultPlan::one_shot(start, k, CorruptionTarget::Fixed(1u8)),
            FaultPlan::periodic(start, period, bursts, k, CorruptionTarget::Fixed(1u8)),
            FaultPlan::poisson(
                mean_gap,
                horizon,
                k,
                CorruptionTarget::random(|rng| rng.gen_range(0..5u8)),
            ),
        ];
        for plan in &plans {
            let events = plan.resolve(seed);
            prop_assert_eq!(&events, &plan.resolve(seed), "plan {}", plan.name());
            prop_assert!(events.windows(2).all(|w| w[0].at < w[1].at));
            prop_assert!(events
                .iter()
                .all(|e| matches!(&e.kind, PerturbationKind::Corrupt(states) if states.len() == k)));
        }
        prop_assert_eq!(plans[1].resolve(seed).len(), bursts as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Churn invariants on every backend: joins and departures keep the count
    // tables summing to the resized population, and the incrementally
    // repaired pair weights survive a from-scratch audit — under the uniform
    // AND a weighted scheduler.
    #[test]
    fn churn_preserves_count_sums_and_row_weights_on_all_backends(
        n in 4usize..40,
        seed in any::<u64>(),
        steps in 0u64..1_500,
        joins in 0usize..10,
        leaves in 0usize..10,
        target in 0u8..5,
    ) {
        let protocol = Spread { n };
        let init = Configuration::from_fn(n, |i| (i % 5) as u8);
        let joining = vec![target; joins];
        let mut rng = ScenarioRng::seed_from_u64(seed ^ 0xC4A2);

        let rates = PairRates::new(1).with_symmetric_rate(0u8, 4u8, 5);
        let weighted = InteractionScheduler::WeightedPairs(rates);

        // Exact engine: population vector resizes and the silence clock
        // restarts at the churn point.
        let mut exact = Simulation::new(protocol, init.clone(), seed);
        exact.run_for(steps);
        exact.join(&joining);
        let departing = leaves.min(exact.population_size().saturating_sub(2));
        exact.leave(departing, &mut rng);
        let survivors = n + joins - departing;
        prop_assert_eq!(exact.population_size(), survivors);
        if joins > 0 {
            // A non-empty join restarts the silence clock.
            prop_assert_eq!(exact.last_change(), exact.interactions());
        }

        // Count backends: indexed (uniform), indexed (weighted), dense, and
        // interned all resize their count tables and keep the incremental
        // pair weights consistent with a from-scratch rebuild.
        let mut indexed = BatchedSimulation::new(protocol, &init, seed);
        let mut rated =
            BatchedSimulation::try_new_scheduled(protocol, &init, seed, &weighted).unwrap();
        let mut dense = BatchedSimulation::new(ForceDense(protocol), &init, seed);
        let mut interned = InternedSimulation::new(AsInterned(protocol), &init, seed);
        for _ in 0..2 {
            indexed.run_for(steps);
            rated.run_for(steps);
            dense.run_for(steps);
            interned.run_for(steps);

            indexed.join(&joining);
            rated.join(&joining);
            dense.join(&joining);
            interned.join(&joining);
            let departing = leaves.min(indexed.population_size().saturating_sub(2));
            indexed.leave(departing, &mut rng);
            rated.leave(departing, &mut rng);
            dense.leave(departing, &mut rng);
            interned.leave(departing, &mut rng);

            let expected = indexed.population_size() as u64;
            for (label, sum) in [
                ("indexed", indexed.state_counts().map(|(_, c)| c).sum::<u64>()),
                ("rated", rated.state_counts().map(|(_, c)| c).sum::<u64>()),
                ("dense", dense.state_counts().map(|(_, c)| c).sum::<u64>()),
                ("interned", interned.state_counts().map(|(_, c)| c).sum::<u64>()),
            ] {
                prop_assert_eq!(sum, expected, "{} counts diverged after churn", label);
            }

            let resized = Spread { n: indexed.population_size() };
            prop_assert_eq!(
                indexed.active_pairs(),
                BatchedSimulation::new(resized, &indexed.to_configuration(), 0).active_pairs(),
                "indexed rows diverged from a rebuild after churn"
            );
            prop_assert_eq!(
                rated.active_pairs(),
                BatchedSimulation::try_new_scheduled(
                    resized,
                    &rated.to_configuration(),
                    0,
                    &weighted,
                )
                .unwrap()
                .active_pairs(),
                "weighted rows diverged from a rebuild after churn"
            );
            prop_assert_eq!(
                dense.active_pairs(),
                BatchedSimulation::new(ForceDense(resized), &dense.to_configuration(), 0)
                    .active_pairs()
            );
            prop_assert_eq!(
                interned.recount_active_pairs(),
                interned.active_pairs(),
                "interned incremental rows diverged from the recount after churn"
            );
        }
    }

    // A resolved churn stream applied through the engine driver preserves
    // the count sum at every event boundary: the final population is the
    // initial one plus all fired joins minus all fired (clamped) departures.
    #[test]
    fn churn_driver_reports_consistent_population_arithmetic(
        n in 4usize..30,
        seed in any::<u64>(),
        count in 1usize..6,
        period in 500u64..2_000,
    ) {
        let plan = ChurnPlan::periodic(
            period,
            period,
            3,
            ChurnAction::Replace { count, state: CorruptionTarget::Fixed(0u8) },
        );
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let report = RunSpec::new(Spread { n })
                .engine(engine)
                .init(Configuration::from_fn(n, |i| (i % 5) as u8))
                .seed(seed)
                .churn(plan.clone())
                .run_one()
                .unwrap();
            let mut expected = n;
            for record in &report.events {
                expected = expected + record.joined - record.departed;
                prop_assert_eq!(record.population_after, expected, "{}", engine);
            }
            prop_assert_eq!(report.final_population(), expected, "{}", engine);
            prop_assert!(report.outcome.is_silent(), "{}", engine);
        }
    }
}
