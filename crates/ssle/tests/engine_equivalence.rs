//! Cross-engine equivalence: the batched multiset engine and the exact
//! per-agent engine simulate the same Markov chain.
//!
//! The engines consume randomness differently, so per-seed *trajectories*
//! differ; what must agree is (a) the verdict structure that is almost-sure —
//! for `Silent-n-state-SSR` every run ends silent in the unique correctly
//! ranked multiset — and (b) the *distribution* of stabilization times,
//! checked here by comparing means within combined confidence bounds on
//! `n ∈ {8, 32, 128}`.

use analysis::t_quantile_975;
use ppsim::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::params::{OptimalSilentParams, SublinearParams};
use ssle::{OptimalSilentSsr, SilentNStateSsr, SilentRank, SublinearTimeSsr};

const BUDGET: u64 = u64::MAX >> 8;

/// Multiset of rank counts, for order-insensitive comparison.
fn rank_counts(n: usize, config: &Configuration<SilentRank>) -> Vec<u64> {
    let mut counts = vec![0u64; n];
    for s in config.iter() {
        counts[s.0 as usize] += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Per-seed verdict equivalence: from any initial multiset, both engines
    // reach silence, and because Silent-n-state-SSR has a unique silent
    // multiset (the full permutation of ranks), their final configurations
    // agree exactly as multisets.
    #[test]
    fn both_engines_silence_into_the_ranked_multiset(
        n in 4usize..20,
        seed in any::<u64>(),
        scramble in any::<u64>(),
    ) {
        let protocol = SilentNStateSsr::new(n);
        let mut rng = ChaCha8Rng::seed_from_u64(scramble);
        let init = protocol.random_configuration(&mut rng);

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

        prop_assert_eq!(exact.outcome.reason, batched.outcome.reason);
        prop_assert!(exact.outcome.is_silent());
        prop_assert_eq!(
            rank_counts(n, &exact.final_config),
            rank_counts(n, &batched.final_config)
        );
        prop_assert!(protocol.is_correctly_ranked(&batched.final_config));
    }

    // The batch-count sampling mode reaches the same almost-sure verdict on
    // *both* of its backends (enumerated Fenwick and dynamically interned):
    // silence in the unique correctly ranked multiset, from any initial
    // multiset.
    #[test]
    fn batchcount_silences_into_the_ranked_multiset(
        n in 4usize..20,
        seed in any::<u64>(),
        scramble in any::<u64>(),
    ) {
        let protocol = SilentNStateSsr::new(n);
        let mut rng = ChaCha8Rng::seed_from_u64(scramble);
        let init = protocol.random_configuration(&mut rng);

        let batched = RunSpec::new(protocol)
            .engine(Engine::BatchedCounts)
            .budget(BUDGET)
            .init(init.clone())
            .seed(seed)
            .run_one()
            .unwrap();
        let interned = RunSpec::new(AsInterned(protocol))
            .engine(Engine::BatchedCounts)
            .budget(BUDGET)
            .init(init)
            .seed(seed)
            .run_one()
            .unwrap();

        prop_assert!(batched.outcome.is_silent());
        prop_assert!(interned.outcome.is_silent());
        prop_assert_eq!(
            rank_counts(n, &batched.final_config),
            rank_counts(n, &interned.final_config)
        );
        prop_assert!(protocol.is_correctly_ranked(&batched.final_config));
    }

    // A silent initial configuration is reported silent by both engines with
    // zero interactions, for every seed.
    #[test]
    fn silent_starts_are_instant_on_both_engines(n in 2usize..30, seed in any::<u64>()) {
        let protocol = SilentNStateSsr::new(n);
        let init = protocol.ranked_configuration();
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
        prop_assert!(exact.outcome.is_silent() && batched.outcome.is_silent());
        prop_assert_eq!(exact.outcome.interactions, Interactions::ZERO);
        prop_assert_eq!(batched.outcome.interactions, Interactions::ZERO);
    }

    // Route equivalence: the batched engine's indexed (partner-list) and
    // present (`ForceDense`) routes agree on the non-null pair weight and the
    // silence verdict on matching configurations drawn from every adversarial
    // scenario family, and both match the exact engine's silence check.
    #[test]
    fn batched_backends_agree_on_scenario_families(
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            let protocol = SilentNStateSsr::new(n);
            let init = scenario.configuration(&protocol, seed);
            let indexed = BatchedSimulation::new(protocol, &init, seed);
            let dense = BatchedSimulation::new(ForceDense(protocol), &init, seed);
            prop_assert_eq!(
                indexed.active_pairs(),
                dense.active_pairs(),
                "scenario {}",
                scenario.name()
            );
            prop_assert_eq!(indexed.is_silent(), dense.is_silent());
            let exact = Simulation::new(protocol, init, seed);
            prop_assert_eq!(indexed.is_silent(), exact.is_silent());
        }
    }

    // ... and agreement persists along a trajectory: rebuild both backends on
    // mid-run configurations and compare again.
    #[test]
    fn backends_agree_on_mid_run_configurations(
        n in 4usize..16,
        seed in any::<u64>(),
        steps in 1u64..200,
    ) {
        let protocol = SilentNStateSsr::new(n);
        let init = protocol.all_same_rank_configuration();
        let mut sim = Simulation::new(protocol, init, seed);
        sim.run_for(steps);
        let mid = sim.configuration().clone();
        let indexed = BatchedSimulation::new(protocol, &mid, seed);
        let dense = BatchedSimulation::new(ForceDense(protocol), &mid, seed);
        prop_assert_eq!(indexed.active_pairs(), dense.active_pairs());
        prop_assert_eq!(indexed.is_silent(), dense.is_silent());
        prop_assert_eq!(indexed.is_silent(), sim.is_silent());
    }

    // The dense backend reaches the same almost-sure verdict as the indexed
    // one: silence in the unique correctly ranked multiset, from any
    // adversarial scenario family.
    #[test]
    fn dense_backend_silences_into_the_ranked_multiset(
        n in 4usize..16,
        seed in any::<u64>(),
    ) {
        let scenarios = SilentNStateSsr::adversarial_scenarios();
        let scenario = &scenarios[(seed % scenarios.len() as u64) as usize];
        let protocol = SilentNStateSsr::new(n);
        let init = scenario.configuration(&protocol, seed);
        let mut dense = BatchedSimulation::new(ForceDense(protocol), &init, seed);
        prop_assert!(dense.run_until_silent(BUDGET).is_silent());
        prop_assert!(protocol.is_correctly_ranked(&dense.to_configuration()));
    }

    // Interned-backend equivalence on a *closed* state space: routing
    // Silent-n-state-SSR through the dynamically interned backend (via the
    // AsInterned adapter) must reach the same silence verdict and the same
    // final multiset as the exact engine, for any initial multiset.
    #[test]
    fn interned_backend_silences_into_the_ranked_multiset(
        n in 4usize..16,
        seed in any::<u64>(),
        scramble in any::<u64>(),
    ) {
        let protocol = SilentNStateSsr::new(n);
        let mut rng = ChaCha8Rng::seed_from_u64(scramble);
        let init = protocol.random_configuration(&mut rng);

        let exact = RunSpec::new(protocol)
            .engine(Engine::Exact)
            .budget(BUDGET)
            .init(init.clone())
            .seed(seed)
            .run_one()
            .unwrap();
        let interned = RunSpec::new(AsInterned(protocol))
            .engine(Engine::Batched)
            .budget(BUDGET)
            .init(init)
            .seed(seed)
            .run_one()
            .unwrap();

        prop_assert_eq!(exact.outcome.reason, interned.outcome.reason);
        prop_assert!(exact.outcome.is_silent());
        prop_assert_eq!(
            rank_counts(n, &exact.final_config),
            rank_counts(n, &interned.final_config)
        );
        prop_assert!(protocol.is_correctly_ranked(&interned.final_config));
    }

    // All three count configurations — indexed, present on the enumerated
    // index, present on the interned index — agree on the non-null pair weight and the silence verdict on
    // matching configurations from every adversarial scenario family, and
    // the interned backend's incrementally maintained weight survives a
    // from-scratch audit.
    #[test]
    fn all_three_batched_backends_agree_on_scenario_families(
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            let protocol = SilentNStateSsr::new(n);
            let init = scenario.configuration(&protocol, seed);
            let indexed = BatchedSimulation::new(protocol, &init, seed);
            let dense = BatchedSimulation::new(ForceDense(protocol), &init, seed);
            let interned = InternedSimulation::new(AsInterned(protocol), &init, seed);
            prop_assert_eq!(
                indexed.active_pairs(),
                dense.active_pairs(),
                "scenario {}",
                scenario.name()
            );
            prop_assert_eq!(
                indexed.active_pairs(),
                interned.active_pairs(),
                "scenario {}",
                scenario.name()
            );
            prop_assert_eq!(interned.active_pairs(), interned.recount_active_pairs());
            prop_assert_eq!(indexed.is_silent(), interned.is_silent());
        }
    }

    // Sublinear-Time-SSR nullness soundness: whenever is_null claims an
    // ordered pair is null, the transition must leave it unchanged — for
    // every history depth, over states drawn from every scenario family.
    #[test]
    fn sublinear_is_null_claims_are_sound(
        n in 4usize..12,
        h in 0u32..3,
        seed in any::<u64>(),
    ) {
        let protocol = SublinearTimeSsr::new(SublinearParams::recommended(n, h));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for scenario in SublinearTimeSsr::adversarial_scenarios() {
            let config = scenario.configuration(&protocol, seed);
            let states = config.as_slice();
            for a in states.iter().take(4) {
                for b in states.iter().take(4) {
                    if std::ptr::eq(a, b) || !protocol.is_null(a, b) {
                        continue;
                    }
                    let (a2, b2) = protocol.transition(a, b, &mut rng);
                    prop_assert_eq!(&a2, a, "null claim changed the initiator");
                    prop_assert_eq!(&b2, b, "null claim changed the responder");
                }
            }
        }
    }

    // The Optimal-Silent-SSR state enumeration is a bijection wherever the
    // batched engine needs it: index -> state -> index is the identity on the
    // whole space, and state -> index stays in range.
    #[test]
    fn optimal_silent_enumeration_roundtrips(n in 2usize..40, probe in any::<u64>()) {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
        let total = protocol.num_states();
        // Probe a pseudo-random selection of indices plus the boundaries.
        let mut indices = vec![0, total - 1];
        let mut x = probe;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            indices.push((x % total as u64) as usize);
        }
        for index in indices {
            let state = protocol.state_from_index(index);
            prop_assert_eq!(protocol.state_index(&state), index);
        }
    }
}

/// Runs `trials` to-silence executions of `Silent-n-state-SSR` from random
/// configurations and returns the per-trial parallel times.
fn silence_times(n: usize, engine: Engine, trials: usize, seed: u64) -> Vec<f64> {
    run_trials(&TrialPlan::new(trials, seed), |_, s| {
        let protocol = SilentNStateSsr::new(n);
        let mut rng = ChaCha8Rng::seed_from_u64(s ^ 0xD1CE);
        let config = protocol.random_configuration(&mut rng);
        let report = RunSpec::new(protocol)
            .engine(engine)
            .budget(BUDGET)
            .init(config)
            .seed(s)
            .run_one()
            .unwrap();
        assert!(report.outcome.is_silent());
        report.parallel_time().value()
    })
}

fn mean_and_se(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// The ISSUE-level acceptance check: mean stabilization times match within
/// combined confidence bounds on n ∈ {8, 32, 128}. Both engines use the same
/// trial plans (but independent randomness), so this is a genuine two-sample
/// comparison of the distributions.
///
/// The allowance is the Student-t 97.5% quantile at the sample's actual
/// degrees of freedom times the combined standard error, widened by a 1.5
/// safety factor: a bare 95% interval would *by design* reject a true zero
/// gap ~5% of the time per cell, turning any future seed reshuffle into a
/// coin-flip CI failure, while 1.5·t keeps the designed false-failure rate
/// ~0.2% per cell. This still tightens the 4×SE slack it replaces (≈3.1×SE
/// at these sample sizes), which existed to absorb the exact engine's old
/// check-chunk silence bias; silence is now reported exactly at the last
/// state-changing interaction.
#[test]
fn mean_stabilization_times_match_across_engines() {
    for (n, trials) in [(8usize, 60), (32, 40), (128, 24)] {
        let exact = silence_times(n, Engine::Exact, trials, 101 + n as u64);
        let (me, se_e) = mean_and_se(&exact);
        for (label, engine, seed) in [
            ("batched", Engine::Batched, 707 + n as u64),
            ("batchcount", Engine::BatchedCounts, 523 + n as u64),
        ] {
            let other = silence_times(n, engine, trials, seed);
            let (mb, se_b) = mean_and_se(&other);
            let combined = (se_e * se_e + se_b * se_b).sqrt();
            let allowance = 1.5 * t_quantile_975(trials - 1) * combined.max(1e-9);
            let gap = (me - mb).abs();
            assert!(
                gap <= allowance,
                "n = {n}: exact mean {me:.3} vs {label} mean {mb:.3} \
                 (gap {gap:.3} > 1.5·t·SE allowance {allowance:.3})"
            );
        }
    }
}

/// The same four-way comparison routed through the *interned* backend: both
/// sampling modes of `InternedSimulation` (per-transition and batch-count)
/// produce silence-time distributions whose means match the exact engine's
/// within the suite's 1.5·t·SE allowance.
#[test]
fn mean_stabilization_times_match_on_the_interned_backend() {
    let interned_times = |mode_engine: Engine, n: usize, trials: usize, seed: u64| -> Vec<f64> {
        run_trials(&TrialPlan::new(trials, seed), |_, s| {
            let protocol = SilentNStateSsr::new(n);
            let mut rng = ChaCha8Rng::seed_from_u64(s ^ 0xD1CE);
            let config = protocol.random_configuration(&mut rng);
            let report = RunSpec::new(AsInterned(protocol))
                .engine(mode_engine)
                .budget(BUDGET)
                .init(config)
                .seed(s)
                .run_one()
                .unwrap();
            assert!(report.outcome.is_silent());
            report.parallel_time().value()
        })
    };
    for (n, trials) in [(8usize, 60), (32, 32)] {
        let exact = silence_times(n, Engine::Exact, trials, 101 + n as u64);
        let (me, se_e) = mean_and_se(&exact);
        for (label, engine, seed) in [
            ("interned", Engine::Batched, 311 + n as u64),
            ("interned batchcount", Engine::BatchedCounts, 419 + n as u64),
        ] {
            let other = interned_times(engine, n, trials, seed);
            let (mb, se_b) = mean_and_se(&other);
            let combined = (se_e * se_e + se_b * se_b).sqrt();
            let allowance = 1.5 * t_quantile_975(trials - 1) * combined.max(1e-9);
            assert!(
                (me - mb).abs() <= allowance,
                "n = {n}: exact mean {me:.3} vs {label} mean {mb:.3} \
                 (gap {:.3} > 1.5·t·SE allowance {allowance:.3})",
                (me - mb).abs()
            );
        }
    }
}

/// Dense-backend equivalence: Optimal-Silent-SSR (no sparse partner
/// structure) converges to a correct ranking under both engines, and the
/// mean convergence times agree within combined confidence bounds.
#[test]
fn optimal_silent_convergence_matches_across_engines() {
    let times = |engine: Engine, n: usize, trials: usize, seed: u64| -> Vec<f64> {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
        let spec =
            RunSpec::new(protocol).engine(engine).init(protocol.adversarial_all_same_rank(1));
        let reports = spec.until(|p, c| p.is_correct(c)).trials(trials).seed(seed).run().unwrap();
        let report_time = |report: &TrialReport<_>| {
            assert!(report.outcome.condition_met());
            assert!(protocol.has_unique_leader(&report.final_config));
            report.parallel_time().value()
        };
        reports.iter().map(report_time).collect()
    };
    for (n, trials) in [(8usize, 24), (32, 12)] {
        let exact = times(Engine::Exact, n, trials, 31 + n as u64);
        let batched = times(Engine::Batched, n, trials, 97 + n as u64);
        let (me, se_e) = mean_and_se(&exact);
        let (mb, se_b) = mean_and_se(&batched);
        let combined = (se_e * se_e + se_b * se_b).sqrt();
        // 1.5·t·SE is the statistical allowance (see
        // mean_stabilization_times_match_across_engines for the factor); the
        // additive 0.125 covers the exact engine's convergence-check
        // granularity (conditions are only probed every ~n/8 interactions =
        // 1/8 parallel time), which — unlike the silence point — is still
        // attributed to the end of the chunk.
        let allowance = 1.5 * t_quantile_975(trials - 1) * combined.max(1e-9) + 0.125;
        assert!(
            (me - mb).abs() <= allowance,
            "n = {n}: exact mean {me:.3} vs batched mean {mb:.3} \
             (gap {:.3} > allowance {allowance:.3})",
            (me - mb).abs()
        );
    }
}

/// Sublinear-Time-SSR on both engines: every adversarial scenario family
/// recovers to a correct ranking through the exact engine *and* through the
/// batched engine's interned backend, and the mean convergence times agree
/// within combined confidence bounds.
///
/// This was the last exact-engine-only protocol: its state space (names ×
/// history trees) admits no static enumeration, so the batched route goes
/// through dynamic interning. The protocol is non-silent at `H ≥ 1`, so
/// correctness of the ranking is the stabilization criterion.
#[test]
fn sublinear_scenarios_converge_equivalently_on_both_engines() {
    let n = 10;
    let h = 2;
    let trials = 8;
    let budget = 400_000u64 * n as u64;
    for scenario in SublinearTimeSsr::adversarial_scenarios() {
        let times = |engine: Engine, seed: u64| -> Vec<f64> {
            let protocol = SublinearTimeSsr::new(SublinearParams::recommended(n, h));
            let spec = RunSpec::new(protocol).engine(engine).budget(budget).scenario(&scenario);
            let reports = spec.until(|p, c| p.is_correct(c)).trials(trials).seed(seed).run();
            let report_time = |report: &TrialReport<_>| {
                let name = scenario.name();
                assert!(report.outcome.condition_met(), "{name:?} failed to converge on {engine}");
                report.parallel_time().value()
            };
            reports.unwrap().iter().map(report_time).collect()
        };
        let exact = times(Engine::Exact, 301 + n as u64);
        let interned = times(Engine::Batched, 907 + n as u64);
        let (me, se_e) = mean_and_se(&exact);
        let (mb, se_b) = mean_and_se(&interned);
        let combined = (se_e * se_e + se_b * se_b).sqrt();
        // 1.5·t·SE is the statistical allowance (see
        // mean_stabilization_times_match_across_engines for the factor); the
        // additive 0.125 covers the exact engine's convergence-check
        // granularity (conditions probed every ~n/8 interactions).
        let allowance = 1.5 * t_quantile_975(trials - 1) * combined.max(1e-9) + 0.125;
        assert!(
            (me - mb).abs() <= allowance,
            "scenario {:?}: exact mean {me:.3} vs interned mean {mb:.3} \
             (gap {:.3} > allowance {allowance:.3})",
            scenario.name(),
            (me - mb).abs()
        );
    }
}

/// The null-class short-circuit is an optimization, never a semantic: on the
/// one protocol where same-class distinct states actually occur
/// (`Sublinear-Time-SSR` at `H = 0`, roster-keyed classes), the interned
/// engine with classes and the class-less route (via the [`AsInterned`]
/// adapter, whose `null_class` is `None` everywhere) must agree on the pair
/// weight and, under the same seed, on the entire trajectory. An over-broad
/// `null_class` (say, a future edit dropping the `h == 0` or root-name
/// guard) diverges here, because `recount_active_pairs` shares the
/// class-aware term and cannot catch it alone.
#[test]
fn null_classes_are_a_pure_shortcircuit_on_sublinear_h0() {
    for n in [8usize, 16] {
        for seed in 0..6u64 {
            let protocol = SublinearTimeSsr::new(SublinearParams::recommended(n, 0));
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1A5);
            let config = protocol.merged_collision_configuration(2 + (seed as usize % 3), &mut rng);
            let mut with = InternedSimulation::new(protocol, &config, seed);
            let mut without = InternedSimulation::new(AsInterned(protocol), &config, seed);
            assert_eq!(with.active_pairs(), without.active_pairs(), "n={n} seed={seed}");
            assert!(with.active_pairs() > 0, "the planted duplicates must stay visible");
            // Same seed + same pair weights → identical geometric draws and
            // sampled transitions: the trajectories coincide step by step.
            let w = with.run_until(SublinearTimeSsr::any_resetting, u64::MAX >> 8);
            let wo = without.run_until(SublinearTimeSsr::any_resetting, u64::MAX >> 8);
            assert!(w.condition_met() && wo.condition_met());
            assert_eq!(w.interactions, wo.interactions, "n={n} seed={seed}");
            assert_eq!(with.transitions(), without.transitions());
            assert_eq!(with.active_pairs(), without.active_pairs());
        }
    }
}

/// The `H = 0` direct-detection regime from the merged-collision family:
/// almost every pair is null, so this is where the interned backend's
/// null-run skipping pays off. Both engines must report the same detection
/// verdict, and the mean detection times (first reset trigger) must agree
/// within combined confidence bounds.
#[test]
fn merged_collision_detection_times_match_across_engines() {
    let n = 24;
    let trials = 16;
    let budget = 10_000u64 * (n as u64).pow(2);
    let times = |engine: Engine, seed: u64| -> Vec<f64> {
        let protocol = SublinearTimeSsr::new(SublinearParams::recommended(n, 0));
        let spec = RunSpec::new(protocol).engine(engine).budget(budget).init_with(move |_, s| {
            protocol.merged_collision_configuration(2, &mut ChaCha8Rng::seed_from_u64(s ^ 0x11AD))
        });
        let spec = spec.until(|_, c| SublinearTimeSsr::any_resetting(c)).trials(trials).seed(seed);
        let report_time = |report: &TrialReport<_>| {
            assert!(report.outcome.condition_met(), "collision was never detected on {engine}");
            report.parallel_time().value()
        };
        spec.run().unwrap().iter().map(report_time).collect()
    };
    let exact = times(Engine::Exact, 41);
    let interned = times(Engine::Batched, 83);
    let (me, se_e) = mean_and_se(&exact);
    let (mb, se_b) = mean_and_se(&interned);
    let combined = (se_e * se_e + se_b * se_b).sqrt();
    let allowance = 1.5 * t_quantile_975(trials - 1) * combined.max(1e-9) + 0.125;
    assert!(
        (me - mb).abs() <= allowance,
        "exact mean {me:.3} vs interned mean {mb:.3} (gap {:.3} > allowance {allowance:.3})",
        (me - mb).abs()
    );
}

/// The exact engine reports convergence with a coarse check interval (up to
/// n/8 interactions late); the batched engine checks after every non-null
/// transition. Verify the batched engine's silence interaction counts are
/// plausible against the closed-form worst-case expectation, which the exact
/// engine reproduced in the seed tests.
#[test]
fn batched_worst_case_time_matches_the_closed_form() {
    let n = 64;
    let trials = 32;
    // E[T] = (n−1)²/2 parallel time for the bottleneck chain (Theorem 2.4).
    // 1.5·t·SE is the one-sample statistical allowance (see
    // mean_stabilization_times_match_across_engines for the factor); the 2%
    // additive term covers the closed form being the bottleneck chain alone
    // (the measured time includes the non-bottleneck prefix). The batch-count
    // mode's interaction clock is drawn per epoch rather than per transition,
    // so it faces the same closed form independently.
    let expected = ((n - 1) as f64).powi(2) / 2.0;
    for (engine, seed) in [(Engine::Batched, 9u64), (Engine::BatchedCounts, 15)] {
        let times: Vec<f64> = run_trials(&TrialPlan::new(trials, seed), |_, s| {
            let protocol = SilentNStateSsr::new(n);
            RunSpec::new(protocol)
                .engine(engine)
                .budget(BUDGET)
                .init(protocol.worst_case_configuration())
                .seed(s)
                .run_one()
                .unwrap()
                .parallel_time()
                .value()
        });
        let (mean, se) = mean_and_se(&times);
        let allowance = 1.5 * t_quantile_975(trials - 1) * se + 0.02 * expected;
        assert!(
            (mean - expected).abs() <= allowance,
            "{engine} worst-case mean {mean:.1} far from the closed form {expected:.1} \
             (allowance {allowance:.1})"
        );
    }
}

/// Mid-run fault recovery is engine-independent: the same seeded
/// [`FaultPlan`] (identical burst times and target states; victims drawn
/// per-engine but from the same distribution) yields final-burst recovery
/// times whose means agree across the exact, batched, and interned engines
/// within the suite's 1.5·t·SE allowance.
#[test]
fn mean_fault_recovery_times_match_across_engines() {
    let n = 24;
    let trials = 24;
    // Silence from a random start costs ~n³/2 interactions; burst after the
    // run has typically stabilized, corrupting a quarter of the population
    // back into leaders.
    let plan = FaultPlan::one_shot(
        (n as u64).pow(3), // well past the expected silence point
        n / 4,
        CorruptionTarget::Fixed(SilentRank(0)),
    );
    let recovery_times = |engine: Engine, interned: bool, seed: u64| -> Vec<f64> {
        run_trials(&TrialPlan::new(trials, seed), |_, s| {
            let protocol = SilentNStateSsr::new(n);
            let mut rng = ChaCha8Rng::seed_from_u64(s ^ 0xFA);
            let init = protocol.random_configuration(&mut rng);
            let report = if interned {
                RunSpec::new(AsInterned(protocol))
                    .engine(engine)
                    .budget(BUDGET)
                    .init(init)
                    .seed(s)
                    .faults(plan.clone())
                    .run_one()
                    .unwrap()
            } else {
                RunSpec::new(protocol)
                    .engine(engine)
                    .budget(BUDGET)
                    .init(init)
                    .seed(s)
                    .faults(plan.clone())
                    .run_one()
                    .unwrap()
            };
            assert!(report.outcome.is_silent());
            assert!(protocol.is_correctly_ranked(&report.final_config));
            let recovery = report.final_restabilization().expect("the burst is recovered from");
            recovery.to_parallel_time(n).value()
        })
    };
    let exact = recovery_times(Engine::Exact, false, 211);
    let batched = recovery_times(Engine::Batched, false, 223);
    let interned = recovery_times(Engine::Batched, true, 227);
    let batchcount = recovery_times(Engine::BatchedCounts, false, 229);
    let batchcount_interned = recovery_times(Engine::BatchedCounts, true, 233);
    let (me, se_e) = mean_and_se(&exact);
    for (label, samples) in [
        ("batched", &batched),
        ("interned", &interned),
        ("batchcount", &batchcount),
        ("interned batchcount", &batchcount_interned),
    ] {
        let (mb, se_b) = mean_and_se(samples);
        let combined = (se_e * se_e + se_b * se_b).sqrt();
        let allowance = 1.5 * t_quantile_975(trials - 1) * combined.max(1e-9);
        assert!(
            (me - mb).abs() <= allowance,
            "exact mean recovery {me:.3} vs {label} mean {mb:.3} \
             (gap {:.3} > 1.5·t·SE allowance {allowance:.3})",
            (me - mb).abs()
        );
    }
}
