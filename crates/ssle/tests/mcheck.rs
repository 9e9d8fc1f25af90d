//! Exhaustive model-checking suites for the paper's ranking protocols: the
//! statements the simulators sample are *proved* here at small `n`, and the
//! exact absorbing-chain expectations are cross-validated against both the
//! closed forms of `analysis::theory` and the exact engine's sample means.

use analysis::{t_quantile_975, Summary};
use ppsim::mcheck::{
    check_convergence, check_fault_plan_closure, expected_silence_time_exact, ConvergenceSource,
    MCheckError, MCheckOptions,
};
use ppsim::{
    run_trials, Configuration, CorrectnessOracle, Engine, EnumerableProtocol, Protocol, RunSpec,
    Simulation, StateSymmetry, TrialPlan,
};
use proptest::prelude::*;
use ssle::{OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr};

/// Mean-vs-exact agreement with the repo's standard 1.5·t·SE allowance
/// (designed false-failure ≈ 0.2% per cell; see `engine_equivalence.rs`).
fn assert_mean_matches_exact(samples: &[f64], exact: f64, context: &str) {
    let summary = Summary::from_samples(samples);
    let allowance = 1.5 * t_quantile_975(summary.count - 1) * summary.standard_error();
    assert!(
        (summary.mean - exact).abs() <= allowance.max(1e-9),
        "{context}: simulated mean {} vs exact {exact} (allowance {allowance})",
        summary.mean
    );
}

/// Options that prove the full lattice configuration by configuration.
fn unquotiented() -> MCheckOptions {
    MCheckOptions { use_symmetry: false, ..MCheckOptions::default() }
}

/// 200 exact-engine silence times (in interactions) from one configuration.
fn exact_engine_silence_times<P>(protocol: P, config: &Configuration<P::State>) -> Vec<f64>
where
    P: ppsim::Protocol + Clone + Send + Sync,
    P::State: Clone,
{
    let plan = TrialPlan::new(200, 0xE5EED);
    run_trials(&plan, |_, seed| {
        let mut sim = Simulation::new(protocol.clone(), config.clone(), seed);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        outcome.interactions.count() as f64
    })
}

#[test]
fn silent_n_state_self_stabilization_is_proved_exhaustively() {
    for n in 2..=5usize {
        let report =
            check_convergence(SilentNStateSsr::new(n), ConvergenceSource::Lattice, &unquotiented())
                .unwrap();
        assert!(report.verified(), "n = {n} must verify");
        assert_eq!(report.states as u128, report.configurations, "every configuration classified");
        assert_eq!(
            report.configurations,
            ppsim::mcheck::lattice_size(n, n).unwrap(),
            "full lattice enumerated"
        );
        // Exactly one silent multiset: every rank present once (the valid
        // rankings all share it — agents are anonymous).
        assert_eq!(report.silent, 1, "one silent multiset at n = {n}");
        assert_eq!(report.correct, 1);
    }
}

#[test]
fn silent_n_state_worst_case_time_is_exactly_the_theorem_2_4_closed_form() {
    for n in 2..=6usize {
        let protocol = SilentNStateSsr::new(n);
        let exact = expected_silence_time_exact(
            protocol,
            &protocol.worst_case_configuration(),
            &MCheckOptions::default(),
        )
        .unwrap();
        let closed_form = analysis::theory::silent_n_state_worst_case_interactions(n);
        assert!(
            (exact.expected_interactions - closed_form).abs() <= 1e-9 * closed_form,
            "n = {n}: {} vs (n−1)·C(n,2) = {closed_form}",
            exact.expected_interactions
        );
        // The worst-case chain is the bottleneck path: n − 1 duplicate
        // positions plus the silent configuration.
        assert_eq!(exact.states, n);
    }
}

#[test]
fn silent_n_state_n2_closed_forms_pin_the_solver() {
    // n = 2: every non-silent configuration is one bump away from the
    // ranking and every ordered pair is active, so E = 1 interaction from
    // both (2, 0) and (0, 2); the worst case (n−1)²/2 parallel = 1/2.
    let protocol = SilentNStateSsr::new(2);
    for config in [protocol.all_same_rank_configuration(), protocol.worst_case_configuration()] {
        let exact =
            expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
        assert!((exact.expected_interactions - 1.0).abs() < 1e-12);
        assert!((exact.expected_parallel - 0.5).abs() < 1e-12);
    }
}

#[test]
fn optimal_silent_self_stabilization_is_proved_exhaustively_at_n3() {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(3));
    let report = check_convergence(protocol, ConvergenceSource::Lattice, &unquotiented()).unwrap();
    assert!(
        report.verified(),
        "n = 3: silent∧¬correct {}, correct∧¬silent {}, non-convergent {} of {} (witness {:?})",
        report.silent_incorrect,
        report.correct_nonsilent,
        report.non_convergent,
        report.configurations,
        report.non_convergent_witness,
    );
    // Silent ⟺ correct was checked; silent multisets are the complete
    // rankings (one per combination of child counts consistent with every
    // rank present once — ranks alone decide nullness).
    assert!(report.silent >= 1);
    assert_eq!(report.silent, report.correct);
}

#[test]
fn optimal_silent_exact_time_matches_the_exact_engine() {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(3));
    let config = protocol.adversarial_all_same_rank(2);
    let exact = expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
    let samples = exact_engine_silence_times(protocol, &config);
    assert_mean_matches_exact(&samples, exact.expected_interactions, "optimal-silent all-rank-2");
}

/// 200 batch-count-engine silence times (in interactions) from one
/// configuration: the epoch clock (negative-binomial elapsed draws) must
/// reproduce the absorbing chain's expected interaction counts, not just the
/// per-transition engines' — this is the distribution-level acceptance test
/// for the `BatchCount` clock.
fn batchcount_engine_silence_times<P>(protocol: P, config: &Configuration<P::State>) -> Vec<f64>
where
    P: ppsim::EnumerableProtocol + Clone + Send + Sync,
    P::State: Clone + Send + Sync,
{
    let plan = TrialPlan::new(200, 0xBC5EED);
    run_trials(&plan, |_, seed| {
        let report = RunSpec::new(protocol.clone())
            .engine(Engine::BatchedCounts)
            .budget(u64::MAX >> 8)
            .init(config.clone())
            .seed(seed)
            .run_one()
            .unwrap();
        assert!(report.outcome.is_silent());
        report.outcome.interactions.count() as f64
    })
}

/// The exact expected silence time lies inside the widened CI of 200
/// batch-count trials, for every enumerable scenario family of
/// `Silent-n-state-SSR` at n ∈ {2, 3, 4}. At these sizes the collision-free
/// batch bound clamps `B` to 1 almost everywhere, so this primarily pins
/// the epoch clock's fallback agreement; the large-`B` regime is covered by
/// the engine-vs-engine suites at n ≥ 32 and the bench equivalence run.
#[test]
fn silent_n_state_batchcount_times_match_the_exact_expectation() {
    for n in 2usize..=4 {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = SilentNStateSsr::new(n);
            let config = scenario.configuration(&protocol, 0x2217);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = batchcount_engine_silence_times(protocol, &config);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("batchcount silent-n-state {} n={n}", scenario.name()),
            );
        }
    }
}

#[test]
fn silent_n_state_fault_closure_holds_exhaustively() {
    // Exhaustive version of the fault-recovery claim: every burst the plan
    // can fire, on every configuration reachable from the ranked start,
    // lands inside the verified-convergent set (= the whole lattice).
    let n = 5;
    let protocol = SilentNStateSsr::new(n);
    for plan in protocol.adversarial_fault_plans() {
        let report = check_fault_plan_closure(
            protocol,
            &plan,
            &[protocol.ranked_configuration(), protocol.worst_case_configuration()],
            &MCheckOptions::default(),
        )
        .unwrap();
        assert!(report.verified(), "{}: {} violations", plan.name(), report.violations);
        assert!(report.perturbations > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The exact expected silence time lies inside the (1.5×-widened) 95%
    /// CI of 200 exact-engine trials, for every enumerable scenario family
    /// of `Silent-n-state-SSR` at n ∈ {2, 3, 4}.
    #[test]
    fn silent_n_state_scenario_times_match_the_exact_engine(seed in 0u64..1_000, n in 2usize..=4) {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = SilentNStateSsr::new(n);
            let config = scenario.configuration(&protocol, seed);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = exact_engine_silence_times(protocol, &config);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("silent-n-state {} n={n} seed={seed}", scenario.name()),
            );
        }
    }

    /// Same agreement for every scenario family of `Optimal-Silent-SSR`
    /// under the mcheck timers at n ∈ {2, 3}.
    #[test]
    fn optimal_silent_scenario_times_match_the_exact_engine(seed in 0u64..1_000, n in 2usize..=3) {
        for scenario in OptimalSilentSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
            let config = scenario.configuration(&protocol, seed);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = exact_engine_silence_times(protocol, &config);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("optimal-silent {} n={n} seed={seed}", scenario.name()),
            );
        }
    }
}

/// The symmetry quotient is an exact lumping: the quotient proof must reach
/// the same verdict as the dense proof while covering the same full lattice
/// with strictly fewer working states (orbit representatives).
#[test]
fn quotient_proof_agrees_with_the_dense_proof() {
    for n in 2..=4usize {
        let dense =
            check_convergence(SilentNStateSsr::new(n), ConvergenceSource::Lattice, &unquotiented())
                .unwrap();
        let quot = check_convergence(
            SilentNStateSsr::new(n),
            ConvergenceSource::Lattice,
            &MCheckOptions::default(),
        )
        .unwrap();
        assert!(dense.verified() && quot.verified(), "n = {n}");
        assert_eq!(quot.configurations, ppsim::mcheck::lattice_size(n, n).unwrap());
        assert_eq!(quot.configurations, dense.configurations);
        assert_eq!(dense.group_order, 1, "unquotiented means the identity group");
        assert_eq!(quot.group_order, n as u128, "CyclicRotation on n ranks");
        assert!(quot.states <= dense.states, "the quotient never grows the space");
        // Orbits have size at most |G|, so they cannot undercount either.
        assert!(quot.states as u128 * quot.group_order >= quot.configurations);
        // The unique silent multiset (every rank once) is rotation-fixed:
        // one silent orbit, and it is the one correct orbit.
        assert_eq!(quot.silent, 1);
        assert_eq!(quot.correct, 1);
    }

    // Optimal-Silent-SSR declares a product-of-swaps group (SymmetricBlocks)
    // rather than a rotation; the agreement must hold there too.
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(3));
    let dense = check_convergence(protocol, ConvergenceSource::Lattice, &unquotiented()).unwrap();
    let quot =
        check_convergence(protocol, ConvergenceSource::Lattice, &MCheckOptions::default()).unwrap();
    assert!(dense.verified() && quot.verified());
    assert_eq!(quot.configurations, dense.configurations);
    assert!(quot.states < dense.states, "a nontrivial group must shrink the space");
}

/// Silent-n-state-SSR judged by a rotation-invariant oracle that it does not
/// satisfy: "no rank is held by three or more agents" accepts non-silent
/// configurations (any two duplicated ranks), so the proof must fail with a
/// correct-but-non-silent witness — and the quotient proof must still lift
/// its representative path into a concrete trace.
#[derive(Clone, Copy, Debug)]
struct AtMostPairs(SilentNStateSsr);

impl Protocol for AtMostPairs {
    type State = <SilentNStateSsr as Protocol>::State;
    fn population_size(&self) -> usize {
        self.0.population_size()
    }
    fn transition(
        &self,
        a: &Self::State,
        b: &Self::State,
        rng: &mut dyn rand::RngCore,
    ) -> (Self::State, Self::State) {
        self.0.transition(a, b, rng)
    }
    fn is_null(&self, a: &Self::State, b: &Self::State) -> bool {
        self.0.is_null(a, b)
    }
}

impl EnumerableProtocol for AtMostPairs {
    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn state_index(&self, s: &Self::State) -> usize {
        self.0.state_index(s)
    }
    fn state_from_index(&self, i: usize) -> Self::State {
        self.0.state_from_index(i)
    }
    fn state_symmetry(&self) -> StateSymmetry {
        self.0.state_symmetry()
    }
}

impl CorrectnessOracle for AtMostPairs {
    fn is_correct(&self, config: &Configuration<Self::State>) -> bool {
        counts_of(self, config).iter().all(|&c| c <= 2)
    }
}

fn counts_of<P: EnumerableProtocol>(protocol: &P, config: &Configuration<P::State>) -> Vec<u32> {
    let mut counts = vec![0u32; protocol.num_states()];
    for s in config.iter() {
        counts[protocol.state_index(s)] += 1;
    }
    counts
}

#[test]
fn quotient_counterexample_trace_lifts_to_concrete_interactions() {
    let n = 5;
    let protocol = AtMostPairs(SilentNStateSsr::new(n));
    let report =
        check_convergence(protocol, ConvergenceSource::Lattice, &MCheckOptions::default()).unwrap();
    assert!(!report.verified());
    assert_eq!(report.group_order, n as u128, "the proof ran on the rotation quotient");
    assert!(report.correct_nonsilent > 0);
    assert_eq!(report.non_convergent, 0, "every configuration still ranks itself");
    let witness = report.correct_nonsilent_witness.as_ref().unwrap();
    let trace = report.counterexample_trace().expect("a refuted proof has a trace");
    let snapshots = trace.snapshots();
    assert!(snapshots.len() > 1, "the witness has ancestors on the quotient");
    // Consecutive snapshots are exactly one non-null interaction apart.
    for pair in snapshots.windows(2) {
        let (before, after) = (&pair[0].1, &pair[1].1);
        let target = counts_of(&protocol, after);
        let states: Vec<_> = before.iter().cloned().collect();
        let mut one_step = false;
        for x in 0..n {
            for y in 0..n {
                if x == y || protocol.is_null(&states[x], &states[y]) {
                    continue;
                }
                let mut next = states.clone();
                let mut rng = rand::rngs::mock::StepRng::new(0, 0);
                (next[x], next[y]) = protocol.transition(&states[x], &states[y], &mut rng);
                one_step |= counts_of(&protocol, &Configuration::from_states(next)) == target;
            }
        }
        assert!(one_step, "{before:?} → {after:?} is not one non-null interaction");
    }
    // The last snapshot lies in the witness's orbit.
    let symmetry = protocol.state_symmetry();
    let mut last = counts_of(&protocol, &snapshots.last().unwrap().1);
    let mut orbit = counts_of(&protocol, witness);
    symmetry.canonicalize(&mut last);
    symmetry.canonicalize(&mut orbit);
    assert_eq!(last, orbit);
}

/// A nontrivial group raises the lattice time guard to
/// `max_configurations × |G|`, so the one-bit-per-configuration convergent
/// set is bounded by `max_resident_bytes` instead: past it the check refuses
/// with a typed error before allocating.
#[test]
fn quotient_lattice_refuses_past_the_resident_memory_bound() {
    let n = 8; // C(15, 7) = 6 435 configurations: 101 words = 808 bytes of bitset
    let options = MCheckOptions {
        max_configurations: 1_000, // × |G| = 8 000 admits the walk
        max_resident_bytes: 512,
        ..MCheckOptions::default()
    };
    let refused = check_convergence(SilentNStateSsr::new(n), ConvergenceSource::Lattice, &options);
    match refused {
        Err(MCheckError::SpaceTooLarge { configurations: 6_435, limit: 4_096 }) => {}
        other => panic!("expected SpaceTooLarge at the memory bound, got {:?}", other.err()),
    }
    let roomy = MCheckOptions { max_resident_bytes: 808, ..options };
    let report =
        check_convergence(SilentNStateSsr::new(n), ConvergenceSource::Lattice, &roomy).unwrap();
    assert!(report.verified());
    assert_eq!(report.states, 810);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Quotient-vs-dense equivalence of the absorbing-chain solve: from any
    /// adversarially seeded configuration at n ∈ {2, 3, 4}, the expected
    /// silence time computed on the symmetry quotient matches the dense
    /// (unquotiented) solve to solver precision, the quotient flag is
    /// reported truthfully on both sides, and the quotient never enlarges
    /// the working set.
    #[test]
    fn quotient_expected_times_match_the_dense_solve(
        n in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let dense_options = MCheckOptions { use_symmetry: false, ..MCheckOptions::default() };
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = SilentNStateSsr::new(n);
            let config = scenario.configuration(&protocol, seed);
            let dense = expected_silence_time_exact(protocol, &config, &dense_options).unwrap();
            let quot =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            prop_assert!(!dense.quotient);
            prop_assert!(quot.quotient, "CyclicRotation must engage the quotient");
            prop_assert!(quot.states <= dense.states);
            let rel = (dense.expected_interactions - quot.expected_interactions).abs()
                / dense.expected_interactions.max(1.0);
            prop_assert!(
                rel <= 1e-9,
                "{} n={n}: dense {} vs quotient {}",
                scenario.name(),
                dense.expected_interactions,
                quot.expected_interactions
            );
        }
    }

    /// The same dense-vs-quotient agreement under the SymmetricBlocks group
    /// of Optimal-Silent-SSR with the tiny mcheck timers.
    #[test]
    fn optimal_silent_quotient_times_match_the_dense_solve(
        n in 2usize..=3,
        seed in any::<u64>(),
    ) {
        let dense_options = MCheckOptions { use_symmetry: false, ..MCheckOptions::default() };
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        let config = protocol.adversarial_all_same_rank(1 + (seed % n as u64) as u32);
        let dense = expected_silence_time_exact(protocol, &config, &dense_options).unwrap();
        let quot =
            expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
        prop_assert!(!dense.quotient);
        prop_assert!(quot.quotient);
        prop_assert!(quot.states <= dense.states);
        let rel = (dense.expected_interactions - quot.expected_interactions).abs()
            / dense.expected_interactions.max(1.0);
        prop_assert!(
            rel <= 1e-9,
            "n={n}: dense {} vs quotient {}",
            dense.expected_interactions,
            quot.expected_interactions
        );
    }
}
