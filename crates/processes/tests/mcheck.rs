//! Exhaustive model-checking suites for the foundational processes: full
//! two-state lattices are tiny (`n + 1` configurations), so convergence is
//! proved up to much larger `n` than the ranking protocols, and two of the
//! three processes come with *exact* closed forms the absorbing-chain solve
//! must reproduce to machine precision.

use analysis::theory::{epidemic_expected_interactions, fratricide_expected_interactions};
use analysis::{t_quantile_975, Summary};
use ppsim::mcheck::{
    check_convergence, expected_silence_time_exact, ConvergenceSource, MCheckError, MCheckOptions,
};
use ppsim::{run_trials, Configuration, Simulation, TrialPlan};
use processes::{Coupon, Epidemic, Fratricide, FratricideAsElection, LeaderState};
use proptest::prelude::*;

fn assert_mean_matches_exact(samples: &[f64], exact: f64, context: &str) {
    let summary = Summary::from_samples(samples);
    let allowance = 1.5 * t_quantile_975(summary.count - 1) * summary.standard_error();
    assert!(
        (summary.mean - exact).abs() <= allowance.max(1e-9),
        "{context}: simulated mean {} vs exact {exact} (allowance {allowance})",
        summary.mean
    );
}

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
fn epidemic_coupon_and_fratricide_verify_exhaustively_up_to_n32() {
    for n in [2usize, 3, 5, 8, 16, 32] {
        let options = MCheckOptions::default();
        let epidemic = check_convergence(Epidemic::new(n), ConvergenceSource::Lattice, &options)
            .expect("epidemic lattice is n + 1 configurations");
        assert!(epidemic.verified(), "epidemic n = {n}");
        assert_eq!(epidemic.configurations as usize, n + 1);
        assert_eq!(epidemic.silent, 2, "all-susceptible and all-infected consensus");

        let coupon =
            check_convergence(Coupon::new(n), ConvergenceSource::Lattice, &options).unwrap();
        assert!(coupon.verified(), "coupon n = {n}");
        assert_eq!(coupon.silent, 1, "only full participation is silent");

        let fratricide =
            check_convergence(Fratricide::new(n), ConvergenceSource::Lattice, &options).unwrap();
        assert!(fratricide.verified(), "fratricide n = {n}");
        assert_eq!(fratricide.silent, 2, "zero or one leader");
    }
}

#[test]
fn epidemic_exact_time_is_the_lemma_2_7_closed_form() {
    // E[T_n] = (n − 1)·H_{n−1} from a single source — an *exact* identity,
    // reproduced by the absorbing-chain solve to machine precision.
    for n in [2usize, 3, 5, 8, 21, 64] {
        let protocol = Epidemic::new(n);
        let exact = expected_silence_time_exact(
            protocol,
            &protocol.single_source_configuration(),
            &MCheckOptions::default(),
        )
        .unwrap();
        let closed_form = epidemic_expected_interactions(n);
        assert!(
            (exact.expected_interactions - closed_form).abs() <= 1e-9 * closed_form,
            "n = {n}: {} vs (n−1)·H_(n−1) = {closed_form}",
            exact.expected_interactions
        );
        assert_eq!(exact.states, n, "infection counts 1..=n");
    }
}

#[test]
fn fratricide_exact_time_is_the_lemma_4_2_closed_form() {
    // E = Σ_{i=2}^{n} n(n−1)/(i(i−1)) = (n − 1)² from all leaders.
    for n in [2usize, 3, 5, 8, 21, 64] {
        let protocol = Fratricide::new(n);
        let exact = expected_silence_time_exact(
            protocol,
            &protocol.all_leaders_configuration(),
            &MCheckOptions::default(),
        )
        .unwrap();
        let closed_form = fratricide_expected_interactions(n);
        assert!(
            (exact.expected_interactions - closed_form).abs() <= 1e-9 * closed_form,
            "n = {n}: {} vs (n−1)² = {closed_form}",
            exact.expected_interactions
        );
    }
}

#[test]
fn n2_closed_forms_pin_the_solver() {
    // Every two-agent process silences in exactly one interaction from its
    // active start: the pair must meet, and any meeting completes it.
    let options = MCheckOptions::default();
    let cells: [(f64, f64); 3] = [
        (
            expected_silence_time_exact(
                Epidemic::new(2),
                &Epidemic::new(2).single_source_configuration(),
                &options,
            )
            .unwrap()
            .expected_interactions,
            1.0,
        ),
        (
            expected_silence_time_exact(
                Coupon::new(2),
                &Coupon::new(2).all_fresh_configuration(),
                &options,
            )
            .unwrap()
            .expected_interactions,
            1.0,
        ),
        (
            expected_silence_time_exact(
                Fratricide::new(2),
                &Fratricide::new(2).all_leaders_configuration(),
                &options,
            )
            .unwrap()
            .expected_interactions,
            1.0,
        ),
    ];
    for (got, want) in cells {
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }
}

#[test]
fn fratricide_under_the_strict_oracle_is_falsified_with_the_leaderless_witness() {
    let report = check_convergence(
        FratricideAsElection(Fratricide::new(8)),
        ConvergenceSource::Lattice,
        &MCheckOptions::default(),
    )
    .unwrap();
    assert!(!report.verified());
    assert_eq!(report.silent_incorrect, 1, "the all-followers configuration");
    assert_eq!(report.non_convergent, 1, "nothing escapes it");
    let witness = report.non_convergent_witness.as_ref().unwrap();
    assert!(witness.iter().all(|s| matches!(s, LeaderState::Follower)));
    // The counterexample trace ends at the witness.
    let trace = report.counterexample_trace().unwrap();
    let (_, last) = trace.last_snapshot().unwrap();
    assert_eq!(last, witness);

    // From a leaderless start the expected *silence* time is 0 but the
    // expectation machinery agrees the chain is stuck there: every state of
    // its closure is the single silent (wrong) configuration.
    let leaderless = Configuration::uniform(LeaderState::Follower, 8);
    let exact = expected_silence_time_exact(
        FratricideAsElection(Fratricide::new(8)),
        &leaderless,
        &MCheckOptions::default(),
    )
    .unwrap();
    assert_eq!(exact.expected_interactions, 0.0);
    assert_eq!(exact.states, 1);
    let _ = MCheckError::NonConvergent; // referenced: the failure mode the verdict reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exact expected time inside the (1.5×-widened) 95% CI of 200
    /// exact-engine trials for every enumerable scenario family of the
    /// processes at n ∈ {2, 3, 4}.
    #[test]
    fn process_scenario_times_match_the_exact_engine(seed in 0u64..1_000, n in 2usize..=4) {
        for scenario in Epidemic::adversarial_scenarios() {
            let protocol = Epidemic::new(n);
            let config = scenario.configuration(&protocol, seed);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = exact_engine_silence_times(protocol, &config);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("epidemic {} n={n} seed={seed}", scenario.name()),
            );
        }
        for scenario in Coupon::adversarial_scenarios() {
            let protocol = Coupon::new(n);
            let config = scenario.configuration(&protocol, seed);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = exact_engine_silence_times(protocol, &config);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("coupon {} n={n} seed={seed}", scenario.name()),
            );
        }
        // Fratricide exposes no scenario families; its canonical adversarial
        // start is all leaders.
        let protocol = Fratricide::new(n);
        let config = protocol.all_leaders_configuration();
        let exact =
            expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
        let samples = exact_engine_silence_times(protocol, &config);
        assert_mean_matches_exact(
            &samples,
            exact.expected_interactions,
            &format!("fratricide all-leaders n={n}"),
        );
    }
}

/// The streamed (spilled) solve is exact, not approximate: with a zero
/// resident-edge budget every successor list spills to a temp file, the
/// Gauss–Seidel sweeps stream from the distance-ordered edge file, and the
/// Lemma 4.2 closed form `(n − 1)²` must still come out to solver precision.
/// The `spilled` flag in the report proves the disk path actually ran.
#[test]
fn spilled_solve_reproduces_the_fratricide_closed_form() {
    for n in [8usize, 48] {
        let protocol = Fratricide::new(n);
        let options = MCheckOptions { max_resident_bytes: 0, ..MCheckOptions::default() };
        let exact =
            expected_silence_time_exact(protocol, &protocol.all_leaders_configuration(), &options)
                .unwrap();
        assert!(exact.spilled, "a zero resident budget must route through the spill store");
        let closed_form = fratricide_expected_interactions(n);
        assert!(
            (exact.expected_interactions - closed_form).abs() <= 1e-9 * closed_form,
            "n = {n}: spilled solve {} vs (n−1)² = {closed_form}",
            exact.expected_interactions
        );
        // The resident solve on the same chain agrees exactly.
        let resident = expected_silence_time_exact(
            protocol,
            &protocol.all_leaders_configuration(),
            &MCheckOptions::default(),
        )
        .unwrap();
        assert!(!resident.spilled);
        assert_eq!(resident.states, exact.states);
        assert!(
            (exact.expected_interactions - resident.expected_interactions).abs()
                <= 1e-9 * closed_form
        );
    }
}

/// Spilling composes with the symmetry quotient: the epidemic's two-state
/// space is symmetric only trivially, but Silent-n-state-SSR routed through
/// `ssle` is covered in that crate — here the identity-symmetry processes
/// must report `quotient == false` while still honoring the spill path.
#[test]
fn identity_symmetry_processes_never_claim_the_quotient() {
    let options = MCheckOptions { max_resident_bytes: 0, ..MCheckOptions::default() };
    let exact = expected_silence_time_exact(
        Epidemic::new(16),
        &Epidemic::new(16).single_source_configuration(),
        &options,
    )
    .unwrap();
    assert!(!exact.quotient, "the epidemic declares the identity symmetry");
    assert!(exact.spilled);
    let closed_form = epidemic_expected_interactions(16);
    assert!((exact.expected_interactions - closed_form).abs() <= 1e-9 * closed_form);
}
