//! The two-way epidemic process (Lemma 2.7, Corollary 2.8).
//!
//! Agents carry a boolean `infected` flag; when two agents interact both end
//! up infected if either was. Starting from a single infected agent, the
//! number of interactions `T_n` until the whole population is infected
//! satisfies `E[T_n] = (n − 1)·H_{n−1} ~ n·ln n` and, for `n ≥ 8`,
//! `P[T_n > (1+δ)·E[T_n]] ≤ 2.5·ln(n)·n^{−2δ}` (Lemma 2.7), which yields
//! `P[T_n > 3·n·ln n] < 1/n²` (Corollary 2.8).
//!
//! The module provides both an agent-level [`Protocol`] implementation and a
//! specialized simulation that samples `T_n` directly from the chain of
//! geometric waiting times (the number of infected agents is a sufficient
//! statistic for this process).

use ppsim::{
    Configuration, CorrectnessOracle, EnumerableProtocol, Protocol, Scenario, StateSymmetry,
};
use rand::distributions::{Distribution, Uniform};
use rand::{Rng, RngCore};

/// The infection status of one agent in the two-way epidemic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EpidemicState {
    /// The agent has heard the rumour.
    Infected,
    /// The agent has not yet heard the rumour.
    Susceptible,
}

/// Agent-level two-way epidemic protocol: `a.infected, b.infected ←
/// a.infected ∨ b.infected`.
#[derive(Clone, Copy, Debug)]
pub struct Epidemic {
    n: usize,
}

impl Epidemic {
    /// Creates the epidemic protocol for a population of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        Epidemic { n }
    }

    /// The standard initial configuration: one infected agent (agent 0), the
    /// rest susceptible.
    pub fn single_source_configuration(&self) -> Configuration<EpidemicState> {
        Configuration::from_fn(self.n, |i| {
            if i == 0 {
                EpidemicState::Infected
            } else {
                EpidemicState::Susceptible
            }
        })
    }

    /// A configuration with the first `infected` agents infected and the rest
    /// susceptible.
    ///
    /// # Panics
    ///
    /// Panics if `infected > n`.
    pub fn seeded_configuration(&self, infected: usize) -> Configuration<EpidemicState> {
        assert!(infected <= self.n, "cannot infect more than n agents");
        Configuration::from_fn(self.n, |i| {
            if i < infected {
                EpidemicState::Infected
            } else {
                EpidemicState::Susceptible
            }
        })
    }

    /// Whether every agent is infected.
    pub fn is_complete(config: &Configuration<EpidemicState>) -> bool {
        config.iter().all(|s| matches!(s, EpidemicState::Infected))
    }

    /// Seeded-epidemic corner cases for the adversarial-initialization
    /// experiments: the infection-count extremes (one source, a half-infected
    /// population, all but one infected) plus an independently random seed
    /// set — each silences exactly when the infection completes.
    pub fn adversarial_scenarios() -> Vec<Scenario<Self>> {
        vec![
            Scenario::new("single-source", |p: &Self, _| p.seeded_configuration(1)),
            Scenario::new("half-infected", |p: &Self, _| p.seeded_configuration(p.n / 2)),
            Scenario::new("all-but-one", |p: &Self, _| p.seeded_configuration(p.n - 1)),
            Scenario::new("random-seeds", |p: &Self, rng| {
                // At least one source, each further agent infected by coin flip.
                Configuration::from_fn(p.n, |i| {
                    if i == 0 || rng.gen_bool(0.5) {
                        EpidemicState::Infected
                    } else {
                        EpidemicState::Susceptible
                    }
                })
            }),
        ]
    }
}

impl Protocol for Epidemic {
    type State = EpidemicState;

    fn population_size(&self) -> usize {
        self.n
    }

    fn transition(
        &self,
        a: &EpidemicState,
        b: &EpidemicState,
        _rng: &mut dyn RngCore,
    ) -> (EpidemicState, EpidemicState) {
        if matches!(a, EpidemicState::Infected) || matches!(b, EpidemicState::Infected) {
            (EpidemicState::Infected, EpidemicState::Infected)
        } else {
            (*a, *b)
        }
    }

    fn is_null(&self, a: &EpidemicState, b: &EpidemicState) -> bool {
        a == b
    }

    fn deterministic_transitions(&self) -> bool {
        true // the transition ignores its RNG
    }
}

/// Two states (susceptible = 0, infected = 1); a pair is non-null exactly
/// when the two statuses differ, so each state's only interaction partner is
/// the other one and the batched engine runs on its indexed backend.
impl EnumerableProtocol for Epidemic {
    fn num_states(&self) -> usize {
        2
    }

    fn state_index(&self, state: &EpidemicState) -> usize {
        match state {
            EpidemicState::Susceptible => 0,
            EpidemicState::Infected => 1,
        }
    }

    fn state_from_index(&self, index: usize) -> EpidemicState {
        match index {
            0 => EpidemicState::Susceptible,
            1 => EpidemicState::Infected,
            _ => unreachable!("epidemic has two states"),
        }
    }

    fn interaction_partners(&self, index: usize) -> Option<Vec<usize>> {
        Some(vec![1 - index])
    }

    /// Deliberately the trivial group: infection is one-directional
    /// (susceptible → infected, never back), so swapping the two states is
    /// *not* an automorphism and no nontrivial relabeling commutes with the
    /// transition.
    fn state_symmetry(&self) -> StateSymmetry {
        StateSymmetry::Identity
    }
}

/// The verification target for [`ppsim::mcheck::check_convergence`]:
/// **consensus** on the infection status. Silence ⟺ everyone agrees (a
/// mixed population always holds a non-null `(Infected, Susceptible)`
/// pair), and the exact expected silence time from a single source is
/// `(n − 1)·H_{n−1}` — Lemma 2.7's closed form, which the model checker's
/// absorbing-chain solve reproduces to machine precision.
impl CorrectnessOracle for Epidemic {
    fn is_correct(&self, config: &Configuration<EpidemicState>) -> bool {
        let mut states = config.iter();
        let first = states.next();
        states.all(|s| Some(s) == first)
    }
}

/// Samples the number of interactions for the two-way epidemic to infect all
/// `n` agents, starting from `initially_infected` infected agents.
///
/// The count of infected agents is a Markov chain: with `i` infected, the
/// probability that the next interaction infects someone new is
/// `2·i·(n−i) / (n·(n−1))`, so the waiting time is geometric. Summing the `n −
/// i₀` geometric waits samples `T_n` from its exact distribution without
/// simulating individual agents.
///
/// # Panics
///
/// Panics if `n < 2` or `initially_infected` is not in `1..=n`.
pub fn simulate_epidemic_interactions(
    n: usize,
    initially_infected: usize,
    rng: &mut impl Rng,
) -> u64 {
    assert!(n >= 2, "population must have at least two agents");
    assert!((1..=n).contains(&initially_infected), "initially infected count must be in 1..=n");
    let ordered_pairs = (n as f64) * (n as f64 - 1.0);
    let uniform = Uniform::new(0.0f64, 1.0);
    let mut interactions = 0u64;
    for i in initially_infected..n {
        let p = 2.0 * (i as f64) * ((n - i) as f64) / ordered_pairs;
        interactions += sample_geometric(p, uniform, rng);
    }
    interactions
}

/// Samples a geometric random variable (number of trials up to and including
/// the first success) with success probability `p` by inversion.
pub(crate) fn sample_geometric(p: f64, uniform: Uniform<f64>, rng: &mut impl Rng) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0);
    if p >= 1.0 {
        return 1;
    }
    let u: f64 = uniform.sample(rng);
    // Inversion: ceil(ln(1-u) / ln(1-p)), with u in [0,1).
    let trials = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
    trials.max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::theory::epidemic_expected_interactions;
    use ppsim::{run_trials, Simulation, TrialPlan};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn protocol_infects_everyone_and_becomes_silent() {
        let protocol = Epidemic::new(30);
        let config = protocol.single_source_configuration();
        let mut sim = Simulation::new(protocol, config, 17);
        let outcome = sim.run_until(Epidemic::is_complete, 1_000_000);
        assert!(outcome.condition_met());
        assert!(sim.is_silent());
    }

    #[test]
    fn fully_susceptible_population_is_silent() {
        let protocol = Epidemic::new(10);
        let config = Configuration::uniform(EpidemicState::Susceptible, 10);
        let sim = Simulation::new(protocol, config, 0);
        assert!(sim.is_silent());
    }

    #[test]
    fn specialized_simulation_matches_lemma_2_7_expectation() {
        let n = 200;
        let plan = TrialPlan::new(300, 42);
        let samples = run_trials(&plan, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_epidemic_interactions(n, 1, &mut rng) as f64
        });
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let expected = epidemic_expected_interactions(n);
        let relative_error = (mean - expected).abs() / expected;
        assert!(
            relative_error < 0.1,
            "mean {mean} deviates from expectation {expected} by {relative_error}"
        );
    }

    #[test]
    fn specialized_and_agent_level_simulations_agree() {
        // Compare the mean of T_n sampled both ways for a small population.
        let n = 40;
        let trials = 120;
        let plan = TrialPlan::new(trials, 7);
        let specialized = run_trials(&plan, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_epidemic_interactions(n, 1, &mut rng) as f64
        });
        let agent_level = run_trials(&plan, |_, seed| {
            let protocol = Epidemic::new(n);
            let config = protocol.single_source_configuration();
            let mut sim = Simulation::new(protocol, config, seed);
            let outcome = sim.run_until(Epidemic::is_complete, 10_000_000);
            assert!(outcome.condition_met());
            outcome.interactions.count() as f64
        });
        let mean_a = specialized.iter().sum::<f64>() / trials as f64;
        let mean_b = agent_level.iter().sum::<f64>() / trials as f64;
        // The agent-level measurement is granular (checks every ~n/8
        // interactions), so allow a generous tolerance.
        let relative_gap = (mean_a - mean_b).abs() / mean_a;
        assert!(relative_gap < 0.2, "means disagree: {mean_a} vs {mean_b}");
    }

    #[test]
    fn starting_fully_infected_takes_no_interactions() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(simulate_epidemic_interactions(10, 10, &mut rng), 0);
    }

    #[test]
    fn two_agents_need_exactly_one_interaction() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(simulate_epidemic_interactions(2, 1, &mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "in 1..=n")]
    fn zero_initially_infected_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = simulate_epidemic_interactions(10, 0, &mut rng);
    }

    #[test]
    fn geometric_sampler_has_correct_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let uniform = Uniform::new(0.0f64, 1.0);
        let p = 0.05;
        let samples = 20_000;
        let total: u64 = (0..samples).map(|_| sample_geometric(p, uniform, &mut rng)).sum();
        let mean = total as f64 / samples as f64;
        assert!((mean - 1.0 / p).abs() / (1.0 / p) < 0.05, "geometric mean {mean}");
    }

    #[test]
    fn geometric_sampler_handles_certain_success() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let uniform = Uniform::new(0.0f64, 1.0);
        assert_eq!(sample_geometric(1.0, uniform, &mut rng), 1);
    }
}
