//! The slow ("fratricide") leader election `L,L → L,F`.
//!
//! Starting from all leaders, the number of leaders only decreases when two
//! leaders meet, so the process takes `Σ_{i=2}^{n} n(n−1)/(i(i−1)) = (n−1)²`
//! expected interactions, i.e. `Θ(n)` parallel time.
//!
//! The paper uses this process twice:
//!
//! * Observation 2.6 — any *silent* self-stabilizing leader-election protocol
//!   needs `Ω(n)` time, because from a silent single-leader configuration the
//!   adversary can plant a second leader and the two must meet directly;
//! * Lemma 4.2 — during the dormant phase of `Optimal-Silent-SSR`'s reset the
//!   agents run exactly this process so that, with constant probability, a
//!   single leader remains when the population awakens.

use ppsim::{
    Configuration, CorrectnessOracle, EnumerableProtocol, LeaderElectionProtocol, Protocol,
    StateSymmetry,
};
use rand::distributions::Uniform;
use rand::{Rng, RngCore};

use crate::epidemic::sample_geometric;

/// The leader/follower state of the fratricide process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LeaderState {
    /// Candidate leader.
    Leader,
    /// Follower (eliminated candidate).
    Follower,
}

/// Agent-level fratricide protocol: `(L, L) → (L, F)`, every other pair is
/// null.
#[derive(Clone, Copy, Debug)]
pub struct Fratricide {
    n: usize,
}

impl Fratricide {
    /// Creates the protocol for a population of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        Fratricide { n }
    }

    /// The all-leaders initial configuration used by the paper's analyses.
    pub fn all_leaders_configuration(&self) -> Configuration<LeaderState> {
        Configuration::uniform(LeaderState::Leader, self.n)
    }
}

impl Protocol for Fratricide {
    type State = LeaderState;

    fn population_size(&self) -> usize {
        self.n
    }

    fn transition(
        &self,
        a: &LeaderState,
        b: &LeaderState,
        _rng: &mut dyn RngCore,
    ) -> (LeaderState, LeaderState) {
        match (a, b) {
            (LeaderState::Leader, LeaderState::Leader) => {
                (LeaderState::Leader, LeaderState::Follower)
            }
            _ => (*a, *b),
        }
    }

    fn is_null(&self, a: &LeaderState, b: &LeaderState) -> bool {
        !matches!((a, b), (LeaderState::Leader, LeaderState::Leader))
    }

    fn deterministic_transitions(&self) -> bool {
        true // the transition ignores its RNG
    }
}

impl LeaderElectionProtocol for Fratricide {
    fn is_leader(&self, state: &LeaderState) -> bool {
        matches!(state, LeaderState::Leader)
    }
}

/// Two states (leader = 0, follower = 1); the only non-null pair is
/// `(L, L)`, so leaders partner with themselves and followers with nobody —
/// the sparsest possible structure for the batched engine.
impl EnumerableProtocol for Fratricide {
    fn num_states(&self) -> usize {
        2
    }

    fn state_index(&self, state: &LeaderState) -> usize {
        match state {
            LeaderState::Leader => 0,
            LeaderState::Follower => 1,
        }
    }

    fn state_from_index(&self, index: usize) -> LeaderState {
        match index {
            0 => LeaderState::Leader,
            1 => LeaderState::Follower,
            _ => unreachable!("fratricide has two states"),
        }
    }

    fn interaction_partners(&self, index: usize) -> Option<Vec<usize>> {
        Some(if index == 0 { vec![0] } else { vec![] })
    }

    /// Deliberately the trivial group: leaders and followers behave
    /// differently (`(L, L)` is the only non-null pair), so the swap is not
    /// an automorphism.
    fn state_symmetry(&self) -> StateSymmetry {
        StateSymmetry::Identity
    }
}

/// The verification target for [`ppsim::mcheck::check_convergence`]:
/// **at most** one leader — deliberately not "exactly one". Fratricide
/// cannot create leaders, so the all-followers configuration is silent and
/// leaderless; judged by the strict unique-leader oracle the model checker
/// *falsifies* self-stabilization with that configuration as witness, which
/// is Observation 2.6's reason silent SSLE needs `Ω(n)` time machine-checked
/// (see this crate's `mcheck` integration tests). Under the honest
/// at-most-one oracle every configuration converges, and the exact expected
/// silence time from all leaders is `(n − 1)²` (proof of Lemma 4.2).
impl CorrectnessOracle for Fratricide {
    fn is_correct(&self, config: &Configuration<LeaderState>) -> bool {
        self.leader_count(config) <= 1
    }
}

/// Fratricide judged as a leader *election* protocol: correct means exactly
/// one leader. Fratricide cannot create leaders, so the all-followers
/// configuration is a silent, inescapable trap, and the model checker
/// refutes self-stabilization with it as witness — Observation 2.6's
/// negative result, machine-checked.
#[derive(Clone, Copy, Debug)]
pub struct FratricideAsElection(pub Fratricide);

impl Protocol for FratricideAsElection {
    type State = LeaderState;

    fn population_size(&self) -> usize {
        self.0.population_size()
    }

    fn transition(
        &self,
        a: &LeaderState,
        b: &LeaderState,
        rng: &mut dyn RngCore,
    ) -> (LeaderState, LeaderState) {
        self.0.transition(a, b, rng)
    }

    fn is_null(&self, a: &LeaderState, b: &LeaderState) -> bool {
        self.0.is_null(a, b)
    }
}

impl EnumerableProtocol for FratricideAsElection {
    fn num_states(&self) -> usize {
        self.0.num_states()
    }

    fn state_index(&self, state: &LeaderState) -> usize {
        self.0.state_index(state)
    }

    fn state_from_index(&self, index: usize) -> LeaderState {
        self.0.state_from_index(index)
    }
}

impl CorrectnessOracle for FratricideAsElection {
    fn is_correct(&self, config: &Configuration<LeaderState>) -> bool {
        self.0.leader_count(config) == 1
    }
}

/// Samples the number of interactions for fratricide to reduce
/// `initial_leaders` leaders to a single leader in a population of `n`.
///
/// The leader count is a sufficient statistic: from `i` leaders the waiting
/// time for the next elimination is geometric with success probability
/// `i(i−1)/(n(n−1))`.
///
/// # Panics
///
/// Panics if `n < 2` or `initial_leaders` is not in `1..=n`.
pub fn simulate_fratricide_interactions(
    n: usize,
    initial_leaders: usize,
    rng: &mut impl Rng,
) -> u64 {
    assert!(n >= 2, "population must have at least two agents");
    assert!((1..=n).contains(&initial_leaders), "initial leader count must be in 1..=n");
    let ordered_pairs = (n as f64) * (n as f64 - 1.0);
    let uniform = Uniform::new(0.0f64, 1.0);
    let mut interactions = 0u64;
    for i in (2..=initial_leaders).rev() {
        let p = (i as f64) * (i as f64 - 1.0) / ordered_pairs;
        interactions += sample_geometric(p, uniform, rng);
    }
    interactions
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::theory::fratricide_expected_interactions;
    use ppsim::{run_trials, Simulation, TrialPlan};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn protocol_elects_exactly_one_leader() {
        let protocol = Fratricide::new(60);
        let config = protocol.all_leaders_configuration();
        let mut sim = Simulation::new(protocol, config, 4);
        let outcome = sim.run_until_silent(10_000_000);
        assert!(outcome.is_silent());
        assert!(sim.protocol().has_unique_leader(sim.configuration()));
    }

    #[test]
    fn all_followers_stays_leaderless_forever() {
        // This is exactly the failure mode that motivates self-stabilization:
        // the fratricide protocol cannot create leaders.
        let protocol = Fratricide::new(20);
        let config = Configuration::uniform(LeaderState::Follower, 20);
        let mut sim = Simulation::new(protocol, config, 4);
        assert!(sim.is_silent());
        sim.run_for(10_000);
        assert_eq!(sim.protocol().leader_count(sim.configuration()), 0);
    }

    #[test]
    fn specialized_simulation_matches_closed_form_expectation() {
        let n = 150;
        let plan = TrialPlan::new(200, 77);
        let samples = run_trials(&plan, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_fratricide_interactions(n, n, &mut rng) as f64
        });
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let expected = fratricide_expected_interactions(n);
        let relative_error = (mean - expected).abs() / expected;
        assert!(relative_error < 0.15, "mean {mean} vs expected {expected}");
    }

    #[test]
    fn single_leader_needs_no_interactions() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(simulate_fratricide_interactions(10, 1, &mut rng), 0);
    }

    #[test]
    fn two_candidates_in_a_pair_meet_immediately() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(simulate_fratricide_interactions(2, 2, &mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "1..=n")]
    fn zero_leaders_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = simulate_fratricide_interactions(10, 0, &mut rng);
    }
}
