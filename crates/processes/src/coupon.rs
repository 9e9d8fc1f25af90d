//! The pairwise coupon-collector process.
//!
//! The lower-bound half of Lemma 2.9 (roll call) first waits for every agent
//! to participate in at least one interaction. Because each interaction draws
//! *two* distinct agents, this is a coupon-collector process collecting two
//! coupons per step, completing after `~ (1/2)·n·ln n` interactions in
//! expectation.

use ppsim::{
    Configuration, CorrectnessOracle, EnumerableProtocol, Protocol, Scenario, StateSymmetry,
};
use rand::{Rng, RngCore};

/// The participation status of one agent in the pairwise coupon collector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CouponState {
    /// The agent has not yet participated in any interaction.
    Fresh,
    /// The agent has participated at least once.
    Collected,
}

/// Agent-level pairwise coupon collector: every interaction marks both
/// participants as collected, and the process is over (silent) when nobody is
/// fresh.
///
/// The silence time of this protocol from the all-fresh configuration has
/// exactly the distribution sampled by
/// [`simulate_pairwise_coupon_collector`], which makes it a useful
/// cross-validation target for the batched engine.
#[derive(Clone, Copy, Debug)]
pub struct Coupon {
    n: usize,
}

impl Coupon {
    /// Creates the protocol for a population of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        Coupon { n }
    }

    /// The standard initial configuration: nobody has participated yet.
    pub fn all_fresh_configuration(&self) -> Configuration<CouponState> {
        Configuration::uniform(CouponState::Fresh, self.n)
    }

    /// A configuration with the first `fresh` agents fresh and the rest
    /// already collected (a skewed head start for the collector).
    ///
    /// # Panics
    ///
    /// Panics if `fresh > n`.
    pub fn skewed_configuration(&self, fresh: usize) -> Configuration<CouponState> {
        assert!(fresh <= self.n, "cannot have more fresh agents than n");
        Configuration::from_fn(self.n, |i| {
            if i < fresh {
                CouponState::Fresh
            } else {
                CouponState::Collected
            }
        })
    }

    /// Skewed coupon-count scenarios for the adversarial-initialization
    /// experiments: the fresh-count extremes (everyone fresh, half fresh,
    /// a single straggler) — each silences exactly when the last fresh agent
    /// participates, and the straggler case isolates the coupon-collector
    /// tail.
    pub fn adversarial_scenarios() -> Vec<Scenario<Self>> {
        vec![
            Scenario::new("all-fresh", |p: &Self, _| p.all_fresh_configuration()),
            Scenario::new("half-fresh", |p: &Self, _| p.skewed_configuration(p.n / 2)),
            Scenario::new("one-straggler", |p: &Self, _| p.skewed_configuration(1)),
        ]
    }
}

impl Protocol for Coupon {
    type State = CouponState;

    fn population_size(&self) -> usize {
        self.n
    }

    fn transition(
        &self,
        _a: &CouponState,
        _b: &CouponState,
        _rng: &mut dyn RngCore,
    ) -> (CouponState, CouponState) {
        (CouponState::Collected, CouponState::Collected)
    }

    fn is_null(&self, a: &CouponState, b: &CouponState) -> bool {
        matches!((a, b), (CouponState::Collected, CouponState::Collected))
    }

    fn deterministic_transitions(&self) -> bool {
        true // the transition ignores its RNG
    }
}

/// Two states (fresh = 0, collected = 1); a pair is non-null whenever a fresh
/// agent participates, so fresh partners with both states and collected only
/// with fresh.
impl EnumerableProtocol for Coupon {
    fn num_states(&self) -> usize {
        2
    }

    fn state_index(&self, state: &CouponState) -> usize {
        match state {
            CouponState::Fresh => 0,
            CouponState::Collected => 1,
        }
    }

    fn state_from_index(&self, index: usize) -> CouponState {
        match index {
            0 => CouponState::Fresh,
            1 => CouponState::Collected,
            _ => unreachable!("coupon has two states"),
        }
    }

    fn interaction_partners(&self, index: usize) -> Option<Vec<usize>> {
        Some(if index == 0 { vec![0, 1] } else { vec![0] })
    }

    /// Deliberately the trivial group: collection is one-directional (fresh
    /// → collected), so no nontrivial relabeling commutes with the
    /// transition.
    fn state_symmetry(&self) -> StateSymmetry {
        StateSymmetry::Identity
    }
}

/// The verification target for [`ppsim::mcheck::check_convergence`]:
/// full participation (no fresh agent left). Silence ⟺ completion, since
/// any fresh agent keeps a non-null pair alive; the model checker proves
/// convergence from every configuration and solves the pairwise
/// coupon-collector expectation exactly.
impl CorrectnessOracle for Coupon {
    fn is_correct(&self, config: &Configuration<CouponState>) -> bool {
        config.iter().all(|s| matches!(s, CouponState::Collected))
    }
}

/// Samples the number of interactions until every one of the `n` agents has
/// participated in at least one interaction.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Example
///
/// ```
/// use processes::simulate_pairwise_coupon_collector;
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let interactions = simulate_pairwise_coupon_collector(10, &mut rng);
/// // At least ⌈n/2⌉ interactions are needed because each touches 2 agents.
/// assert!(interactions >= 5);
/// ```
pub fn simulate_pairwise_coupon_collector(n: usize, rng: &mut impl Rng) -> u64 {
    assert!(n >= 2, "population must have at least two agents");
    let mut touched = vec![false; n];
    let mut remaining = n;
    let mut interactions = 0u64;
    while remaining > 0 {
        interactions += 1;
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        if !touched[a] {
            touched[a] = true;
            remaining -= 1;
        }
        if !touched[b] {
            touched[b] = true;
            remaining -= 1;
        }
    }
    interactions
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::theory::coupon_collector_all_agents_time;
    use ppsim::{run_trials, TrialPlan};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn two_agents_finish_in_one_interaction() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(simulate_pairwise_coupon_collector(2, &mut rng), 1);
    }

    #[test]
    fn completion_requires_at_least_half_n_interactions() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for n in [3usize, 10, 31, 64] {
            let t = simulate_pairwise_coupon_collector(n, &mut rng);
            assert!(t >= (n as u64).div_ceil(2));
        }
    }

    #[test]
    fn mean_parallel_time_is_about_half_ln_n() {
        let n = 500;
        let plan = TrialPlan::new(100, 13);
        let samples = run_trials(&plan, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_pairwise_coupon_collector(n, &mut rng) as f64 / n as f64
        });
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let predicted = coupon_collector_all_agents_time(n);
        let relative_error = (mean - predicted).abs() / predicted;
        assert!(relative_error < 0.2, "mean {mean} vs predicted {predicted}");
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn tiny_population_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = simulate_pairwise_coupon_collector(1, &mut rng);
    }

    #[test]
    fn batched_protocol_matches_specialized_simulation_mean() {
        use ppsim::BatchedSimulation;
        let n = 200;
        let trials = 150;
        let plan = TrialPlan::new(trials, 29);
        let batched = run_trials(&plan, |_, seed| {
            let protocol = Coupon::new(n);
            let config = protocol.all_fresh_configuration();
            let mut sim = BatchedSimulation::new(protocol, &config, seed);
            assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
            assert_eq!(sim.count_of(&CouponState::Fresh), 0);
            sim.interactions().count() as f64
        });
        let specialized = run_trials(&plan, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
            simulate_pairwise_coupon_collector(n, &mut rng) as f64
        });
        let mean_b = batched.iter().sum::<f64>() / trials as f64;
        let mean_s = specialized.iter().sum::<f64>() / trials as f64;
        let relative_gap = (mean_b - mean_s).abs() / mean_s;
        assert!(relative_gap < 0.1, "batched mean {mean_b} vs specialized mean {mean_s}");
    }
}
