//! `Silent-n-state-SSR` (Protocol 1) — the baseline protocol of Cai, Izumi
//! and Wada.
//!
//! Every agent holds a rank in `{0, …, n−1}`; when two agents with equal ranks
//! meet, the responder moves up by one rank (mod `n`). The protocol is silent,
//! uses the provably optimal `n` states, and stabilizes in `Θ(n²)` parallel
//! time (Theorem 2.4) — exponentially slower than the paper's new protocols.
//!
//! The key correctness invariant is the existence of a *barrier rank*
//! (Lemmas 2.2 and 2.3): in any configuration there is a rank `k` such that
//! every window of ranks ending at `k` contains at most as many agents as
//! ranks, which prevents the rank counts from cycling forever. The helper
//! [`SilentNStateSsr::barrier_rank`] computes such a `k` and the property
//! tests in this crate verify it is preserved by transitions.

use ppsim::{
    Configuration, CorrectnessOracle, CorruptionTarget, EnumerableProtocol, FaultPlan,
    LeaderElectionProtocol, Protocol, Rank, RankingProtocol, Scenario, StateSymmetry,
};
use rand::{Rng, RngCore};

/// The state of one agent: its claimed rank, in the paper's `0`-based
/// convention `{0, …, n−1}`.
///
/// The [`RankingProtocol`] implementation reports ranks `1..=n` (adding one),
/// so rank 0 here corresponds to the leader.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SilentRank(pub u32);

/// `Silent-n-state-SSR` (Protocol 1): on interaction of two agents with equal
/// ranks, the responder's rank becomes `(rank + 1) mod n`.
#[derive(Clone, Copy, Debug)]
pub struct SilentNStateSsr {
    n: usize,
}

impl SilentNStateSsr {
    /// Creates the protocol for a population of exactly `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        SilentNStateSsr { n }
    }

    /// The adversarial configuration in which every agent claims rank 0.
    pub fn all_same_rank_configuration(&self) -> Configuration<SilentRank> {
        Configuration::uniform(SilentRank(0), self.n)
    }

    /// The worst-case initial configuration of Theorem 2.4's lower bound: two
    /// agents at rank 0, no agent at rank `n−1`, and one agent at every other
    /// rank. The duplicate must be pushed through `n−1` consecutive bottleneck
    /// collisions, each requiring two specific agents to meet, giving `Θ(n²)`
    /// expected parallel time.
    pub fn worst_case_configuration(&self) -> Configuration<SilentRank> {
        Configuration::from_fn(self.n, |i| {
            if i == self.n - 1 {
                SilentRank(0)
            } else {
                SilentRank(i as u32)
            }
        })
    }

    /// A uniformly random configuration (each agent gets an independent
    /// uniform rank), the "typical" adversarial start used in experiments.
    pub fn random_configuration(&self, rng: &mut impl rand::Rng) -> Configuration<SilentRank> {
        let n = self.n as u32;
        Configuration::from_fn(self.n, |_| SilentRank(rng.gen_range(0..n)))
    }

    /// An adversarial configuration with **no leader**: every agent claims a
    /// rank in the lower half of `1..n`, so rank 0 (the leader rank) is
    /// unclaimed and most ranks hold two or three agents. (A single-duplicate
    /// zero-leader configuration would be a rank rotation of
    /// [`SilentNStateSsr::worst_case_configuration`] — the transition is
    /// shift-equivariant — so this family crams the population instead, a
    /// genuinely different token placement.) The duplicates must spread out
    /// and walk the rank cycle until one of them claims rank 0.
    pub fn zero_leader_configuration(&self) -> Configuration<SilentRank> {
        let half = ((self.n as u32 - 1) / 2).max(1);
        Configuration::from_fn(self.n, |i| SilentRank(1 + (i as u32 % half)))
    }

    /// A *near-silent-but-wrong* adversarial configuration: a unique leader
    /// (rank 0) with inconsistent follower tokens — agent `i` claims rank `i`
    /// except the last agent, which duplicates rank `n − 2` and leaves rank
    /// `n − 1` unclaimed. Exactly one unordered pair is active, so the
    /// configuration sits one collision away from silence yet is incorrectly
    /// ranked; silence detection and stabilization must both still fire.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (with two agents a duplicate of rank `n − 2 = 0`
    /// would be a second leader, not an inconsistent follower).
    pub fn near_silent_wrong_configuration(&self) -> Configuration<SilentRank> {
        assert!(self.n >= 3, "the near-silent-wrong family needs at least three agents");
        let n = self.n as u32;
        Configuration::from_fn(self.n, |i| {
            if i as u32 == n - 1 {
                SilentRank(n - 2)
            } else {
                SilentRank(i as u32)
            }
        })
    }

    /// The protocol's adversarial scenario families, for the
    /// adversarial-initialization experiments (`exp_adversarial`) and the
    /// cross-engine/backend equivalence suites.
    pub fn adversarial_scenarios() -> Vec<Scenario<Self>> {
        vec![
            Scenario::new("all-leader", |p: &Self, _| p.all_same_rank_configuration()),
            Scenario::new("zero-leader", |p: &Self, _| p.zero_leader_configuration()),
            Scenario::new("near-silent-wrong", |p: &Self, _| p.near_silent_wrong_configuration()),
            Scenario::new("worst-case", |p: &Self, _| p.worst_case_configuration()),
            Scenario::new("random", |p: &Self, rng| p.random_configuration(rng)),
        ]
    }

    /// The already-correct configuration assigning agent `i` rank `i`.
    pub fn ranked_configuration(&self) -> Configuration<SilentRank> {
        Configuration::from_fn(self.n, |i| SilentRank(i as u32))
    }

    /// The protocol's adversarial mid-run fault plans, scaled to this
    /// instance's `n`, for the fault-injection experiments (`exp_faults`)
    /// — the [`ppsim::faults`] counterpart of
    /// [`SilentNStateSsr::adversarial_scenarios`].
    ///
    /// Silence from a random start costs ~n³/2 interactions, so bursts are
    /// scheduled in units of n³: the one-shot all-leader burst (k = n/4
    /// agents forced to the leader rank) lands after the run has typically
    /// stabilized, measuring recovery in isolation; the periodic and
    /// Poisson random-rank plans (k = n/8 per burst) also fire while a
    /// previous recovery is still in flight, exercising overlapping bursts.
    pub fn adversarial_fault_plans(&self) -> Vec<FaultPlan<SilentRank>> {
        let cube = (self.n as u64).pow(3);
        let k_big = (self.n / 4).max(1);
        let k_small = (self.n / 8).max(1);
        let ranks = self.n as u32;
        let random_rank =
            || CorruptionTarget::random(move |rng| SilentRank(rng.gen_range(0..ranks)));
        vec![
            FaultPlan::one_shot(cube, k_big, CorruptionTarget::Fixed(SilentRank(0)))
                .with_name("one-shot-all-leader"),
            FaultPlan::periodic(cube, cube / 2, 3, k_small, random_rank())
                .with_name("periodic-random-rank"),
            FaultPlan::poisson(cube / 2, 3 * cube, k_small, random_rank())
                .with_name("poisson-random-rank"),
        ]
    }

    /// A barrier rank for `config` in the sense of Lemma 2.2: a rank `k` such
    /// that for every window length `r`,
    /// `Σ_{d=0}^{r} m_{(k−d) mod n} ≤ r + 1`,
    /// where `m_i` is the number of agents with rank `i`. Lemma 2.3 shows the
    /// property is preserved by every transition, so rank `k` never holds two
    /// agents and the rank counts cannot cycle.
    pub fn barrier_rank(&self, config: &Configuration<SilentRank>) -> u32 {
        let n = self.n;
        let mut counts = vec![0i64; n];
        for s in config.iter() {
            counts[s.0 as usize] += 1;
        }
        // Following the proof of Lemma 2.2: S_i = Σ_{j<=i} (m_j − 1); pick k
        // minimizing S_k.
        let mut best_k = 0usize;
        let mut best_s = i64::MAX;
        let mut running = 0i64;
        for (i, &count) in counts.iter().enumerate() {
            running += count - 1;
            if running < best_s {
                best_s = running;
                best_k = i;
            }
        }
        best_k as u32
    }

    /// Checks the barrier inequality (1) of the paper for a specific rank `k`.
    pub fn barrier_holds(&self, config: &Configuration<SilentRank>, k: u32) -> bool {
        let n = self.n;
        let mut counts = vec![0u64; n];
        for s in config.iter() {
            counts[s.0 as usize] += 1;
        }
        let mut window_sum = 0u64;
        for r in 0..n {
            let idx = (k as usize + n - r) % n;
            window_sum += counts[idx];
            if window_sum > (r as u64) + 1 {
                return false;
            }
        }
        true
    }
}

impl Protocol for SilentNStateSsr {
    type State = SilentRank;

    fn population_size(&self) -> usize {
        self.n
    }

    fn transition(
        &self,
        initiator: &SilentRank,
        responder: &SilentRank,
        _rng: &mut dyn RngCore,
    ) -> (SilentRank, SilentRank) {
        if initiator.0 == responder.0 {
            (*initiator, SilentRank((responder.0 + 1) % self.n as u32))
        } else {
            (*initiator, *responder)
        }
    }

    fn is_null(&self, initiator: &SilentRank, responder: &SilentRank) -> bool {
        initiator.0 != responder.0
    }

    fn deterministic_transitions(&self) -> bool {
        true // the transition ignores its RNG
    }
}

impl RankingProtocol for SilentNStateSsr {
    fn rank(&self, state: &SilentRank) -> Option<Rank> {
        Some(Rank::new(state.0 as usize + 1))
    }
}

/// The batched engine's favourite protocol: `n` states indexed by rank, and a
/// transition that is non-null only on *equal* ranks, so each state's only
/// interaction partner is itself. This unlocks the O(log n)-per-transition
/// indexed backend, which is what makes `n = 10⁵..10⁶` silences simulable.
impl EnumerableProtocol for SilentNStateSsr {
    fn num_states(&self) -> usize {
        self.n
    }

    fn state_index(&self, state: &SilentRank) -> usize {
        let index = state.0 as usize;
        assert!(index < self.n, "rank {index} out of range for n = {}", self.n);
        index
    }

    fn state_from_index(&self, index: usize) -> SilentRank {
        debug_assert!(index < self.n);
        SilentRank(index as u32)
    }

    fn interaction_partners(&self, index: usize) -> Option<Vec<usize>> {
        Some(vec![index])
    }

    /// Rotating every rank by one commutes with the transition (equal ranks
    /// `r` map to `r` and `(r + 1) mod n`, and rotation preserves both), with
    /// the null predicate (rank equality is rotation-invariant), and with the
    /// oracle (a valid ranking has count vector `(1, …, 1)`, a fixed point of
    /// rotation). The quotient shrinks the model checker's configuration
    /// space by a factor approaching `n`.
    fn state_symmetry(&self) -> StateSymmetry {
        StateSymmetry::CyclicRotation
    }
}

impl LeaderElectionProtocol for SilentNStateSsr {
    fn is_leader(&self, state: &SilentRank) -> bool {
        state.0 == 0
    }
}

/// The verification target for [`ppsim::mcheck::check_convergence`]:
/// a valid ranking (every rank exactly once). At small `n` the model checker
/// proves silent ⟺ correctly ranked over the **entire**
/// `C(2n − 1, n)`-configuration lattice and reproduces Theorem 2.4's exact
/// worst-case expectation `(n − 1)·C(n, 2)` via
/// [`ppsim::mcheck::expected_silence_time_exact`].
impl CorrectnessOracle for SilentNStateSsr {
    fn is_correct(&self, config: &Configuration<SilentRank>) -> bool {
        self.is_correctly_ranked(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::Simulation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stabilizes_from_all_zero_configuration() {
        let protocol = SilentNStateSsr::new(24);
        let mut sim = Simulation::new(protocol, protocol.all_same_rank_configuration(), 5);
        let outcome = sim.run_until_silent(50_000_000);
        assert!(outcome.is_silent());
        assert!(sim.protocol().is_correctly_ranked(sim.configuration()));
        assert!(sim.protocol().has_unique_leader(sim.configuration()));
    }

    #[test]
    fn stabilizes_from_worst_case_configuration() {
        let protocol = SilentNStateSsr::new(16);
        let mut sim = Simulation::new(protocol, protocol.worst_case_configuration(), 6);
        let outcome = sim.run_until_silent(50_000_000);
        assert!(outcome.is_silent());
        assert!(sim.protocol().is_correctly_ranked(sim.configuration()));
    }

    #[test]
    fn stabilizes_from_random_configurations() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for seed in 0..5 {
            let protocol = SilentNStateSsr::new(12);
            let config = protocol.random_configuration(&mut rng);
            let mut sim = Simulation::new(protocol, config, seed);
            let outcome = sim.run_until_silent(50_000_000);
            assert!(outcome.is_silent());
            assert!(sim.protocol().is_correctly_ranked(sim.configuration()));
        }
    }

    #[test]
    fn correct_configuration_is_silent_immediately() {
        let protocol = SilentNStateSsr::new(10);
        let sim = Simulation::new(protocol, protocol.ranked_configuration(), 0);
        assert!(sim.is_silent());
        assert!(sim.protocol().is_correctly_ranked(sim.configuration()));
    }

    #[test]
    fn transition_bumps_only_on_equal_ranks() {
        let protocol = SilentNStateSsr::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (a, b) = protocol.transition(&SilentRank(2), &SilentRank(2), &mut rng);
        assert_eq!((a, b), (SilentRank(2), SilentRank(3)));
        let (a, b) = protocol.transition(&SilentRank(4), &SilentRank(4), &mut rng);
        assert_eq!((a, b), (SilentRank(4), SilentRank(0)));
        let (a, b) = protocol.transition(&SilentRank(1), &SilentRank(3), &mut rng);
        assert_eq!((a, b), (SilentRank(1), SilentRank(3)));
    }

    #[test]
    fn worst_case_configuration_has_expected_shape() {
        let protocol = SilentNStateSsr::new(8);
        let config = protocol.worst_case_configuration();
        let mut counts = [0usize; 8];
        for s in config.iter() {
            counts[s.0 as usize] += 1;
        }
        assert_eq!(counts[0], 2);
        assert_eq!(counts[7], 0);
        assert!(counts[1..7].iter().all(|&c| c == 1));
    }

    #[test]
    fn barrier_rank_satisfies_the_lemma_inequality() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let protocol = SilentNStateSsr::new(20);
        for _ in 0..50 {
            let config = protocol.random_configuration(&mut rng);
            let k = protocol.barrier_rank(&config);
            assert!(
                protocol.barrier_holds(&config, k),
                "barrier {k} fails for configuration {config}"
            );
        }
    }

    #[test]
    fn barrier_is_preserved_along_an_execution() {
        // Lemma 2.3: once (1) holds for k it holds forever.
        let protocol = SilentNStateSsr::new(15);
        let config = protocol.all_same_rank_configuration();
        let k = protocol.barrier_rank(&config);
        assert!(protocol.barrier_holds(&config, k));
        let mut sim = Simulation::new(protocol, config, 3);
        for _ in 0..200 {
            sim.run_for(25);
            assert!(sim.protocol().barrier_holds(sim.configuration(), k));
        }
    }

    #[test]
    fn zero_leader_configuration_avoids_rank_zero_and_is_not_silent() {
        let protocol = SilentNStateSsr::new(12);
        let config = protocol.zero_leader_configuration();
        assert!(config.iter().all(|s| s.0 != 0), "no agent may claim the leader rank");
        let sim = Simulation::new(protocol, config, 0);
        assert!(!sim.is_silent(), "pigeonhole duplicates must keep the configuration active");
    }

    #[test]
    fn near_silent_wrong_configuration_has_one_active_pair() {
        let protocol = SilentNStateSsr::new(10);
        let config = protocol.near_silent_wrong_configuration();
        assert!(protocol.has_unique_leader(&config));
        assert!(!protocol.is_correctly_ranked(&config));
        let mut counts = [0usize; 10];
        for s in config.iter() {
            counts[s.0 as usize] += 1;
        }
        assert_eq!(counts[8], 2, "rank n−2 is duplicated");
        assert_eq!(counts[9], 0, "rank n−1 is the hole");
        assert!(!Simulation::new(protocol, config, 0).is_silent());
    }

    #[test]
    fn every_adversarial_scenario_stabilizes_to_the_ranking() {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            let protocol = SilentNStateSsr::new(12);
            let config = scenario.configuration(&protocol, 77);
            let mut sim = Simulation::new(protocol, config, 5);
            let outcome = sim.run_until_silent(50_000_000);
            assert!(outcome.is_silent(), "scenario {:?} did not silence", scenario.name());
            assert!(
                sim.protocol().is_correctly_ranked(sim.configuration()),
                "scenario {:?} silenced into a wrong ranking",
                scenario.name()
            );
        }
    }

    #[test]
    fn fault_plans_recover_to_the_ranking_on_both_engines() {
        use ppsim::{Engine, RunSpec};
        let n = 12;
        let protocol = SilentNStateSsr::new(n);
        let plans = protocol.adversarial_fault_plans();
        assert_eq!(plans.len(), 3);
        // Every plan's bursts fit the protocol's population.
        assert!(plans.iter().all(|p| p.burst_size() <= n));
        for engine in [Engine::Exact, Engine::Batched] {
            for plan in &plans {
                let report = RunSpec::new(protocol)
                    .engine(engine)
                    .budget(u64::MAX >> 8)
                    .init(protocol.ranked_configuration())
                    .seed(13)
                    .faults((*plan).clone())
                    .run_one()
                    .unwrap();
                assert!(report.outcome.is_silent(), "{} did not re-silence", plan.name());
                assert!(
                    protocol.is_correctly_ranked(&report.final_config),
                    "{} recovered into a wrong ranking",
                    plan.name()
                );
                // Started silent: the pre-burst silence is at t = 0, and any
                // fired burst is eventually recovered from.
                assert_eq!(report.initial_silence, Some(ppsim::Interactions::ZERO));
                if !report.events.is_empty() {
                    assert!(report.final_restabilization().is_some());
                }
            }
        }
    }

    #[test]
    fn leader_is_rank_zero() {
        let protocol = SilentNStateSsr::new(4);
        assert!(protocol.is_leader(&SilentRank(0)));
        assert!(!protocol.is_leader(&SilentRank(1)));
        assert_eq!(protocol.rank(&SilentRank(3)), Some(Rank::new(4)));
    }
}
