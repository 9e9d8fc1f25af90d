//! `Optimal-Silent-SSR` (Protocols 3 and 4): silent self-stabilizing ranking
//! in optimal `Θ(n)` expected parallel time with `O(n)` states.
//!
//! The protocol has three roles:
//!
//! * **Settled** agents hold a rank and recruit up to two unsettled agents as
//!   their children in the complete binary tree over ranks (the children of
//!   rank `i` are `2i` and `2i+1`), which assigns every rank exactly once.
//! * **Unsettled** agents wait for a rank; if they wait for `Emax = Θ(n)` of
//!   their own interactions they conclude something is wrong and trigger a
//!   global reset.
//! * **Resetting** agents run [`crate::reset`] (`Propagate-Reset`) with a
//!   dormancy of `Dmax = Θ(n)`, long enough to run the slow leader election
//!   `L,L → L,F` among the dormant agents; on awakening the surviving leader
//!   becomes the settled root (rank 1) and everyone else becomes unsettled.
//!
//! Errors are detected in two ways: two settled agents with the same rank
//! (direct collision), or an unsettled agent exhausting its error counter
//! (which, by the pigeonhole principle, witnesses that some rank is held by
//! two agents or the ranking stalled). Either detection triggers
//! `Propagate-Reset`, and each post-reset epoch succeeds with constant
//! probability, giving `Θ(n)` expected time overall (Theorem 4.3) and
//! `O(n log n)` with high probability (Corollary 4.4).

use ppsim::{
    Configuration, CorrectnessOracle, EnumerableProtocol, LeaderElectionProtocol, Protocol, Rank,
    RankingProtocol, Scenario, StateSymmetry,
};
use rand::RngCore;

use crate::params::OptimalSilentParams;
use crate::reset::{propagate_reset_step, AfterReset, ResetStatus, ResetTimers};

/// The state of one agent of `Optimal-Silent-SSR`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OptimalSilentState {
    /// The agent holds rank `rank` (1-based) and has recruited `children`
    /// children so far.
    Settled {
        /// The rank held by this agent, in `1..=n`.
        rank: u32,
        /// How many children (0, 1 or 2) this agent has recruited.
        children: u8,
    },
    /// The agent is waiting to be recruited; `errorcount` is its remaining
    /// patience (in its own interactions).
    Unsettled {
        /// Remaining interactions before the agent triggers a reset.
        errorcount: u32,
    },
    /// The agent is participating in `Propagate-Reset`; `leader` is its
    /// candidate bit in the slow leader election run during dormancy.
    Resetting {
        /// Whether this agent is still a leader candidate (`L`) or a follower
        /// (`F`).
        leader: bool,
        /// The `Propagate-Reset` counters.
        timers: ResetTimers,
    },
}

impl OptimalSilentState {
    fn reset_status(&self) -> ResetStatus {
        match self {
            OptimalSilentState::Resetting { timers, .. } => ResetStatus::Resetting(*timers),
            _ => ResetStatus::Computing,
        }
    }

    fn is_resetting(&self) -> bool {
        matches!(self, OptimalSilentState::Resetting { .. })
    }
}

/// `Optimal-Silent-SSR` (Protocol 3), parameterized by
/// [`OptimalSilentParams`].
#[derive(Clone, Copy, Debug)]
pub struct OptimalSilentSsr {
    params: OptimalSilentParams,
}

impl OptimalSilentSsr {
    /// Creates the protocol.
    pub fn new(params: OptimalSilentParams) -> Self {
        OptimalSilentSsr { params }
    }

    /// The protocol's parameters.
    pub fn params(&self) -> &OptimalSilentParams {
        &self.params
    }

    /// Adversarial configuration: every agent settled with the same `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not in `1..=n`.
    pub fn adversarial_all_same_rank(&self, rank: u32) -> Configuration<OptimalSilentState> {
        assert!((1..=self.params.n as u32).contains(&rank), "rank must be in 1..=n");
        Configuration::uniform(OptimalSilentState::Settled { rank, children: 0 }, self.params.n)
    }

    /// Adversarial configuration: every agent unsettled with a full error
    /// counter (nobody will ever hand out ranks until a reset happens).
    pub fn all_unsettled_configuration(&self) -> Configuration<OptimalSilentState> {
        Configuration::uniform(
            OptimalSilentState::Unsettled { errorcount: self.params.e_max },
            self.params.n,
        )
    }

    /// A fully adversarial configuration: every agent gets an independently
    /// random role with random in-range field values.
    pub fn random_configuration(
        &self,
        rng: &mut impl rand::Rng,
    ) -> Configuration<OptimalSilentState> {
        let n = self.params.n;
        Configuration::from_fn(n, |_| match rng.gen_range(0..3u8) {
            0 => OptimalSilentState::Settled {
                rank: rng.gen_range(1..=n as u32),
                children: rng.gen_range(0..=2u8),
            },
            1 => OptimalSilentState::Unsettled { errorcount: rng.gen_range(0..=self.params.e_max) },
            _ => OptimalSilentState::Resetting {
                leader: rng.gen_bool(0.5),
                timers: ResetTimers {
                    resetcount: rng.gen_range(0..=self.params.reset.r_max),
                    delaytimer: rng.gen_range(0..=self.params.reset.d_max),
                },
            },
        })
    }

    /// An adversarial configuration with **no leader**: every agent settled
    /// with a rank in `2..=n`, so rank 1 is unclaimed and (by pigeonhole)
    /// some rank is duplicated. The duplicate collision must be noticed and
    /// trigger a full `Propagate-Reset` before a leader can exist.
    pub fn zero_leader_configuration(&self) -> Configuration<OptimalSilentState> {
        let n = self.params.n as u32;
        Configuration::from_fn(self.params.n, |i| OptimalSilentState::Settled {
            rank: 2 + (i as u32 % (n - 1)),
            children: 0,
        })
    }

    /// A *near-silent-but-wrong* adversarial configuration: the correct
    /// ranked configuration except that the agent of rank 2 instead
    /// duplicates rank `n`. A unique leader exists and exactly one unordered
    /// pair (the two rank-`n` agents) is active, so the configuration idles
    /// one direct meeting away from a reset.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (with two agents replacing rank 2 by rank `n` is
    /// the identity, leaving a correct configuration instead of a wrong one).
    pub fn near_silent_wrong_configuration(&self) -> Configuration<OptimalSilentState> {
        let n = self.params.n;
        assert!(n >= 3, "the near-silent-wrong family needs at least three agents");
        let mut states = self.ranked_configuration().into_states();
        states[1] = OptimalSilentState::Settled { rank: n as u32, children: 0 };
        Configuration::from_states(states)
    }

    /// An adversarial configuration with the whole population mid-
    /// `Propagate-Reset`: random leader candidacies and independently random
    /// timer values, mixing propagating (`resetcount > 0`) and dormant
    /// (`resetcount = 0`) agents.
    pub fn mid_reset_configuration(
        &self,
        rng: &mut impl rand::Rng,
    ) -> Configuration<OptimalSilentState> {
        Configuration::from_fn(self.params.n, |_| OptimalSilentState::Resetting {
            leader: rng.gen_bool(0.5),
            timers: ResetTimers {
                resetcount: rng.gen_range(0..=self.params.reset.r_max),
                delaytimer: rng.gen_range(0..=self.params.reset.d_max),
            },
        })
    }

    /// The protocol's adversarial scenario families, for the
    /// adversarial-initialization experiments (`exp_adversarial`) and the
    /// cross-engine/backend equivalence suites.
    pub fn adversarial_scenarios() -> Vec<Scenario<Self>> {
        vec![
            Scenario::new("all-leader", |p: &Self, _| p.adversarial_all_same_rank(1)),
            Scenario::new("zero-leader", |p: &Self, _| p.zero_leader_configuration()),
            Scenario::new("all-unsettled", |p: &Self, _| p.all_unsettled_configuration()),
            Scenario::new("near-silent-wrong", |p: &Self, _| p.near_silent_wrong_configuration()),
            Scenario::new("mid-reset", |p: &Self, rng| p.mid_reset_configuration(rng)),
            Scenario::new("random", |p: &Self, rng| p.random_configuration(rng)),
        ]
    }

    /// The configuration reached right after a successful reset (an awakening
    /// configuration with a unique leader, cf. Lemma 4.2): agent 0 settled as
    /// the root with rank 1, everyone else unsettled with a full error
    /// counter. Lemma 4.1's binary-tree rank assignment starts here.
    pub fn post_reset_configuration(&self) -> Configuration<OptimalSilentState> {
        Configuration::from_fn(self.params.n, |i| {
            if i == 0 {
                OptimalSilentState::Settled { rank: 1, children: 0 }
            } else {
                OptimalSilentState::Unsettled { errorcount: self.params.e_max }
            }
        })
    }

    /// The unique silent, stably correct configuration (up to which agent
    /// holds which rank): agent `i` settled with rank `i+1` and the child
    /// counts of the complete binary tree.
    pub fn ranked_configuration(&self) -> Configuration<OptimalSilentState> {
        let n = self.params.n;
        Configuration::from_fn(n, |i| {
            let rank = i + 1;
            let children = [2 * rank, 2 * rank + 1].iter().filter(|&&c| c <= n).count() as u8;
            OptimalSilentState::Settled { rank: rank as u32, children }
        })
    }

    /// Whether the configuration is correctly ranked: every agent settled and
    /// every rank `1..=n` held exactly once.
    pub fn is_correct(&self, config: &Configuration<OptimalSilentState>) -> bool {
        self.is_correctly_ranked(config)
    }
}

impl Protocol for OptimalSilentSsr {
    type State = OptimalSilentState;

    fn population_size(&self) -> usize {
        self.params.n
    }

    fn transition(
        &self,
        initiator: &OptimalSilentState,
        responder: &OptimalSilentState,
        _rng: &mut dyn RngCore,
    ) -> (OptimalSilentState, OptimalSilentState) {
        let mut a = *initiator;
        let mut b = *responder;
        let triggered = ResetTimers::triggered(&self.params.reset);

        // Lines 1–4: Propagate-Reset plus the slow leader election among
        // resetting agents.
        if a.is_resetting() || b.is_resetting() {
            let (after_a, after_b) =
                propagate_reset_step(a.reset_status(), b.reset_status(), &self.params.reset);
            a = self.apply_reset_outcome(a, after_a);
            b = self.apply_reset_outcome(b, after_b);
            if let (
                OptimalSilentState::Resetting { leader: la, .. },
                OptimalSilentState::Resetting { leader: lb, .. },
            ) = (&a, &b)
            {
                if *la && *lb {
                    if let OptimalSilentState::Resetting { leader, .. } = &mut b {
                        *leader = false;
                    }
                }
            }
        }

        // Lines 5–7: rank collision between two settled agents triggers a
        // global reset; both become leader candidates.
        if let (
            OptimalSilentState::Settled { rank: ra, .. },
            OptimalSilentState::Settled { rank: rb, .. },
        ) = (&a, &b)
        {
            if ra == rb {
                a = OptimalSilentState::Resetting { leader: true, timers: triggered };
                b = OptimalSilentState::Resetting { leader: true, timers: triggered };
            }
        }

        // Lines 8–12: settled agents recruit unsettled agents as children in
        // the binary tree (both directions of the ordered pair).
        self.recruit(&mut a, &mut b);
        self.recruit(&mut b, &mut a);

        // Lines 13–18: unsettled agents lose patience; an exhausted error
        // counter triggers a reset for both agents of the pair.
        let mut starvation_detected = false;
        for i in [&mut a, &mut b] {
            if let OptimalSilentState::Unsettled { errorcount } = i {
                *errorcount = errorcount.saturating_sub(1);
                if *errorcount == 0 {
                    starvation_detected = true;
                }
            }
        }
        if starvation_detected {
            a = OptimalSilentState::Resetting { leader: true, timers: triggered };
            b = OptimalSilentState::Resetting { leader: true, timers: triggered };
        }

        (a, b)
    }

    fn is_null(&self, a: &OptimalSilentState, b: &OptimalSilentState) -> bool {
        match (a, b) {
            (
                OptimalSilentState::Settled { rank: ra, .. },
                OptimalSilentState::Settled { rank: rb, .. },
            ) => ra != rb,
            _ => false,
        }
    }

    fn deterministic_transitions(&self) -> bool {
        true // the transition ignores its RNG
    }
}

impl OptimalSilentSsr {
    /// Applies the outcome of `Propagate-Reset` to one agent's state.
    fn apply_reset_outcome(
        &self,
        state: OptimalSilentState,
        outcome: AfterReset,
    ) -> OptimalSilentState {
        match outcome {
            AfterReset::Computing => state,
            AfterReset::Resetting(timers) => match state {
                // Already resetting: keep the leader candidacy, update timers.
                OptimalSilentState::Resetting { leader, .. } => {
                    OptimalSilentState::Resetting { leader, timers }
                }
                // Dragged into the reset: become a leader candidate (the
                // paper's "all agents set themselves to L upon entering the
                // Resetting role").
                _ => OptimalSilentState::Resetting { leader: true, timers },
            },
            AfterReset::Awaken => match state {
                // Protocol 4 (Reset): the surviving leader becomes the settled
                // root, everyone else becomes unsettled.
                OptimalSilentState::Resetting { leader: true, .. } => {
                    OptimalSilentState::Settled { rank: 1, children: 0 }
                }
                OptimalSilentState::Resetting { leader: false, .. } => {
                    OptimalSilentState::Unsettled { errorcount: self.params.e_max }
                }
                other => other,
            },
        }
    }

    /// Lines 8–12: `recruiter` (if settled with spare capacity) hands the next
    /// child rank to `candidate` (if unsettled).
    fn recruit(&self, recruiter: &mut OptimalSilentState, candidate: &mut OptimalSilentState) {
        let n = self.params.n as u32;
        let (rank, children) = match *recruiter {
            OptimalSilentState::Settled { rank, children } => (rank, children),
            _ => return,
        };
        if !matches!(*candidate, OptimalSilentState::Unsettled { .. }) {
            return;
        }
        // Note: Protocol 3 line 9 writes `2·rank + children < n`, but the
        // intended condition (consistent with Figure 1 and with every rank
        // being assigned) is `<= n`; see the binary_tree_assignment module of
        // the `processes` crate.
        if children < 2 && 2 * rank + (children as u32) <= n {
            *candidate =
                OptimalSilentState::Settled { rank: 2 * rank + (children as u32), children: 0 };
            *recruiter = OptimalSilentState::Settled { rank, children: children + 1 };
        }
    }
}

/// The `O(n)`-state space of Protocol 3, enumerated as three contiguous
/// blocks: settled states (`rank` × `children`), unsettled states (by
/// `errorcount`), and resetting states (`leader` × `resetcount` ×
/// `delaytimer`).
///
/// Unsettled and resetting states interact non-trivially with *every* state
/// (timers tick on each interaction), so there is no sparse partner
/// structure; the batched engine runs it on the present route, which
/// still wins whenever the population idles in a mostly-settled
/// configuration (e.g. waiting for the last rank collision to be noticed).
impl EnumerableProtocol for OptimalSilentSsr {
    fn num_states(&self) -> usize {
        let n = self.params.n;
        let unsettled = self.params.e_max as usize + 1;
        let resetting =
            2 * (self.params.reset.r_max as usize + 1) * (self.params.reset.d_max as usize + 1);
        3 * n + unsettled + resetting
    }

    fn state_index(&self, state: &OptimalSilentState) -> usize {
        let n = self.params.n;
        let e_max = self.params.e_max;
        let r_max = self.params.reset.r_max;
        let d_max = self.params.reset.d_max;
        match *state {
            OptimalSilentState::Settled { rank, children } => {
                assert!((1..=n as u32).contains(&rank), "settled rank {rank} out of 1..={n}");
                assert!(children <= 2, "child count {children} out of 0..=2");
                (rank as usize - 1) * 3 + children as usize
            }
            OptimalSilentState::Unsettled { errorcount } => {
                assert!(errorcount <= e_max, "errorcount {errorcount} exceeds Emax {e_max}");
                3 * n + errorcount as usize
            }
            OptimalSilentState::Resetting { leader, timers } => {
                assert!(
                    timers.resetcount <= r_max,
                    "resetcount {} exceeds Rmax {r_max}",
                    timers.resetcount
                );
                assert!(
                    timers.delaytimer <= d_max,
                    "delaytimer {} exceeds Dmax {d_max}",
                    timers.delaytimer
                );
                let per_leader = (r_max as usize + 1) * (d_max as usize + 1);
                3 * n
                    + e_max as usize
                    + 1
                    + usize::from(leader) * per_leader
                    + timers.resetcount as usize * (d_max as usize + 1)
                    + timers.delaytimer as usize
            }
        }
    }

    fn state_from_index(&self, index: usize) -> OptimalSilentState {
        let n = self.params.n;
        let e_max = self.params.e_max as usize;
        let d_max = self.params.reset.d_max as usize;
        if index < 3 * n {
            return OptimalSilentState::Settled {
                rank: (index / 3) as u32 + 1,
                children: (index % 3) as u8,
            };
        }
        let index = index - 3 * n;
        if index <= e_max {
            return OptimalSilentState::Unsettled { errorcount: index as u32 };
        }
        let index = index - (e_max + 1);
        let per_leader = (self.params.reset.r_max as usize + 1) * (d_max + 1);
        debug_assert!(index < 2 * per_leader, "state index out of range");
        let leader = index >= per_leader;
        let index = index % per_leader;
        OptimalSilentState::Resetting {
            leader,
            timers: crate::reset::ResetTimers {
                resetcount: (index / (d_max + 1)) as u32,
                delaytimer: (index % (d_max + 1)) as u32,
            },
        }
    }

    /// For a *leaf* rank `r` (one with `2r > n` strictly, so the recruitment
    /// guard `2·rank + children ≤ n` never fires), the states
    /// `Settled { r, children: 1 }` and `Settled { r, children: 2 }` behave
    /// identically: the children counter only gates recruitment, neither
    /// state is ever *produced* by a transition (recruiters start below the
    /// leaf boundary and children are born with `children: 0`), and the
    /// oracle reads only the rank. Swapping the two is therefore a sound
    /// automorphism, and the swaps for distinct leaf ranks commute — a
    /// product of Z/2 factors of order `2^⌊(n−1)/2⌋`.
    ///
    /// Ranks with `2r == n` are excluded: there the recruit from
    /// `Settled { r, children: 0 }` produces `Settled { r, children: 1 }`,
    /// whose swap image `children: 2` is *not* what the transition yields, so
    /// the swap fails equivariance (and the checker's generator validation
    /// would reject it).
    fn state_symmetry(&self) -> StateSymmetry {
        let n = self.params.n;
        let blocks: Vec<Vec<usize>> = (1..=n)
            .filter(|&r| 2 * r > n)
            .map(|r| vec![(r - 1) * 3 + 1, (r - 1) * 3 + 2])
            .collect();
        StateSymmetry::SymmetricBlocks(blocks)
    }
}

impl RankingProtocol for OptimalSilentSsr {
    fn rank(&self, state: &OptimalSilentState) -> Option<Rank> {
        match state {
            OptimalSilentState::Settled { rank, .. } if *rank >= 1 => {
                Some(Rank::new(*rank as usize))
            }
            _ => None,
        }
    }
}

impl LeaderElectionProtocol for OptimalSilentSsr {
    fn is_leader(&self, state: &OptimalSilentState) -> bool {
        matches!(state, OptimalSilentState::Settled { rank: 1, .. })
    }
}

/// The verification target for [`ppsim::mcheck::check_convergence`]:
/// a valid ranking (every agent settled, every rank exactly once). With the
/// deliberately tiny timers of
/// [`crate::params::OptimalSilentParams::mcheck`] the model checker proves
/// silent ⟺ correctly ranked and convergence from **every** configuration of
/// the full lattice at small `n` — timers only shift the constants of
/// Theorem 4.3, not the correctness argument, and the exhaustive check is
/// exactly quantifier-faithful to "from any initial configuration".
impl CorrectnessOracle for OptimalSilentSsr {
    fn is_correct(&self, config: &Configuration<OptimalSilentState>) -> bool {
        self.is_correctly_ranked(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ResetParams;
    use ppsim::Simulation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_protocol(n: usize) -> OptimalSilentSsr {
        OptimalSilentSsr::new(OptimalSilentParams::recommended(n))
    }

    fn run_to_correct(
        protocol: OptimalSilentSsr,
        config: Configuration<OptimalSilentState>,
        seed: u64,
    ) {
        let n = protocol.population_size();
        let mut sim = Simulation::new(protocol, config, seed);
        let budget = 4_000_u64 * (n as u64) * (n as u64) + 2_000_000;
        let outcome = sim.run_until(|c| sim_correct(&protocol, c), budget);
        assert!(
            outcome.condition_met(),
            "protocol did not reach a correct ranking within {budget} interactions"
        );
        assert!(sim.is_silent(), "the correct configuration must be silent");
        assert!(protocol.has_unique_leader(sim.configuration()));
    }

    fn sim_correct(
        protocol: &OptimalSilentSsr,
        config: &Configuration<OptimalSilentState>,
    ) -> bool {
        protocol.is_correct(config)
    }

    #[test]
    fn stabilizes_from_all_unsettled() {
        let protocol = small_protocol(24);
        run_to_correct(protocol, protocol.all_unsettled_configuration(), 3);
    }

    #[test]
    fn stabilizes_from_all_same_rank() {
        let protocol = small_protocol(24);
        run_to_correct(protocol, protocol.adversarial_all_same_rank(5), 4);
    }

    #[test]
    fn stabilizes_from_random_adversarial_configurations() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for seed in 0..4 {
            let protocol = small_protocol(20);
            let config = protocol.random_configuration(&mut rng);
            run_to_correct(protocol, config, seed);
        }
    }

    #[test]
    fn post_reset_configuration_ranks_without_further_resets() {
        // Lemma 4.1: from a clean awakening configuration with a unique
        // leader, the binary-tree assignment completes without any agent
        // triggering another reset (errorcounts never run out with the
        // recommended Emax).
        let protocol = small_protocol(32);
        let mut sim = Simulation::new(protocol, protocol.post_reset_configuration(), 21);
        let mut saw_reset = false;
        while !protocol.is_correct(sim.configuration()) {
            sim.run_for(32);
            saw_reset |= sim
                .configuration()
                .iter()
                .any(|s| matches!(s, OptimalSilentState::Resetting { .. }));
            assert!(
                sim.parallel_time().value() < 10_000.0,
                "ranking from a clean start should finish quickly"
            );
        }
        assert!(!saw_reset, "a clean start must not trigger a reset");
        assert!(sim.is_silent());
    }

    #[test]
    fn zero_leader_configuration_has_no_leader_and_duplicates() {
        let protocol = small_protocol(10);
        let config = protocol.zero_leader_configuration();
        assert_eq!(protocol.leader_count(&config), 0);
        assert!(!protocol.is_correct(&config));
        assert!(!Simulation::new(protocol, config, 0).is_silent());
    }

    #[test]
    fn near_silent_wrong_configuration_idles_one_meeting_from_a_reset() {
        let protocol = small_protocol(10);
        let config = protocol.near_silent_wrong_configuration();
        assert!(protocol.has_unique_leader(&config));
        assert!(!protocol.is_correct(&config));
        // Exactly one unordered active pair: the two rank-n agents.
        let dupes = config
            .iter()
            .filter(|s| matches!(s, OptimalSilentState::Settled { rank: 10, .. }))
            .count();
        assert_eq!(dupes, 2);
        assert!(!Simulation::new(protocol, config, 0).is_silent());
    }

    #[test]
    fn every_adversarial_scenario_stabilizes_to_the_ranking() {
        for scenario in OptimalSilentSsr::adversarial_scenarios() {
            let protocol = small_protocol(16);
            let config = scenario.configuration(&protocol, 31);
            run_to_correct(protocol, config, 8);
        }
    }

    #[test]
    fn correct_configuration_is_silent_and_stays_correct() {
        let protocol = small_protocol(16);
        let config = protocol.ranked_configuration();
        assert!(protocol.is_correct(&config));
        let mut sim = Simulation::new(protocol, config, 9);
        assert!(sim.is_silent());
        sim.run_for(100_000);
        assert!(protocol.is_correct(sim.configuration()));
    }

    #[test]
    fn rank_collision_triggers_a_reset() {
        let protocol = small_protocol(8);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let a = OptimalSilentState::Settled { rank: 3, children: 1 };
        let b = OptimalSilentState::Settled { rank: 3, children: 0 };
        let (a2, b2) = protocol.transition(&a, &b, &mut rng);
        for s in [a2, b2] {
            match s {
                OptimalSilentState::Resetting { leader, timers } => {
                    assert!(leader);
                    assert_eq!(timers.resetcount, protocol.params().reset.r_max);
                }
                other => panic!("expected Resetting, got {other:?}"),
            }
        }
    }

    #[test]
    fn distinct_settled_ranks_are_null() {
        let protocol = small_protocol(8);
        let a = OptimalSilentState::Settled { rank: 3, children: 1 };
        let b = OptimalSilentState::Settled { rank: 5, children: 0 };
        assert!(protocol.is_null(&a, &b));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(protocol.transition(&a, &b, &mut rng), (a, b));
    }

    #[test]
    fn settled_agent_recruits_children_in_order() {
        let protocol = small_protocol(8);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let root = OptimalSilentState::Settled { rank: 1, children: 0 };
        let unsettled = OptimalSilentState::Unsettled { errorcount: 100 };
        let (root, first_child) = protocol.transition(&root, &unsettled, &mut rng);
        assert_eq!(first_child, OptimalSilentState::Settled { rank: 2, children: 0 });
        let (root, second_child) = protocol.transition(&root, &unsettled, &mut rng);
        assert_eq!(second_child, OptimalSilentState::Settled { rank: 3, children: 0 });
        assert_eq!(root, OptimalSilentState::Settled { rank: 1, children: 2 });
        // A full parent recruits nobody; the unsettled agent just loses patience.
        let (root, third) = protocol.transition(&root, &unsettled, &mut rng);
        assert_eq!(root, OptimalSilentState::Settled { rank: 1, children: 2 });
        assert_eq!(third, OptimalSilentState::Unsettled { errorcount: 99 });
    }

    #[test]
    fn leaf_ranks_do_not_recruit_beyond_n() {
        let protocol = small_protocol(5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // Rank 3 in a population of 5: children would be 6 and 7, both > 5.
        let leaf = OptimalSilentState::Settled { rank: 3, children: 0 };
        let unsettled = OptimalSilentState::Unsettled { errorcount: 100 };
        let (leaf2, u2) = protocol.transition(&leaf, &unsettled, &mut rng);
        assert_eq!(leaf2, leaf);
        assert_eq!(u2, OptimalSilentState::Unsettled { errorcount: 99 });
    }

    #[test]
    fn starved_unsettled_agent_triggers_reset_for_both() {
        let protocol = small_protocol(8);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let starved = OptimalSilentState::Unsettled { errorcount: 1 };
        let bystander = OptimalSilentState::Settled { rank: 2, children: 2 };
        let (a2, b2) = protocol.transition(&starved, &bystander, &mut rng);
        assert!(matches!(a2, OptimalSilentState::Resetting { leader: true, .. }));
        assert!(matches!(b2, OptimalSilentState::Resetting { leader: true, .. }));
    }

    #[test]
    fn dormant_leaders_fight_during_the_reset() {
        let params =
            OptimalSilentParams { n: 8, reset: ResetParams { r_max: 5, d_max: 50 }, e_max: 100 };
        let protocol = OptimalSilentSsr::new(params);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let dormant_leader = OptimalSilentState::Resetting {
            leader: true,
            timers: ResetTimers { resetcount: 0, delaytimer: 40 },
        };
        let (a2, b2) = protocol.transition(&dormant_leader, &dormant_leader, &mut rng);
        let leaders = [a2, b2]
            .iter()
            .filter(|s| matches!(s, OptimalSilentState::Resetting { leader: true, .. }))
            .count();
        assert_eq!(leaders, 1, "exactly one candidate must survive the meeting");
    }

    #[test]
    fn awakening_leader_becomes_root_and_follower_becomes_unsettled() {
        let params =
            OptimalSilentParams { n: 8, reset: ResetParams { r_max: 5, d_max: 10 }, e_max: 77 };
        let protocol = OptimalSilentSsr::new(params);
        let leader = OptimalSilentState::Resetting {
            leader: true,
            timers: ResetTimers { resetcount: 0, delaytimer: 0 },
        };
        let follower = OptimalSilentState::Resetting {
            leader: false,
            timers: ResetTimers { resetcount: 0, delaytimer: 0 },
        };
        assert_eq!(
            protocol.apply_reset_outcome(leader, AfterReset::Awaken),
            OptimalSilentState::Settled { rank: 1, children: 0 }
        );
        assert_eq!(
            protocol.apply_reset_outcome(follower, AfterReset::Awaken),
            OptimalSilentState::Unsettled { errorcount: 77 }
        );
    }

    #[test]
    fn ranking_outputs_follow_roles() {
        let protocol = small_protocol(8);
        assert_eq!(
            protocol.rank(&OptimalSilentState::Settled { rank: 4, children: 0 }),
            Some(Rank::new(4))
        );
        assert_eq!(protocol.rank(&OptimalSilentState::Unsettled { errorcount: 3 }), None);
        assert!(protocol.is_leader(&OptimalSilentState::Settled { rank: 1, children: 2 }));
        assert!(!protocol.is_leader(&OptimalSilentState::Settled { rank: 2, children: 2 }));
    }

    #[test]
    #[should_panic(expected = "1..=n")]
    fn adversarial_rank_out_of_range_rejected() {
        let protocol = small_protocol(8);
        let _ = protocol.adversarial_all_same_rank(9);
    }
}
