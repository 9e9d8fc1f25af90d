//! The [`Protocol`] trait and problem-specific extension traits.
//!
//! A population protocol is described by a state set and a transition function
//! on **ordered** pairs of states. The paper allows probabilistic transitions
//! (Section 2, footnote 5), so the transition receives a random number
//! generator; deterministic protocols simply ignore it. Section 6 of the paper
//! explains how to remove this randomness with synthetic coins; the
//! `processes::synthetic_coin` module reproduces that construction.

use rand::RngCore;
use std::fmt;

use crate::config::Configuration;

/// A rank in `1..=n`, the output of the ranking problem.
///
/// Ranking assigns each of the `n` agents a distinct rank; the agent with
/// rank 1 is the leader for the derived leader-election problem.
///
/// # Example
///
/// ```
/// use ppsim::Rank;
/// let r = Rank::new(1);
/// assert!(r.is_leader());
/// assert_eq!(Rank::new(4).get(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rank(usize);

impl Rank {
    /// Creates a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`; ranks are 1-based as in the paper.
    pub fn new(rank: usize) -> Self {
        assert!(rank >= 1, "ranks are 1-based");
        Rank(rank)
    }

    /// The numeric value of the rank (1-based).
    pub fn get(self) -> usize {
        self.0
    }

    /// Whether this rank designates the leader (rank 1).
    pub fn is_leader(self) -> bool {
        self.0 == 1
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}", self.0)
    }
}

/// A population protocol: a state set together with a transition function on
/// ordered pairs of states, for a fixed population size.
///
/// Self-stabilizing leader election provably requires the protocol to know the
/// exact population size (`Theorem 2.1` of the paper), which is why
/// [`Protocol::population_size`] is part of the trait: protocol instances are
/// *strongly nonuniform*, constructed for one specific `n`.
pub trait Protocol {
    /// The local state of an agent.
    type State: Clone + Eq + std::hash::Hash + fmt::Debug + Send + Sync;

    /// The exact population size this protocol instance is configured for.
    fn population_size(&self) -> usize;

    /// Applies the transition function to an ordered pair of states
    /// (initiator, responder), returning their new states.
    ///
    /// Most transitions in the paper are symmetric; asymmetric ones (and the
    /// synthetic-coin construction) may distinguish initiator from responder.
    fn transition(
        &self,
        initiator: &Self::State,
        responder: &Self::State,
        rng: &mut dyn RngCore,
    ) -> (Self::State, Self::State);

    /// Applies the transition function to the two agents' states in place and
    /// returns whether either state changed.
    ///
    /// This is the exact engine's step: it borrows both agents' states
    /// rather than cloning them. The default runs [`Protocol::transition`] on
    /// the borrowed states, compares, and assigns; it draws the same random
    /// numbers, so both methods produce the same trajectory. Protocols whose
    /// states own heap data override it to mutate in place. An override must
    /// leave the states equal to what [`Protocol::transition`] returns and
    /// report `true` exactly when either state differs from its input.
    fn transition_in_place(
        &self,
        initiator: &mut Self::State,
        responder: &mut Self::State,
        rng: &mut dyn RngCore,
    ) -> bool {
        let (a, b) = self.transition(initiator, responder, rng);
        let changed = a != *initiator || b != *responder;
        *initiator = a;
        *responder = b;
        changed
    }

    /// Returns `true` if the transition on this ordered pair is guaranteed to
    /// leave both states unchanged (a *null* transition).
    ///
    /// Used for silence detection: a configuration is silent when every pair
    /// of states present admits only null transitions. The default returns
    /// `false`, which is always sound but makes silence detection report
    /// `false` conservatively; protocols that are meant to be silent should
    /// override it.
    fn is_null(&self, _initiator: &Self::State, _responder: &Self::State) -> bool {
        false
    }

    /// Whether [`Protocol::transition`] ignores its RNG, making every ordered
    /// pair's outcome a fixed function of the two states.
    ///
    /// The batch-count sampling mode (`SamplingMode::BatchCount` in the
    /// `batched` module) uses this as a licence to evaluate a multi-count
    /// table cell once and apply the outcome that many times; protocols that
    /// keep the default `false` get one evaluation per counted interaction
    /// instead — still correct, just without the per-cell collapse.
    /// Declaring `true` for a randomized transition is a logic error (all
    /// interactions of a cell would share one random outcome); debug builds
    /// assert against it with independent probe draws.
    fn deterministic_transitions(&self) -> bool {
        false
    }
}

/// A protocol solving the ranking problem: each agent outputs a rank in
/// `1..=n`, and a configuration is correct when every rank is held by exactly
/// one agent.
pub trait RankingProtocol: Protocol {
    /// The rank output by a state, or `None` if the state does not currently
    /// hold a rank (for example while resetting or unsettled).
    fn rank(&self, state: &Self::State) -> Option<Rank>;

    /// Whether the configuration is correctly ranked: every rank `1..=n`
    /// appears exactly once.
    fn is_correctly_ranked(&self, config: &Configuration<Self::State>) -> bool {
        let n = self.population_size();
        let mut seen = vec![false; n];
        for state in config.iter() {
            match self.rank(state) {
                Some(r) if r.get() <= n && !seen[r.get() - 1] => seen[r.get() - 1] = true,
                _ => return false,
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// A protocol solving leader election: each agent outputs a leader bit, and a
/// configuration is correct when exactly one agent outputs `Yes`.
///
/// Every [`RankingProtocol`] yields a leader-election protocol by declaring
/// the agent with rank 1 the leader; the `ssle` crate wires this up for all
/// three of the paper's protocols.
pub trait LeaderElectionProtocol: Protocol {
    /// Whether this state currently marks its agent as the leader.
    fn is_leader(&self, state: &Self::State) -> bool;

    /// The number of leaders in a configuration.
    fn leader_count(&self, config: &Configuration<Self::State>) -> usize {
        config.iter().filter(|s| self.is_leader(s)).count()
    }

    /// Whether the configuration has exactly one leader.
    fn has_unique_leader(&self, config: &Configuration<Self::State>) -> bool {
        self.leader_count(config) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;

    struct Toy {
        n: usize,
    }

    impl Protocol for Toy {
        type State = usize;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &usize, b: &usize, _rng: &mut dyn RngCore) -> (usize, usize) {
            (*a, *b)
        }
        fn is_null(&self, _a: &usize, _b: &usize) -> bool {
            true
        }
    }

    impl RankingProtocol for Toy {
        fn rank(&self, state: &usize) -> Option<Rank> {
            if *state >= 1 && *state <= self.n {
                Some(Rank::new(*state))
            } else {
                None
            }
        }
    }

    impl LeaderElectionProtocol for Toy {
        fn is_leader(&self, state: &usize) -> bool {
            *state == 1
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rank_zero_panics() {
        let _ = Rank::new(0);
    }

    #[test]
    fn rank_one_is_leader() {
        assert!(Rank::new(1).is_leader());
        assert!(!Rank::new(2).is_leader());
        assert_eq!(Rank::new(3).to_string(), "rank 3");
    }

    #[test]
    fn correctly_ranked_detects_permutations() {
        let p = Toy { n: 4 };
        let good = Configuration::from_states(vec![2usize, 4, 1, 3]);
        assert!(p.is_correctly_ranked(&good));
        let dup = Configuration::from_states(vec![2usize, 2, 1, 3]);
        assert!(!p.is_correctly_ranked(&dup));
        let missing_rank = Configuration::from_states(vec![1usize, 2, 3, 5]);
        assert!(!p.is_correctly_ranked(&missing_rank));
        let unranked = Configuration::from_states(vec![0usize, 1, 2, 3]);
        assert!(!p.is_correctly_ranked(&unranked));
    }

    #[test]
    fn leader_counting() {
        let p = Toy { n: 4 };
        let one = Configuration::from_states(vec![1usize, 2, 3, 4]);
        assert!(p.has_unique_leader(&one));
        assert_eq!(p.leader_count(&one), 1);
        let two = Configuration::from_states(vec![1usize, 1, 3, 4]);
        assert!(!p.has_unique_leader(&two));
        assert_eq!(p.leader_count(&two), 2);
    }

    #[test]
    fn transition_signature_accepts_any_rng() {
        let p = Toy { n: 2 };
        let mut rng = StepRng::new(0, 1);
        let (a, b) = p.transition(&1, &2, &mut rng);
        assert_eq!((a, b), (1, 2));
    }
}
