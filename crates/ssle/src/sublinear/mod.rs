//! `Sublinear-Time-SSR` (Protocols 5–8): self-stabilizing ranking in
//! `Θ(H·n^{1/(H+1)})` time for constant history depth `H`, and in the optimal
//! `Θ(log n)` time for `H = Θ(log n)`.
//!
//! Each agent holds a random `3·log₂ n`-bit [`Name`], a roster of every name
//! it has heard of (spread by the roll-call process, `O(log n)` time), and a
//! [`history_tree::HistoryTree`] used by [`collision::detect_name_collision`]
//! to notice two agents sharing a name without waiting `Θ(n)` time for them to
//! meet directly. Ranks are the lexicographic positions of names in a full
//! roster.
//!
//! Errors and their detectors:
//!
//! * **name collision** → `Detect-Name-Collision` (cross-examination of
//!   interaction histories), in `O(τ_{H+1})` time;
//! * **ghost names** (roster entries no agent actually carries) → the roster
//!   grows past `n`, noticed in `O(log n)` time;
//! * either detection triggers `Propagate-Reset` with a logarithmic dormancy,
//!   during which every agent draws a fresh random name bit-by-bit.
//!
//! The protocol is deliberately **non-silent**: agents keep exchanging sync
//! values forever, which Observation 2.6 shows is unavoidable for any
//! sublinear-time self-stabilizing leader election.

pub mod collision;
pub mod history_tree;

use std::collections::BTreeSet;

use ppsim::{
    Configuration, CountProtocol, InternableProtocol, InternedStates, LeaderElectionProtocol,
    Protocol, Rank, RankingProtocol, Scenario,
};
use rand::{Rng, RngCore};

use crate::name::Name;
use crate::params::SublinearParams;
use crate::reset::{propagate_reset_step, AfterReset, ResetStatus, ResetTimers};
use collision::{detect_name_collision, CollisionCheck};
use history_tree::HistoryTree;

/// The state of one agent of `Sublinear-Time-SSR`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SublinearState {
    /// The agent is executing the main protocol: collecting names and
    /// cross-examining interaction histories.
    Collecting {
        /// The agent's own name.
        name: Name,
        /// Every name the agent has heard of (including its own).
        roster: BTreeSet<Name>,
        /// The bounded-depth interaction-history tree.
        tree: HistoryTree,
    },
    /// The agent is participating in `Propagate-Reset`; while dormant it draws
    /// a fresh name one random bit per interaction.
    Resetting {
        /// The (possibly partially regenerated) name.
        name: Name,
        /// The `Propagate-Reset` counters.
        timers: ResetTimers,
    },
}

impl SublinearState {
    /// The agent's current name regardless of role.
    pub fn name(&self) -> &Name {
        match self {
            SublinearState::Collecting { name, .. } => name,
            SublinearState::Resetting { name, .. } => name,
        }
    }

    /// Whether the agent is currently in the `Resetting` role.
    pub fn is_resetting(&self) -> bool {
        matches!(self, SublinearState::Resetting { .. })
    }

    fn reset_status(&self) -> ResetStatus {
        match self {
            SublinearState::Resetting { timers, .. } => ResetStatus::Resetting(*timers),
            SublinearState::Collecting { .. } => ResetStatus::Computing,
        }
    }
}

/// `Sublinear-Time-SSR` (Protocol 5), parameterized by [`SublinearParams`].
#[derive(Clone, Copy, Debug)]
pub struct SublinearTimeSsr {
    params: SublinearParams,
}

impl SublinearTimeSsr {
    /// Creates the protocol.
    pub fn new(params: SublinearParams) -> Self {
        SublinearTimeSsr { params }
    }

    /// The protocol's parameters.
    pub fn params(&self) -> &SublinearParams {
        &self.params
    }

    /// A freshly reset agent state for the given name (Protocol 6).
    fn reset_state(&self, name: Name) -> SublinearState {
        SublinearState::Collecting {
            name,
            roster: BTreeSet::from([name]),
            tree: HistoryTree::singleton(name),
        }
    }

    /// A "clean start" configuration: every agent holds an independently drawn
    /// full-length random name, knows only itself, and has a fresh tree. This
    /// is the configuration reached right after a successful reset.
    pub fn fresh_configuration(&self, rng: &mut impl Rng) -> Configuration<SublinearState> {
        Configuration::from_fn(self.params.n, |_| {
            self.reset_state(Name::random(self.params.name_bits, rng))
        })
    }

    /// A clean-start configuration in which two agents (0 and 1) share the
    /// same name: the canonical workload for measuring collision-detection
    /// latency.
    pub fn colliding_configuration(&self, rng: &mut impl Rng) -> Configuration<SublinearState> {
        self.k_way_colliding_configuration(2, rng)
    }

    /// A clean-start configuration in which the first `k` agents all share
    /// one name (a `k`-way collision); `k = 2` is
    /// [`SublinearTimeSsr::colliding_configuration`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `2..=n`.
    pub fn k_way_colliding_configuration(
        &self,
        k: usize,
        rng: &mut impl Rng,
    ) -> Configuration<SublinearState> {
        assert!((2..=self.params.n).contains(&k), "collision arity must be in 2..=n");
        let duplicate = Name::random(self.params.name_bits, rng);
        Configuration::from_fn(self.params.n, |i| {
            let name = if i < k { duplicate } else { Name::random(self.params.name_bits, rng) };
            self.reset_state(name)
        })
    }

    /// A clean-start configuration with unique names but a planted *ghost*
    /// name in agent 0's roster: a name no agent actually carries.
    pub fn ghost_configuration(&self, rng: &mut impl Rng) -> Configuration<SublinearState> {
        self.ghost_roster_configuration(1, rng)
    }

    /// A clean-start configuration with `ghosts` distinct ghost names planted
    /// in the rosters of the first `ghosts` agents (one each, wrapping if
    /// `ghosts > n`): roster entries no agent actually carries, which must
    /// eventually inflate a merged roster past `n` and force a reset.
    pub fn ghost_roster_configuration(
        &self,
        ghosts: usize,
        rng: &mut impl Rng,
    ) -> Configuration<SublinearState> {
        let mut states = self.fresh_configuration(rng).into_states();
        for g in 0..ghosts {
            let ghost = Name::random(self.params.name_bits, rng);
            if let SublinearState::Collecting { roster, .. } = &mut states[g % self.params.n] {
                roster.insert(ghost);
            }
        }
        Configuration::from_states(states)
    }

    /// An adversarial configuration with corrupted [`HistoryTree`]s: every
    /// agent holds a unique name, but about half of them carry a fabricated
    /// history — a tree path (of depth up to `H`) ending at another agent's
    /// real name under sync values that agent never generated. The fabricated
    /// evidence fails cross-examination the first time its owner meets the
    /// named agent, spuriously triggering `Detect-Name-Collision` and a
    /// global reset that the protocol must recover from.
    pub fn corrupted_tree_configuration(
        &self,
        rng: &mut impl Rng,
    ) -> Configuration<SublinearState> {
        let n = self.params.n;
        let names: Vec<Name> = (0..n).map(|_| Name::random(self.params.name_bits, rng)).collect();
        Configuration::from_fn(n, |i| {
            let mut tree = HistoryTree::singleton(names[i]);
            if self.params.h > 0 && rng.gen_bool(0.5) {
                let victim = names[(i + 1 + rng.gen_range(0..n - 1)) % n];
                let mut chain = HistoryTree::singleton(victim);
                if self.params.h > 1 {
                    // Hide the victim one level deeper behind a name nobody
                    // carries, exercising multi-edge path checking.
                    let mut deeper =
                        HistoryTree::singleton(Name::random(self.params.name_bits, rng));
                    deeper.absorb(
                        &chain,
                        rng.gen_range(1..=self.params.s_max),
                        self.params.t_h,
                        self.params.h,
                    );
                    chain = deeper;
                }
                tree.absorb(
                    &chain,
                    rng.gen_range(1..=self.params.s_max),
                    self.params.t_h,
                    self.params.h,
                );
            }
            SublinearState::Collecting { name: names[i], roster: BTreeSet::from([names[i]]), tree }
        })
    }

    /// A **merged** configuration with a planted `k`-way name collision: all
    /// rosters have already been fully exchanged (as after the roll-call
    /// phase completes), every history tree is a pristine singleton, and the
    /// first `k` agents share one name. This isolates the *detection* phase:
    /// nothing remains to merge, so at `H = 0` every pair except the
    /// duplicates is null and the configuration idles until two duplicates
    /// meet directly — the `Θ(n²)`-interaction wait of the direct-detection
    /// lower bound, which the batched (interned) engine skips in one
    /// geometric draw. At `H ≥ 1` the same configuration exercises
    /// cross-examination from a merged start.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `2..=n`.
    pub fn merged_collision_configuration(
        &self,
        k: usize,
        rng: &mut impl Rng,
    ) -> Configuration<SublinearState> {
        assert!((2..=self.params.n).contains(&k), "collision arity must be in 2..=n");
        let duplicate = Name::random(self.params.name_bits, rng);
        let names: Vec<Name> = (0..self.params.n)
            .map(|i| if i < k { duplicate } else { Name::random(self.params.name_bits, rng) })
            .collect();
        // The merged roster: every name any agent carries (duplicates
        // collapse, so it has n − k + 1 entries — within the ≤ n bound).
        let roster: BTreeSet<Name> = names.iter().copied().collect();
        Configuration::from_fn(self.params.n, |i| SublinearState::Collecting {
            name: names[i],
            roster: roster.clone(),
            tree: HistoryTree::singleton(names[i]),
        })
    }

    /// An adversarial configuration with the whole population mid-
    /// `Propagate-Reset` under independently random timers: propagating
    /// agents (`resetcount > 0`) with cleared names mixed with dormant agents
    /// holding partially regenerated names.
    pub fn mid_reset_configuration(&self, rng: &mut impl Rng) -> Configuration<SublinearState> {
        Configuration::from_fn(self.params.n, |_| {
            let resetcount = rng.gen_range(0..=self.params.reset.r_max);
            let delaytimer = rng.gen_range(0..=self.params.reset.d_max);
            let name = if resetcount > 0 {
                Name::empty()
            } else {
                Name::random(rng.gen_range(0..=self.params.name_bits), rng)
            };
            SublinearState::Resetting { name, timers: ResetTimers { resetcount, delaytimer } }
        })
    }

    /// The protocol's adversarial scenario families, for the
    /// adversarial-initialization experiments (`exp_adversarial`). The state
    /// space is not statically enumerable (names × history trees), so these
    /// families run on the exact engine ([`ppsim::Simulation`]) or on the
    /// count engine's interned index ([`ppsim::InternedSimulation`], via
    /// [`ppsim::RunSpec::until`]) — the protocol implements
    /// [`CountProtocol`] with [`InternedStates`], and the cross-engine
    /// equivalence suite holds both routes to the same verdicts and time
    /// distributions.
    pub fn adversarial_scenarios() -> Vec<Scenario<Self>> {
        vec![
            Scenario::new("collision-2way", |p: &Self, rng| {
                p.k_way_colliding_configuration(2, rng)
            }),
            Scenario::new("collision-kway", |p: &Self, rng| {
                let k = (p.params.n / 4).clamp(3, p.params.n);
                p.k_way_colliding_configuration(k, rng)
            }),
            Scenario::new("merged-collision", |p: &Self, rng| {
                p.merged_collision_configuration(2, rng)
            }),
            Scenario::new("ghost-roster", |p: &Self, rng| p.ghost_roster_configuration(3, rng)),
            Scenario::new("corrupted-history", |p: &Self, rng| p.corrupted_tree_configuration(rng)),
            Scenario::new("mid-reset", |p: &Self, rng| p.mid_reset_configuration(rng)),
        ]
    }

    /// An adversarial configuration with every agent mid-reset at the maximum
    /// reset count (the whole population must propagate, go dormant, draw new
    /// names and restart).
    pub fn all_resetting_configuration(&self) -> Configuration<SublinearState> {
        Configuration::uniform(
            SublinearState::Resetting {
                name: Name::empty(),
                timers: ResetTimers { resetcount: self.params.reset.r_max, delaytimer: 0 },
            },
            self.params.n,
        )
    }

    /// Whether every agent is collecting, has a full roster, and the ranks
    /// derived from the roster are exactly `1..=n` (the stably correct
    /// outcome).
    pub fn is_correct(&self, config: &Configuration<SublinearState>) -> bool {
        self.is_correctly_ranked(config)
    }

    /// Whether any agent is currently in the `Resetting` role (used by safety
    /// tests: a clean start must never reset).
    pub fn any_resetting(config: &Configuration<SublinearState>) -> bool {
        config.iter().any(SublinearState::is_resetting)
    }
}

impl Protocol for SublinearTimeSsr {
    type State = SublinearState;

    fn population_size(&self) -> usize {
        self.params.n
    }

    fn transition(
        &self,
        initiator: &SublinearState,
        responder: &SublinearState,
        rng: &mut dyn RngCore,
    ) -> (SublinearState, SublinearState) {
        let (mut a, mut b) = (initiator.clone(), responder.clone());
        self.transition_in_place(&mut a, &mut b, rng);
        (a, b)
    }

    fn transition_in_place(
        &self,
        initiator: &mut SublinearState,
        responder: &mut SublinearState,
        rng: &mut dyn RngCore,
    ) -> bool {
        if initiator.is_resetting() || responder.is_resetting() {
            self.resetting_interaction(initiator, responder, rng)
        } else {
            self.collecting_interaction(initiator, responder, rng)
        }
    }

    /// An ordered pair is null exactly in the direct-detection regime
    /// `H = 0`, between two collecting agents with distinct names, equal
    /// (not oversized) rosters, and no live history-tree edges: the
    /// cross-examination finds no checkable paths, the roster union changes
    /// nothing, `absorb` at depth 0 is a no-op, and there are no positive
    /// timers left to decrement.
    ///
    /// Everything else can change state: equal names collide (→ reset), a
    /// roster union grows or overflows (→ reset), `H ≥ 1` interactions
    /// always record a fresh sync edge, and any interaction involving a
    /// `Resetting` agent drives `Propagate-Reset` counters. The conservative
    /// `false` in those cases is what [`ppsim::Protocol::is_null`] requires.
    ///
    /// This predicate is what lets the batched (interned) engine skip the
    /// `Θ(n²)`-interaction wait for two duplicates to meet directly at
    /// `H = 0` — the regime where almost every scheduled pair is null.
    fn is_null(&self, initiator: &SublinearState, responder: &SublinearState) -> bool {
        match (initiator, responder) {
            (
                SublinearState::Collecting { name: a_name, roster: a_roster, tree: a_tree },
                SublinearState::Collecting { name: b_name, roster: b_roster, tree: b_tree },
            ) => {
                self.params.h == 0
                    && a_name != b_name
                    && !a_tree.has_live_edges()
                    && !b_tree.has_live_edges()
                    && a_roster.len() <= self.params.n
                    && a_roster == b_roster
            }
            _ => false,
        }
    }
}

impl InternableProtocol for SublinearTimeSsr {
    type NullClass = BTreeSet<Name>;

    /// Clean direct-detection states (`H = 0`, collecting, a pristine
    /// singleton tree rooted at the agent's **own** name, roster within
    /// bounds) declare their roster as the null class: two *distinct* such
    /// states necessarily carry different names (with the root pinned to the
    /// name, the tree is determined by it), so sharing a roster makes them
    /// null in both orders per [`SublinearTimeSsr::is_null`] — without the
    /// engine ever comparing the rosters element by element. In the
    /// near-silent merged phase this is the difference between
    /// O(present²·n) set comparisons and O(present²) id compares when the
    /// pair tables are (re)built.
    ///
    /// The `root_name == name` check is what makes the class contract hold
    /// on *arbitrary* adversarial states, not just the shipped generators:
    /// without it, two same-named agents whose fabricated singleton trees
    /// differ would be distinct states in one class, and the engine would
    /// skip their genuine name collision.
    fn null_class(&self, state: &SublinearState) -> Option<BTreeSet<Name>> {
        match state {
            SublinearState::Collecting { name, roster, tree }
                if self.params.h == 0
                    && tree.node_count() == 1
                    && tree.root_name() == name
                    && roster.len() <= self.params.n =>
            {
                Some(roster.clone())
            }
            _ => None,
        }
    }

    fn distinct_states_hint(&self) -> usize {
        // Names are unique with high probability, so about one state per
        // agent is present at a time; transitions retire old states and
        // intern new ones.
        2 * self.params.n
    }
}

impl CountProtocol for SublinearTimeSsr {
    type Index = InternedStates<Self>;
}

impl SublinearTimeSsr {
    /// Lines 1–8 of Protocol 5: cross-examine histories, merge rosters, and
    /// trigger a reset on a detected collision or an oversized roster.
    /// Returns whether either state changed.
    fn collecting_interaction(
        &self,
        a: &mut SublinearState,
        b: &mut SublinearState,
        rng: &mut dyn RngCore,
    ) -> bool {
        let (
            SublinearState::Collecting { name: a_name, roster: a_roster, tree: a_tree },
            SublinearState::Collecting { name: b_name, roster: b_roster, tree: b_tree },
        ) = (&mut *a, &mut *b)
        else {
            unreachable!("collecting_interaction requires two collecting agents")
        };

        let check = detect_name_collision(a_name, a_tree, b_name, b_tree, &self.params, rng);
        // The union is built in a's roster. It contains both rosters, so a
        // roster is unchanged exactly when its size is.
        let (a_len, b_len) = (a_roster.len(), b_roster.len());
        if a_roster != b_roster {
            a_roster.extend(b_roster.iter().copied());
        }
        let union_len = a_roster.len();

        match check {
            CollisionCheck::Consistent { changed } if union_len <= self.params.n => {
                if union_len != b_len {
                    b_roster.clone_from(a_roster);
                }
                changed || union_len != a_len || union_len != b_len
            }
            _ => {
                let timers = ResetTimers::triggered(&self.params.reset);
                let (a_name, b_name) = (*a_name, *b_name);
                *a = SublinearState::Resetting { name: a_name, timers };
                *b = SublinearState::Resetting { name: b_name, timers };
                true
            }
        }
    }

    /// Lines 9–14 of Protocol 5: run `Propagate-Reset`, clear names while the
    /// reset is propagating, and draw fresh random name bits while dormant.
    /// Returns whether either state changed.
    fn resetting_interaction(
        &self,
        a: &mut SublinearState,
        b: &mut SublinearState,
        rng: &mut dyn RngCore,
    ) -> bool {
        let (after_a, after_b) =
            propagate_reset_step(a.reset_status(), b.reset_status(), &self.params.reset);
        let a_changed = self.apply_reset_outcome(a, after_a, rng);
        let b_changed = self.apply_reset_outcome(b, after_b, rng);
        a_changed || b_changed
    }

    fn apply_reset_outcome(
        &self,
        state: &mut SublinearState,
        outcome: AfterReset,
        rng: &mut dyn RngCore,
    ) -> bool {
        let next = match outcome {
            AfterReset::Computing => return false,
            AfterReset::Awaken => self.reset_state(*state.name()),
            AfterReset::Resetting(timers) => {
                let mut name = *state.name();
                if timers.resetcount > 0 {
                    // Line 12: clear the name while the reset signal is still
                    // propagating.
                    name = Name::empty();
                } else if !name.is_complete(self.params.name_bits) {
                    // Line 14: dormant agents regenerate their name one random
                    // bit per interaction.
                    name.push_bit(rng.gen_bool(0.5));
                }
                SublinearState::Resetting { name, timers }
            }
        };
        let changed = *state != next;
        *state = next;
        changed
    }
}

impl RankingProtocol for SublinearTimeSsr {
    fn rank(&self, state: &SublinearState) -> Option<Rank> {
        match state {
            SublinearState::Collecting { name, roster, .. } if roster.len() == self.params.n => {
                roster.iter().position(|r| r == name).map(|i| Rank::new(i + 1))
            }
            _ => None,
        }
    }
}

impl LeaderElectionProtocol for SublinearTimeSsr {
    fn is_leader(&self, state: &SublinearState) -> bool {
        self.rank(state).is_some_and(|r| r.is_leader())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{AgentId, Simulation};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn protocol(n: usize, h: u32) -> SublinearTimeSsr {
        SublinearTimeSsr::new(SublinearParams::recommended(n, h))
    }

    fn run_to_correct(
        p: SublinearTimeSsr,
        config: Configuration<SublinearState>,
        seed: u64,
    ) -> u64 {
        let n = p.population_size();
        let mut sim = Simulation::new(p, config, seed);
        let budget = 200_000u64 * n as u64;
        let outcome = sim.run_until(|c| p.is_correct(c), budget);
        assert!(
            outcome.condition_met(),
            "did not reach a correct ranking in {budget} interactions"
        );
        outcome.interactions.count()
    }

    #[test]
    fn clean_start_ranks_quickly_and_never_resets() {
        let n = 16;
        let p = protocol(n, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = p.fresh_configuration(&mut rng);
        let mut sim = Simulation::new(p, config, 2);
        let outcome = sim.run_until(|c| p.is_correct(c), 200_000);
        assert!(outcome.condition_met());
        // Safety (Lemma 5.4): keep running well past stabilization; the
        // ranking must persist and no agent may ever enter the Resetting role.
        sim.run_for(50_000);
        assert!(p.is_correct(sim.configuration()));
        assert!(!SublinearTimeSsr::any_resetting(sim.configuration()));
    }

    #[test]
    fn colliding_names_are_detected_and_repaired() {
        let n = 12;
        let p = protocol(n, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let config = p.colliding_configuration(&mut rng);
        let interactions = run_to_correct(p, config, 6);
        assert!(interactions > 0);
    }

    #[test]
    fn ghost_names_are_detected_and_repaired() {
        let n = 12;
        let p = protocol(n, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let config = p.ghost_configuration(&mut rng);
        // The ghost inflates the roster past n, forcing a reset, after which a
        // clean ranking emerges.
        run_to_correct(p, config, 10);
    }

    #[test]
    fn recovers_from_a_population_wide_reset() {
        let n = 12;
        let p = protocol(n, 1);
        run_to_correct(p, p.all_resetting_configuration(), 3);
    }

    #[test]
    fn direct_detection_depth_zero_also_recovers() {
        // H = 0 is the silent-style variant: only direct meetings of the two
        // duplicates reveal the collision, which still happens in Θ(n) time.
        let n = 10;
        let p = protocol(n, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let config = p.colliding_configuration(&mut rng);
        run_to_correct(p, config, 8);
    }

    #[test]
    fn k_way_collisions_are_detected_and_repaired() {
        let n = 12;
        let p = protocol(n, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let config = p.k_way_colliding_configuration(4, &mut rng);
        let shared = *config.as_slice()[0].name();
        assert_eq!(config.iter().filter(|s| s.name() == &shared).count(), 4);
        run_to_correct(p, config, 11);
    }

    #[test]
    fn corrupted_history_trees_trigger_recovery() {
        let n = 12;
        let p = protocol(n, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = p.corrupted_tree_configuration(&mut rng);
        // At least one fabricated history must be present for the scenario to
        // mean anything.
        assert!(config.iter().any(|s| match s {
            SublinearState::Collecting { tree, .. } => tree.node_count() > 1,
            _ => false,
        }));
        run_to_correct(p, config, 12);
    }

    #[test]
    fn every_adversarial_scenario_recovers_to_a_correct_ranking() {
        for scenario in SublinearTimeSsr::adversarial_scenarios() {
            let p = protocol(10, 2);
            let config = scenario.configuration(&p, 19);
            let n = p.population_size();
            let mut sim = Simulation::new(p, config, 23);
            let budget = 400_000u64 * n as u64;
            let outcome = sim.run_until(|c| p.is_correct(c), budget);
            assert!(
                outcome.condition_met(),
                "scenario {:?} did not recover within {budget} interactions",
                scenario.name()
            );
        }
    }

    #[test]
    fn h0_merged_collision_exposes_only_the_duplicate_pairs() {
        let n = 16;
        let p = protocol(n, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = p.merged_collision_configuration(3, &mut rng);
        // On the interned engine every pair except the 3·2 ordered duplicate
        // pairs is null, so the wait for a direct duplicate meeting collapses
        // to one geometric draw and a single applied transition.
        let mut sim = ppsim::InternedSimulation::new(p, &config, 5);
        assert_eq!(sim.active_pairs(), 6);
        let outcome = sim.run_until(SublinearTimeSsr::any_resetting, u64::MAX >> 8);
        assert!(outcome.condition_met());
        assert_eq!(sim.transitions(), 1);
        assert!(sim.interactions().count() >= 1);
    }

    #[test]
    fn mislabeled_singleton_trees_do_not_join_a_null_class() {
        // Adversarial corner of the null-class contract: two agents share
        // name A with equal rosters, but one carries a fabricated singleton
        // tree rooted at someone *else's* name. They are distinct states, so
        // a roster-keyed class without the root-name pin would claim the
        // pair null and the interned engine would skip the genuine name
        // collision. With the pin, the mislabeled state is class-less and
        // the collision pair stays active.
        let n = 6;
        let p = protocol(n, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let names: Vec<Name> =
            (0..n).map(|_| Name::random(p.params().name_bits, &mut rng)).collect();
        let mut shared = names.clone();
        shared[1] = shared[0]; // agents 0 and 1 both carry name A
        let roster: BTreeSet<Name> = shared.iter().copied().collect();
        let config = Configuration::from_fn(n, |i| SublinearState::Collecting {
            name: shared[i],
            roster: roster.clone(),
            // Agent 1's tree fabricates a root labelled with agent 2's name.
            tree: HistoryTree::singleton(if i == 1 { names[2] } else { shared[i] }),
        });
        assert_eq!(
            p.null_class(&config.as_slice()[1]),
            None,
            "a mislabeled tree must not join the roster class"
        );
        let mut sim = ppsim::InternedSimulation::new(p, &config, 3);
        // Exactly the two ordered duplicate pairs are non-null.
        assert_eq!(sim.active_pairs(), 2);
        assert_eq!(sim.active_pairs(), sim.recount_active_pairs());
        let outcome = sim.run_until(SublinearTimeSsr::any_resetting, u64::MAX >> 8);
        assert!(outcome.condition_met(), "the collision must be detected");
        assert_eq!(sim.transitions(), 1);
    }

    #[test]
    fn h0_nullness_requires_equal_rosters_dead_trees_and_distinct_names() {
        let n = 8;
        let p = protocol(n, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let config = p.merged_collision_configuration(2, &mut rng);
        let s = config.as_slice();
        // Agents 0 and 1 share a name: non-null (a collision to detect).
        assert!(!p.is_null(&s[0], &s[1]));
        // Agents 2 and 3 have distinct names and identical full rosters: null.
        assert!(p.is_null(&s[2], &s[3]));
        // A fresh (unmerged) roster against a full one: non-null.
        let fresh = p.fresh_configuration(&mut rng);
        assert!(!p.is_null(fresh.as_slice().first().unwrap(), &s[2]));
        // Resetting agents are never null partners.
        let resetting = SublinearState::Resetting {
            name: Name::empty(),
            timers: ResetTimers { resetcount: 1, delaytimer: 0 },
        };
        assert!(!p.is_null(&resetting, &s[2]));
        assert!(!p.is_null(&s[2], &resetting));
        // At H ≥ 1 even the merged configuration is never null (every
        // consistent interaction records a fresh sync edge).
        let p1 = protocol(n, 1);
        let config1 = p1.merged_collision_configuration(2, &mut rng);
        let s1 = config1.as_slice();
        assert!(!p1.is_null(&s1[2], &s1[3]));
    }

    #[test]
    fn ranks_are_lexicographic_positions_of_names() {
        let n = 4;
        let p = protocol(n, 1);
        let names: Vec<Name> = vec![
            Name::from_bits(&[false, false]),
            Name::from_bits(&[false, true]),
            Name::from_bits(&[true, false]),
            Name::from_bits(&[true, true]),
        ];
        let roster: BTreeSet<Name> = names.iter().copied().collect();
        let config = Configuration::from_fn(n, |i| SublinearState::Collecting {
            name: names[i],
            roster: roster.clone(),
            tree: HistoryTree::singleton(names[i]),
        });
        assert!(p.is_correct(&config));
        for (i, state) in config.iter().enumerate() {
            assert_eq!(p.rank(state), Some(Rank::new(i + 1)));
        }
        assert!(p.is_leader(&config.as_slice()[0]));
        assert!(!p.is_leader(&config.as_slice()[1]));
    }

    #[test]
    fn incomplete_rosters_have_no_rank() {
        let p = protocol(4, 1);
        let name = Name::from_bits(&[true]);
        let state = SublinearState::Collecting {
            name,
            roster: BTreeSet::from([name]),
            tree: HistoryTree::singleton(name),
        };
        assert_eq!(p.rank(&state), None);
        let resetting = SublinearState::Resetting {
            name,
            timers: ResetTimers { resetcount: 0, delaytimer: 3 },
        };
        assert_eq!(p.rank(&resetting), None);
    }

    #[test]
    fn propagating_agents_clear_their_names() {
        let p = protocol(8, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let victim = SublinearState::Collecting {
            name: Name::from_bits(&[true, true, true]),
            roster: BTreeSet::from([Name::from_bits(&[true, true, true])]),
            tree: HistoryTree::singleton(Name::from_bits(&[true, true, true])),
        };
        let triggered = SublinearState::Resetting {
            name: Name::from_bits(&[false]),
            timers: ResetTimers::triggered(&p.params().reset),
        };
        let (t2, v2) = p.transition(&triggered, &victim, &mut rng);
        for s in [&t2, &v2] {
            match s {
                SublinearState::Resetting { name, timers } => {
                    assert!(timers.resetcount > 0);
                    assert!(name.is_empty(), "propagating agents must clear their names");
                }
                other => panic!("expected Resetting, got {other:?}"),
            }
        }
    }

    #[test]
    fn dormant_agents_grow_their_names_one_bit_per_interaction() {
        let p = protocol(8, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let dormant = |len: usize| SublinearState::Resetting {
            name: Name::from_bits(&vec![false; len]),
            timers: ResetTimers { resetcount: 0, delaytimer: 50 },
        };
        let (a2, b2) = p.transition(&dormant(3), &dormant(5), &mut rng);
        match (&a2, &b2) {
            (
                SublinearState::Resetting { name: na, .. },
                SublinearState::Resetting { name: nb, .. },
            ) => {
                assert_eq!(na.len(), 4);
                assert_eq!(nb.len(), 6);
            }
            other => panic!("expected two Resetting agents, got {other:?}"),
        }
    }

    #[test]
    fn awakening_agent_rebuilds_roster_and_tree_from_its_name() {
        let p = protocol(8, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let full_name = Name::random(p.params().name_bits, &mut rng);
        let about_to_wake = SublinearState::Resetting {
            name: full_name,
            timers: ResetTimers { resetcount: 0, delaytimer: 1 },
        };
        let partner = SublinearState::Resetting {
            name: Name::empty(),
            timers: ResetTimers { resetcount: 0, delaytimer: 40 },
        };
        let (woken, _) = p.transition(&about_to_wake, &partner, &mut rng);
        match woken {
            SublinearState::Collecting { name, roster, tree } => {
                assert_eq!(name, full_name);
                assert_eq!(roster.len(), 1);
                assert!(roster.contains(&full_name));
                assert_eq!(tree.node_count(), 1);
            }
            other => panic!("expected the agent to awaken, got {other:?}"),
        }
    }

    /// Steps `config` through `steps` uniformly drawn interactions with
    /// [`Protocol::transition_in_place`], checking each against
    /// [`Protocol::transition`] plus `!=` on the same pair and random stream:
    /// equal states, an exact `changed` flag and the same random draws.
    /// Returns how many interactions between two collecting agents left both
    /// unchanged.
    fn assert_in_place_agrees(
        p: &SublinearTimeSsr,
        mut config: Configuration<SublinearState>,
        steps: usize,
        seed: u64,
    ) -> usize {
        let n = config.len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut unchanged_collecting = 0;
        for step in 0..steps {
            let i = rng.gen_range(0..n);
            let j = (i + 1 + rng.gen_range(0..n - 1)) % n;
            let (a, b) = (config.as_slice()[i].clone(), config.as_slice()[j].clone());
            let mut by_value_rng = rng.clone();
            let (a2, b2) = p.transition(&a, &b, &mut by_value_rng);
            let (x, y) = config.pair_mut(AgentId::new(i), AgentId::new(j));
            let changed = p.transition_in_place(x, y, &mut rng);
            assert_eq!((&*x, &*y), (&a2, &b2), "step {step}: states differ");
            assert_eq!(changed, a2 != a || b2 != b, "step {step}: wrong changed flag");
            assert_eq!(rng, by_value_rng, "step {step}: different random draws");
            if !changed && !a.is_resetting() && !b.is_resetting() {
                unchanged_collecting += 1;
            }
        }
        unchanged_collecting
    }

    #[test]
    fn in_place_transition_agrees_with_transition_on_real_trajectories() {
        let n = 8;
        let log_h = (n as f64).log2().ceil() as u32;
        for h in [0, 1, 2, log_h] {
            let p = protocol(n, h);
            let mut rng = ChaCha8Rng::seed_from_u64(u64::from(h));
            assert_in_place_agrees(&p, p.fresh_configuration(&mut rng), 3_000, 100 + u64::from(h));
            for (k, scenario) in SublinearTimeSsr::adversarial_scenarios().iter().enumerate() {
                let config = scenario.configuration(&p, 7 + k as u64);
                assert_in_place_agrees(&p, config, 3_000, 200 + 10 * u64::from(h) + k as u64);
            }
        }
    }

    #[test]
    fn in_place_transition_reports_unchanged_trees_when_sync_values_repeat() {
        // With a single sync value, two agents meeting again redraw the edge
        // they already hold: once every other timer has expired (T_H = 1, or
        // no other partner at n = 2), a consistent H ≥ 1 interaction can leave
        // both states unchanged, and the flag must say so.
        for (n, t_h) in [(2, None), (8, Some(1))] {
            for h in [1, 2] {
                let mut params = SublinearParams::recommended(n, h);
                params.s_max = 1;
                if let Some(t_h) = t_h {
                    params = params.with_t_h(t_h);
                }
                let p = SublinearTimeSsr::new(params);
                let mut rng = ChaCha8Rng::seed_from_u64(u64::from(h));
                let unchanged =
                    assert_in_place_agrees(&p, p.fresh_configuration(&mut rng), 2_000, 300);
                assert!(unchanged > 0, "n = {n}, H = {h}: no unchanged interaction seen");
            }
        }
    }

    #[test]
    fn oversized_roster_triggers_reset() {
        let n = 3;
        let p = protocol(n, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mk_name =
            |i: u64| Name::from_bits(&(0..5).map(|b| (i >> b) & 1 == 1).collect::<Vec<_>>());
        // Agent a already knows 3 names; agent b brings a fourth: union > n.
        let a_roster: BTreeSet<Name> = [mk_name(1), mk_name(2), mk_name(3)].into();
        let a = SublinearState::Collecting {
            name: mk_name(1),
            roster: a_roster,
            tree: HistoryTree::singleton(mk_name(1)),
        };
        let b = SublinearState::Collecting {
            name: mk_name(4),
            roster: BTreeSet::from([mk_name(4)]),
            tree: HistoryTree::singleton(mk_name(4)),
        };
        let (a2, b2) = p.transition(&a, &b, &mut rng);
        assert!(a2.is_resetting());
        assert!(b2.is_resetting());
    }
}
