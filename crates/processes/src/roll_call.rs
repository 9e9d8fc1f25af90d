//! The roll-call process (Lemma 2.9).
//!
//! Every agent starts with a roster containing only its own unique ID; on each
//! interaction both agents take the union of their rosters. `R_n` is the
//! number of interactions until every agent's roster contains all `n` IDs.
//! Lemma 2.9 shows `E[R_n] ~ 1.5·n·ln n` and `P[R_n > 3·n·ln n] < 1/n`.
//!
//! The process is the union of `n` coupled epidemics (one per ID). Agent
//! *identities* only enter through the roster contents, so once the roster
//! itself is taken as the agent state ([`Roster`]), the process is an
//! ordinary anonymous population protocol ([`RollCall`]) and the **multiset
//! of rosters is a sufficient statistic**: it runs on the exact engine and —
//! because the `2ⁿ` possible rosters are discovered dynamically rather than
//! enumerated up front — on the batched engine's interned backend
//! ([`ppsim::InternedSimulation`]). An interaction is null exactly when the
//! two rosters are equal, and the process is *silent* exactly at completion
//! (all rosters equal ⟺ all rosters full), so the engines' silence time
//! samples `R_n`.
//!
//! [`simulate_roll_call_interactions`] remains the specialized sampler
//! (`O(n/64)` words per interaction, no engine overhead) that the
//! engine-based runs are cross-validated against.

use ppsim::{
    Configuration, CorruptionTarget, CountProtocol, FaultPlan, InternableProtocol, InternedStates,
    Protocol,
};
use rand::{Rng, RngCore};

/// A roll-call roster: the set of agent IDs an agent has heard of, as a
/// compact bitset over `0..n`.
///
/// This is the [`RollCall`] protocol's agent state. Equality compares the
/// underlying words (two rosters over the same population are equal iff they
/// contain the same IDs), which is also the protocol's nullness test.
///
/// # Example
///
/// ```
/// use processes::Roster;
/// let mut a = Roster::singleton(70, 0);
/// let b = Roster::singleton(70, 69);
/// assert!(a.contains(0) && !a.contains(69));
/// a.union_in_place(&b);
/// assert_eq!(a.len(), 2);
/// assert!(a.contains(69));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Roster {
    words: Vec<u64>,
    ones: u32,
}

impl Roster {
    /// The roster of a fresh agent: only its own ID.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn singleton(n: usize, index: usize) -> Self {
        assert!(index < n, "agent index out of range");
        let mut words = vec![0u64; n.div_ceil(64)];
        words[index / 64] |= 1 << (index % 64);
        Roster { words, ones: 1 }
    }

    /// Adds every ID of `other` to this roster.
    ///
    /// # Panics
    ///
    /// Panics if the rosters were built for different population sizes
    /// (their word vectors differ in length) — a silent zip would otherwise
    /// drop the longer roster's tail and corrupt the cached ID count.
    pub fn union_in_place(&mut self, other: &Roster) {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "rosters from different population sizes cannot be merged"
        );
        let mut ones = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= *o;
            ones += w.count_ones();
        }
        self.ones = ones;
    }

    /// The union of two rosters, as a new roster.
    ///
    /// # Panics
    ///
    /// Panics under the same population-size mismatch as
    /// [`Roster::union_in_place`].
    pub fn merged(&self, other: &Roster) -> Roster {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// Whether the roster contains the given agent ID.
    pub fn contains(&self, index: usize) -> bool {
        self.words.get(index / 64).is_some_and(|w| w >> (index % 64) & 1 == 1)
    }

    /// The number of IDs in the roster.
    pub fn len(&self) -> usize {
        self.ones as usize
    }

    /// Whether the roster is empty (never true for a reachable roster: every
    /// agent always knows itself).
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }
}

/// The roll-call process as an anonymous population protocol: states are
/// [`Roster`]s, and both agents of an interaction adopt the union of their
/// rosters.
///
/// The protocol is silent — an interaction is null iff the rosters are
/// already equal — and its unique silent configuration reachable from the
/// canonical start is "every roster full", so silence time samples `R_n`
/// (Lemma 2.9). The state space (all `2ⁿ` rosters) is far too large to
/// enumerate, but a run only visits `O(n + transitions)` distinct rosters,
/// which is exactly the regime the interned batched backend is built for.
///
/// # Example
///
/// ```
/// use ppsim::prelude::*;
/// use processes::RollCall;
///
/// let protocol = RollCall::new(30);
/// let init = protocol.initial_configuration();
/// let report = RunSpec::new(protocol)
///     .engine(Engine::Batched)
///     .init(init)
///     .seed(11)
///     .run_one()
///     .unwrap();
/// assert!(report.outcome.is_silent());
/// assert!(RollCall::is_complete(&report.final_config));
/// // Completion needs at least enough interactions for everyone to speak.
/// assert!(report.outcome.interactions.count() >= 15);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RollCall {
    n: usize,
}

impl RollCall {
    /// Creates the process for a population of `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "population must have at least two agents");
        RollCall { n }
    }

    /// The canonical start: agent `i` knows exactly `{i}`.
    pub fn initial_configuration(&self) -> Configuration<Roster> {
        Configuration::from_fn(self.n, |i| Roster::singleton(self.n, i))
    }

    /// Whether every agent's roster contains all `n` IDs (the completion
    /// event whose hitting time is `R_n`).
    pub fn is_complete(config: &Configuration<Roster>) -> bool {
        let n = config.len();
        config.iter().all(|r| r.len() == n)
    }

    /// A post-completion roster-wipe fault plan for the fault-injection
    /// experiments (`exp_faults`): `bursts` periodic bursts, each wiping
    /// `k` rosters to random singletons, starting at `40·n·ln n`
    /// interactions — more than 25× the expected `R_n ~ 1.5·n·ln n`
    /// completion time (Lemma 2.9), so the first burst lands after
    /// completion except with negligible probability.
    ///
    /// The scheduling guard matters: roll call recovers a wiped ID only
    /// from surviving copies, so a pre-completion wipe could erase the last
    /// roster containing some agent's ID and make completion impossible.
    /// After completion every untouched roster is full, so any burst of
    /// `k ≤ n − 1` rosters leaves a full copy for the union to re-spread
    /// from and the process re-completes (silence ⟺ completion).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or leaves no untouched roster (`k ≥ n`).
    pub fn roster_wipe_fault_plan(&self, bursts: u32, k: usize) -> FaultPlan<Roster> {
        assert!(k >= 1, "a wipe must corrupt at least one roster");
        assert!(k < self.n, "a wipe must leave at least one untouched roster");
        let n = self.n;
        let base = (40.0 * n as f64 * (n as f64).ln()) as u64;
        FaultPlan::periodic(
            base,
            (base / 2).max(1),
            bursts,
            k,
            CorruptionTarget::random(move |rng| Roster::singleton(n, rng.gen_range(0..n))),
        )
        .with_name("periodic-roster-wipe")
    }
}

impl Protocol for RollCall {
    type State = Roster;

    fn population_size(&self) -> usize {
        self.n
    }

    fn transition(
        &self,
        initiator: &Roster,
        responder: &Roster,
        _rng: &mut dyn RngCore,
    ) -> (Roster, Roster) {
        if initiator == responder {
            (initiator.clone(), responder.clone())
        } else {
            let union = initiator.merged(responder);
            (union.clone(), union)
        }
    }

    fn is_null(&self, initiator: &Roster, responder: &Roster) -> bool {
        initiator == responder
    }

    fn deterministic_transitions(&self) -> bool {
        true // the transition ignores its RNG
    }
}

impl InternableProtocol for RollCall {
    // Distinct rosters are never mutually null, so there are no null classes
    // to declare; the word-level equality in `is_null` already fails fast.
    type NullClass = ();

    fn distinct_states_hint(&self) -> usize {
        2 * self.n
    }
}

impl CountProtocol for RollCall {
    type Index = InternedStates<Self>;
}

/// Samples the number of interactions `R_n` for the roll-call process to
/// complete: every agent knows every ID.
///
/// This is the specialized sampler — same Markov chain as [`RollCall`] under
/// the uniform scheduler, tracking the per-agent rosters directly with no
/// engine machinery. The engine equivalence tests check the engines' silence
/// times against it.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Example
///
/// ```
/// use processes::simulate_roll_call_interactions;
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let interactions = simulate_roll_call_interactions(20, &mut rng);
/// // Completion needs at least enough interactions for everyone to speak.
/// assert!(interactions >= 10);
/// ```
pub fn simulate_roll_call_interactions(n: usize, rng: &mut impl Rng) -> u64 {
    assert!(n >= 2, "population must have at least two agents");
    let mut rosters: Vec<Roster> = (0..n).map(|i| Roster::singleton(n, i)).collect();
    // Number of agents whose roster is already complete.
    let mut complete = 0usize;
    let mut interactions = 0u64;
    while complete < n {
        interactions += 1;
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        let was_a = rosters[a].len() == n;
        let was_b = rosters[b].len() == n;
        if was_a && was_b {
            continue;
        }
        // Union both ways; split_at_mut avoids double borrowing.
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = rosters.split_at_mut(hi);
        let x = &mut left[lo];
        let y = &mut right[0];
        x.union_in_place(y);
        y.words.copy_from_slice(&x.words);
        y.ones = x.ones;
        if !was_a && rosters[a].len() == n {
            complete += 1;
        }
        if !was_b && rosters[b].len() == n {
            complete += 1;
        }
    }
    interactions
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::theory::{epidemic_expected_interactions, roll_call_expected_time};
    use ppsim::{run_trials, InternedSimulation, TrialPlan};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn two_agents_complete_in_one_interaction() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(simulate_roll_call_interactions(2, &mut rng), 1);
    }

    #[test]
    fn roll_call_takes_longer_than_a_single_epidemic() {
        // R_n stochastically dominates T_n: each ID individually spreads as an
        // epidemic. Compare means over a modest number of trials.
        let n = 100;
        let plan = TrialPlan::new(60, 11);
        let roll_call = run_trials(&plan, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_roll_call_interactions(n, &mut rng) as f64
        });
        let mean_roll_call = roll_call.iter().sum::<f64>() / roll_call.len() as f64;
        assert!(mean_roll_call > epidemic_expected_interactions(n));
    }

    #[test]
    fn mean_is_near_one_and_a_half_n_ln_n() {
        let n = 150;
        let plan = TrialPlan::new(80, 5);
        let samples = run_trials(&plan, |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_roll_call_interactions(n, &mut rng) as f64 / n as f64
        });
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let predicted = roll_call_expected_time(n);
        // The 1.5·n·ln n expression is asymptotic; allow 25% at this size.
        let relative_error = (mean - predicted).abs() / predicted;
        assert!(
            relative_error < 0.25,
            "roll call mean parallel time {mean} vs predicted {predicted}"
        );
    }

    #[test]
    fn roster_union_counts_ones() {
        let mut a = Roster::singleton(130, 0);
        let b = Roster::singleton(130, 129);
        a.union_in_place(&b);
        assert_eq!(a.len(), 2);
        let c = Roster::singleton(130, 0);
        a.union_in_place(&c);
        assert_eq!(a.len(), 2);
        assert!(a.contains(0) && a.contains(129) && !a.contains(64));
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "different population sizes")]
    fn rosters_of_different_population_sizes_cannot_be_merged() {
        let mut a = Roster::singleton(130, 70);
        a.union_in_place(&Roster::singleton(64, 0));
    }

    #[test]
    fn protocol_completion_coincides_with_silence() {
        // Silence ⟺ all rosters equal ⟺ (from the canonical start) complete.
        let protocol = RollCall::new(40);
        let init = protocol.initial_configuration();
        assert!(!RollCall::is_complete(&init));
        let mut sim = InternedSimulation::new(protocol, &init, 9);
        assert!(!sim.is_silent());
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        let config = sim.to_configuration();
        assert!(RollCall::is_complete(&config));
        // One full roster shared by everyone: a single interned state is
        // present at silence.
        assert_eq!(sim.distinct_states(), 1);
    }

    // The statistical comparison of engine silence times against the
    // specialized sampler (all three routes sample R_n) lives in
    // tests/engine_equivalence.rs, which covers both engines.

    #[test]
    fn roster_wipes_re_complete_on_both_engines() {
        use ppsim::{Engine, RunSpec};
        let n = 24;
        let protocol = RollCall::new(n);
        let plan = protocol.roster_wipe_fault_plan(2, n / 8);
        let init = protocol.initial_configuration();
        for engine in [Engine::Exact, Engine::Batched] {
            let report = RunSpec::new(protocol)
                .engine(engine)
                .budget(u64::MAX >> 8)
                .init(init.clone())
                .seed(5)
                .faults(plan.clone())
                .run_one()
                .unwrap();
            assert!(report.outcome.is_silent());
            assert!(RollCall::is_complete(&report.final_config));
            assert_eq!(report.events.len(), 2);
            // Both wipes land post-completion, so both are recovered from.
            assert!(report.restabilized_after_every_event());
        }
    }

    #[test]
    #[should_panic(expected = "untouched roster")]
    fn roster_wipe_must_leave_a_survivor() {
        let protocol = RollCall::new(4);
        let _ = protocol.roster_wipe_fault_plan(1, 4);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn tiny_population_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _ = simulate_roll_call_interactions(1, &mut rng);
    }
}
