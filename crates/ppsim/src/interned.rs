//! The open state index of the count engine: dynamic state interning.
//!
//! The enumerated index ([`crate::EnumeratedStates`]) requires a protocol to
//! enumerate its state space up front ([`crate::EnumerableProtocol`]): a
//! bijection `state ↔ 0..k` fixes the size of the count table and of the pair
//! structures. That rules out the paper's headline `Sublinear-Time-SSR`
//! protocol (states are names × rosters × history trees — astronomically
//! many *possible* states) and the roll-call process (states are rosters over
//! agent identities), even though any single execution only ever *visits* a
//! modest number of distinct states (`n` at initialization, then at most 2
//! new states per non-null interaction, and in practice `O(n)` overall).
//!
//! This module closes that gap with the standard move of count-based
//! population-protocol simulators on open state spaces: **intern states as
//! they are first observed**. A [`StateInterner`] assigns dense indices
//! `0, 1, 2, …` to distinct states in order of first appearance, and
//! [`InternedStates`] plugs it into the one count engine
//! ([`crate::CountSimulation`]), whose tables grow on demand. Null runs are
//! skipped in O(1) exactly as on the enumerated index, and row weights are
//! maintained **incrementally** over the present set (O(present) nullness
//! queries per applied transition, not O(present²)).
//! [`InternedSimulation`] names the pairing.
//!
//! # Null classes
//!
//! The engine consults [`Protocol::is_null`] to weigh pairs. For protocols
//! whose nullness predicate compares large payloads (equal rosters, equal
//! trees), the worst case of that comparison is exactly the *null* case —
//! e.g. two full, identical rosters must be walked to the end to prove
//! equality. A near-silent configuration would pay that worst case for every
//! pair. [`InternableProtocol::null_class`] lets the protocol short-circuit
//! it: states may declare a *null class* key, with the contract that **two
//! distinct states sharing a class key are null in both orders**. The engine
//! then skips `is_null` for same-class pairs entirely (pairs of the *same*
//! state are always checked directly, since `(s, s)` is frequently non-null
//! — a name collision, say — even when `s` is null against the rest of its
//! class). `Sublinear-Time-SSR` uses the roster as the class key for clean
//! direct-detection states, which turns its near-silent merged phase from
//! O(present² · n) comparisons into O(present²) hash lookups.
//!
//! # Choosing a state index
//!
//! * state space enumerable → [`crate::EnumeratedStates`]
//!   ([`crate::BatchedSimulation`]), on the indexed route when the protocol
//!   declares sparse interaction partners and the present route otherwise;
//! * state space not enumerable (open) → [`InternedStates`]
//!   ([`InternedSimulation`]).
//!
//! See `ARCHITECTURE.md` at the repository root for the full decision tree.
//!
//! # Example
//!
//! A protocol over an open state space (unbounded counters) that no static
//! enumeration covers, run on the interned index:
//!
//! ```
//! use ppsim::prelude::*;
//! use rand::RngCore;
//!
//! /// Two equal tokens merge into one of double weight: (w, w) -> (2w, 0).
//! /// Weights are unbounded, so the state space cannot be enumerated.
//! struct Merge {
//!     n: usize,
//! }
//!
//! impl Protocol for Merge {
//!     type State = u64;
//!     fn population_size(&self) -> usize {
//!         self.n
//!     }
//!     fn transition(&self, a: &u64, b: &u64, _rng: &mut dyn RngCore) -> (u64, u64) {
//!         if a == b && *a > 0 {
//!             (a + b, 0)
//!         } else {
//!             (*a, *b)
//!         }
//!     }
//!     fn is_null(&self, a: &u64, b: &u64) -> bool {
//!         !(a == b && *a > 0)
//!     }
//! }
//!
//! impl InternableProtocol for Merge {
//!     type NullClass = ();
//! }
//!
//! let mut sim =
//!     InternedSimulation::new(Merge { n: 16 }, &Configuration::uniform(1u64, 16), 7);
//! let outcome = sim.run_until_silent(u64::MAX >> 8);
//! assert!(outcome.is_silent());
//! // 16 unit tokens merge pairwise into one token of weight 16.
//! assert_eq!(sim.count_of(&16), 1);
//! ```

use std::collections::HashMap;
use std::hash::Hash;

use crate::batched::{CountProtocol, CountSimulation, StateIndex};
use crate::protocol::Protocol;

/// A [`Protocol`] that opts into the interned state index.
///
/// No methods are required: every protocol state is already `Hash + Eq +
/// Clone` (the [`Protocol::State`] bounds), which is all the interner needs.
/// Implementing the trait is a declaration that the multiset of states is a
/// sufficient statistic for the protocol — true for every population
/// protocol whose transition reads only the two interacting states, which is
/// the model itself — and an opt-in to the index's cost profile (pay per
/// distinct state present, not per possible state). To route
/// [`crate::RunSpec::run`] through the interned index, also implement
/// [`CountProtocol`] with `type Index = InternedStates<Self>`.
///
/// The two optional members tune performance, never correctness:
///
/// * [`InternableProtocol::null_class`] short-circuits expensive `is_null`
///   comparisons (see the [module docs](self) for the contract);
/// * [`InternableProtocol::distinct_states_hint`] pre-sizes the tables.
pub trait InternableProtocol: Protocol {
    /// Key type for the null-class optimization. Use `()` (with the default
    /// [`InternableProtocol::null_class`] returning `None`) when the
    /// protocol does not define classes.
    type NullClass: Clone + Eq + Hash + Send + Sync;

    /// The null class of a state, if it belongs to one.
    ///
    /// **Contract:** if two *distinct* states both return `Some` of equal
    /// keys, the ordered pairs between them (both orders) must be null.
    /// Pairs of the same state are never short-circuited, so `(s, s)`
    /// nullness stays entirely with [`Protocol::is_null`]. Returning `None`
    /// everywhere (the default) is always sound.
    fn null_class(&self, _state: &Self::State) -> Option<Self::NullClass> {
        None
    }

    /// Expected number of distinct states observed over a run, used to
    /// pre-size the interner and count tables. Purely a capacity hint.
    fn distinct_states_hint(&self) -> usize {
        self.population_size().min(1 << 20)
    }
}

/// Adapter running **any** protocol on the interned index, whether or not
/// it declares a static enumeration: the interner simply discovers (the
/// visited subset of) the state space at run time.
///
/// A blanket `impl InternableProtocol for P: EnumerableProtocol` would make
/// every downstream `InternableProtocol` impl a coherence conflict, so the
/// adapter is an explicit wrapper instead — the same shape as
/// [`crate::ForceDense`], and used the same way by the cross-backend
/// equivalence suites to drive one protocol through both draw routes and
/// both state indices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AsInterned<P>(pub P);

impl<P: Protocol> Protocol for AsInterned<P> {
    type State = P::State;

    fn population_size(&self) -> usize {
        self.0.population_size()
    }

    fn transition(
        &self,
        initiator: &Self::State,
        responder: &Self::State,
        rng: &mut dyn rand::RngCore,
    ) -> (Self::State, Self::State) {
        self.0.transition(initiator, responder, rng)
    }

    fn is_null(&self, initiator: &Self::State, responder: &Self::State) -> bool {
        self.0.is_null(initiator, responder)
    }

    fn deterministic_transitions(&self) -> bool {
        self.0.deterministic_transitions()
    }
}

impl<P: Protocol> InternableProtocol for AsInterned<P> {
    type NullClass = ();
}

impl<P: Protocol> CountProtocol for AsInterned<P> {
    type Index = InternedStates<Self>;
}

/// Assigns dense indices to states in order of first appearance.
///
/// The index of a state is stable for the lifetime of the interner, so it can
/// key growable side tables (counts, row weights). Interning is
/// deterministic: the same sequence of [`StateInterner::intern`] calls yields
/// the same indices, which keeps seeded simulations reproducible.
///
/// # Example
///
/// ```
/// use ppsim::StateInterner;
/// let mut interner = StateInterner::new();
/// let a = interner.intern(&"roster-a");
/// let b = interner.intern(&"roster-b");
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(interner.intern(&"roster-a"), 0); // stable on re-observation
/// assert_eq!(interner.get(1), &"roster-b");
/// assert_eq!(interner.lookup(&"roster-c"), None);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct StateInterner<S> {
    states: Vec<S>,
    index_of: HashMap<S, usize>,
}

impl<S: Clone + Eq + Hash> StateInterner<S> {
    /// An empty interner.
    pub fn new() -> Self {
        StateInterner { states: Vec::new(), index_of: HashMap::new() }
    }

    /// An empty interner pre-sized for `capacity` distinct states.
    pub fn with_capacity(capacity: usize) -> Self {
        StateInterner {
            states: Vec::with_capacity(capacity),
            index_of: HashMap::with_capacity(capacity),
        }
    }

    /// The dense index of `state`, assigning the next free index (and storing
    /// a clone) on first observation.
    pub fn intern(&mut self, state: &S) -> usize {
        if let Some(&i) = self.index_of.get(state) {
            return i;
        }
        let i = self.states.len();
        self.states.push(state.clone());
        self.index_of.insert(state.clone(), i);
        i
    }

    /// The state with dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` has not been assigned.
    pub fn get(&self, index: usize) -> &S {
        &self.states[index]
    }

    /// The index of `state` if it has been observed, without interning it.
    pub fn lookup(&self, state: &S) -> Option<usize> {
        self.index_of.get(state).copied()
    }

    /// The number of distinct states interned so far.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// The open state index: a [`StateInterner`] plus the null-class id of
/// every interned state, so same-class pairs skip `is_null`.
#[derive(Clone, Debug)]
pub struct InternedStates<P: InternableProtocol> {
    interner: StateInterner<P::State>,
    /// Null-class id per interned state (`None` = no class declared).
    classes: Vec<Option<u32>>,
    class_ids: HashMap<P::NullClass, u32>,
}

impl<P: InternableProtocol> StateIndex<P> for InternedStates<P> {
    const OPEN: bool = true;

    fn new(protocol: &P) -> Self {
        let hint = protocol.distinct_states_hint().max(4);
        InternedStates {
            interner: StateInterner::with_capacity(hint),
            classes: Vec::with_capacity(hint),
            class_ids: HashMap::new(),
        }
    }

    fn capacity(&self, protocol: &P) -> usize {
        protocol.distinct_states_hint().max(4)
    }

    fn index(&mut self, protocol: &P, state: &P::State) -> usize {
        let i = self.interner.intern(state);
        if i == self.classes.len() {
            let class = protocol.null_class(state).map(|key| {
                let next = self.class_ids.len() as u32;
                *self.class_ids.entry(key).or_insert(next)
            });
            self.classes.push(class);
        }
        i
    }

    fn lookup(&self, _protocol: &P, state: &P::State) -> Option<usize> {
        self.interner.lookup(state)
    }

    fn state(&self, index: usize) -> &P::State {
        self.interner.get(index)
    }

    fn size(&self) -> usize {
        self.interner.len()
    }

    fn same_null_class(&self, i: usize, j: usize) -> bool {
        matches!((self.classes[i], self.classes[j]), (Some(a), Some(b)) if a == b)
    }
}

/// The count engine over an open state space, interning states as they are
/// first observed.
pub type InternedSimulation<P> = CountSimulation<P, InternedStates<P>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{Engine, Fenwick};
    use crate::config::Configuration;
    use crate::time::Interactions;
    use rand::RngCore;

    /// (L, L) -> (L, F) fratricide over an "open" state space: states are
    /// arbitrary u32 values, 0 = leader, anything else = follower. Only the
    /// states actually present are ever interned.
    #[derive(Clone, Copy, Debug)]
    struct Frat {
        n: usize,
    }

    impl Protocol for Frat {
        type State = u32;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &u32, b: &u32, _rng: &mut dyn RngCore) -> (u32, u32) {
            if *a == 0 && *b == 0 {
                (0, 1)
            } else {
                (*a, *b)
            }
        }
        fn is_null(&self, a: &u32, b: &u32) -> bool {
            !(*a == 0 && *b == 0)
        }
    }

    impl InternableProtocol for Frat {
        type NullClass = ();
        fn distinct_states_hint(&self) -> usize {
            2
        }
    }

    impl CountProtocol for Frat {
        type Index = InternedStates<Self>;
    }

    /// Tokens merge pairwise: (w, w) -> (2w, 0) for w > 0. Starting from all
    /// ones with n a power of two, silence leaves a single token of weight n.
    /// Every doubling creates a state never seen before, forcing interner and
    /// table growth across reallocation.
    #[derive(Clone, Copy, Debug)]
    struct Merge {
        n: usize,
    }

    impl Protocol for Merge {
        type State = u64;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &u64, b: &u64, _rng: &mut dyn RngCore) -> (u64, u64) {
            if a == b && *a > 0 {
                (a + b, 0)
            } else {
                (*a, *b)
            }
        }
        fn is_null(&self, a: &u64, b: &u64) -> bool {
            !(a == b && *a > 0)
        }
    }

    impl InternableProtocol for Merge {
        type NullClass = ();
        fn distinct_states_hint(&self) -> usize {
            2 // deliberately undersized: growth must reallocate repeatedly
        }
    }

    #[test]
    fn interner_round_trips_indices_and_states() {
        let mut interner = StateInterner::new();
        let states = ["a", "b", "c", "a", "b", "d"];
        let indices: Vec<usize> = states.iter().map(|s| interner.intern(s)).collect();
        assert_eq!(indices, vec![0, 1, 2, 0, 1, 3]);
        assert_eq!(interner.len(), 4);
        for (s, &i) in states.iter().zip(&indices) {
            assert_eq!(interner.get(i), s);
            assert_eq!(interner.lookup(s), Some(i));
        }
        assert_eq!(interner.lookup(&"zzz"), None);
        assert!(!interner.is_empty());
        assert!(StateInterner::<u8>::new().is_empty());
    }

    #[test]
    fn interner_indices_survive_growth_across_reallocation() {
        // Start from a capacity of 1 and intern far past it; early indices
        // and states must be unaffected by the reallocations.
        let mut interner = StateInterner::with_capacity(1);
        for v in 0..1000u64 {
            assert_eq!(interner.intern(&v), v as usize);
        }
        for v in 0..1000u64 {
            assert_eq!(interner.lookup(&v), Some(v as usize));
            assert_eq!(*interner.get(v as usize), v);
        }
    }

    #[test]
    fn interned_fratricide_elects_one_leader() {
        let mut sim =
            InternedSimulation::new(Frat { n: 200 }, &Configuration::uniform(0u32, 200), 42);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&0), 1);
        assert_eq!(sim.count_of(&1), 199);
        assert_eq!(sim.transitions(), 199);
        // Only the two observed states were ever interned.
        assert_eq!(sim.interned_states(), 2);
    }

    #[test]
    fn tables_grow_past_the_hint_and_stay_consistent() {
        let n = 64; // power of two: merging silences at a single token
        let mut sim = InternedSimulation::new(Merge { n }, &Configuration::uniform(1u64, n), 3);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&(n as u64)), 1);
        assert_eq!(sim.count_of(&0), n as u64 - 1);
        // log2(n) doublings plus the zero state, far past the hint of 2.
        assert_eq!(sim.interned_states(), 8);
        // Mass conservation across every grown table.
        let total: u64 = sim.state_counts().map(|(_, c)| c).sum();
        assert_eq!(total, n as u64);
        assert_eq!(sim.recount_active_pairs(), sim.active_pairs());
    }

    #[test]
    fn incremental_rows_match_a_full_recount_along_a_trajectory() {
        let mut sim =
            InternedSimulation::new(Merge { n: 32 }, &Configuration::uniform(1u64, 32), 9);
        for _ in 0..40 {
            if sim.is_silent() {
                break;
            }
            sim.run_for(1);
            assert_eq!(
                sim.recount_active_pairs(),
                sim.active_pairs(),
                "incremental active-pair weight diverged after {} transitions",
                sim.transitions()
            );
        }
    }

    #[test]
    fn identical_seeds_give_identical_trajectories() {
        let run = |seed: u64| {
            let mut sim =
                InternedSimulation::new(Merge { n: 64 }, &Configuration::uniform(1u64, 64), seed);
            sim.run_for(5_000);
            let counts: Vec<(u64, u64)> = sim.state_counts().map(|(s, c)| (*s, c)).collect();
            (counts, sim.interactions(), sim.transitions())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, Interactions::ZERO);
        // Different seeds should (with overwhelming probability) diverge.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn weight_index_prefix_search_matches_linear_scan_across_growth() {
        // The interned index starts its row weights at the (small) state
        // hint and grows them one interned state at a time.
        let weights = [5u64, 0, 3, 7, 0, 1, 4, 9, 2, 0, 6];
        let mut wi = Fenwick::zeros(0, 2); // forces several rebuilds
        for (i, &w) in weights.iter().enumerate() {
            wi.grow(i + 1);
            wi.set(i, w);
        }
        assert_eq!(wi.total(), weights.iter().sum::<u64>());
        for target in 0..wi.total() {
            let mut t = target;
            let mut expected = (0usize, 0u64);
            for (i, &w) in weights.iter().enumerate() {
                if t < w {
                    expected = (i, t);
                    break;
                }
                t -= w;
            }
            assert_eq!(wi.find(target), expected, "target {target}");
        }
        // Point updates, including to and from zero.
        wi.set(3, 0);
        wi.set(1, 2);
        assert_eq!(wi.total(), weights.iter().sum::<u64>() - 7 + 2);
        assert_eq!(wi.get(3), 0);
        assert_eq!(wi.get(1), 2);
        assert_eq!(wi.find(5), (1, 0));
        assert_eq!(wi.find(6), (1, 1));
        assert_eq!(wi.find(7), (2, 0));
    }

    #[test]
    fn run_until_stops_at_the_predicate() {
        let mut sim =
            InternedSimulation::new(Frat { n: 60 }, &Configuration::uniform(0u32, 60), 11);
        let outcome = sim.run_until(|c| c.iter().filter(|&&s| s == 0).count() <= 30, u64::MAX >> 8);
        assert!(outcome.condition_met());
        assert!(sim.count_of(&0) <= 30);
    }

    #[test]
    fn run_for_advances_exactly_the_requested_interactions() {
        let mut sim = InternedSimulation::new(Frat { n: 50 }, &Configuration::uniform(0u32, 50), 7);
        sim.run_for(1234);
        assert_eq!(sim.interactions().count(), 1234);
        // A silent start still counts its (all-null) interactions.
        let mut done =
            InternedSimulation::new(Frat { n: 50 }, &Configuration::uniform(1u32, 50), 7);
        done.run_for(777);
        assert_eq!(done.interactions().count(), 777);
        assert!(done.is_silent());
    }

    #[test]
    fn silent_start_reports_silence_with_zero_interactions() {
        let mut sim = InternedSimulation::new(Frat { n: 10 }, &Configuration::uniform(5u32, 10), 1);
        assert!(sim.is_silent());
        let outcome = sim.run_until_silent(1_000);
        assert!(outcome.is_silent());
        assert_eq!(sim.interactions(), Interactions::ZERO);
    }

    #[test]
    fn budget_exhaustion_reports_partial_progress() {
        let mut sim =
            InternedSimulation::new(Frat { n: 100 }, &Configuration::uniform(0u32, 100), 3);
        let outcome = sim.run_until_silent(50);
        assert!(outcome.budget_exhausted());
        assert_eq!(sim.interactions().count(), 50);
    }

    #[test]
    fn engine_routing_reaches_the_same_verdict_on_both_engines() {
        fn leaders(c: &Configuration<u32>) -> usize {
            c.iter().filter(|&&s| s == 0).count()
        }
        let spec = |engine| {
            crate::runspec::RunSpec::new(Frat { n: 40 })
                .engine(engine)
                .init(Configuration::uniform(0u32, 40))
                .seed(9)
        };
        let exact = spec(Engine::Exact).run_one().unwrap();
        let interned = spec(Engine::Batched).run_one().unwrap();
        assert!(exact.outcome.is_silent());
        assert!(interned.outcome.is_silent());
        assert_eq!(leaders(&exact.final_config), 1);
        assert_eq!(leaders(&interned.final_config), 1);

        let exact = spec(Engine::Exact).until(|_, c| leaders(c) <= 20).run_one().unwrap();
        let interned = spec(Engine::Batched).until(|_, c| leaders(c) <= 20).run_one().unwrap();
        assert!(exact.outcome.condition_met());
        assert!(interned.outcome.condition_met());
    }

    /// A protocol with an expensive payload and a null class over it: pairs
    /// with equal payloads are null (and declared so via the class), pairs
    /// with different payloads merge toward the larger. Exercises the class
    /// short-circuit against plain is_null.
    #[derive(Clone, Debug)]
    struct Gossip {
        n: usize,
    }

    impl Protocol for Gossip {
        type State = Vec<u32>;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(
            &self,
            a: &Vec<u32>,
            b: &Vec<u32>,
            _rng: &mut dyn RngCore,
        ) -> (Vec<u32>, Vec<u32>) {
            if a == b {
                (a.clone(), b.clone())
            } else {
                let m = a.iter().chain(b.iter()).copied().max().unwrap_or(0);
                (vec![m; a.len()], vec![m; b.len()])
            }
        }
        fn is_null(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool {
            a == b
        }
    }

    impl InternableProtocol for Gossip {
        type NullClass = Vec<u32>;
        fn null_class(&self, state: &Vec<u32>) -> Option<Vec<u32>> {
            // Equal payloads are null in both orders; distinct states are
            // distinct payloads here, so the class key is the payload itself
            // — same-class distinct states cannot exist, making the claim
            // vacuously sound, while equal-state pairs skip the class per
            // the engine contract and hit is_null (which reports null).
            Some(state.clone())
        }
    }

    #[test]
    fn null_classes_agree_with_plain_is_null() {
        // Run the same seeds with and without classes; verdicts, counts and
        // trajectories must match because classes only short-circuit.
        #[derive(Clone, Debug)]
        struct NoClass(Gossip);
        impl Protocol for NoClass {
            type State = Vec<u32>;
            fn population_size(&self) -> usize {
                self.0.population_size()
            }
            fn transition(
                &self,
                a: &Vec<u32>,
                b: &Vec<u32>,
                rng: &mut dyn RngCore,
            ) -> (Vec<u32>, Vec<u32>) {
                self.0.transition(a, b, rng)
            }
            fn is_null(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool {
                self.0.is_null(a, b)
            }
        }
        impl InternableProtocol for NoClass {
            type NullClass = ();
        }

        for seed in 0..4 {
            let n = 24;
            let init = Configuration::from_fn(n, |i| vec![(i % 5) as u32; 3]);
            let mut with = InternedSimulation::new(Gossip { n }, &init, seed);
            let mut without = InternedSimulation::new(NoClass(Gossip { n }), &init, seed);
            assert_eq!(with.active_pairs(), without.active_pairs());
            assert!(with.run_until_silent(u64::MAX >> 8).is_silent());
            assert!(without.run_until_silent(u64::MAX >> 8).is_silent());
            assert_eq!(with.interactions(), without.interactions());
            let counts = |s: &InternedSimulation<Gossip>| -> Vec<(Vec<u32>, u64)> {
                let mut v: Vec<_> = s.state_counts().map(|(x, c)| (x.clone(), c)).collect();
                v.sort();
                v
            };
            let mut other: Vec<_> = without.state_counts().map(|(x, c)| (x.clone(), c)).collect();
            other.sort();
            assert_eq!(counts(&with), other);
        }
    }

    /// The scheduler-layer tests over the interned index: each runs the
    /// shared body from `batched::tests::scheduled` on the crate's shared
    /// `u8` fratricide fixture (not this module's `u32` one) through
    /// [`AsInterned`], so the follower state is interned first-seen.
    mod scheduled {
        use super::*;
        use crate::batched::tests::scheduled::*;
        use crate::fixtures::Frat;
        use crate::scheduler::{InteractionScheduler, PairRates};

        #[test]
        fn graph_schedulers_are_rejected_with_a_typed_error() {
            check_graph_schedulers_are_rejected(AsInterned(Frat { n: 8 }), "interned");
        }

        #[test]
        fn zero_rate_schedulers_are_rejected() {
            check_zero_rate_schedulers_are_rejected(AsInterned(Frat { n: 8 }));
        }

        #[test]
        fn scheduled_uniform_is_trajectory_identical_to_plain() {
            check_scheduled_uniform_is_trajectory_identical(AsInterned(Frat { n: 30 }));
        }

        #[test]
        fn weighted_runs_silence_on_open_state_spaces() {
            check_weighted_runs_silence(AsInterned(Frat { n: 40 }));
            // Merge's non-null pairs are (w, w): boost them all via the
            // default rate and pin a specific pair higher. Every state past
            // the first appears only at run time.
            let rates = PairRates::new(1).with_rate(1u64, 1u64, 6);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(1u64, 32);
            let mut sim =
                InternedSimulation::try_new_scheduled(Merge { n: 32 }, &init, 5, &scheduler)
                    .unwrap();
            assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
            assert_eq!(sim.to_configuration().iter().copied().max(), Some(32));
            assert_eq!(sim.active_pairs(), sim.recount_active_pairs());
        }

        #[test]
        fn rate_zero_pairs_make_silence_scheduler_relative() {
            check_rate_zero_pairs_make_silence_scheduler_relative(AsInterned(Frat { n: 10 }));
        }

        #[test]
        fn batchcount_weighted_fallback_is_trajectory_equal_to_per_transition() {
            check_batchcount_weighted_fallback(AsInterned(Frat { n: 50 }));
        }

        #[test]
        fn churn_keeps_weighted_row_weights_consistent() {
            check_churn_keeps_weighted_row_weights_consistent(
                AsInterned(Frat { n: 20 }),
                &[0, 0, 7, 9],
            );
        }
    }
}
