//! The count-based engine: one multiset simulation over a pluggable state
//! index.
//!
//! The exact engine ([`crate::Simulation`]) pays O(1) work per *interaction*,
//! which is hopeless for protocols whose stabilization takes `Θ(n²)` parallel
//! time (`Θ(n³)` interactions): at `n = 10⁵` the baseline
//! `Silent-n-state-SSR` would need ~10¹⁵ scheduler draws. Almost all of those
//! interactions are **null** — the scheduled pair's transition leaves both
//! states unchanged — so this module simulates the *same* Markov chain while
//! paying only for the non-null interactions:
//!
//! 1. the configuration is a **multiset of state counts** (`Vec<u64>` over
//!    dense state indices) instead of a per-agent array;
//! 2. the number of consecutive null interactions between two non-null ones
//!    is drawn in one shot from its geometric law (a run of failures with
//!    success probability `p = A / (n(n−1))`, where `A` counts the non-null
//!    ordered *agent* pairs of the current configuration);
//! 3. one real transition is then applied by sampling an ordered *state* pair
//!    `(i, j)` with probability proportional to `c_i · (c_j − [i = j])` among
//!    the non-null pairs.
//!
//! Between two non-null interactions the configuration — hence `A` — cannot
//! change, so the skipped nulls are exactly marginalized out: every quantity
//! measured in interactions (silence time, convergence time, final
//! configuration multiset) has **the same distribution** as under the exact
//! engine. The per-seed trajectories differ (the two engines consume
//! randomness differently), which is why the cross-engine tests compare
//! verdicts and distributions rather than bit-identical traces.
//!
//! # One engine, two state indices, two draw routes
//!
//! [`CountSimulation<P, X>`] is the engine. `X` is its [`StateIndex`], the
//! map between protocol states and dense indices:
//!
//! * [`EnumeratedStates`] — a fixed table built from an
//!   [`EnumerableProtocol`]'s `state_index` / `state_from_index` bijection
//!   ([`BatchedSimulation`] names this pairing);
//! * [`crate::InternedStates`] — a growing [`crate::StateInterner`] for open
//!   state spaces (`Sublinear-Time-SSR`'s names × rosters × history trees,
//!   roll call's rosters), assigning indices as states are first observed
//!   ([`crate::InternedSimulation`] names this pairing).
//!
//! The engine keeps per-state row weights `r_i = c_i · Σ_j term(i, j)` in one
//! growable Fenwick tree, draws the initiator from it, and repairs the rows by
//! one of two routes, fixed at construction:
//!
//! * **indexed** — an enumerated protocol that declares sparse
//!   [`EnumerableProtocol::interaction_partners`] (`Silent-n-state-SSR`,
//!   epidemic, fratricide, coupon): rows are repaired over partner lists in
//!   O(deg · log |states|) per non-null interaction;
//! * **present** — every other protocol: an enumerated one with dense
//!   non-null structure (`Optimal-Silent-SSR`) or an open state space. Rows
//!   are repaired over the set of present states; on an open space, null
//!   classes ([`crate::InternableProtocol::null_class`]) short-circuit
//!   expensive `is_null` comparisons.
//!
//! The routes consume the RNG differently (see [`CountSimulation`]), so each
//! keeps its own seed-for-seed trajectory. [`Engine`] is the routing layer;
//! [`CountProtocol`] names each protocol's default index, and
//! `ARCHITECTURE.md` at the repository root draws the decision tree.
//!
//! # Example
//!
//! ```
//! use ppsim::prelude::*;
//! use rand::RngCore;
//!
//! /// (L, L) -> (L, F) with L = 0, F = 1.
//! struct Fratricide {
//!     n: usize,
//! }
//!
//! impl Protocol for Fratricide {
//!     type State = u8;
//!     fn population_size(&self) -> usize {
//!         self.n
//!     }
//!     fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
//!         if *a == 0 && *b == 0 {
//!             (0, 1)
//!         } else {
//!             (*a, *b)
//!         }
//!     }
//!     fn is_null(&self, a: &u8, b: &u8) -> bool {
//!         !(*a == 0 && *b == 0)
//!     }
//! }
//!
//! impl EnumerableProtocol for Fratricide {
//!     fn num_states(&self) -> usize {
//!         2
//!     }
//!     fn state_index(&self, s: &u8) -> usize {
//!         *s as usize
//!     }
//!     fn state_from_index(&self, i: usize) -> u8 {
//!         i as u8
//!     }
//!     fn interaction_partners(&self, i: usize) -> Option<Vec<usize>> {
//!         Some(if i == 0 { vec![0] } else { vec![] })
//!     }
//! }
//!
//! let mut sim = BatchedSimulation::new(
//!     Fratricide { n: 1000 },
//!     &Configuration::uniform(0u8, 1000),
//!     42,
//! );
//! let outcome = sim.run_until_silent(u64::MAX >> 8);
//! assert!(outcome.is_silent());
//! assert_eq!(sim.count_of(&0u8), 1); // a single leader survives
//! ```

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::config::Configuration;
use crate::error::SimError;
#[cfg(doc)]
use crate::execution::Simulation;
use crate::execution::{RunOutcome, StopReason};
use crate::protocol::Protocol;
use crate::sampling::{sample_hypergeometric, sample_interleaved_nulls, sample_victims_by_counts};
use crate::scheduler::{IndexRates, InteractionScheduler};
use crate::symmetry::StateSymmetry;
use crate::telemetry::{Counter, CounterBlock, Probe, Recorder, TelemetrySink};
use crate::time::{Interactions, ParallelTime};

/// A [`Protocol`] with a finite, enumerable state space: a bijection between
/// the state type and `0..num_states`.
///
/// This is the opt-in surface for the enumerated state index. Implementations
/// must guarantee:
///
/// * `state_index` / `state_from_index` are inverse bijections on
///   `0..num_states` for every state the protocol can reach **or be
///   initialized with** (including adversarial configurations);
/// * [`Protocol::is_null`] is exact enough that `is_null(a, b)` implies the
///   transition leaves `(a, b)` unchanged (the same soundness contract the
///   exact engine's silence detection relies on).
pub trait EnumerableProtocol: Protocol {
    /// The size of the enumerated state space.
    fn num_states(&self) -> usize;

    /// The dense index of a state, in `0..num_states`.
    fn state_index(&self, state: &Self::State) -> usize;

    /// The state with the given dense index.
    fn state_from_index(&self, index: usize) -> Self::State;

    /// Sparse interaction structure, if the protocol has one: for state `i`,
    /// every state `j` such that the ordered pair `(i, j)` **or** `(j, i)`
    /// can be non-null (for *some* counts — the answer must not depend on the
    /// current configuration). Include `i` itself when `(i, i)` is non-null.
    ///
    /// Returning `Some` for one index means `Some` for all indices; the
    /// engine then uses the indexed draw route with per-transition cost
    /// proportional to the partner-list degree. The default `None` selects
    /// the present route, which is always correct but pays
    /// O(P) per non-null interaction in the number of distinct present
    /// states.
    fn interaction_partners(&self, _index: usize) -> Option<Vec<usize>> {
        None
    }

    /// The protocol's state-relabeling symmetry group, used by the model
    /// checker in [`crate::mcheck`] to quotient the configuration space.
    ///
    /// The declared group must commute with [`Protocol::transition`],
    /// [`Protocol::is_null`], and (for verification entry points) the
    /// correctness oracle. Declarations are validated, not trusted: the
    /// checker tests every generator against the transition table and rejects
    /// unsound groups with [`crate::MCheckError::UnsoundSymmetry`]. The
    /// default is [`StateSymmetry::Identity`], which is always sound.
    fn state_symmetry(&self) -> StateSymmetry {
        StateSymmetry::Identity
    }
}

/// Wraps an [`EnumerableProtocol`], dropping its sparse partner structure so
/// the engine selects the present route regardless of what the inner
/// protocol declares.
///
/// The two routes simulate the same Markov chain, so any observable
/// difference between `P` and `ForceDense<P>` — non-null pair weight,
/// silence verdict, final multiset distribution — is an engine bug. The
/// cross-backend equivalence suites run matching configurations through
/// both and compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ForceDense<P>(pub P);

impl<P: Protocol> Protocol for ForceDense<P> {
    type State = P::State;

    fn population_size(&self) -> usize {
        self.0.population_size()
    }

    fn transition(
        &self,
        initiator: &Self::State,
        responder: &Self::State,
        rng: &mut dyn RngCore,
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

impl<P: EnumerableProtocol> EnumerableProtocol for ForceDense<P> {
    fn num_states(&self) -> usize {
        self.0.num_states()
    }

    fn state_index(&self, state: &Self::State) -> usize {
        self.0.state_index(state)
    }

    fn state_from_index(&self, index: usize) -> Self::State {
        self.0.state_from_index(index)
    }

    // interaction_partners deliberately left at the default `None`: that is
    // the whole point of the wrapper.

    fn state_symmetry(&self) -> StateSymmetry {
        self.0.state_symmetry()
    }
}

/// Samples the length of a run of null interactions: the number of failures
/// before the first success in i.i.d. trials with success probability
/// `active_pairs / total_pairs`, drawn by inversion in O(1).
///
/// Edge cases:
///
/// * `active_pairs == total_pairs` (every pair is non-null) always returns 0;
/// * a single non-null ordered pair among `n(n−1)` gives the full geometric
///   with `p = 1 / (n(n−1))`, whose mean `≈ n²` is exactly the cost the
///   count engine avoids paying per-interaction;
/// * `active_pairs == 0` (a silent configuration) has no next non-null
///   interaction; callers must detect silence first. The function panics in
///   that case rather than looping forever.
///
/// # Panics
///
/// Panics if `active_pairs == 0` or `active_pairs > total_pairs`.
pub fn sample_null_run(active_pairs: u64, total_pairs: u64, rng: &mut impl RngCore) -> u64 {
    assert!(active_pairs > 0, "a silent configuration has no next non-null interaction");
    assert!(active_pairs <= total_pairs, "more active pairs than ordered pairs");
    if active_pairs == total_pairs {
        return 0;
    }
    let p = active_pairs as f64 / total_pairs as f64;
    // u ∈ (0, 1]: ln is finite, and u = 1 maps to a skip of 0.
    let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    // ln(1 − p) via ln_1p for precision when p ~ 1/n² is tiny.
    let skip = (u.ln() / (-p).ln_1p()).floor();
    if skip.is_finite() && skip >= 0.0 && skip < u64::MAX as f64 {
        skip as u64
    } else {
        u64::MAX
    }
}

/// A value-backed, growable Fenwick (binary indexed) tree over `u64` weights:
/// O(1) point reads from the backing values, O(log capacity) point writes and
/// prefix searches, a without-replacement batch splitter, and amortized O(1)
/// growth (the capacity doubles, rebuilding the tree in O(capacity)).
#[derive(Clone, Debug)]
pub(crate) struct Fenwick {
    values: Vec<u64>,
    /// 1-based partial sums over `tree.len() − 1` slots of capacity.
    tree: Vec<u64>,
    /// The largest power of two not above the capacity.
    mask: usize,
    total: u64,
    /// Tree (re)builds so far: the `engine.fenwick_rebuilds` counter.
    rebuilds: u64,
}

impl Fenwick {
    /// `len` zero-weight slots with room for `capacity`. The capacity shapes
    /// [`Fenwick::split_batch`]'s recursion, so a tree over a fixed space is
    /// sized to exactly that space.
    pub(crate) fn zeros(len: usize, capacity: usize) -> Self {
        let capacity = capacity.max(len).max(1);
        let mut values = vec![0; len];
        values.reserve_exact(capacity - len);
        Fenwick {
            values,
            tree: vec![0; capacity + 1],
            mask: 1 << capacity.ilog2(),
            total: 0,
            rebuilds: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.tree.len() - 1
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn get(&self, index: usize) -> u64 {
        self.values[index]
    }

    /// Appends zero-weight slots up to `len`, doubling the capacity as
    /// often as that needs.
    pub(crate) fn grow(&mut self, len: usize) {
        if len <= self.values.len() {
            return;
        }
        self.values.resize(len, 0);
        if len > self.capacity() {
            let mut capacity = self.capacity();
            while capacity < len {
                capacity *= 2;
            }
            self.rebuild(capacity);
        }
    }

    /// Overwrites the weight of an existing slot.
    pub(crate) fn set(&mut self, index: usize, value: u64) {
        let delta = value.wrapping_sub(self.values[index]);
        if delta == 0 {
            return;
        }
        self.values[index] = value;
        // Two's-complement deltas: the wrapping adds land on the exact sums.
        self.total = self.total.wrapping_add(delta);
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Sets every slot's weight to `weight(slot)`; counts as one rebuild.
    /// While few slots change, each goes in by a point write, so a large,
    /// mostly zero table — `values` and `tree` alike — keeps its untouched
    /// pages unfaulted. Past `capacity / log₂ capacity` changes one O(capacity)
    /// rebuild is cheaper and takes over.
    fn assign(&mut self, weight: impl Fn(usize) -> u64) {
        let limit = self.capacity() / (self.capacity().ilog2() as usize + 1);
        let mut changed = 0;
        for i in 0..self.values.len() {
            let w = weight(i);
            if self.values[i] == w {
                continue;
            }
            changed += 1;
            if changed <= limit {
                self.set(i, w);
            } else {
                self.values[i] = w;
            }
        }
        if changed > limit {
            self.rebuild(self.capacity());
        } else {
            self.rebuilds += 1;
        }
    }

    /// Rebuilds the partial sums from `values` with room for `capacity`
    /// slots, in O(capacity).
    fn rebuild(&mut self, capacity: usize) {
        self.rebuilds += 1;
        self.mask = 1 << capacity.ilog2();
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend_from_slice(&self.values);
        self.tree.resize(capacity + 1, 0);
        for i in 1..=capacity {
            let parent = i + (i & i.wrapping_neg());
            if parent <= capacity {
                self.tree[parent] += self.tree[i];
            }
        }
        self.total = self.values.iter().sum();
    }

    /// The slot holding offset `target` of the weight mass, and the offset
    /// left within that slot (requires `target < total`).
    pub(crate) fn find(&self, mut target: u64) -> (usize, u64) {
        debug_assert!(target < self.total);
        let mut pos = 0usize;
        let mut step = self.mask;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        (pos, target)
    }

    /// Splits a without-replacement batch of `draws` interaction slots across
    /// the tree's slots: jointly, the shares follow the multivariate
    /// hypergeometric law over the current weights. Implemented by recursive
    /// conditional [`sample_hypergeometric`] splits down the implicit binary
    /// structure, so the cost is O(k · log capacity) for the `k` slots that
    /// receive a nonzero share — independent of how many slots exist, which
    /// is what keeps epoch draws affordable when the state space is as large
    /// as the population (`Silent-n-state-SSR`).
    ///
    /// Calls `sink(slot, share)` once per slot with a nonzero share, in
    /// ascending slot order. Requires `draws <= total()`.
    fn split_batch(&self, draws: u64, rng: &mut impl RngCore, sink: &mut impl FnMut(usize, u64)) {
        debug_assert!(draws <= self.total);
        self.split_range(0, 2 * self.mask, self.total, draws, rng, sink);
    }

    /// Recursive step of [`Fenwick::split_batch`] on the aligned range
    /// `(pos, pos + step]` holding `weight` total and `draws` slots to place.
    fn split_range(
        &self,
        pos: usize,
        step: usize,
        weight: u64,
        draws: u64,
        rng: &mut impl RngCore,
        sink: &mut impl FnMut(usize, u64),
    ) {
        if draws == 0 {
            return;
        }
        if step == 1 {
            sink(pos, draws);
            return;
        }
        let half = step / 2;
        // `pos` is a multiple of `step`, so `pos + half` has lowest set bit
        // exactly `half` and its tree entry stores the left child's range sum
        // whenever it is in bounds; an out-of-bounds right child is entirely
        // past the last slot and holds no weight.
        let left_w = if pos + half < self.tree.len() { self.tree[pos + half] } else { weight };
        let left_d = sample_hypergeometric(weight, left_w, draws, rng);
        self.split_range(pos, half, left_w, left_d, rng, sink);
        self.split_range(pos + half, half, weight - left_w, draws - left_d, rng, sink);
    }
}

/// The map between a protocol's states and the dense indices the count
/// engine keys its tables by: the engine's one point of variation.
///
/// Two indices exist: [`EnumeratedStates`] for an [`EnumerableProtocol`]'s
/// fixed space, and [`crate::InternedStates`] for an open space discovered at
/// run time. Indices are stable for the lifetime of a simulation.
pub trait StateIndex<P: Protocol>: Sized {
    /// Whether the index discovers states at run time. Open indices grow the
    /// engine's tables on first observation, draw through the interned
    /// route, and pick fault and churn victims over the present set.
    const OPEN: bool;

    /// The index for `protocol`, before any configuration is counted.
    fn new(protocol: &P) -> Self;

    /// How many slots to pre-size the engine's tables for. An enumerated
    /// index returns exactly its size: the epoch batch splitter's draws
    /// depend on the row tree's capacity.
    fn capacity(&self, protocol: &P) -> usize;

    /// The dense index of `state` on the transition path, assigning the next
    /// free index on first observation when the index is open.
    fn index(&mut self, protocol: &P, state: &P::State) -> usize;

    /// [`StateIndex::index`] for states entering from outside the
    /// transition function (initial configurations, fault bursts, joins,
    /// scheduler rates), where a bad state must fail loudly.
    fn admit(&mut self, protocol: &P, state: &P::State) -> usize {
        self.index(protocol, state)
    }

    /// The index of `state` if it has one, without assigning it.
    fn lookup(&self, protocol: &P, state: &P::State) -> Option<usize>;

    /// The state with dense index `index`.
    fn state(&self, index: usize) -> &P::State;

    /// The number of indices assigned so far.
    fn size(&self) -> usize;

    /// Whether the distinct states `i` and `j` share a declared null class,
    /// which makes the pair null in both orders without an `is_null` call.
    fn same_null_class(&self, _i: usize, _j: usize) -> bool {
        false
    }

    /// Per-state partner lists for the indexed draw route, if the protocol
    /// declares sparse non-null structure.
    fn partners(&self, _protocol: &P) -> Option<Vec<Vec<usize>>> {
        None
    }
}

/// The fixed state index of an [`EnumerableProtocol`]: the decoded
/// `state_from_index` table, with `state_index` as the inverse.
#[derive(Clone, Debug)]
pub struct EnumeratedStates<P: Protocol> {
    states: Vec<P::State>,
}

impl<P: EnumerableProtocol> EnumeratedStates<P> {
    /// The enumerated space's one range check.
    fn checked(&self, index: usize) -> usize {
        assert!(
            index < self.states.len(),
            "state outside the enumerated space: state_index returned {index} for a space of {} \
             states",
            self.states.len()
        );
        index
    }
}

impl<P: EnumerableProtocol> StateIndex<P> for EnumeratedStates<P> {
    const OPEN: bool = false;

    fn new(protocol: &P) -> Self {
        EnumeratedStates {
            states: (0..protocol.num_states()).map(|i| protocol.state_from_index(i)).collect(),
        }
    }

    fn capacity(&self, _protocol: &P) -> usize {
        self.states.len()
    }

    fn index(&mut self, protocol: &P, state: &P::State) -> usize {
        let index = protocol.state_index(state);
        if cfg!(debug_assertions) {
            self.checked(index)
        } else {
            index
        }
    }

    fn admit(&mut self, protocol: &P, state: &P::State) -> usize {
        self.checked(protocol.state_index(state))
    }

    fn lookup(&self, protocol: &P, state: &P::State) -> Option<usize> {
        Some(protocol.state_index(state)).filter(|&i| i < self.states.len())
    }

    fn state(&self, index: usize) -> &P::State {
        &self.states[index]
    }

    fn size(&self) -> usize {
        self.states.len()
    }

    fn partners(&self, protocol: &P) -> Option<Vec<Vec<usize>>> {
        protocol.interaction_partners(0)?;
        Some(
            (0..self.states.len())
                .map(|i| {
                    protocol
                        .interaction_partners(i)
                        .expect("interaction_partners must be Some for every index or none")
                })
                .collect(),
        )
    }
}

/// A protocol the count engine can run through [`crate::RunSpec::run`]: it
/// names the [`StateIndex`] its states live in.
///
/// Every [`EnumerableProtocol`] gets [`EnumeratedStates`] through a blanket
/// impl. Open-state-space protocols implement the trait directly with
/// [`crate::InternedStates`], as `Sublinear-Time-SSR`, roll call and the
/// [`crate::AsInterned`] adapter do.
pub trait CountProtocol: Protocol + Sized {
    /// The state index the count engine keys this protocol's tables by.
    type Index: StateIndex<Self>;
}

impl<P: EnumerableProtocol> CountProtocol for P {
    type Index = EnumeratedStates<P>;
}

/// How the engine draws from its row weights. Both routes take the initiator
/// from the row tree; they consume the RNG differently after that, and
/// seed-for-seed pins cover each.
#[derive(Clone, Debug)]
enum Route {
    /// Enumerated space with sparse structure: rows are repaired over the
    /// partner lists. The responder comes from a fresh draw over the partner
    /// list; epochs split the batch down the tree.
    Indexed { partners: Vec<Vec<usize>> },
    /// Dense or open structure: rows are repaired over the present set. The
    /// responder is the offset left in the row, modulo the per-copy weight;
    /// epochs split the batch over the present set.
    Present,
}

/// The states a row's weight sums over: the partner list on the indexed
/// route, the present set otherwise.
fn support<'a>(route: &'a Route, present: &'a [usize], i: usize) -> &'a [usize] {
    match route {
        Route::Indexed { partners } => &partners[i],
        Route::Present => present,
    }
}

/// The read-only inputs of a pair weight, borrowed apart from the RNG and
/// the row tree so draws and repairs can evaluate weights while those are
/// mutably borrowed.
struct Weights<'a, P, X> {
    protocol: &'a P,
    states: &'a X,
    counts: &'a [u64],
    rates: Option<&'a IndexRates>,
}

impl<P: Protocol, X: StateIndex<P>> Weights<'_, P, X> {
    /// Whether the ordered pair `(i, j)` is non-null; count-independent.
    /// Distinct states of one null class skip `is_null`.
    fn nonnull(&self, i: usize, j: usize) -> bool {
        if i != j && self.states.same_null_class(i, j) {
            return false;
        }
        !self.protocol.is_null(self.states.state(i), self.states.state(j))
    }

    /// The scheduler rate of `(i, j)`: 1 under the uniform scheduler.
    fn rate(&self, i: usize, j: usize) -> u64 {
        self.rates.map_or(1, |r| r.rate(i, j))
    }

    /// The contribution of responder `j` to initiator `i`'s row:
    /// `(c_j − [i = j])` if `(i, j)` is non-null, else 0 — scaled by the
    /// scheduler rate of `(i, j)` when a weighted scheduler is installed.
    fn term(&self, i: usize, j: usize) -> u64 {
        let c = self.counts[j].saturating_sub((i == j) as u64);
        if c == 0 || !self.nonnull(i, j) {
            return 0;
        }
        match self.rates {
            None => c,
            Some(r) => r
                .rate(i, j)
                .checked_mul(c)
                .expect("weighted pair term overflows u64; scale the rates down"),
        }
    }

    /// The row weight `c_i · Σ_{j ∈ support} term(i, j)`.
    fn row(&self, i: usize, support: &[usize]) -> u64 {
        let ci = self.counts[i];
        if ci == 0 {
            return 0;
        }
        let s: u64 = support.iter().map(|&j| self.term(i, j)).sum();
        ci.checked_mul(s).expect("weighted row weight overflows u64; scale the rates down")
    }

    /// The state in `support` that offset `t < Σ term(i, ·)` falls on.
    fn responder(&self, i: usize, support: &[usize], mut t: u64) -> usize {
        for &j in support {
            let w = self.term(i, j);
            if t < w {
                return j;
            }
            t -= w;
        }
        unreachable!("responder weights sum past the offset")
    }
}

const NOT_PRESENT: usize = usize::MAX;

/// How the count engine draws the non-null interaction schedule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SamplingMode {
    /// One geometric null-run skip plus one weighted pair draw per applied
    /// transition: exact per-interaction sampling of the scheduler's chain.
    #[default]
    PerTransition,
    /// Per **collision-free epoch**, draw the interaction-count table for all
    /// active ordered state pairs in one multivariate-hypergeometric pass
    /// over the frozen pair weights, clamp it so each agent participates in
    /// at most one interaction per epoch, and apply the whole table through
    /// one bulk count-delta pass — no per-interaction loop.
    ///
    /// Every primitive draw is exact (see [`crate::sampling`]); the
    /// approximation is purely *in schedule*: pair weights are frozen for
    /// the `B ≤ min(n/16, A/8)` transitions of an epoch, and interaction
    /// tables exceeding an agent's availability are truncated (the
    /// [`Counter::BatchTruncations`] counter records how often). Epochs
    /// shrink automatically near silence, small populations, and budget or
    /// measurement-tick boundaries, where the engine degenerates to the
    /// per-transition path and is exact again.
    BatchCount,
}

/// A single execution of a population protocol under the uniformly random
/// scheduler, simulated over state counts with null runs skipped in bulk.
///
/// Mirrors [`Simulation`]'s stop conditions (`run_until_silent`, `run_for`,
/// predicate runs) but stores only state counts; agent identities do not
/// exist here, which is faithful to the model (protocols cannot observe
/// them). `X` is the [`StateIndex`]: use the [`BatchedSimulation`] and
/// [`crate::InternedSimulation`] aliases, or `P::Index` for a
/// [`CountProtocol`]. Read results with [`CountSimulation::state_counts`] /
/// [`CountSimulation::to_configuration`].
///
/// The two draw routes (see the [module docs](self)) both find a
/// per-transition initiator in the row tree, and differ in two places: how
/// the draw finds the responder (a fresh draw on the indexed route, the
/// offset left in the row on the present route), and how an epoch splits its
/// batch across rows (down the tree, or in present order). Fault and churn
/// victims are drawn over every index of an enumerated space and over the
/// present set of an open one.
#[derive(Clone, Debug)]
pub struct CountSimulation<P: Protocol, X> {
    protocol: P,
    states: X,
    counts: Vec<u64>,
    /// Row weights `r_i = c_i · Σ_j term(i, j)` (see `Weights::term`); their
    /// total is the non-null ordered agent-pair weight `A`.
    rows: Fenwick,
    /// The states with a nonzero count, in swap-remove order, and each
    /// state's slot in it (`NOT_PRESENT` when absent). Kept on the present
    /// routes only: the indexed route never reads them, and over a space as
    /// large as the population they would cost two more tables of that size.
    present: Vec<usize>,
    position: Vec<usize>,
    route: Route,
    rng: ChaCha8Rng,
    interactions: Interactions,
    transitions: u64,
    n: usize,
    mode: SamplingMode,
    /// Resolved weighted-scheduler rates (`None` = the uniform scheduler;
    /// the `None` path is byte-for-byte the pre-scheduler arithmetic, which
    /// keeps uniform trajectories seed-stable across the layer). On an open
    /// index, states interned later fall under the default rate.
    rates: Option<IndexRates>,
    /// The unified telemetry registry (see [`crate::telemetry`]). Counters
    /// never touch the RNG, so the registry cannot perturb a trajectory.
    counters: CounterBlock,
    /// Probe/span sink; [`TelemetrySink::Noop`] (free) unless a recorder is
    /// attached.
    telemetry: TelemetrySink,
    /// Per-epoch agent availability, stamped with the epoch number so
    /// clearing between epochs is free (lazily sized on first epoch).
    scratch_avail: Vec<u64>,
    scratch_stamp: Vec<u64>,
}

/// The count engine over an [`EnumerableProtocol`]'s fixed state space.
pub type BatchedSimulation<P> = CountSimulation<P, EnumeratedStates<P>>;

impl<P: Protocol, X: StateIndex<P>> CountSimulation<P, X> {
    /// Creates a simulation from a protocol, an initial configuration and an
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics on the same setup errors as [`Simulation::new`], and if a
    /// state falls outside an enumerated space. Use
    /// [`CountSimulation::try_new`] for a non-panicking constructor.
    pub fn new(protocol: P, config: &Configuration<P::State>, seed: u64) -> Self {
        Self::try_new(protocol, config, seed).expect("invalid simulation setup")
    }

    /// Creates a simulation, validating the setup.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigurationSizeMismatch`] if the configuration
    /// length differs from the protocol's population size, and
    /// [`SimError::PopulationTooSmall`] if the population has fewer than two
    /// agents.
    ///
    /// # Panics
    ///
    /// Panics if a state falls outside an enumerated space.
    pub fn try_new(
        protocol: P,
        config: &Configuration<P::State>,
        seed: u64,
    ) -> Result<Self, SimError> {
        let n = protocol.population_size();
        if config.len() != n {
            return Err(SimError::ConfigurationSizeMismatch { expected: n, actual: config.len() });
        }
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        let states = X::new(&protocol);
        let capacity = states.capacity(&protocol);
        let size = states.size();
        // Zeroed tables come from the allocator untouched: over a space as
        // large as the population, writing them up front can cost more than
        // the run itself.
        let mut counts = vec![0; size];
        counts.reserve_exact(capacity.saturating_sub(size));
        let route = match states.partners(&protocol) {
            Some(partners) => Route::Indexed { partners },
            None => Route::Present,
        };
        let mut sim = CountSimulation {
            protocol,
            states,
            counts,
            rows: Fenwick::zeros(size, capacity),
            present: Vec::new(),
            position: Vec::with_capacity(capacity),
            route,
            rng: ChaCha8Rng::seed_from_u64(seed),
            interactions: Interactions::ZERO,
            transitions: 0,
            n,
            mode: SamplingMode::default(),
            rates: None,
            counters: CounterBlock::default(),
            telemetry: TelemetrySink::Noop,
            scratch_avail: Vec::new(),
            scratch_stamp: Vec::new(),
        };
        // Counted through plain field borrows: this loop runs once per agent.
        let CountSimulation { protocol, states, counts, .. } = &mut sim;
        for state in config.iter() {
            let i = states.admit(protocol, state);
            if X::OPEN && i == counts.len() {
                counts.push(0);
            }
            counts[i] += 1;
        }
        sim.fit(sim.counts.len());
        if sim.tracks_present() {
            for i in 0..sim.counts.len() {
                if sim.counts[i] > 0 {
                    sim.position[i] = sim.present.len();
                    sim.present.push(i);
                }
            }
        }
        sim.rebuild_rows();
        Ok(sim)
    }

    /// Creates a simulation under an explicit scheduling strategy.
    ///
    /// # Panics
    ///
    /// Panics on the setup errors [`CountSimulation::try_new_scheduled`]
    /// reports.
    pub fn new_scheduled(
        protocol: P,
        config: &Configuration<P::State>,
        seed: u64,
        scheduler: &InteractionScheduler<P::State>,
    ) -> Self {
        Self::try_new_scheduled(protocol, config, seed, scheduler)
            .expect("invalid simulation setup")
    }

    /// Creates a simulation under an explicit scheduling strategy, validating
    /// both the setup and the scheduler/engine compatibility.
    ///
    /// [`InteractionScheduler::Uniform`] is trajectory-preserving: it runs
    /// the exact same code path (and RNG draws) as
    /// [`CountSimulation::try_new`]. [`InteractionScheduler::WeightedPairs`]
    /// reweighs the count-level pair measure by the resolved rates; an open
    /// index interns the override states eagerly so their rates apply from
    /// the first observation.
    ///
    /// # Errors
    ///
    /// In addition to [`CountSimulation::try_new`]'s errors, returns
    /// [`SimError::SchedulerNeedsIdentities`] for
    /// [`InteractionScheduler::GraphRestricted`] (a graph measure depends on
    /// which agent holds which state, and this engine erases identities) and
    /// [`SimError::ZeroRateScheduler`] if every weighted rate is zero.
    pub fn try_new_scheduled(
        protocol: P,
        config: &Configuration<P::State>,
        seed: u64,
        scheduler: &InteractionScheduler<P::State>,
    ) -> Result<Self, SimError> {
        if !scheduler.is_exchangeable() {
            return Err(SimError::SchedulerNeedsIdentities {
                scheduler: scheduler.label(),
                engine: if X::OPEN { "interned" } else { "batched" },
            });
        }
        let mut sim = Self::try_new(protocol, config, seed)?;
        if let InteractionScheduler::WeightedPairs(rates) = scheduler {
            if rates.max_rate() == 0 {
                return Err(SimError::ZeroRateScheduler);
            }
            let resolved = IndexRates::resolve(rates, |s| sim.admit(s));
            sim.rates = Some(resolved);
            sim.rebuild_rows();
        }
        Ok(sim)
    }

    /// Selects the sampling mode (builder style); the default is
    /// [`SamplingMode::PerTransition`].
    pub fn with_sampling_mode(mut self, mode: SamplingMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active sampling mode.
    pub fn sampling_mode(&self) -> SamplingMode {
        self.mode
    }

    /// A snapshot of the unified telemetry counter registry for this run
    /// (see [`crate::telemetry`]). The snapshot mirrors in the applied
    /// transitions ([`Counter::Transitions`]), the row tree's (re)builds
    /// ([`Counter::FenwickRebuilds`]) and, on an open index, the number of
    /// states interned ([`Counter::InternerGrowths`]).
    pub fn counters(&self) -> CounterBlock {
        let mut block = self.counters;
        block.set(Counter::Transitions, self.transitions);
        block.set(Counter::FenwickRebuilds, self.rows.rebuilds);
        if X::OPEN {
            block.set(Counter::InternerGrowths, self.states.size() as u64);
        }
        block
    }

    /// Adds `by` events to the registry (the drivers' accounting hook).
    pub(crate) fn add_counter(&mut self, counter: Counter, by: u64) {
        self.counters.add(counter, by);
    }

    /// Attaches a probe/span [`Recorder`]; until detached, the stop loop
    /// records log-spaced convergence checkpoints and epoch draw/apply spans.
    pub fn attach_telemetry(&mut self, recorder: Recorder) {
        self.telemetry.attach(recorder);
    }

    /// Detaches the recorder (if one is attached), restoring the zero-cost
    /// no-op sink.
    pub fn take_telemetry(&mut self) -> Option<Recorder> {
        self.telemetry.take()
    }

    fn record_probe_now(&mut self) {
        let probe = Probe {
            interactions: self.interactions.count(),
            active_pairs: self.active_pairs(),
            distinct_states: self.distinct_states() as u64,
            transitions: self.transitions,
            population: self.n as u64,
        };
        self.telemetry.record_probe(probe);
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The population size.
    pub fn population_size(&self) -> usize {
        self.n
    }

    /// Total interactions executed so far (including skipped null runs).
    pub fn interactions(&self) -> Interactions {
        self.interactions
    }

    /// Total parallel time elapsed so far.
    pub fn parallel_time(&self) -> ParallelTime {
        self.interactions.to_parallel_time(self.n)
    }

    /// The number of non-null transitions actually applied — the work the
    /// engine pays for, as opposed to the interactions it skips. The ratio
    /// `interactions / transitions` is the engine's effective batching
    /// factor.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The number of states the index holds: the whole space when
    /// enumerated; every state observed so far, present or not, when
    /// interned (the size a static enumeration would have needed).
    pub fn interned_states(&self) -> usize {
        self.states.size()
    }

    /// The multiset view: every present state with its count, in index
    /// order.
    pub fn state_counts(&self) -> impl Iterator<Item = (&P::State, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.states.state(i), c))
    }

    /// The number of agents currently holding `state`.
    pub fn count_of(&self, state: &P::State) -> u64 {
        self.states.lookup(&self.protocol, state).map_or(0, |i| self.counts[i])
    }

    /// The number of distinct states present.
    pub fn distinct_states(&self) -> usize {
        if self.tracks_present() {
            self.present.len()
        } else {
            self.counts.iter().filter(|&&c| c > 0).count()
        }
    }

    /// Whether the route keeps the present set (see the `present` field).
    fn tracks_present(&self) -> bool {
        !matches!(self.route, Route::Indexed { .. })
    }

    /// Materializes a canonical per-agent configuration (states in index
    /// order). Agent identities are arbitrary — the model's agents are
    /// anonymous — so this is suitable for any permutation-invariant
    /// predicate, which every protocol-level predicate is.
    pub fn to_configuration(&self) -> Configuration<P::State> {
        let mut states = Vec::with_capacity(self.n);
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                states.resize(states.len() + c as usize, self.states.state(i).clone());
            }
        }
        Configuration::from_states(states)
    }

    /// The active pair weight of the current configuration, in O(1): under
    /// the uniform scheduler, the number of non-null ordered **agent** pairs
    /// (the quantity `A` of the module docs); under a weighted scheduler,
    /// the rate-weighted sum over those pairs, so rate-0 pairs contribute
    /// nothing (scheduler-relative silence).
    pub fn active_pairs(&self) -> u64 {
        self.rows.total()
    }

    /// Whether the configuration is silent (no non-null ordered pair
    /// exists); matches [`Simulation::is_silent`] exactly, in O(1).
    pub fn is_silent(&self) -> bool {
        self.active_pairs() == 0
    }

    /// Recomputes the non-null pair weight from the raw counts, bypassing
    /// the incrementally maintained row tree. Agreement with
    /// [`CountSimulation::active_pairs`] is the row-maintenance audit the
    /// property suites check after epochs, fault bursts and churn.
    pub fn recount_active_pairs(&self) -> u64 {
        let w = self.weights();
        (0..self.counts.len()).map(|i| w.row(i, support(&self.route, &self.present, i))).sum()
    }

    fn weights(&self) -> Weights<'_, P, X> {
        Weights {
            protocol: &self.protocol,
            states: &self.states,
            counts: &self.counts,
            rates: self.rates.as_ref(),
        }
    }

    /// Runs until the configuration is silent or `budget` additional
    /// interactions (counting skipped nulls) have elapsed.
    pub fn run_until_silent(&mut self, budget: u64) -> RunOutcome {
        self.run_to_stop(None::<fn(&Self) -> bool>, budget)
    }

    /// Runs until `condition` holds, checking after every applied (non-null)
    /// transition — a *finer* granularity than the exact engine's periodic
    /// checks — or until the configuration is silent or the budget runs out.
    /// Under [`SamplingMode::BatchCount`] the check instead lands after every
    /// epoch, with epochs capped to `n/8` expected interactions so conditions
    /// are examined about as often as the exact engine examines them.
    ///
    /// The predicate receives the canonical configuration, so any
    /// permutation-invariant predicate written for the exact engine works
    /// unchanged. Materializing it costs O(n) per non-null interaction; for
    /// large-n workloads prefer [`CountSimulation::run_until_silent`] or a
    /// count-based predicate via [`CountSimulation::run_until_counts`].
    pub fn run_until(
        &mut self,
        mut condition: impl FnMut(&Configuration<P::State>) -> bool,
        budget: u64,
    ) -> RunOutcome {
        self.run_until_counts(|sim| condition(&sim.to_configuration()), budget)
    }

    /// Runs until `condition` holds for the simulation's multiset state,
    /// checking after every applied transition, or until the configuration is
    /// silent or the budget runs out.
    pub fn run_until_counts(
        &mut self,
        condition: impl FnMut(&Self) -> bool,
        budget: u64,
    ) -> RunOutcome {
        self.run_to_stop(Some(condition), budget)
    }

    /// The one stop loop behind every run: stops when `rule` (when given)
    /// holds, checked before the first advance and after each one, when no
    /// active pair is left, or when `budget` further interactions have
    /// elapsed. Only a rule caps batch-count epochs (at `n/8` expected
    /// interactions), so runs to silence keep their full epochs. Probes are
    /// recorded at their log-spaced checkpoints and at a rule or silent stop.
    pub(crate) fn run_to_stop(
        &mut self,
        mut rule: Option<impl FnMut(&Self) -> bool>,
        budget: u64,
    ) -> RunOutcome {
        let check_cap = rule.is_some().then(|| ((self.n as u64) / 8).max(1));
        let mut remaining = budget;
        let reason = loop {
            if rule.as_mut().is_some_and(|rule| rule(self)) {
                break StopReason::ConditionMet;
            }
            let active = self.active_pairs();
            if active == 0 {
                break StopReason::Silent;
            }
            if self.telemetry.probe_due(self.interactions.count()) {
                self.record_probe_now();
            }
            if !self.advance(active, &mut remaining, check_cap) {
                return RunOutcome {
                    reason: StopReason::BudgetExhausted,
                    interactions: self.interactions,
                };
            }
        };
        if self.telemetry.is_recording() {
            self.record_probe_now();
        }
        RunOutcome { reason, interactions: self.interactions }
    }

    /// Executes exactly `budget` interactions (in batches).
    pub fn run_for(&mut self, budget: u64) {
        let mut remaining = budget;
        while remaining > 0 {
            let active = self.active_pairs();
            if active == 0 {
                // Silent: the remaining interactions are all null.
                self.interactions += Interactions::new(remaining);
                return;
            }
            if !self.advance(active, &mut remaining, None) {
                return;
            }
        }
    }

    /// Dispatches one advance step according to the sampling mode.
    /// `elapsed_cap` soft-caps an epoch's expected elapsed interactions;
    /// predicate runs pass their check granularity through it.
    fn advance(&mut self, active: u64, remaining: &mut u64, elapsed_cap: Option<u64>) -> bool {
        match self.mode {
            SamplingMode::PerTransition => self.advance_one_transition(active, remaining),
            // Epoch tables freeze an exchangeable pair measure; a weighted
            // scheduler reshapes the measure with every count change, so
            // batch-count runs degrade to exact per-transition sampling and
            // record that they did.
            SamplingMode::BatchCount if self.rates.is_some() => {
                self.counters.incr(Counter::SchedulerFallbacks);
                self.advance_one_transition(active, remaining)
            }
            SamplingMode::BatchCount => self.advance_epoch(active, remaining, elapsed_cap),
        }
    }

    /// Skips the null run preceding the next non-null interaction and applies
    /// that interaction, staying within `remaining` interactions. Returns
    /// `false` (with `remaining` driven to 0 and the interaction counter
    /// advanced) if the budget ran out before the non-null interaction.
    fn advance_one_transition(&mut self, active: u64, remaining: &mut u64) -> bool {
        let skip = sample_null_run(active, self.total_weight(), &mut self.rng);
        if skip >= *remaining {
            self.counters.add(Counter::NullsSkipped, *remaining);
            self.interactions += Interactions::new(*remaining);
            *remaining = 0;
            return false;
        }
        self.counters.add(Counter::NullsSkipped, skip);
        self.interactions += Interactions::new(skip + 1);
        *remaining -= skip + 1;
        self.transitions += 1;
        self.apply_sampled_transition(active);
        true
    }

    /// Advances one **batch-count epoch**: draws how many times each active
    /// ordered state pair interacts over the next `B` non-null interactions
    /// (jointly multivariate-hypergeometric over the frozen pair weights),
    /// clamps the table so each agent participates at most once per epoch
    /// (the collision-free guarantee — it also means the table has a valid
    /// sequential realization, so silence cannot strike mid-epoch), applies
    /// every cell through one bulk [`Self::apply_count_deltas`], and accounts
    /// the interleaved null interactions with a segmented negative-binomial
    /// clock that tracks the evolving active-pair mass
    /// ([`sample_interleaved_nulls`]) and ends **on** the last applied
    /// transition — no trailing nulls, hence no late-silence bias.
    ///
    /// Falls back to [`Self::advance_one_transition`] whenever the
    /// collision-free batch length clamps to one: small populations, few
    /// active pairs (near silence), or a nearly exhausted budget. Budget and
    /// measurement-tick boundaries therefore land exactly as in the
    /// per-transition mode.
    fn advance_epoch(
        &mut self,
        active: u64,
        remaining: &mut u64,
        elapsed_cap: Option<u64>,
    ) -> bool {
        let total_pairs = (self.n as u64) * (self.n as u64 - 1);
        let p = active as f64 / total_pairs as f64;
        // Collision-free batch length: small enough that (a) at most n/8
        // agents are consumed per epoch, (b) the frozen weights stay close to
        // the evolving truth (B ≤ A/8, which also bounds the availability
        // truncation rate), (c) the epoch's expected elapsed time stays
        // within half the remaining budget and the caller's granularity cap.
        let mut b_target = ((self.n as u64) / 16).min(active / 8);
        b_target = b_target.min((*remaining as f64 * p * 0.5) as u64);
        if let Some(cap) = elapsed_cap {
            b_target = b_target.min((cap as f64 * p) as u64);
        }
        if b_target <= 1 {
            return self.advance_one_transition(active, remaining);
        }
        self.counters.add(Counter::BatchDraws, b_target);

        // Phase 1: draw the interaction-count table over the frozen weights,
        // by exact conditional hypergeometric splits: a batch share per row
        // (initiator state), then each row's share across its responder
        // cells. The indexed route splits the batch down the row tree before
        // drawing any cell; the present routes interleave, drawing a row's
        // cells right after its share.
        self.telemetry.span_begin("epoch.draw");
        let mut cells: Vec<(usize, usize, u64)> = Vec::new();
        {
            let Self { protocol, states, counts, rows, present, route, rng, rates, .. } = self;
            let w = Weights { protocol, states, counts, rates: rates.as_ref() };
            let mut split_row = |i: usize, n_i: u64, rng: &mut ChaCha8Rng| {
                let ci = counts[i];
                let mut row_rem = rows.get(i);
                let mut n_rem = n_i;
                for &j in support(route, present, i) {
                    if n_rem == 0 {
                        break;
                    }
                    let cell = ci * w.term(i, j);
                    let m = sample_hypergeometric(row_rem, cell, n_rem, rng);
                    row_rem -= cell;
                    n_rem -= m;
                    if m > 0 {
                        cells.push((i, j, m));
                    }
                }
                debug_assert_eq!(n_rem, 0, "row share exceeds row weight");
            };
            match route {
                Route::Indexed { .. } => {
                    let mut row_shares: Vec<(usize, u64)> = Vec::new();
                    rows.split_batch(b_target, rng, &mut |i, share| row_shares.push((i, share)));
                    for (i, n_i) in row_shares {
                        split_row(i, n_i, rng);
                    }
                }
                Route::Present => {
                    let mut a_rem = active;
                    let mut b_rem = b_target;
                    for &u in present.iter() {
                        if b_rem == 0 {
                            break;
                        }
                        let r = rows.get(u);
                        let n_u = sample_hypergeometric(a_rem, r, b_rem, rng);
                        a_rem -= r;
                        b_rem -= n_u;
                        if n_u > 0 {
                            split_row(u, n_u, rng);
                        }
                    }
                    debug_assert_eq!(b_rem, 0, "batch exceeds the active pair weight");
                }
            }
        }
        self.telemetry.span_end("epoch.draw");

        // Phase 2: clamp to per-agent availability. A diagonal cell (i, i)
        // consumes two agents of state i per interaction; off-diagonal cells
        // one of each. The first nonzero cell always fits (its states have
        // full availability and a positive pair weight), so b_applied >= 1.
        self.telemetry.span_begin("epoch.apply");
        if self.scratch_avail.len() < self.counts.len() {
            self.scratch_avail.resize(self.counts.len(), 0);
            self.scratch_stamp.resize(self.counts.len(), 0);
        }
        self.counters.incr(Counter::EpochsOpened);
        let stamp = self.counters.get(Counter::EpochsOpened);
        let mut b_applied = 0u64;
        // Truncations accumulate locally and only commit with the epoch: a
        // budget-overshooting epoch undoes its transitions, so leaving its
        // truncations counted would skew the truncations/transitions
        // diagnostic.
        let mut epoch_truncations = 0u64;
        for cell in &mut cells {
            let (i, j, drawn) = *cell;
            for s in [i, j] {
                if self.scratch_stamp[s] != stamp {
                    self.scratch_stamp[s] = stamp;
                    self.scratch_avail[s] = self.counts[s];
                }
            }
            let cap = if i == j {
                self.scratch_avail[i] / 2
            } else {
                self.scratch_avail[i].min(self.scratch_avail[j])
            };
            let m = drawn.min(cap);
            epoch_truncations += drawn - m;
            if i == j {
                self.scratch_avail[i] -= 2 * m;
            } else {
                self.scratch_avail[i] -= m;
                self.scratch_avail[j] -= m;
            }
            cell.2 = m;
            b_applied += m;
        }
        debug_assert!(b_applied >= 1, "the first drawn cell always fits");

        // Phases 3 and 4, optimistically ordered: apply the table, audit the
        // epoch-end active mass, then draw the null clock segmented over the
        // evolving mass ([`sample_interleaved_nulls`]) — a clock frozen at
        // the epoch-start probability under-counts nulls whenever the mass
        // shrinks several-fold within an epoch, which epidemic tails do
        // under the n/16 batch clamp. The epoch still ends **on** its last
        // applied transition. If the clock overshoots the remaining budget,
        // the apply is undone exactly (count deltas are invertible, and
        // every derived structure is recomputed from counts) and the run
        // advances per-transition instead, which lands the budget exactly;
        // the discarded draws leave the law of the continuation unchanged.
        // One path for every budget also keeps epoch boundaries
        // seed-reproducible: replaying with the budget set to an observed
        // silence time makes the same draws in the same order.
        let mut deltas = self.apply_epoch_cells(&cells, stamp);
        let a_end = self.active_pairs();
        let nulls = sample_interleaved_nulls(b_applied, active, a_end, total_pairs, &mut self.rng);
        self.telemetry.span_end("epoch.apply");
        match b_applied.checked_add(nulls) {
            Some(elapsed) if elapsed <= *remaining => {
                self.counters.add(Counter::BatchTruncations, epoch_truncations);
                self.counters.add(Counter::NullsSkipped, nulls);
                self.interactions += Interactions::new(elapsed);
                *remaining -= elapsed;
                self.transitions += b_applied;
                true
            }
            _ => {
                self.counters.incr(Counter::EpochsDiscarded);
                for d in &mut deltas {
                    d.1 = -d.1;
                }
                self.apply_count_deltas(&deltas);
                self.advance_one_transition(active, remaining)
            }
        }
    }

    /// Phase 4 of [`Self::advance_epoch`]: applies a clamped interaction-count
    /// table through one bulk [`Self::apply_count_deltas`]. Deterministic
    /// protocols evaluate each cell's transition once and apply the outcome
    /// m-fold; randomized protocols evaluate per counted interaction
    /// (correct, just without the per-cell collapse). Returns the applied
    /// deltas so an epoch that overshoots the budget can be undone exactly.
    fn apply_epoch_cells(
        &mut self,
        cells: &[(usize, usize, u64)],
        stamp: u64,
    ) -> Vec<(usize, i64)> {
        // The probe streams below exist only under debug_assertions.
        let _ = stamp;
        let deterministic = self.protocol.deterministic_transitions();
        let mut deltas: Vec<(usize, i64)> = Vec::with_capacity(4 * cells.len());
        for &(i, j, m) in cells {
            if m == 0 {
                continue;
            }
            #[cfg(debug_assertions)]
            if deterministic && m > 1 {
                // Two independent probe streams must agree if the protocol's
                // determinism declaration is truthful.
                let (a, b) = (self.states.state(i), self.states.state(j));
                let mut probe_a = ChaCha8Rng::seed_from_u64(stamp ^ 0xD371);
                let mut probe_b = ChaCha8Rng::seed_from_u64(stamp ^ 0x9E37);
                debug_assert!(
                    self.protocol.transition(a, b, &mut probe_a)
                        == self.protocol.transition(a, b, &mut probe_b),
                    "protocol declares deterministic_transitions but outcomes differ"
                );
            }
            let reps = if deterministic { 1 } else { m };
            let per = (m / reps) as i64;
            for _ in 0..reps {
                let (a2, b2) = self.protocol.transition(
                    self.states.state(i),
                    self.states.state(j),
                    &mut self.rng,
                );
                let i2 = self.intern(&a2);
                let j2 = self.intern(&b2);
                if i == j {
                    deltas.push((i, -2 * per));
                } else {
                    deltas.push((i, -per));
                    deltas.push((j, -per));
                }
                deltas.push((i2, per));
                deltas.push((j2, per));
            }
        }
        self.apply_count_deltas(&deltas);
        deltas
    }

    /// Samples the non-null ordered state pair and applies one transition.
    fn apply_sampled_transition(&mut self, active: u64) {
        let target = self.rng.gen_range(0..active);
        let (i, offset) = self.rows.find(target);
        // Row i is c_i consecutive copies of the responder weights.
        let per_copy = self.rows.get(i) / self.counts[i];
        let t = match self.route {
            Route::Indexed { .. } => self.rng.gen_range(0..per_copy),
            Route::Present => offset % per_copy,
        };
        let j = self.weights().responder(i, support(&self.route, &self.present, i), t);
        debug_assert!(!self.protocol.is_null(self.states.state(i), self.states.state(j)));
        // Field-disjoint borrows: the index lends the states while the
        // transition draws from the rng — no clones on the hot path.
        let (a2, b2) =
            self.protocol.transition(self.states.state(i), self.states.state(j), &mut self.rng);
        let i2 = self.intern(&a2);
        let j2 = self.intern(&b2);
        self.apply_count_deltas(&[(i, -1), (j, -1), (i2, 1), (j2, 1)]);
    }

    /// The total pair measure the scheduler draws each interaction from:
    /// `n(n−1)` under the uniform scheduler, the rate-weighted `W(c)` under
    /// a weighted one. The null-run success probability is
    /// `active_pairs() / total_weight()` either way.
    fn total_weight(&self) -> u64 {
        let n = self.n as u64;
        let total_pairs = n * (n - 1);
        match &self.rates {
            None => total_pairs,
            Some(r) => r.total_weight(&self.counts, total_pairs),
        }
    }

    /// Applies one fault burst in count space: draws `states.len()` victim
    /// agents **proportionally to the current counts without replacement**
    /// (the count-space image of choosing distinct agents uniformly — agents
    /// are anonymous, so the multiset distribution is identical to the exact
    /// engine's [`Simulation::inject_states`]) and moves the `i`-th victim
    /// into `states[i]`, repairing the affected row weights incrementally
    /// through the same path as an applied transition (see [`crate::faults`]).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` exceeds the population size, or if a target
    /// state falls outside an enumerated space.
    pub fn inject_states(&mut self, states: &[P::State], rng: &mut impl Rng) {
        let k = states.len();
        assert!(k <= self.n, "cannot corrupt more agents than the population holds");
        // Index the targets first: an open index may grow its tables, and the
        // draw below reads counts (new states enter with count 0).
        let targets: Vec<usize> = states.iter().map(|s| self.admit(s)).collect();
        let mut deltas: Vec<(usize, i64)> = Vec::with_capacity(2 * k);
        for (src, dst) in self.sample_victims(k, rng).into_iter().zip(targets) {
            deltas.push((src, -1));
            deltas.push((dst, 1));
        }
        self.apply_count_deltas(&deltas);
    }

    /// Population churn: `states.len()` fresh agents join in the given
    /// states. A no-op for an empty slice.
    ///
    /// # Panics
    ///
    /// Panics if a joining state falls outside an enumerated space.
    pub fn join(&mut self, states: &[P::State]) {
        if states.is_empty() {
            return;
        }
        let deltas: Vec<(usize, i64)> = states.iter().map(|s| (self.admit(s), 1)).collect();
        self.n += states.len();
        self.apply_count_deltas(&deltas);
    }

    /// Population churn: `k` agents, drawn proportionally to the current
    /// counts without replacement (the count-space image of uniform distinct
    /// departures), leave the population. A no-op for `k == 0`.
    ///
    /// # Panics
    ///
    /// Panics unless at least two agents remain after the departures.
    pub fn leave(&mut self, k: usize, rng: &mut impl Rng) {
        if k == 0 {
            return;
        }
        assert!(self.n >= k + 2, "churn departures must leave at least two agents");
        let deltas: Vec<(usize, i64)> =
            self.sample_victims(k, rng).into_iter().map(|i| (i, -1)).collect();
        self.n -= k;
        self.apply_count_deltas(&deltas);
    }

    /// `k` victim states drawn ∝ counts without replacement, scanning every
    /// index of an enumerated space and the present set of an open one.
    fn sample_victims(&self, k: usize, rng: &mut impl Rng) -> Vec<usize> {
        let order = X::OPEN.then_some(self.present.as_slice());
        sample_victims_by_counts(&self.counts, order, k, rng)
    }

    /// The index of a state produced by a transition, growing the tables
    /// when an open index meets it for the first time.
    fn intern(&mut self, state: &P::State) -> usize {
        let i = self.states.index(&self.protocol, state);
        if X::OPEN {
            self.fit(i + 1);
        }
        i
    }

    /// [`Self::intern`] for states entering from outside the transition
    /// function (see [`StateIndex::admit`]).
    fn admit(&mut self, state: &P::State) -> usize {
        let i = self.states.admit(&self.protocol, state);
        if X::OPEN {
            self.fit(i + 1);
        }
        i
    }

    /// Grows the count, row and position tables to at least `len` slots:
    /// once at construction for an enumerated space, on first observation
    /// of each state for an open one.
    fn fit(&mut self, len: usize) {
        let len = len.max(self.counts.len());
        self.counts.resize(len, 0);
        self.rows.grow(len);
        if self.tracks_present() {
            self.position.resize(len, NOT_PRESENT);
        }
    }

    /// Recomputes every row weight from the counts and rebuilds the row tree
    /// (at construction and when a weighted scheduler is installed).
    fn rebuild_rows(&mut self) {
        let Self { protocol, states, counts, rows, present, route, rates, .. } = self;
        let w = Weights { protocol, states, counts, rates: rates.as_ref() };
        rows.assign(|i| w.row(i, support(route, present, i)));
    }

    /// Applies signed count changes, then repairs the present set and the
    /// row weights. The indexed route recomputes every row that reads a
    /// changed count (the changed states and their partners). The present
    /// route shifts each unchanged row by `c_u · Σ_k rate(u, k) · Δc_k` over
    /// its non-null `(u, k)` — nullness is count-independent — and rebuild
    /// only the changed states' own rows with a present scan.
    fn apply_count_deltas(&mut self, deltas: &[(usize, i64)]) {
        // Net the deltas per state first (i may equal j, or a state may both
        // lose and gain an agent in the same transition). Small lists — the
        // per-transition path — net by linear scan; epoch-sized lists sort,
        // which keeps the netting O(k log k) instead of O(k²).
        let mut net: Vec<(usize, i64)> = Vec::with_capacity(deltas.len());
        if deltas.len() <= 16 {
            for &(k, d) in deltas {
                match net.iter_mut().find(|(s, _)| *s == k) {
                    Some((_, acc)) => *acc += d,
                    None => net.push((k, d)),
                }
            }
        } else {
            let mut sorted = deltas.to_vec();
            sorted.sort_unstable_by_key(|&(s, _)| s);
            for (s, d) in sorted {
                match net.last_mut() {
                    Some((ls, acc)) if *ls == s => *acc += d,
                    _ => net.push((s, d)),
                }
            }
        }
        net.retain(|&(_, d)| d != 0);
        for &(k, d) in &net {
            let c = self.counts[k] as i64 + d;
            debug_assert!(c >= 0, "state count went negative");
            self.counts[k] = c as u64;
        }
        let Self { protocol, states, counts, rows, present, position, route, rates, .. } = self;
        let w = Weights { protocol, states, counts, rates: rates.as_ref() };
        match route {
            Route::Indexed { partners } => {
                let mut affected: Vec<usize> = Vec::new();
                for &(k, _) in &net {
                    affected.push(k);
                    affected.extend_from_slice(&partners[k]);
                }
                affected.sort_unstable();
                affected.dedup();
                for i in affected {
                    rows.set(i, w.row(i, &partners[i]));
                }
            }
            Route::Present => {
                // Present-set maintenance (swap-remove keeps positions dense).
                for &(k, _) in &net {
                    let now_present = counts[k] > 0;
                    let was_present = position[k] != NOT_PRESENT;
                    if now_present && !was_present {
                        position[k] = present.len();
                        present.push(k);
                    } else if !now_present && was_present {
                        let pos = position[k];
                        let last = *present.last().expect("present is nonempty");
                        present.swap_remove(pos);
                        position[k] = NOT_PRESENT;
                        if last != k {
                            position[last] = pos;
                        }
                    }
                }
                for &u in present.iter() {
                    if net.iter().any(|&(k, _)| k == u) {
                        continue;
                    }
                    let shift: i128 = net
                        .iter()
                        .filter(|&&(k, _)| w.nonnull(u, k))
                        .map(|&(k, d)| w.rate(u, k) as i128 * d as i128)
                        .sum();
                    if shift != 0 {
                        let row = rows.get(u) as i128 + counts[u] as i128 * shift;
                        debug_assert!(row >= 0, "row weight went negative");
                        rows.set(u, row as u64);
                    }
                }
                for &(k, _) in &net {
                    rows.set(k, w.row(k, present));
                }
            }
        }
    }
}

/// Which simulation engine to run a workload on.
///
/// The engines simulate the same Markov chain; they differ only in cost
/// model. [`Engine::Exact`] pays O(1) per interaction and works for every
/// [`Protocol`]. [`Engine::Batched`] and [`Engine::BatchedCounts`] run the
/// count engine, which pays only per *non-null* interaction, over the
/// protocol's [`CountProtocol::Index`] — driven by [`crate::RunSpec::run`],
/// to silence or, with [`crate::RunSpec::until`], to a stop rule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Engine {
    /// The per-agent engine: [`Simulation`].
    Exact,
    /// The count engine ([`CountSimulation`]), sampling each non-null
    /// transition individually.
    Batched,
    /// The count engine in [`SamplingMode::BatchCount`]: whole
    /// interaction-count tables per collision-free epoch.
    BatchedCounts,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Exact => write!(f, "exact"),
            Engine::Batched => write!(f, "batched"),
            Engine::BatchedCounts => write!(f, "batchcount"),
        }
    }
}

impl Engine {
    /// The [`SamplingMode`] this engine variant selects on the count engine
    /// ([`Engine::Exact`] has no count simulation; its mode is vacuous and
    /// maps to the default).
    pub fn sampling_mode(self) -> SamplingMode {
        match self {
            Engine::Exact | Engine::Batched => SamplingMode::PerTransition,
            Engine::BatchedCounts => SamplingMode::BatchCount,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fixtures::{leaders, Frat};

    #[test]
    fn all_null_configuration_is_immediately_silent() {
        // All followers: A = 0, so the run is silent with zero interactions.
        let mut sim = BatchedSimulation::new(Frat { n: 10 }, &Configuration::uniform(1u8, 10), 1);
        assert!(sim.is_silent());
        let outcome = sim.run_until_silent(1_000);
        assert!(outcome.is_silent());
        assert_eq!(sim.interactions(), Interactions::ZERO);
    }

    #[test]
    fn budget_exhaustion_reports_partial_progress() {
        let mut sim = BatchedSimulation::new(Frat { n: 100 }, &Configuration::uniform(0u8, 100), 3);
        let outcome = sim.run_until_silent(50);
        // 50 interactions cannot silence 100 leaders (needs 99 transitions).
        assert!(outcome.budget_exhausted());
        assert_eq!(sim.interactions().count(), 50);
    }

    #[test]
    fn run_for_advances_exactly_the_requested_interactions() {
        let mut sim = BatchedSimulation::new(Frat { n: 50 }, &Configuration::uniform(0u8, 50), 7);
        sim.run_for(1234);
        assert_eq!(sim.interactions().count(), 1234);
        // Once silent, further interactions are all null but still counted.
        let mut done = BatchedSimulation::new(Frat { n: 50 }, &Configuration::uniform(1u8, 50), 7);
        done.run_for(777);
        assert_eq!(done.interactions().count(), 777);
        assert!(done.is_silent());
    }

    #[test]
    fn run_until_stops_at_the_predicate() {
        let mut sim = BatchedSimulation::new(Frat { n: 60 }, &Configuration::uniform(0u8, 60), 11);
        let outcome = sim.run_until(|c| c.iter().filter(|&&s| s == 0).count() <= 30, u64::MAX >> 8);
        assert!(outcome.condition_met());
        assert!(sim.count_of(&0) <= 30);
    }

    #[test]
    fn single_non_null_pair_resolves_in_one_transition() {
        // Exactly two leaders: A = 2 ordered pairs; one real transition ends it.
        let config = Configuration::from_fn(30, |i| u8::from(i >= 2));
        let mut sim = BatchedSimulation::new(Frat { n: 30 }, &config, 5);
        assert_eq!(sim.active_pairs(), 2);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&0), 1);
        // The skipped null run is usually long: with p = 2/(30·29) the mean
        // wait is 435 interactions, yet only one transition was applied.
        assert!(sim.interactions().count() >= 1);
    }

    #[test]
    fn batched_elects_exactly_one_leader_on_both_backends() {
        for seed in 0..5 {
            let mut sim =
                BatchedSimulation::new(Frat { n: 200 }, &Configuration::uniform(0u8, 200), seed);
            assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
            assert_eq!(sim.count_of(&0), 1);
            assert_eq!(sim.count_of(&1), 199);

            let mut dense = BatchedSimulation::new(
                ForceDense(Frat { n: 200 }),
                &Configuration::uniform(0u8, 200),
                seed,
            );
            assert!(dense.run_until_silent(u64::MAX >> 8).is_silent());
            assert_eq!(dense.count_of(&0), 1);
        }
    }

    #[test]
    #[should_panic(expected = "state outside the enumerated space")]
    fn fault_bursts_into_states_outside_the_enumerated_space_panic() {
        let mut sim = BatchedSimulation::new(Frat { n: 10 }, &Configuration::uniform(0u8, 10), 1);
        sim.inject_states(&[0u8, 7], &mut ChaCha8Rng::seed_from_u64(2));
    }

    #[test]
    fn null_run_sampler_handles_edge_probabilities() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Certain success: every pair is non-null.
        for _ in 0..100 {
            assert_eq!(sample_null_run(90, 90, &mut rng), 0);
        }
        // Tiny success probability: the mean of the geometric should be near
        // 1/p (here 10_000), sanity-checked loosely.
        let p_inv = 10_000u64;
        let samples = 4_000;
        let total: u128 = (0..samples).map(|_| sample_null_run(1, p_inv, &mut rng) as u128).sum();
        let mean = total as f64 / samples as f64;
        assert!(
            (mean - p_inv as f64).abs() / (p_inv as f64) < 0.1,
            "geometric mean {mean} should be near {p_inv}"
        );
    }

    #[test]
    #[should_panic(expected = "silent configuration")]
    fn null_run_sampler_rejects_silent_configurations() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = sample_null_run(0, 90, &mut rng);
    }

    #[test]
    fn fenwick_prefix_search_matches_linear_scan() {
        // `find` and `split_batch` against a linear scan of the weights, on a
        // tree sized to exactly its slots as the indexed route builds it,
        // after point updates to and from zero and after both `assign` paths
        // (point writes for a few changes, one rebuild for many). Growth is
        // covered on the interned side, which is the only index that grows.
        fn check(fw: &Fenwick, weights: &[u64]) {
            assert_eq!(fw.total(), weights.iter().sum::<u64>());
            for (slot, &w) in weights.iter().enumerate() {
                assert_eq!(fw.get(slot), w);
            }
            for target in 0..fw.total() {
                let (mut slot, mut t) = (0, target);
                while t >= weights[slot] {
                    t -= weights[slot];
                    slot += 1;
                }
                assert_eq!(fw.find(target), (slot, t), "target {target} over {weights:?}");
            }
            let mut rng = ChaCha8Rng::seed_from_u64(fw.total());
            for draws in [fw.total() / 2, fw.total()] {
                let mut shares = vec![0u64; weights.len()];
                let mut last = None;
                fw.split_batch(draws, &mut rng, &mut |slot, share| {
                    assert!(last < Some(slot), "shares arrive in ascending slot order");
                    last = Some(slot);
                    shares[slot] += share;
                });
                assert_eq!(shares.iter().sum::<u64>(), draws);
                assert!(shares.iter().zip(weights).all(|(s, w)| s <= w));
                if draws == fw.total() {
                    assert_eq!(shares, weights, "a full batch takes every slot whole");
                }
            }
        }
        let mut weights = vec![5u64, 0, 3, 7, 0, 1, 4, 9, 2, 0, 6];
        let mut fw = Fenwick::zeros(weights.len(), weights.len());
        for (i, &w) in weights.iter().enumerate() {
            fw.set(i, w);
        }
        check(&fw, &weights);
        fw.set(3, 0);
        fw.set(1, 2);
        (weights[3], weights[1]) = (0, 2);
        check(&fw, &weights);
        for w in &mut weights {
            *w *= 2;
        }
        fw.assign(|i| weights[i]);
        check(&fw, &weights);
        weights[4] = 8;
        fw.assign(|i| weights[i]);
        check(&fw, &weights);
        assert_eq!(fw.rebuilds, 2, "each assign counts one rebuild");
    }

    #[test]
    fn engine_reports_agree_on_verdict() {
        use crate::runspec::RunSpec;
        let config = Configuration::uniform(0u8, 40);
        let exact = RunSpec::new(Frat { n: 40 }).init(config.clone()).seed(9).run_one().unwrap();
        let batched = RunSpec::new(Frat { n: 40 })
            .engine(Engine::Batched)
            .init(config.clone())
            .seed(9)
            .run_one()
            .unwrap();
        assert!(exact.outcome.is_silent());
        assert!(batched.outcome.is_silent());
        let leaders = |c: &Configuration<u8>| c.iter().filter(|&&s| s == 0).count();
        assert_eq!(leaders(&exact.final_config), 1);
        assert_eq!(leaders(&batched.final_config), 1);
        assert!(batched.parallel_time().value() > 0.0);
    }

    // ------------------------------------------------------------------
    // Batch-count edge cases: the regimes where the epoch machinery must
    // hand over to (or exactly agree with) the per-transition path.
    // ------------------------------------------------------------------

    fn batchcount(
        protocol: Frat,
        config: &Configuration<u8>,
        seed: u64,
    ) -> BatchedSimulation<Frat> {
        BatchedSimulation::new(protocol, config, seed).with_sampling_mode(SamplingMode::BatchCount)
    }

    #[test]
    fn batchcount_clamps_the_batch_to_one_near_silence() {
        // Two leaders in 30 agents: a single non-null cell of multiplicity
        // one. The collision-free bound clamps every epoch to B ≤ 1, so the
        // run must degrade to per-transition sampling and still end silent
        // after exactly one applied transition.
        let config = Configuration::from_fn(30, |i| u8::from(i >= 2));
        let mut sim = batchcount(Frat { n: 30 }, &config, 5);
        assert_eq!(sim.active_pairs(), 2);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&0), 1);
        assert_eq!(sim.transitions(), 1);
    }

    #[test]
    fn batchcount_handles_n_equals_2() {
        // n = 2 forces b_target = 0 (n/16 = 0): pure fallback territory.
        let mut sim = batchcount(Frat { n: 2 }, &Configuration::uniform(0u8, 2), 3);
        let outcome = sim.run_until_silent(1_000);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&0), 1);
        assert_eq!(sim.transitions(), 1);
        assert_eq!(sim.counters().get(Counter::EpochsOpened), 0, "no epoch can open at n = 2");
    }

    #[test]
    fn batchcount_single_state_populations() {
        // All-null single state: instantly silent, zero interactions.
        let mut done = batchcount(Frat { n: 40 }, &Configuration::uniform(1u8, 40), 1);
        assert!(done.run_until_silent(1_000).is_silent());
        assert_eq!(done.interactions(), Interactions::ZERO);

        // All-active single state: the entire weight sits on the (L, L)
        // diagonal, so epochs exercise the 2m-per-pair availability rule.
        // The run still elects exactly one leader on both backends.
        let mut sim = batchcount(Frat { n: 400 }, &Configuration::uniform(0u8, 400), 7);
        assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
        assert_eq!(sim.count_of(&0), 1);
        assert_eq!(sim.transitions(), 399);
        assert!(
            sim.counters().get(Counter::EpochsOpened) > 0,
            "n = 400 from all-leaders must open epochs"
        );
        let mut dense = BatchedSimulation::new(
            ForceDense(Frat { n: 400 }),
            &Configuration::uniform(0u8, 400),
            7,
        )
        .with_sampling_mode(SamplingMode::BatchCount);
        assert!(dense.run_until_silent(u64::MAX >> 8).is_silent());
        assert_eq!(dense.count_of(&0), 1);
    }

    #[test]
    fn batchcount_run_for_hits_the_budget_exactly() {
        // Epochs whose negative-binomial clock would overshoot the remaining
        // budget are abandoned for single steps, so run_for still lands
        // exactly on the requested interaction count — even when the run
        // silences mid-way and the tail is all nulls.
        let mut sim = batchcount(Frat { n: 50 }, &Configuration::uniform(0u8, 50), 7);
        sim.run_for(1234);
        assert_eq!(sim.interactions().count(), 1234);
        let mut done = batchcount(Frat { n: 50 }, &Configuration::uniform(1u8, 50), 7);
        done.run_for(777);
        assert_eq!(done.interactions().count(), 777);
        assert!(done.is_silent());
    }

    #[test]
    fn batchcount_budget_landing_on_the_silence_tick_still_reports_silent() {
        // No late-silence bias at epoch boundaries: the interaction clock
        // ends ON the last applied transition, so replaying the same seed
        // with the budget set to the observed silence time must still report
        // silence, not exhaustion (the epoch clock must preserve what the
        // per-transition path guarantees).
        for seed in 0..10u64 {
            let config = Configuration::uniform(0u8, 120);
            let mut probe = batchcount(Frat { n: 120 }, &config, seed);
            let outcome = probe.run_until_silent(u64::MAX >> 8);
            assert!(outcome.is_silent());
            let t = outcome.interactions.count();
            let mut replay = batchcount(Frat { n: 120 }, &config, seed);
            let replayed = replay.run_until_silent(t);
            assert!(replayed.is_silent(), "seed {seed}: budget = {t} must still silence");
            assert_eq!(replayed.interactions.count(), t);
        }
    }

    #[test]
    fn split_batch_realizes_the_multivariate_hypergeometric_joint() {
        // The Fenwick batch splitter must produce leaf shares that are
        // jointly multivariate hypergeometric — the joint law (every outcome
        // vector its own chi-square category), not just the marginals.
        // Seeded; the 0.999 threshold gives a ~10⁻³ false-failure rate on a
        // reseed (see tests/sampling_stats.rs for the suite-wide budget).
        let weights = [3u64, 0, 2, 5];
        let mut fw = Fenwick::zeros(weights.len(), weights.len());
        fw.assign(|i| weights[i]);
        let draws = 4u64;
        let choose = |n: u64, k: u64| -> f64 {
            if k > n {
                return 0.0;
            }
            (0..k).map(|i| (n - i) as f64 / (i + 1) as f64).product()
        };
        let mut support = Vec::new();
        for n0 in 0..=weights[0].min(draws) {
            for n2 in 0..=weights[2].min(draws - n0) {
                let n3 = draws - n0 - n2;
                if n3 <= weights[3] {
                    support.push([n0, 0, n2, n3]);
                }
            }
        }
        let samples = 30_000usize;
        let denominator = choose(10, draws);
        let expected: Vec<f64> = support
            .iter()
            .map(|v| {
                let ways: f64 = v.iter().zip(&weights).map(|(&k, &w)| choose(w, k)).product();
                samples as f64 * ways / denominator
            })
            .collect();
        let mut observed = vec![0u64; support.len()];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5B1D);
        for _ in 0..samples {
            let mut drawn = [0u64; 4];
            fw.split_batch(draws, &mut rng, &mut |leaf, share| drawn[leaf] += share);
            assert_eq!(drawn[1], 0, "zero-weight leaves must receive nothing");
            assert_eq!(drawn.iter().sum::<u64>(), draws);
            let index = support.iter().position(|v| *v == drawn).expect("in support");
            observed[index] += 1;
        }
        let statistic: f64 = observed
            .iter()
            .zip(&expected)
            .map(|(&o, &e)| (o as f64 - e) * (o as f64 - e) / e)
            .sum();
        let critical = analysis::chi_square_critical_999(support.len() - 1);
        assert!(
            statistic <= critical,
            "split_batch joint chi-square {statistic:.2} exceeds {critical:.2}"
        );
    }

    /// Scheduler-layer tests. Each behaviour has one `check_*` body, generic
    /// over the count protocol; the tests here run it over the enumerated
    /// index, and `interned::tests::scheduled` runs the same bodies over the
    /// interned index through [`crate::AsInterned`] (where the follower
    /// state is interned first-seen).
    pub(crate) mod scheduled {
        use super::*;
        use crate::scheduler::{PairRates, Topology};

        const BUDGET: u64 = u64::MAX >> 8;

        fn new_scheduled<P: CountProtocol<State = u8>>(
            protocol: P,
            init: &Configuration<u8>,
            seed: u64,
            scheduler: &InteractionScheduler<u8>,
        ) -> Result<CountSimulation<P, P::Index>, SimError> {
            CountSimulation::try_new_scheduled(protocol, init, seed, scheduler)
        }

        pub(crate) fn check_graph_schedulers_are_rejected<P>(protocol: P, engine: &str)
        where
            P: CountProtocol<State = u8> + Clone + Sync,
        {
            for (topology, label) in [(Topology::Ring, "ring"), (Topology::Star, "star")] {
                let graph = InteractionScheduler::GraphRestricted(topology);
                let init = Configuration::uniform(0u8, 8);
                let err = new_scheduled(protocol.clone(), &init, 1, &graph).err().unwrap();
                assert!(
                    matches!(&err, SimError::SchedulerNeedsIdentities { scheduler, engine: e }
                        if scheduler == label && *e == engine),
                    "{err}"
                );
                let err = crate::runspec::RunSpec::new(protocol.clone())
                    .engine(Engine::Batched)
                    .init(init)
                    .scheduler(graph)
                    .run_one()
                    .unwrap_err();
                assert!(matches!(err, SimError::SchedulerNeedsIdentities { .. }));
            }
        }

        pub(crate) fn check_zero_rate_schedulers_are_rejected<P: CountProtocol<State = u8>>(
            protocol: P,
        ) {
            let dead = InteractionScheduler::WeightedPairs(PairRates::new(0));
            let init = Configuration::uniform(0u8, 8);
            let err = new_scheduled(protocol, &init, 1, &dead).err().unwrap();
            assert_eq!(err, SimError::ZeroRateScheduler);
        }

        /// The spec runner always goes through the scheduled constructor;
        /// under the uniform scheduler it must reproduce the plain
        /// constructor's trajectory bit for bit.
        pub(crate) fn check_scheduled_uniform_is_trajectory_identical<P>(protocol: P)
        where
            P: CountProtocol<State = u8> + Clone + Sync,
        {
            for seed in [1u64, 4, 9, 17, 23] {
                let init = Configuration::uniform(0u8, 30);
                let mut plain = CountSimulation::<P, P::Index>::new(protocol.clone(), &init, seed);
                let outcome = plain.run_until_silent(BUDGET);
                let uniform = InteractionScheduler::Uniform;
                let mut scheduled = new_scheduled(protocol.clone(), &init, seed, &uniform).unwrap();
                assert_eq!(scheduled.run_until_silent(BUDGET), outcome);
                assert_eq!(scheduled.to_configuration(), plain.to_configuration());
                let spec = crate::runspec::RunSpec::new(protocol.clone())
                    .engine(Engine::Batched)
                    .init(init)
                    .seed(seed)
                    .budget(BUDGET)
                    .run_one()
                    .unwrap();
                assert_eq!(spec.outcome, outcome);
                assert_eq!(spec.final_config, plain.to_configuration());
            }
        }

        /// On the interned index the follower state appears only at run
        /// time, so its rates are consulted through the interner.
        pub(crate) fn check_weighted_runs_silence<P: CountProtocol<State = u8>>(protocol: P) {
            let rates = PairRates::new(1).with_rate(0u8, 0u8, 7);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 40);
            let mut sim = new_scheduled(protocol, &init, 3, &scheduler).unwrap();
            assert!(sim.run_until_silent(BUDGET).is_silent());
            assert_eq!(leaders(&sim.to_configuration()), 1);
            assert_eq!(sim.active_pairs(), sim.recount_active_pairs());
        }

        /// Fratricide's only non-null pair at rate 0: every configuration is
        /// silent for the weighted scheduler, active for the uniform.
        pub(crate) fn check_rate_zero_pairs_make_silence_scheduler_relative<P>(protocol: P)
        where
            P: CountProtocol<State = u8> + Clone,
        {
            let rates = PairRates::new(1).with_rate(0u8, 0u8, 0);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 10);
            let sim = new_scheduled(protocol.clone(), &init, 1, &scheduler).unwrap();
            assert!(sim.is_silent());
            assert!(!CountSimulation::<P, P::Index>::new(protocol, &init, 1).is_silent());
        }

        /// Under a non-uniform scheduler, `Engine::BatchedCounts` must not
        /// sample the (uniform-law) batch-count epochs: it falls back to
        /// per-transition sampling, counted, and the trajectory is exactly
        /// the per-transition engine's.
        pub(crate) fn check_batchcount_weighted_fallback<P>(protocol: P)
        where
            P: CountProtocol<State = u8> + Clone,
        {
            let rates = PairRates::new(1).with_rate(0u8, 0u8, 4);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 50);
            for seed in [2u64, 5, 6, 29, 31] {
                let sim = |mode| {
                    new_scheduled(protocol.clone(), &init, seed, &scheduler)
                        .unwrap()
                        .with_sampling_mode(mode)
                };
                let mut per_transition = sim(SamplingMode::PerTransition);
                let mut batchcount = sim(SamplingMode::BatchCount);
                let a = per_transition.run_until_silent(BUDGET);
                let b = batchcount.run_until_silent(BUDGET);
                assert_eq!(a, b, "seed {seed}");
                assert_eq!(
                    per_transition.to_configuration(),
                    batchcount.to_configuration(),
                    "seed {seed}"
                );
                assert!(
                    batchcount.counters().get(Counter::SchedulerFallbacks) > 0,
                    "fallback diagnostic must count the diverted batches"
                );
                assert_eq!(per_transition.counters().get(Counter::SchedulerFallbacks), 0);
            }
        }

        /// `joins` may carry states the index has not seen yet (only the
        /// interned index admits those).
        pub(crate) fn check_churn_keeps_weighted_row_weights_consistent<P>(
            protocol: P,
            joins: &[u8],
        ) -> Configuration<u8>
        where
            P: CountProtocol<State = u8>,
        {
            use rand::SeedableRng;
            let rates = PairRates::new(2).with_rate(0u8, 0u8, 5);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 20);
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let mut sim = new_scheduled(protocol, &init, 8, &scheduler).unwrap();
            sim.run_until_silent(BUDGET);
            sim.join(joins);
            assert_eq!(sim.population_size(), 24);
            assert_eq!(sim.active_pairs(), sim.recount_active_pairs());
            sim.leave(10, &mut rng);
            assert_eq!(sim.population_size(), 14);
            assert_eq!(sim.active_pairs(), sim.recount_active_pairs());
            assert!(sim.run_until_silent(BUDGET).is_silent());
            let config = sim.to_configuration();
            assert!(leaders(&config) <= 1);
            config
        }

        #[test]
        fn graph_schedulers_are_rejected_with_a_typed_error() {
            check_graph_schedulers_are_rejected(Frat { n: 8 }, "batched");
        }

        #[test]
        fn zero_rate_schedulers_are_rejected() {
            check_zero_rate_schedulers_are_rejected(Frat { n: 8 });
        }

        #[test]
        fn scheduled_uniform_is_trajectory_identical_to_plain() {
            check_scheduled_uniform_is_trajectory_identical(Frat { n: 30 });
        }

        #[test]
        fn weighted_runs_silence_on_both_backends() {
            check_weighted_runs_silence(Frat { n: 40 });
            check_weighted_runs_silence(ForceDense(Frat { n: 40 }));
        }

        #[test]
        fn rate_zero_pairs_make_silence_scheduler_relative() {
            check_rate_zero_pairs_make_silence_scheduler_relative(Frat { n: 10 });
        }

        #[test]
        fn batchcount_weighted_fallback_is_trajectory_equal_to_batched() {
            check_batchcount_weighted_fallback(Frat { n: 50 });
        }

        #[test]
        fn churn_keeps_weighted_row_weights_consistent() {
            let config =
                check_churn_keeps_weighted_row_weights_consistent(Frat { n: 20 }, &[0, 0, 0, 0]);
            assert_eq!(leaders(&config), 1);
        }
    }
}
