//! The interaction-scheduler layer: which ordered pair interacts next.
//!
//! The paper's model fixes the *uniformly random* scheduler — every ordered
//! pair of distinct agents is equally likely at every step. That scheduler
//! is one strategy of a pluggable layer: [`InteractionScheduler`] names the
//! strategy, and each engine resolves it into its own sampling machinery.
//!
//! * [`InteractionScheduler::Uniform`] — the paper's scheduler. Supported by
//!   every engine; the count engines' Fenwick weights, batch-count epoch law
//!   and the model checker's move table all specialize to it.
//! * [`InteractionScheduler::WeightedPairs`] — each ordered **state** pair
//!   `(a, b)` interacts at a relative rate [`PairRates::rate`] `(a, b)`. The
//!   measure depends on states only, so it is *exchangeable*: the count
//!   engines stay exact (row weights become rate-weighted products, and
//!   geometric null-run skipping still applies because the null probability
//!   remains a weight ratio), and the model checker's successor weights pick
//!   up the rates. Pairs with rate `0` are never scheduled, so silence is
//!   *scheduler-relative*: a configuration whose only non-null pairs have
//!   rate `0` is silent under this scheduler.
//! * [`InteractionScheduler::GraphRestricted`] — only pairs adjacent in an
//!   interaction [`Topology`] (ring, star, random `d`-regular) are
//!   scheduled, uniformly over ordered adjacent pairs. The measure depends
//!   on agent *identities*, which the count engines erase, so this strategy
//!   routes to the exact engine only; the count engines and the model
//!   checker reject it with a typed error instead of sampling a wrong law.
//!
//! [`Scheduler`] below is the seeded pair source shared by the exact
//! engine's strategies; its uniform draw is byte-for-byte the pre-layer
//! behavior, so `Uniform` runs are trajectory-preserving (same seed ⇒ same
//! execution as before the layer existed).

use std::hash::Hash;

use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::agent::AgentId;

/// An ordered pair of distinct agents: the initiator and the responder of one
/// interaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OrderedPair {
    /// The initiator of the interaction.
    pub initiator: AgentId,
    /// The responder of the interaction.
    pub responder: AgentId,
}

impl OrderedPair {
    /// Creates an ordered pair.
    ///
    /// # Panics
    ///
    /// Panics if both agents are the same: the model never schedules an agent
    /// with itself.
    pub fn new(initiator: AgentId, responder: AgentId) -> Self {
        assert_ne!(initiator, responder, "an agent cannot interact with itself");
        OrderedPair { initiator, responder }
    }
}

/// Relative interaction rates per ordered **state** pair: a default rate plus
/// sparse overrides. The weight of an ordered pair of agents in states
/// `(a, b)` is `rate(a, b)`; the scheduler draws pairs proportionally.
///
/// Rates are small non-negative integers (`u64`); only ratios matter. A rate
/// of `0` removes the pair from the schedule entirely — it is never drawn,
/// and it does not count against silence.
///
/// # Example
///
/// ```
/// use ppsim::PairRates;
/// // Leaders meet each other three times as often as the default pair.
/// let rates = PairRates::new(1).with_symmetric_rate('L', 'L', 3);
/// assert_eq!(rates.rate(&'L', &'L'), 3);
/// assert_eq!(rates.rate(&'L', &'F'), 1);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct PairRates<S> {
    default: u64,
    overrides: Vec<((S, S), u64)>,
}

impl<S: Clone + Eq + Hash> PairRates<S> {
    /// Rates where every ordered state pair interacts at `default` until
    /// overridden.
    pub fn new(default: u64) -> Self {
        PairRates { default, overrides: Vec::new() }
    }

    /// Overrides the rate of the ordered state pair `(initiator, responder)`.
    pub fn with_rate(mut self, initiator: S, responder: S, rate: u64) -> Self {
        self.set_rate(initiator, responder, rate);
        self
    }

    /// Overrides both orders of the unordered state pair `{a, b}`.
    pub fn with_symmetric_rate(mut self, a: S, b: S, rate: u64) -> Self {
        self.set_rate(a.clone(), b.clone(), rate);
        if a != b {
            self.set_rate(b, a, rate);
        }
        self
    }

    fn set_rate(&mut self, initiator: S, responder: S, rate: u64) {
        let key = (initiator, responder);
        match self.overrides.iter_mut().find(|(k, _)| *k == key) {
            Some((_, r)) => *r = rate,
            None => self.overrides.push((key, rate)),
        }
    }

    /// The rate of an ordered state pair.
    pub fn rate(&self, initiator: &S, responder: &S) -> u64 {
        self.overrides
            .iter()
            .find(|((a, b), _)| a == initiator && b == responder)
            .map(|&(_, r)| r)
            .unwrap_or(self.default)
    }

    /// The overridden ordered pairs and their rates.
    pub fn overrides(&self) -> &[((S, S), u64)] {
        &self.overrides
    }

    /// The largest rate any pair can attain (the rejection-sampling envelope
    /// of the exact engine).
    pub fn max_rate(&self) -> u64 {
        self.overrides.iter().map(|&(_, r)| r).fold(self.default, u64::max)
    }
}

/// [`PairRates`] resolved into a dense state-index space: the internal form
/// the count engines and the model checker store, with overrides sorted for
/// binary search.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct IndexRates {
    default: u64,
    overrides: Vec<(usize, usize, u64)>,
}

impl IndexRates {
    /// Resolves symbolic pair rates through a state-to-index map.
    pub(crate) fn resolve<S>(rates: &PairRates<S>, mut index_of: impl FnMut(&S) -> usize) -> Self {
        let mut overrides: Vec<(usize, usize, u64)> =
            rates.overrides.iter().map(|((a, b), r)| (index_of(a), index_of(b), *r)).collect();
        overrides.sort_unstable_by_key(|&(i, j, _)| (i, j));
        IndexRates { default: rates.default, overrides }
    }

    /// The rate of the ordered index pair `(i, j)`.
    pub(crate) fn rate(&self, i: usize, j: usize) -> u64 {
        match self.overrides.binary_search_by_key(&(i, j), |&(a, b, _)| (a, b)) {
            Ok(pos) => self.overrides[pos].2,
            Err(_) => self.default,
        }
    }

    /// The total pair measure `W(c) = Σ_{ordered agent pairs} rate` over a
    /// count vector: `default · total_pairs`, adjusted by each override's
    /// excess over the default in O(#overrides). Override states beyond the
    /// count table (declared but never observed) hold zero agents and
    /// contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics if the measure overflows `u64` (rates are relative, so scaling
    /// them down never changes the schedule).
    pub(crate) fn total_weight(&self, counts: &[u64], total_pairs: u64) -> u64 {
        let mut w = self.default as i128 * total_pairs as i128;
        for &(i, j, r) in &self.overrides {
            if i >= counts.len() || j >= counts.len() {
                continue;
            }
            let ci = counts[i] as i128;
            let cj = counts[j].saturating_sub((i == j) as u64) as i128;
            w += (r as i128 - self.default as i128) * ci * cj;
        }
        u64::try_from(w).expect("weighted pair measure overflows u64; scale the rates down")
    }
}

/// A static interaction topology for [`InteractionScheduler::GraphRestricted`]:
/// agents are graph vertices and only adjacent agents may interact.
///
/// A topology is a *recipe* parameterized by the population size, so churn
/// can rebuild the concrete [`InteractionGraph`] deterministically whenever
/// the population is resized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// A cycle: agent `i` is adjacent to agents `i ± 1 (mod n)`.
    Ring,
    /// A hub-and-spokes graph: agent `0` is adjacent to everyone else, and
    /// nobody else is adjacent.
    Star,
    /// A uniformly random `degree`-regular graph, deterministic in
    /// `(degree, seed, n)` (configuration model with rejection).
    RandomRegular {
        /// The degree of every vertex; `degree · n` must be even and
        /// `degree < n`.
        degree: usize,
        /// The seed of the graph draw (independent of the run seed, so the
        /// same topology can be fixed across trials).
        seed: u64,
    },
}

impl Topology {
    /// Builds the concrete edge list for a population of `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, or for [`Topology::RandomRegular`] if the degree
    /// sequence is infeasible (`degree == 0`, `degree >= n`, or `degree · n`
    /// odd).
    pub fn build(&self, n: usize) -> InteractionGraph {
        assert!(n >= 2, "a topology needs at least two agents");
        let edges = match *self {
            Topology::Ring => {
                if n == 2 {
                    vec![(0, 1)]
                } else {
                    (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect()
                }
            }
            Topology::Star => (1..n as u32).map(|i| (0, i)).collect(),
            Topology::RandomRegular { degree, seed } => {
                assert!(degree >= 1, "a regular topology needs degree >= 1");
                assert!(degree < n, "degree {degree} needs more than {n} agents");
                assert!((degree * n).is_multiple_of(2), "degree · n must be even");
                random_regular_edges(n, degree, seed)
            }
        };
        InteractionGraph { n, edges }
    }

    /// A short label for tables and error messages.
    pub fn label(&self) -> String {
        match *self {
            Topology::Ring => "ring".to_owned(),
            Topology::Star => "star".to_owned(),
            Topology::RandomRegular { degree, .. } => format!("random-{degree}-regular"),
        }
    }
}

/// Configuration-model draw of a simple `d`-regular graph: pair up `d` stubs
/// per vertex uniformly, retry on self-loops or duplicate edges. For the
/// sparse degrees used here the success probability per attempt is bounded
/// away from zero (asymptotically `e^{-(d²-1)/4}`), so a bounded retry loop
/// succeeds in practice.
fn random_regular_edges(n: usize, degree: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut stubs: Vec<u32> = Vec::with_capacity(n * degree);
    'attempt: for _ in 0..1_000 {
        stubs.clear();
        for v in 0..n as u32 {
            stubs.extend(std::iter::repeat_n(v, degree));
        }
        // Fisher–Yates shuffle, then read consecutive stub pairs as edges.
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            stubs.swap(i, j);
        }
        let mut seen = std::collections::HashSet::with_capacity(n * degree / 2);
        let mut edges = Vec::with_capacity(n * degree / 2);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            if u == v || !seen.insert((u, v)) {
                continue 'attempt;
            }
            edges.push((u, v));
        }
        return edges;
    }
    panic!("failed to draw a simple {degree}-regular graph on {n} vertices after 1000 attempts");
}

/// A concrete interaction graph: the undirected edge list a
/// [`Topology`] expands to for one population size. The scheduler draws an
/// edge uniformly, then an orientation uniformly, so every ordered adjacent
/// pair is equally likely.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InteractionGraph {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl InteractionGraph {
    /// The population size the graph was built for.
    pub fn population_size(&self) -> usize {
        self.n
    }

    /// The undirected edges of the graph.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }
}

/// The pluggable scheduling strategy: who can interact, and how often.
///
/// See the [module docs](self) for the semantics of each strategy and which
/// engines support it (`Uniform` and `WeightedPairs` everywhere,
/// `GraphRestricted` on the exact engine only, with typed rejection
/// elsewhere).
#[derive(Clone, PartialEq, Debug)]
pub enum InteractionScheduler<S> {
    /// The paper's uniformly random scheduler. Trajectory-preserving: a
    /// `Uniform` run reproduces the exact pre-layer execution of the same
    /// seed on every engine.
    Uniform,
    /// Ordered state pairs interact proportionally to [`PairRates`].
    WeightedPairs(PairRates<S>),
    /// Only pairs adjacent in the [`Topology`] interact, uniformly over
    /// ordered adjacent pairs.
    GraphRestricted(Topology),
}

impl<S> InteractionScheduler<S> {
    /// Whether the strategy's pair measure depends only on the two states
    /// (never on agent identities), which is what the count engines and the
    /// model checker require.
    pub fn is_exchangeable(&self) -> bool {
        !matches!(self, InteractionScheduler::GraphRestricted(_))
    }

    /// A short label for tables and error messages.
    pub fn label(&self) -> String {
        match self {
            InteractionScheduler::Uniform => "uniform".to_owned(),
            InteractionScheduler::WeightedPairs(_) => "weighted".to_owned(),
            InteractionScheduler::GraphRestricted(t) => t.label(),
        }
    }
}

/// The seeded pair source: at each step it selects an ordered pair of
/// distinct agents uniformly at random among the `n·(n−1)` possibilities
/// (the exact engine's non-uniform strategies reshape this primitive by
/// rejection or edge draws; the count engines reimplement the measure over
/// state counts).
///
/// The scheduler owns a seeded [`ChaCha8Rng`] so executions are reproducible
/// from the seed alone; the same generator is passed to the protocol's
/// transition function for its internal randomness.
///
/// # Example
///
/// ```
/// use ppsim::Scheduler;
/// let mut s1 = Scheduler::new(10, 42);
/// let mut s2 = Scheduler::new(10, 42);
/// for _ in 0..100 {
///     assert_eq!(s1.next_pair(), s2.next_pair());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Scheduler {
    n: usize,
    rng: ChaCha8Rng,
    steps: u64,
    rejections: u64,
}

impl Scheduler {
    /// Creates a scheduler for a population of size `n`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`: no interaction is possible in a smaller population.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "population size must be at least 2");
        Scheduler { n, rng: ChaCha8Rng::seed_from_u64(seed), steps: 0, rejections: 0 }
    }

    /// The population size.
    pub fn population_size(&self) -> usize {
        self.n
    }

    /// Resizes the population (for churn), keeping the generator state.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn resize(&mut self, n: usize) {
        assert!(n >= 2, "population size must be at least 2");
        self.n = n;
    }

    /// How many pairs have been drawn so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// How many weighted draws were rejected by the envelope sampler (the
    /// `engine.scheduler_rejections` telemetry counter; always zero for the
    /// uniform and graph strategies).
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Draws the next uniformly random ordered pair of distinct agents.
    pub fn next_pair(&mut self) -> OrderedPair {
        self.steps += 1;
        let a = self.rng.gen_range(0..self.n);
        let mut b = self.rng.gen_range(0..self.n - 1);
        if b >= a {
            b += 1;
        }
        OrderedPair { initiator: AgentId::new(a), responder: AgentId::new(b) }
    }

    /// Draws both the pair and returns a mutable borrow of the generator in a
    /// single call, so transition randomness and scheduling randomness share
    /// one stream.
    pub fn next_pair_with_rng(&mut self) -> (OrderedPair, &mut dyn RngCore) {
        self.steps += 1;
        let a = self.rng.gen_range(0..self.n);
        let mut b = self.rng.gen_range(0..self.n - 1);
        if b >= a {
            b += 1;
        }
        (OrderedPair { initiator: AgentId::new(a), responder: AgentId::new(b) }, &mut self.rng)
    }

    /// Draws an ordered pair with probability proportional to
    /// `rate_of(initiator, responder)` by rejection against the `max_rate`
    /// envelope: a uniform pair draw, accepted with probability
    /// `rate / max_rate` (the [`InteractionScheduler::WeightedPairs`]
    /// primitive on the exact engine). Rejected draws consume scheduler
    /// steps but are *not* interactions — the accepted draw is exactly one
    /// draw from the weighted pair law, matching the count engines.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate == 0`, or if ~16 million consecutive draws are
    /// rejected — the configuration then admits no positive-rate pair
    /// (scheduler-relative silence), which callers must detect with the
    /// silence check instead of stepping.
    pub fn next_weighted_pair(
        &mut self,
        max_rate: u64,
        mut rate_of: impl FnMut(AgentId, AgentId) -> u64,
    ) -> (OrderedPair, &mut dyn RngCore) {
        assert!(max_rate > 0, "a weighted scheduler needs a positive maximum rate");
        for _ in 0..(1u64 << 24) {
            self.steps += 1;
            let a = self.rng.gen_range(0..self.n);
            let mut b = self.rng.gen_range(0..self.n - 1);
            if b >= a {
                b += 1;
            }
            let (ia, ib) = (AgentId::new(a), AgentId::new(b));
            let r = rate_of(ia, ib);
            if r >= max_rate || (r > 0 && self.rng.gen_range(0..max_rate) < r) {
                return (OrderedPair { initiator: ia, responder: ib }, &mut self.rng);
            }
            self.rejections += 1;
        }
        panic!(
            "no pair accepted after 2^24 weighted draws: the configuration admits no \
             positive-rate pair (scheduler-relative silence); check silence before stepping"
        );
    }

    /// Draws a uniformly random ordered pair among the orientations of the
    /// given undirected edges (the [`InteractionScheduler::GraphRestricted`]
    /// primitive).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty.
    pub fn next_pair_from_edges(
        &mut self,
        edges: &[(u32, u32)],
    ) -> (OrderedPair, &mut dyn RngCore) {
        assert!(!edges.is_empty(), "a graph scheduler needs at least one edge");
        self.steps += 1;
        let (u, v) = edges[self.rng.gen_range(0..edges.len())];
        let (initiator, responder) = if self.rng.gen_range(0..2u32) == 0 { (u, v) } else { (v, u) };
        (
            OrderedPair {
                initiator: AgentId::new(initiator as usize),
                responder: AgentId::new(responder as usize),
            },
            &mut self.rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_population_rejected() {
        let _ = Scheduler::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "cannot interact with itself")]
    fn self_pair_rejected() {
        let _ = OrderedPair::new(AgentId::new(1), AgentId::new(1));
    }

    #[test]
    fn pairs_are_distinct_agents() {
        let mut s = Scheduler::new(5, 7);
        for _ in 0..10_000 {
            let p = s.next_pair();
            assert_ne!(p.initiator, p.responder);
            assert!(p.initiator.index() < 5);
            assert!(p.responder.index() < 5);
        }
        assert_eq!(s.steps(), 10_000);
    }

    #[test]
    fn pairs_are_roughly_uniform() {
        // With n = 4 there are 12 ordered pairs; draw many and check each is
        // within a generous tolerance of the expected frequency.
        let mut s = Scheduler::new(4, 123);
        let draws = 120_000;
        let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
        for _ in 0..draws {
            let p = s.next_pair();
            *counts.entry((p.initiator.index(), p.responder.index())).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 12);
        let expected = draws as f64 / 12.0;
        for (&pair, &count) in &counts {
            let deviation = (count as f64 - expected).abs() / expected;
            assert!(
                deviation < 0.05,
                "pair {pair:?} occurred {count} times, expected about {expected}"
            );
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Scheduler::new(20, 99);
        let mut b = Scheduler::new(20, 99);
        let seq_a: Vec<_> = (0..50).map(|_| a.next_pair()).collect();
        let seq_b: Vec<_> = (0..50).map(|_| b.next_pair()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Scheduler::new(20, 1);
        let mut b = Scheduler::new(20, 2);
        let seq_a: Vec<_> = (0..50).map(|_| a.next_pair()).collect();
        let seq_b: Vec<_> = (0..50).map(|_| b.next_pair()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn resize_keeps_the_stream_reproducible() {
        let mut a = Scheduler::new(20, 5);
        let mut b = Scheduler::new(20, 5);
        let _ = a.next_pair();
        let _ = b.next_pair();
        a.resize(10);
        b.resize(10);
        for _ in 0..100 {
            let (pa, pb) = (a.next_pair(), b.next_pair());
            assert_eq!(pa, pb);
            assert!(pa.initiator.index() < 10 && pa.responder.index() < 10);
        }
    }

    #[test]
    fn pair_rates_default_override_and_max() {
        let r = PairRates::new(2)
            .with_rate('a', 'b', 7)
            .with_symmetric_rate('b', 'c', 0)
            .with_rate('a', 'b', 5); // second override replaces the first
        assert_eq!(r.rate(&'a', &'b'), 5);
        assert_eq!(r.rate(&'b', &'a'), 2);
        assert_eq!(r.rate(&'b', &'c'), 0);
        assert_eq!(r.rate(&'c', &'b'), 0);
        assert_eq!(r.rate(&'x', &'y'), 2);
        assert_eq!(r.max_rate(), 5);
        assert_eq!(r.overrides().len(), 3);
    }

    #[test]
    fn ring_topology_edges() {
        let g = Topology::Ring.build(5);
        assert_eq!(g.edges().len(), 5);
        assert_eq!(g.population_size(), 5);
        // Every vertex appears in exactly two edges.
        let mut deg = [0usize; 5];
        for &(u, v) in g.edges() {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        assert!(deg.iter().all(|&d| d == 2));
        // The degenerate two-agent ring is a single edge, not a double one.
        assert_eq!(Topology::Ring.build(2).edges(), &[(0, 1)]);
    }

    #[test]
    fn star_topology_edges() {
        let g = Topology::Star.build(6);
        assert_eq!(g.edges().len(), 5);
        assert!(g.edges().iter().all(|&(u, _)| u == 0));
    }

    #[test]
    fn random_regular_topology_is_simple_regular_and_deterministic() {
        let t = Topology::RandomRegular { degree: 4, seed: 11 };
        let g = t.build(30);
        assert_eq!(g.edges().len(), 30 * 4 / 2);
        let mut deg = vec![0usize; 30];
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in g.edges() {
            assert_ne!(u, v, "self-loop");
            assert!(seen.insert((u.min(v), u.max(v))), "duplicate edge");
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        assert!(deg.iter().all(|&d| d == 4));
        assert_eq!(t.build(30), g, "same (degree, seed, n) gives the same graph");
        assert_ne!(Topology::RandomRegular { degree: 4, seed: 12 }.build(30), g);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_regular_degree_sequence_rejected() {
        let _ = Topology::RandomRegular { degree: 3, seed: 0 }.build(5);
    }

    #[test]
    fn edge_draws_cover_both_orientations_uniformly() {
        let g = Topology::Ring.build(4);
        let mut s = Scheduler::new(4, 3);
        let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
        let draws = 80_000;
        for _ in 0..draws {
            let (p, _) = s.next_pair_from_edges(g.edges());
            *counts.entry((p.initiator.index(), p.responder.index())).or_insert(0) += 1;
        }
        // 4 edges × 2 orientations = 8 ordered pairs; (0, 2) is not adjacent.
        assert_eq!(counts.len(), 8);
        assert!(!counts.contains_key(&(0, 2)));
        let expected = draws as f64 / 8.0;
        for (&pair, &count) in &counts {
            let deviation = (count as f64 - expected).abs() / expected;
            assert!(deviation < 0.05, "pair {pair:?}: {count} draws, expected {expected}");
        }
    }

    #[test]
    fn scheduler_labels_and_exchangeability() {
        let u: InteractionScheduler<u8> = InteractionScheduler::Uniform;
        assert_eq!(u.label(), "uniform");
        assert!(u.is_exchangeable());
        let w = InteractionScheduler::WeightedPairs(PairRates::new(1).with_rate(0u8, 1u8, 3));
        assert_eq!(w.label(), "weighted");
        assert!(w.is_exchangeable());
        let g: InteractionScheduler<u8> = InteractionScheduler::GraphRestricted(Topology::Ring);
        assert_eq!(g.label(), "ring");
        assert!(!g.is_exchangeable());
    }
}
