//! Single-execution simulation: the step loop, stop conditions, and
//! convergence / silence detection.

use std::collections::HashMap;

use crate::agent::AgentId;
use crate::config::Configuration;
use crate::error::SimError;
use crate::protocol::Protocol;
use crate::sampling::sample_distinct_indices;
use crate::scheduler::{
    InteractionGraph, InteractionScheduler, OrderedPair, PairRates, Scheduler, Topology,
};
use crate::telemetry::{Counter, CounterBlock, Probe, Recorder, TelemetrySink};
use crate::time::{Interactions, ParallelTime};

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The caller-supplied condition became true.
    ConditionMet,
    /// The configuration became silent: no pair of present states has a
    /// non-null transition.
    Silent,
    /// The interaction budget ran out first.
    BudgetExhausted,
}

/// The result of [`Simulation::run_until`] and [`Simulation::run_until_silent`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub reason: StopReason,
    /// The interaction count (cumulative over the simulation's lifetime) at
    /// which the run's outcome was established. For [`StopReason::Silent`]
    /// this is the **exact** silence point: the last interaction that changed
    /// the configuration (the configuration has been silent ever since). For
    /// the other reasons it is the total executed when the run stopped.
    pub interactions: Interactions,
}

impl RunOutcome {
    /// Whether the run stopped because the goal condition was met.
    pub fn condition_met(&self) -> bool {
        self.reason == StopReason::ConditionMet
    }

    /// Whether the run stopped in a silent configuration.
    pub fn is_silent(&self) -> bool {
        self.reason == StopReason::Silent
    }

    /// Whether the run exhausted its budget.
    pub fn budget_exhausted(&self) -> bool {
        self.reason == StopReason::BudgetExhausted
    }
}

/// The exact engine's resolved scheduling strategy: the per-step sampling
/// machinery an [`InteractionScheduler`] expands to when agent identities
/// are available.
#[derive(Clone, Debug)]
enum ExactStrategy<S> {
    /// The paper's uniform pair draw, byte-for-byte the pre-layer behavior.
    Uniform,
    /// Rejection sampling against the maximum-rate envelope.
    Weighted { rates: PairRates<S>, max: u64 },
    /// A uniform edge-and-orientation draw; the topology recipe is kept so
    /// churn can rebuild the graph at the new population size.
    Graph { topology: Topology, graph: InteractionGraph },
}

/// A single execution of a population protocol under a pluggable interaction
/// scheduler — the paper's uniformly random scheduler by default
/// ([`Simulation::new`]), or any [`InteractionScheduler`] strategy via
/// [`Simulation::new_scheduled`]. The exact engine tracks agent identities,
/// so it is the only engine that supports every strategy, including the
/// identity-based [`InteractionScheduler::GraphRestricted`].
///
/// The simulation owns the protocol instance, the current configuration, and
/// a seeded scheduler; all randomness (scheduling and transition randomness)
/// flows from the seed, so executions are reproducible.
///
/// See the crate-level documentation for a complete example.
#[derive(Clone, Debug)]
pub struct Simulation<P: Protocol> {
    protocol: P,
    config: Configuration<P::State>,
    scheduler: Scheduler,
    strategy: ExactStrategy<P::State>,
    interactions: Interactions,
    /// Interaction count right after the configuration last changed (by a
    /// state-changing step, [`Simulation::set_configuration`] or
    /// [`Simulation::corrupt`]); the exact silence point once silence holds.
    last_change: Interactions,
    counters: CounterBlock,
    telemetry: TelemetrySink,
}

impl<P: Protocol> Simulation<P> {
    /// Creates a simulation from a protocol, an initial configuration and an
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size does not match the protocol's declared
    /// population size, or if the population has fewer than two agents. Use
    /// [`Simulation::try_new`] for a non-panicking constructor.
    pub fn new(protocol: P, config: Configuration<P::State>, seed: u64) -> Self {
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
    pub fn try_new(
        protocol: P,
        config: Configuration<P::State>,
        seed: u64,
    ) -> Result<Self, SimError> {
        Self::try_new_scheduled(protocol, config, seed, &InteractionScheduler::Uniform)
    }

    /// Creates a simulation running under the given scheduling strategy
    /// (panicking counterpart of [`Simulation::try_new_scheduled`]).
    ///
    /// # Panics
    ///
    /// Panics on the errors of [`Simulation::try_new_scheduled`], or if a
    /// [`Topology`] recipe is infeasible for the population size.
    pub fn new_scheduled(
        protocol: P,
        config: Configuration<P::State>,
        seed: u64,
        scheduler: &InteractionScheduler<P::State>,
    ) -> Self {
        Self::try_new_scheduled(protocol, config, seed, scheduler)
            .expect("invalid simulation setup")
    }

    /// Creates a simulation running under the given scheduling strategy.
    /// [`InteractionScheduler::Uniform`] reproduces [`Simulation::try_new`]
    /// exactly (same seed ⇒ same trajectory).
    ///
    /// # Errors
    ///
    /// The errors of [`Simulation::try_new`], plus
    /// [`SimError::ZeroRateScheduler`] if a weighted scheduler has no
    /// positive rate.
    ///
    /// # Panics
    ///
    /// Panics if a [`Topology`] recipe is infeasible for the population size
    /// (e.g. a random-regular degree of the wrong parity).
    pub fn try_new_scheduled(
        protocol: P,
        config: Configuration<P::State>,
        seed: u64,
        scheduler: &InteractionScheduler<P::State>,
    ) -> Result<Self, SimError> {
        let n = protocol.population_size();
        if config.len() != n {
            return Err(SimError::ConfigurationSizeMismatch { expected: n, actual: config.len() });
        }
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        let strategy = match scheduler {
            InteractionScheduler::Uniform => ExactStrategy::Uniform,
            InteractionScheduler::WeightedPairs(rates) => {
                let max = rates.max_rate();
                if max == 0 {
                    return Err(SimError::ZeroRateScheduler);
                }
                ExactStrategy::Weighted { rates: rates.clone(), max }
            }
            InteractionScheduler::GraphRestricted(topology) => {
                ExactStrategy::Graph { topology: *topology, graph: topology.build(n) }
            }
        };
        Ok(Simulation {
            protocol,
            config,
            scheduler: Scheduler::new(n, seed),
            strategy,
            interactions: Interactions::ZERO,
            last_change: Interactions::ZERO,
            counters: CounterBlock::default(),
            telemetry: TelemetrySink::Noop,
        })
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration.
    pub fn configuration(&self) -> &Configuration<P::State> {
        &self.config
    }

    /// Replaces the current configuration, e.g. to inject transient faults in
    /// self-stabilization experiments.
    ///
    /// # Panics
    ///
    /// Panics if the new configuration's size differs from the population size.
    pub fn set_configuration(&mut self, config: Configuration<P::State>) {
        assert_eq!(
            config.len(),
            self.config.len(),
            "replacement configuration must keep the population size"
        );
        self.config = config;
        self.last_change = self.interactions;
    }

    /// Applies an arbitrary corruption to the current configuration in place,
    /// modelling transient memory faults.
    pub fn corrupt(&mut self, f: impl FnMut(usize, &mut P::State)) {
        self.config.map_in_place(f);
        self.last_change = self.interactions;
    }

    /// Applies one fault burst: chooses `states.len()` **distinct** agents
    /// uniformly at random and forces the `i`-th chosen agent into
    /// `states[i]`, restarting the silence clock at the current interaction
    /// count (see [`crate::faults`]).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` exceeds the population size.
    pub fn inject_states(&mut self, states: &[P::State], rng: &mut impl rand::Rng) {
        let n = self.config.len();
        let k = states.len();
        assert!(k <= n, "cannot corrupt more agents than the population holds");
        let victims = sample_distinct_indices(n, k, rng);
        for (v, s) in victims.into_iter().zip(states) {
            self.config.set(AgentId::new(v), s.clone());
        }
        self.last_change = self.interactions;
    }

    /// Adds one agent per state in `states` (population churn: joins),
    /// restarting the silence clock. Under a graph-restricted strategy the
    /// interaction topology is rebuilt from its recipe at the new size.
    pub fn join(&mut self, states: &[P::State]) {
        if states.is_empty() {
            return;
        }
        for s in states {
            self.config.push(s.clone());
        }
        self.resize_scheduler();
        self.last_change = self.interactions;
    }

    /// Removes `k` distinct agents chosen uniformly at random (population
    /// churn: departures), restarting the silence clock. Under a
    /// graph-restricted strategy the interaction topology is rebuilt from
    /// its recipe at the new size.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents would remain.
    pub fn leave(&mut self, k: usize, rng: &mut impl rand::Rng) {
        if k == 0 {
            return;
        }
        let n = self.config.len();
        assert!(n >= k + 2, "churn departures must leave at least two agents");
        let mut victims = sample_distinct_indices(n, k, rng);
        // Remove from the highest index down so swap_remove never disturbs a
        // still-pending victim.
        victims.sort_unstable_by(|a, b| b.cmp(a));
        for v in victims {
            self.config.swap_remove(AgentId::new(v));
        }
        self.resize_scheduler();
        self.last_change = self.interactions;
    }

    fn resize_scheduler(&mut self) {
        let n = self.config.len();
        self.scheduler.resize(n);
        if let ExactStrategy::Graph { topology, graph } = &mut self.strategy {
            *graph = topology.build(n);
        }
    }

    /// Total interactions executed so far.
    pub fn interactions(&self) -> Interactions {
        self.interactions
    }

    /// The interaction count right after the configuration last changed
    /// (zero if it never has). Once the configuration is silent, this is the
    /// exact silence point reported by [`Simulation::run_until_silent`].
    pub fn last_change(&self) -> Interactions {
        self.last_change
    }

    /// Total parallel time elapsed so far, relative to the **current**
    /// population size (which churn can change mid-run).
    pub fn parallel_time(&self) -> ParallelTime {
        self.interactions.to_parallel_time(self.config.len())
    }

    /// The current population size ([`Protocol::population_size`] at
    /// construction; churn joins and departures move it).
    pub fn population_size(&self) -> usize {
        self.config.len()
    }

    /// A snapshot of the unified telemetry counter registry for this run
    /// (see [`crate::telemetry`]): transitions applied, silence checks,
    /// and — for a weighted strategy — envelope rejections.
    pub fn counters(&self) -> CounterBlock {
        let mut block = self.counters;
        block.set(Counter::SchedulerRejections, self.scheduler.rejections());
        block
    }

    /// Adds `by` events to the registry (the drivers' accounting hook).
    pub(crate) fn add_counter(&mut self, counter: Counter, by: u64) {
        self.counters.add(counter, by);
    }

    /// Attaches a probe/span [`Recorder`]; until detached, the stop loop
    /// records log-spaced convergence checkpoints and silence-check spans.
    pub fn attach_telemetry(&mut self, recorder: Recorder) {
        self.telemetry.attach(recorder);
    }

    /// Detaches the recorder (if one is attached), restoring the zero-cost
    /// no-op sink.
    pub fn take_telemetry(&mut self) -> Option<Recorder> {
        self.telemetry.take()
    }

    /// The active-pair mass of the current configuration: the number of
    /// ordered agent pairs the scheduling strategy can draw whose transition
    /// is non-null (for a weighted strategy, also positive-rate). Zero
    /// exactly when the configuration is silent — the quantity convergence
    /// probes track as it drains.
    pub fn active_pair_mass(&self) -> u64 {
        self.scan(true).mass
    }

    /// Whether the current configuration is silent **relative to the
    /// scheduling strategy**: every ordered pair the scheduler can draw
    /// admits only null transitions, per the protocol's
    /// [`Protocol::is_null`]. Under the uniform scheduler that is the
    /// paper's silence; a weighted scheduler excludes rate-`0` pairs, and a
    /// graph-restricted scheduler checks only adjacent pairs.
    ///
    /// The uniform and weighted checks run over distinct states rather than
    /// agents, so they are cheap when few distinct states are present; the
    /// graph check runs over the edges.
    pub fn is_silent(&self) -> bool {
        self.scan(false).mass == 0
    }

    /// The one pass over the pairs the strategy can draw, behind silence
    /// checks and probes alike. A `full` pass sums the whole active-pair
    /// mass and counts the distinct states; otherwise the pass stops at the
    /// first active pair, so `mass > 0` exactly when the configuration is
    /// not silent.
    ///
    /// Under the exchangeable strategies the pass runs over the distinct
    /// states, borrowed in first-seen agent order (so its cost, and with it
    /// the silence-check schedule, is a function of the configuration
    /// alone): first each state held twice or more against itself, then
    /// both orders of each pair of distinct states together. Same-state
    /// pairs go first because they cost one query per state, which keeps a
    /// failed check cheap when a lone duplicate is all that is active.
    fn scan(&self, full: bool) -> PairScan {
        let config = &self.config;
        let null = |s: &P::State, t: &P::State| self.protocol.is_null(s, t);
        let mut scan = PairScan::default();
        let distinct_states = || {
            let mut slot: HashMap<&P::State, usize> = HashMap::with_capacity(config.len());
            let mut present: Vec<(&P::State, u64)> = Vec::new();
            for s in config.iter() {
                let i = *slot.entry(s).or_insert_with(|| {
                    present.push((s, 0));
                    present.len() - 1
                });
                present[i].1 += 1;
            }
            present
        };
        let rates = match &self.strategy {
            ExactStrategy::Graph { graph, .. } => {
                for &(u, v) in graph.edges() {
                    let su = config.state(AgentId::new(u as usize));
                    let sv = config.state(AgentId::new(v as usize));
                    scan.cost += 1;
                    scan.mass += u64::from(!null(su, sv)) + u64::from(!null(sv, su));
                    if !full && scan.mass > 0 {
                        return scan;
                    }
                }
                if full {
                    scan.distinct = distinct_states().len() as u64;
                }
                return scan;
            }
            ExactStrategy::Weighted { rates, .. } => Some(rates),
            ExactStrategy::Uniform => None,
        };
        let active = |s: &P::State, t: &P::State| -> bool {
            !null(s, t) && rates.is_none_or(|r| r.rate(s, t) > 0)
        };
        let present = distinct_states();
        scan.distinct = present.len() as u64;
        scan.cost = config.len() as u64;
        for &(s, c) in present.iter().filter(|&&(_, c)| c >= 2) {
            scan.cost += 1;
            scan.mass += c * (c - 1) * u64::from(active(s, s));
            if !full && scan.mass > 0 {
                return scan;
            }
        }
        for (i, &(s, cs)) in present.iter().enumerate() {
            for &(t, ct) in &present[i + 1..] {
                scan.cost += 2;
                scan.mass += cs * ct * (u64::from(active(s, t)) + u64::from(active(t, s)));
                if !full && scan.mass > 0 {
                    return scan;
                }
            }
        }
        scan
    }

    fn record_probe_now(&mut self) {
        let scan = self.scan(true);
        let probe = Probe {
            interactions: self.interactions.count(),
            active_pairs: scan.mass,
            distinct_states: scan.distinct,
            transitions: self.counters.get(Counter::Transitions),
            population: self.config.len() as u64,
        };
        self.telemetry.record_probe(probe);
    }

    /// Executes one interaction: draws an ordered pair from the scheduling
    /// strategy and applies the transition function to the two agents in
    /// place ([`Protocol::transition_in_place`]), returning the scheduled
    /// pair.
    pub fn step(&mut self) -> OrderedPair {
        let Simulation { protocol, config, scheduler, strategy, .. } = self;
        let (pair, rng) = match strategy {
            ExactStrategy::Uniform => scheduler.next_pair_with_rng(),
            ExactStrategy::Weighted { rates, max } => scheduler
                .next_weighted_pair(*max, |a, b| rates.rate(config.state(a), config.state(b))),
            ExactStrategy::Graph { graph, .. } => scheduler.next_pair_from_edges(graph.edges()),
        };
        let (a, b) = config.pair_mut(pair.initiator, pair.responder);
        let changed = protocol.transition_in_place(a, b, rng);
        self.interactions += Interactions::new(1);
        if changed {
            self.last_change = self.interactions;
            self.counters.incr(Counter::Transitions);
        }
        pair
    }

    /// Executes exactly `budget` interactions.
    pub fn run_for(&mut self, budget: u64) {
        for _ in 0..budget {
            self.step();
        }
    }

    /// Runs until `condition` holds for the current configuration (checked
    /// before the first interaction and then every `n/8`), until the
    /// configuration is silent (it can then never change, so the condition
    /// can never start to hold), or until `budget` additional interactions
    /// have been executed. Silence is checked as in
    /// [`Simulation::run_until_silent`].
    pub fn run_until(
        &mut self,
        condition: impl FnMut(&Configuration<P::State>) -> bool,
        budget: u64,
    ) -> RunOutcome {
        self.run_to_stop(Some(condition), budget)
    }

    /// Runs until the configuration is silent or the budget is exhausted.
    ///
    /// Silent configurations can never change again, so for silent protocols
    /// reaching silence witnesses stabilization (convergence time ≤
    /// stabilization time ≤ silence time).
    ///
    /// Silence is checked once before the first interaction, and afterwards
    /// only after `n/8`-interaction chunks that changed nothing: after a
    /// failed check costing `c` (agents scanned plus pair queries made), the
    /// next one waits for `4c` unchanged interactions, so the checks'
    /// agents and queries stay under a quarter of the interactions stepped
    /// (after the first check). The reported silence time is
    /// nevertheless **exact**: silence is *detected* at most `4c + n/4`
    /// interactions late, but it is *reported* at the last interaction that
    /// changed the configuration — the configuration has been silent ever
    /// since, and trailing null interactions cannot have changed it. A
    /// configuration that is already silent executes nothing.
    pub fn run_until_silent(&mut self, budget: u64) -> RunOutcome {
        self.run_to_stop(None::<fn(&Configuration<P::State>) -> bool>, budget)
    }

    /// The one stop loop behind every run: steps in chunks of `n/8`
    /// interactions and stops when `rule` (when given) holds between
    /// chunks, when a silence check passes, or when `budget` further
    /// interactions have been executed. Probes are recorded at their
    /// log-spaced checkpoints between chunks and at a rule or silent stop.
    pub(crate) fn run_to_stop(
        &mut self,
        mut rule: Option<impl FnMut(&Configuration<P::State>) -> bool>,
        budget: u64,
    ) -> RunOutcome {
        let chunk_len = (self.config.len() as u64 / 8).max(1);
        let mut executed = 0u64;
        // Unchanged interactions since the last silence check, and how many
        // must pass before the next one (none before the first).
        let (mut quiet, mut wait) = (0u64, 0u64);
        let (reason, interactions) = loop {
            if rule.as_mut().is_some_and(|rule| rule(&self.config)) {
                break (StopReason::ConditionMet, self.interactions);
            }
            if quiet >= wait {
                self.counters.incr(Counter::SilenceChecks);
                self.telemetry.span_begin("silence.check");
                let scan = self.scan(false);
                self.telemetry.span_end("silence.check");
                if scan.mass == 0 {
                    break (StopReason::Silent, self.last_change);
                }
                (quiet, wait) = (0, QUIET_PER_CHECK_COST * scan.cost);
            }
            if executed >= budget {
                return RunOutcome {
                    reason: StopReason::BudgetExhausted,
                    interactions: self.interactions,
                };
            }
            if self.telemetry.probe_due(self.interactions.count()) {
                self.record_probe_now();
            }
            let chunk = chunk_len.min(budget - executed);
            let before = self.last_change;
            for _ in 0..chunk {
                self.step();
            }
            executed += chunk;
            if self.last_change == before {
                quiet += chunk;
            }
        };
        if self.telemetry.is_recording() {
            self.record_probe_now();
        }
        RunOutcome { reason, interactions }
    }
}

/// Unchanged interactions a run executes per unit of a failed silence
/// check's cost before it checks again.
const QUIET_PER_CHECK_COST: u64 = 4;

/// What one [`Simulation::scan`] found.
#[derive(Default)]
struct PairScan {
    /// Active ordered agent pairs: all of them on a full pass, and nonzero
    /// exactly when one exists on a stop-at-first pass.
    mass: u64,
    /// Distinct states present (counted on full passes).
    distinct: u64,
    /// Agents scanned plus pair queries made.
    cost: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use rand::RngCore;

    /// (L, L) -> (L, F): classic fratricide leader election.
    #[derive(Debug)]
    struct Fratricide {
        n: usize,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum S {
        L,
        F,
    }

    impl Protocol for Fratricide {
        type State = S;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &S, b: &S, _rng: &mut dyn RngCore) -> (S, S) {
            match (a, b) {
                (S::L, S::L) => (S::L, S::F),
                _ => (*a, *b),
            }
        }
        fn is_null(&self, a: &S, b: &S) -> bool {
            !matches!((a, b), (S::L, S::L))
        }
    }

    fn leaders(c: &Configuration<S>) -> usize {
        c.iter().filter(|s| matches!(s, S::L)).count()
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let err = Simulation::try_new(Fratricide { n: 5 }, Configuration::uniform(S::L, 4), 0)
            .unwrap_err();
        assert_eq!(err, SimError::ConfigurationSizeMismatch { expected: 5, actual: 4 });
    }

    #[test]
    fn tiny_population_is_an_error() {
        let err = Simulation::try_new(Fratricide { n: 1 }, Configuration::uniform(S::L, 1), 0)
            .unwrap_err();
        assert_eq!(err, SimError::PopulationTooSmall { n: 1 });
    }

    #[test]
    fn fratricide_reaches_silence_with_one_leader() {
        let mut sim = Simulation::new(Fratricide { n: 40 }, Configuration::uniform(S::L, 40), 3);
        let outcome = sim.run_until_silent(1_000_000);
        assert!(outcome.is_silent());
        assert_eq!(leaders(sim.configuration()), 1);
        assert!(sim.parallel_time().value() > 0.0);
    }

    #[test]
    fn run_until_counts_interactions() {
        let mut sim = Simulation::new(Fratricide { n: 10 }, Configuration::uniform(S::L, 10), 5);
        let outcome = sim.run_until(|c| leaders(c) <= 5, 1_000_000);
        assert!(outcome.condition_met());
        assert_eq!(outcome.interactions, sim.interactions());
        assert!(leaders(sim.configuration()) <= 5);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut sim = Simulation::new(Fratricide { n: 40 }, Configuration::uniform(S::L, 40), 5);
        // Fratricide never eliminates the last leader, so the condition
        // below never holds, and 200 interactions are far too few for the
        // run to fall silent: the budget runs out.
        let outcome = sim.run_until(|c| leaders(c) == 0, 200);
        assert!(outcome.budget_exhausted());
        assert_eq!(sim.interactions().count(), 200);
    }

    #[test]
    fn run_until_stops_at_silence_when_the_condition_cannot_hold() {
        // All followers: silent from the start, and a leader can never
        // appear. The run stops at its first silence check, reporting the
        // exact silence point.
        let mut sim = Simulation::new(Fratricide { n: 10 }, Configuration::uniform(S::F, 10), 5);
        let outcome = sim.run_until(|c| leaders(c) == 1, u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(outcome.interactions, Interactions::ZERO);
        // From all leaders the condition `leaders == 0` never holds either;
        // the run stops at the silence point run_until_silent reports.
        let start = || Simulation::new(Fratricide { n: 40 }, Configuration::uniform(S::L, 40), 7);
        let outcome = start().run_until(|c| leaders(c) == 0, u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(outcome.interactions, start().run_until_silent(u64::MAX >> 8).interactions);
    }

    #[test]
    fn corruption_resets_progress() {
        let mut sim = Simulation::new(Fratricide { n: 20 }, Configuration::uniform(S::L, 20), 7);
        sim.run_until_silent(1_000_000);
        assert_eq!(leaders(sim.configuration()), 1);
        // Adversary flips everyone back to leader.
        sim.corrupt(|_, s| *s = S::L);
        assert_eq!(leaders(sim.configuration()), 20);
        let outcome = sim.run_until_silent(1_000_000);
        assert!(outcome.is_silent());
        assert_eq!(leaders(sim.configuration()), 1);
    }

    #[test]
    fn silence_is_reported_at_the_last_state_changing_interaction() {
        // Replay the same seeded trajectory step by step to find the true
        // last state-changing interaction, then check that run_until_silent
        // reports exactly that point (not the point where a check saw it).
        for seed in [3u64, 7, 11, 42] {
            let n = 40;
            let mut manual =
                Simulation::new(Fratricide { n }, Configuration::uniform(S::L, n), seed);
            let mut last_change = Interactions::ZERO;
            while !manual.is_silent() {
                let before = manual.configuration().clone();
                manual.step();
                if manual.configuration() != &before {
                    last_change = manual.interactions();
                }
            }
            let mut sim = Simulation::new(Fratricide { n }, Configuration::uniform(S::L, n), seed);
            let outcome = sim.run_until_silent(10_000_000);
            assert!(outcome.is_silent());
            assert_eq!(outcome.interactions, last_change, "seed {seed}");
            assert_eq!(sim.last_change(), last_change);
            // The simulation itself steps on until a silence check runs
            // (see `silence_is_detected_within_the_check_schedule`); only
            // the *reported* silence point is exact.
            assert!(sim.interactions() >= outcome.interactions);
        }
    }

    /// Max spreading over `u32`: both agents take the larger value, so a
    /// configuration is silent exactly when every agent agrees.
    #[derive(Debug)]
    struct Max {
        n: usize,
    }

    impl Protocol for Max {
        type State = u32;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &u32, b: &u32, _rng: &mut dyn RngCore) -> (u32, u32) {
            ((*a).max(*b), (*a).max(*b))
        }
        fn is_null(&self, a: &u32, b: &u32) -> bool {
            a == b
        }
    }

    #[test]
    fn silence_is_detected_within_the_check_schedule() {
        // From n distinct values. A failed check scans the n agents,
        // queries each state held twice or more against itself (at most
        // n/2 of them) and stops at its first pair of distinct states (two
        // queries); the next waits for QUIET_PER_CHECK_COST times that cost
        // in unchanged interactions, counted in whole chunks of n/8. So a
        // run executes fewer than that wait plus two chunks past the
        // silence point, however many states it started with.
        for (n, seed) in [(40, 3u64), (250, 7), (1000, 11)] {
            let mut sim = Simulation::new(Max { n }, Configuration::from_fn(n, |i| i as u32), seed);
            let outcome = sim.run_until_silent(u64::MAX >> 8);
            assert!(outcome.is_silent());
            let bound = QUIET_PER_CHECK_COST * (n as u64 * 3 / 2 + 2) + 2 * (n as u64 / 8);
            let past = sim.interactions().count() - outcome.interactions.count();
            assert!(past < bound, "n = {n}: {past} interactions past silence, bound {bound}");
        }
    }

    #[test]
    fn silence_point_survives_trailing_null_interactions() {
        // Run past silence with run_for: the extra null interactions must not
        // move the reported silence point.
        let mut sim = Simulation::new(Fratricide { n: 20 }, Configuration::uniform(S::L, 20), 9);
        let first = sim.run_until_silent(10_000_000);
        assert!(first.is_silent());
        sim.run_for(5_000);
        let again = sim.run_until_silent(10_000_000);
        assert_eq!(again.interactions, first.interactions);
    }

    #[test]
    fn a_run_stopping_where_the_last_one_did_keeps_probe_times_increasing() {
        let mut sim = Simulation::new(Fratricide { n: 20 }, Configuration::uniform(S::L, 20), 9);
        sim.attach_telemetry(Recorder::new());
        assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
        // Already silent: the second run records its stop probe at the
        // first run's stop.
        assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
        let probes = sim.take_telemetry().expect("attached").probes;
        assert!(probes.windows(2).all(|w| w[1].interactions > w[0].interactions));
    }

    #[test]
    fn all_follower_configuration_is_silent_immediately() {
        let mut sim = Simulation::new(Fratricide { n: 10 }, Configuration::uniform(S::F, 10), 1);
        let outcome = sim.run_until_silent(10);
        assert!(outcome.is_silent());
        assert_eq!(sim.interactions(), Interactions::ZERO);
    }

    #[test]
    fn set_configuration_replaces_state() {
        let mut sim = Simulation::new(Fratricide { n: 4 }, Configuration::uniform(S::L, 4), 1);
        sim.set_configuration(Configuration::uniform(S::F, 4));
        assert_eq!(leaders(sim.configuration()), 0);
    }

    #[test]
    fn scheduled_uniform_is_trajectory_preserving() {
        // The layer's core guarantee: an explicit Uniform strategy replays
        // the plain constructor's execution step for step, seed for seed.
        for seed in [3u64, 7, 11, 42] {
            let n = 24;
            let mut plain =
                Simulation::new(Fratricide { n }, Configuration::uniform(S::L, n), seed);
            let mut scheduled = Simulation::new_scheduled(
                Fratricide { n },
                Configuration::uniform(S::L, n),
                seed,
                &InteractionScheduler::Uniform,
            );
            for _ in 0..2_000 {
                assert_eq!(plain.step(), scheduled.step());
                assert_eq!(plain.configuration(), scheduled.configuration());
            }
            assert_eq!(plain.last_change(), scheduled.last_change());
        }
    }

    #[test]
    fn weighted_rate_zero_pairs_do_not_count_against_silence() {
        // Fratricide's only non-null pair is (L, L); rate 0 on it makes every
        // configuration scheduler-relatively silent.
        let rates = PairRates::new(1).with_rate(S::L, S::L, 0);
        let sim = Simulation::new_scheduled(
            Fratricide { n: 6 },
            Configuration::uniform(S::L, 6),
            1,
            &InteractionScheduler::WeightedPairs(rates),
        );
        assert!(sim.is_silent());
        // Under the uniform scheduler the same configuration is active.
        let sim = Simulation::new(Fratricide { n: 6 }, Configuration::uniform(S::L, 6), 1);
        assert!(!sim.is_silent());
    }

    #[test]
    fn all_zero_rates_are_rejected() {
        let err = Simulation::try_new_scheduled(
            Fratricide { n: 4 },
            Configuration::uniform(S::L, 4),
            1,
            &InteractionScheduler::WeightedPairs(PairRates::new(0)),
        )
        .unwrap_err();
        assert_eq!(err, SimError::ZeroRateScheduler);
    }

    #[test]
    fn weighted_runs_still_reach_silence() {
        // Boosting the (L, L) rate only shortens the embedded chain's null
        // stretches; the run must still silence into one leader.
        let rates = PairRates::new(1).with_rate(S::L, S::L, 9);
        let mut sim = Simulation::new_scheduled(
            Fratricide { n: 30 },
            Configuration::uniform(S::L, 30),
            5,
            &InteractionScheduler::WeightedPairs(rates),
        );
        let outcome = sim.run_until_silent(10_000_000);
        assert!(outcome.is_silent());
        assert_eq!(leaders(sim.configuration()), 1);
    }

    #[test]
    fn ring_silence_is_adjacency_relative() {
        // Two leaders on a 4-ring: adjacent -> active, opposite -> silent
        // (they can never meet through the ring's edges).
        let ring = InteractionScheduler::GraphRestricted(Topology::Ring);
        let adjacent = Configuration::from_states(vec![S::L, S::L, S::F, S::F]);
        let sim = Simulation::new_scheduled(Fratricide { n: 4 }, adjacent, 1, &ring);
        assert!(!sim.is_silent());
        let opposite = Configuration::from_states(vec![S::L, S::F, S::L, S::F]);
        let sim = Simulation::new_scheduled(Fratricide { n: 4 }, opposite, 1, &ring);
        assert!(sim.is_silent());
        // The same opposite-leaders configuration is active for the uniform
        // scheduler, which can schedule any pair.
        let sim = Simulation::new(
            Fratricide { n: 4 },
            Configuration::from_states(vec![S::L, S::F, S::L, S::F]),
            1,
        );
        assert!(!sim.is_silent());
    }

    #[test]
    fn ring_runs_only_schedule_adjacent_pairs() {
        let ring = InteractionScheduler::GraphRestricted(Topology::Ring);
        let n = 8;
        let mut sim =
            Simulation::new_scheduled(Fratricide { n }, Configuration::uniform(S::L, n), 2, &ring);
        for _ in 0..5_000 {
            let p = sim.step();
            let (i, j) = (p.initiator.index(), p.responder.index());
            let d = (i + n - j) % n;
            assert!(d == 1 || d == n - 1, "non-adjacent pair ({i}, {j}) scheduled on a ring");
        }
        let outcome = sim.run_until_silent(10_000_000);
        assert!(outcome.is_silent());
        // A ring run of fratricide silences with >= 1 leader; from all
        // leaders elimination proceeds until no two leaders are adjacent.
        assert!(leaders(sim.configuration()) >= 1);
    }

    #[test]
    fn churn_joins_and_departures_resize_the_population() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let mut sim = Simulation::new(Fratricide { n: 10 }, Configuration::uniform(S::L, 10), 3);
        sim.run_until_silent(1_000_000);
        assert_eq!(leaders(sim.configuration()), 1);
        sim.join(&[S::L, S::L, S::L]);
        assert_eq!(sim.population_size(), 13);
        assert!(!sim.is_silent(), "joining leaders must restart the silence clock");
        let outcome = sim.run_until_silent(1_000_000);
        assert!(outcome.is_silent());
        assert_eq!(leaders(sim.configuration()), 1);
        sim.leave(6, &mut rng);
        assert_eq!(sim.population_size(), 7);
        let outcome = sim.run_until_silent(1_000_000);
        assert!(outcome.is_silent());
        assert!(leaders(sim.configuration()) <= 1);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn churn_cannot_empty_the_population() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut sim = Simulation::new(Fratricide { n: 4 }, Configuration::uniform(S::L, 4), 1);
        sim.leave(3, &mut rng);
    }

    #[test]
    fn churn_rebuilds_a_graph_topology_at_the_new_size() {
        let ring = InteractionScheduler::GraphRestricted(Topology::Ring);
        let n = 6;
        let mut sim =
            Simulation::new_scheduled(Fratricide { n }, Configuration::uniform(S::L, n), 4, &ring);
        sim.join(&[S::L, S::L]);
        let m = sim.population_size();
        assert_eq!(m, 8);
        for _ in 0..2_000 {
            let p = sim.step();
            let (i, j) = (p.initiator.index(), p.responder.index());
            assert!(i < m && j < m);
            let d = (i + m - j) % m;
            assert!(d == 1 || d == m - 1, "non-adjacent pair ({i}, {j}) after churn");
        }
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn set_configuration_rejects_wrong_size() {
        let mut sim = Simulation::new(Fratricide { n: 4 }, Configuration::uniform(S::L, 4), 1);
        sim.set_configuration(Configuration::uniform(S::F, 5));
    }
}
