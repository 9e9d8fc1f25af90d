//! Mid-run perturbations: transient-fault injection, the one driver that
//! runs every perturbation stream, and re-stabilization measurement.
//!
//! The paper's headline guarantee is *self-stabilization*: the protocols
//! recover from an **arbitrary transient corruption at any point in the
//! run**, not merely from an adversarial initial configuration (which the
//! [`crate::scenario`] subsystem covers). This module adds the missing axis:
//! a [`FaultPlan`] schedules corruption bursts at chosen interaction indices,
//! every engine can pause at those indices, apply the corruption, and keep
//! running with its silence/null bookkeeping intact, and the driver reports
//! **recovery time** — the exact silence point re-reached after each burst,
//! minus the injection time — which is the quantity the paper's
//! stabilization-time theorems are actually about.
//!
//! To the protocol, a corrupted agent and an agent that joined or left are
//! the same thing: a transient perturbation it must absorb. Fault plans and
//! [`ChurnPlan`](crate::churn::ChurnPlan)s therefore resolve into one event
//! type, [`Perturbation`], and one driver runs the merged stream.
//!
//! # Anatomy of a plan
//!
//! A plan is a [`FaultSchedule`] (one-shot burst, periodic bursts, or
//! Poisson arrivals), a burst size `k`, and a [`CorruptionTarget`] choosing
//! the states the corrupted agents are forced into (a fixed adversary-chosen
//! state, or an independent random draw per agent). [`FaultPlan::resolve`]
//! expands the plan deterministically from a seed into concrete
//! [`PerturbationKind::Corrupt`] events — times plus per-agent target states
//! — so the *same* seeded plan injects the same corruption stream on every
//! engine; only the victim choice below consumes engine-side randomness.
//!
//! # Engine hooks
//!
//! Each engine exposes `inject_states`, `join` and `leave` hooks and
//! implements [`PerturbationHost`]:
//!
//! * [`crate::Simulation`] picks `k` **distinct agents uniformly** and
//!   overwrites their states, restarting the exact-silence clock
//!   (`last_change`) exactly as [`crate::Simulation::corrupt`] does;
//! * [`crate::CountSimulation`] has no agent identities, so it draws `k`
//!   victims **proportionally to the state counts without replacement** —
//!   the count-space image of the same distribution — and applies the burst
//!   as count-table edits routed through the engine's incremental row repair
//!   (`apply_count_deltas`), so affected rows are re-audited incrementally,
//!   never by a full recount.
//!
//! [`run_until_silent_perturbed`] drives any host through one time-ordered
//! stream, segment by segment: run to silence (capped at the next event's
//! index), advance the trailing null interactions to the index, apply the
//! event, repeat. The per-event re-stabilization times fall out of the exact
//! silence points into one [`EventRecord`] log. Fault plans enter a workload
//! through [`crate::RunSpec::faults`], which composes them with churn, the
//! engine choice, the scheduler, and the adversarial initial families.
//!
//! # Example
//!
//! ```
//! use ppsim::prelude::*;
//! use rand::RngCore;
//!
//! /// (L, L) -> (L, F) with L = 0, F = 1.
//! #[derive(Clone, Copy)]
//! struct Frat {
//!     n: usize,
//! }
//! impl Protocol for Frat {
//!     type State = u8;
//!     fn population_size(&self) -> usize {
//!         self.n
//!     }
//!     fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
//!         if *a == 0 && *b == 0 { (0, 1) } else { (*a, *b) }
//!     }
//!     fn is_null(&self, a: &u8, b: &u8) -> bool {
//!         !(*a == 0 && *b == 0)
//!     }
//! }
//! impl EnumerableProtocol for Frat {
//!     fn num_states(&self) -> usize {
//!         2
//!     }
//!     fn state_index(&self, s: &u8) -> usize {
//!         *s as usize
//!     }
//!     fn state_from_index(&self, i: usize) -> u8 {
//!         i as u8
//!     }
//! }
//!
//! // Corrupt 10 agents back into leaders, 2000 interactions into the run.
//! let plan = FaultPlan::one_shot(2_000, 10, CorruptionTarget::Fixed(0u8));
//! let report = RunSpec::new(Frat { n: 50 })
//!     .engine(Engine::Batched)
//!     .init(Configuration::uniform(0u8, 50))
//!     .faults(plan)
//!     .seed(7)
//!     .run_one()
//!     .unwrap();
//! assert!(report.outcome.is_silent());
//! assert_eq!(report.events.len(), 1);
//! assert_eq!(report.events[0].corrupted, 10);
//! // The run re-silenced after the burst; recovery is measured from the
//! // injection, not from the start of the run.
//! let recovery = report.final_restabilization().unwrap();
//! assert!(report.outcome.interactions.count() >= 2_000 + recovery.count());
//! ```

use std::fmt;
use std::sync::Arc;

use rand::{Rng, SeedableRng};

use crate::batched::{CountSimulation, StateIndex};
use crate::config::Configuration;
use crate::execution::{RunOutcome, Simulation};
use crate::protocol::Protocol;
use crate::scenario::{name_salt, ScenarioRng};
use crate::telemetry::{Counter, CounterBlock, Recorder};
use crate::time::Interactions;

/// When the events of a [`FaultPlan`] or a
/// [`ChurnPlan`](crate::churn::ChurnPlan) fire, in absolute interaction
/// indices.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultSchedule {
    /// A single burst at interaction index `at`.
    OneShot {
        /// The interaction index of the burst.
        at: u64,
    },
    /// `bursts` bursts at `start, start + period, start + 2·period, …`.
    Periodic {
        /// The interaction index of the first burst.
        start: u64,
        /// The gap between consecutive bursts (must be positive).
        period: u64,
        /// How many bursts fire in total.
        bursts: u32,
    },
    /// Poisson arrivals: burst gaps drawn i.i.d. from an exponential law
    /// with the given mean, until `horizon` interactions have elapsed.
    Poisson {
        /// Mean gap between consecutive bursts, in interactions.
        mean_gap: u64,
        /// No burst fires at or beyond this interaction index.
        horizon: u64,
    },
}

impl FaultSchedule {
    /// The schedule's part of a plan's default name, e.g. `@500` or
    /// `·gap200·h2000`. The name seeds [`FaultPlan::resolve`], so this
    /// format is part of every pinned trajectory.
    ///
    /// # Panics
    ///
    /// Panics on a zero period or a zero mean gap (events must fire at
    /// distinct indices).
    pub(crate) fn name_suffix(self) -> String {
        match self {
            FaultSchedule::OneShot { at } => format!("@{at}"),
            FaultSchedule::Periodic { start, period, bursts } => {
                assert!(period > 0, "periodic events need a positive period");
                format!("@{start}+i·{period}×{bursts}")
            }
            FaultSchedule::Poisson { mean_gap, horizon } => {
                assert!(mean_gap > 0, "Poisson arrivals need a positive mean gap");
                format!("·gap{mean_gap}·h{horizon}")
            }
        }
    }

    /// Expands the schedule into events in strictly increasing time order:
    /// the event times are drawn first, then `kind` is called once per
    /// event, in time order, with the same RNG.
    pub(crate) fn expand<S>(
        self,
        rng: &mut ScenarioRng,
        mut kind: impl FnMut(&mut ScenarioRng) -> PerturbationKind<S>,
    ) -> Vec<Perturbation<S>> {
        let times: Vec<u64> = match self {
            FaultSchedule::OneShot { at } => vec![at],
            FaultSchedule::Periodic { start, period, bursts } => {
                (0..bursts as u64).map(|i| start + i * period).collect()
            }
            FaultSchedule::Poisson { mean_gap, horizon } => {
                let mut times = Vec::new();
                let mut t = 0u64;
                loop {
                    t = t.saturating_add(sample_exponential_gap(mean_gap, rng));
                    if t >= horizon {
                        break;
                    }
                    times.push(t);
                }
                times
            }
        };
        times.into_iter().map(|at| Perturbation { at, kind: kind(rng) }).collect()
    }
}

/// How the states of the corrupted agents are chosen.
pub enum CorruptionTarget<S> {
    /// Every corrupted agent is forced into the same adversary-chosen state.
    Fixed(S),
    /// Each corrupted agent independently draws its new state.
    Random(Arc<dyn Fn(&mut ScenarioRng) -> S + Send + Sync>),
}

impl<S: Clone> Clone for CorruptionTarget<S> {
    fn clone(&self) -> Self {
        match self {
            CorruptionTarget::Fixed(s) => CorruptionTarget::Fixed(s.clone()),
            CorruptionTarget::Random(f) => CorruptionTarget::Random(Arc::clone(f)),
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for CorruptionTarget<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionTarget::Fixed(s) => f.debug_tuple("Fixed").field(s).finish(),
            CorruptionTarget::Random(_) => f.write_str("Random(..)"),
        }
    }
}

impl<S> CorruptionTarget<S> {
    /// A target drawing each corrupted agent's state independently from `f`.
    pub fn random(f: impl Fn(&mut ScenarioRng) -> S + Send + Sync + 'static) -> Self {
        CorruptionTarget::Random(Arc::new(f))
    }

    /// Draws `count` states under the rule.
    pub(crate) fn draw(&self, count: usize, rng: &mut ScenarioRng) -> Vec<S>
    where
        S: Clone,
    {
        (0..count)
            .map(|_| match self {
                CorruptionTarget::Fixed(s) => s.clone(),
                CorruptionTarget::Random(f) => f(rng),
            })
            .collect()
    }
}

/// A plan of transient corruption bursts: a schedule, a burst size, and a
/// target-state rule. The unit of the mid-run fault-injection experiment
/// axis, the way [`crate::Scenario`] is the unit of the adversarial
/// *initialization* axis.
#[derive(Clone, Debug)]
pub struct FaultPlan<S> {
    name: String,
    schedule: FaultSchedule,
    k: usize,
    target: CorruptionTarget<S>,
}

/// One resolved event of a perturbation stream: the interaction index it
/// fires at and what it does there.
#[derive(Clone, PartialEq, Debug)]
pub struct Perturbation<S> {
    /// Absolute interaction index of the event.
    pub at: u64,
    /// What the event does to the population.
    pub kind: PerturbationKind<S>,
}

/// What a [`Perturbation`] does.
#[derive(Clone, PartialEq, Debug)]
pub enum PerturbationKind<S> {
    /// A corruption burst: one victim per listed state, the `i`-th victim
    /// forced into the `i`-th state.
    Corrupt(Vec<S>),
    /// A churn event: `leaves` departures requested (the driver clamps them
    /// so at least two agents remain), then one agent joins per listed state.
    Resize {
        /// States of the agents joining at this event.
        joins: Vec<S>,
        /// Number of departures requested at this event.
        leaves: usize,
    },
}

impl<S: Clone> FaultPlan<S> {
    /// A plan with `k` corruptions per burst on any schedule, named after
    /// the schedule (the constructors below are its three shapes).
    ///
    /// # Panics
    ///
    /// Panics on a zero period or a zero mean gap (bursts must fire at
    /// distinct indices).
    pub fn new(schedule: FaultSchedule, k: usize, target: CorruptionTarget<S>) -> Self {
        let shape = match schedule {
            FaultSchedule::OneShot { .. } => "one-shot",
            FaultSchedule::Periodic { .. } => "periodic",
            FaultSchedule::Poisson { .. } => "poisson",
        };
        let name = format!("{shape}{}·k{k}", schedule.name_suffix());
        FaultPlan { name, schedule, k, target }
    }

    /// A plan with a single burst of `k` corruptions at interaction `at`.
    pub fn one_shot(at: u64, k: usize, target: CorruptionTarget<S>) -> Self {
        FaultPlan::new(FaultSchedule::OneShot { at }, k, target)
    }

    /// A plan with `bursts` bursts of `k` corruptions, `period` interactions
    /// apart, starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` (bursts must fire at distinct indices).
    pub fn periodic(
        start: u64,
        period: u64,
        bursts: u32,
        k: usize,
        target: CorruptionTarget<S>,
    ) -> Self {
        FaultPlan::new(FaultSchedule::Periodic { start, period, bursts }, k, target)
    }

    /// A plan with Poisson-arrival bursts of `k` corruptions: exponential
    /// gaps of the given mean until `horizon` interactions.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap == 0`.
    pub fn poisson(mean_gap: u64, horizon: u64, k: usize, target: CorruptionTarget<S>) -> Self {
        FaultPlan::new(FaultSchedule::Poisson { mean_gap, horizon }, k, target)
    }

    /// Replaces the auto-generated name (used in experiment tables).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of agents corrupted per burst.
    pub fn burst_size(&self) -> usize {
        self.k
    }

    /// The target-state rule of the plan (used by `mcheck`'s exhaustive
    /// fault-closure check to enumerate every state a burst can force).
    pub fn target(&self) -> &CorruptionTarget<S> {
        &self.target
    }

    /// The schedule of the plan.
    pub fn schedule(&self) -> FaultSchedule {
        self.schedule
    }

    /// Expands the plan into concrete [`PerturbationKind::Corrupt`] events
    /// for a trial seed: burst times in strictly increasing order, each with
    /// its `k` target states.
    ///
    /// Deterministic in `(plan, seed)` and independent of the engine: the RNG
    /// is seeded from the seed and the plan's name, so the same seeded plan
    /// produces the identical corruption stream on every engine and state
    /// index (only the victim draw is engine-side).
    pub fn resolve(&self, seed: u64) -> Vec<Perturbation<S>> {
        let mut rng = ScenarioRng::seed_from_u64(seed ^ name_salt(&self.name) ^ FAULT_PLAN_SALT);
        self.schedule
            .expand(&mut rng, |rng| PerturbationKind::Corrupt(self.target.draw(self.k, rng)))
    }
}

const FAULT_PLAN_SALT: u64 = 0xFA01_75A1;
pub(crate) const VICTIM_SALT: u64 = 0x7_1C71_C71C;

/// A positive exponential gap with the given mean, drawn by inversion
/// (rounded up, so consecutive events never share an interaction index).
fn sample_exponential_gap(mean: u64, rng: &mut impl Rng) -> u64 {
    // u ∈ (0, 1]: ln is finite, and u = 1 maps to the minimal gap of 1.
    let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    let gap = (-u.ln() * mean as f64).ceil();
    if gap.is_finite() && gap >= 1.0 && gap < u64::MAX as f64 {
        gap as u64
    } else {
        1
    }
}

/// A run's optional stop rule over the configuration (see
/// [`crate::RunSpec::until`]); `None` stops on silence.
type StopRule<'a, S> = Option<&'a (dyn Fn(&Configuration<S>) -> bool + 'a)>;

/// The engine-side surface the perturbation driver needs: every simulation
/// backend that can pause at an interaction index, apply a corruption burst
/// or a resize, and resume implements this. Both engines do
/// ([`Simulation`] and [`CountSimulation`] over either state index).
pub trait PerturbationHost {
    /// The protocol state type.
    type State;

    /// Total interactions executed so far.
    fn interactions_so_far(&self) -> Interactions;

    /// Runs until silence, until `stop` (when given) holds, or for `budget`
    /// further interactions; for silence the reported interaction count
    /// must be the exact silence point.
    fn run_to_silence(&mut self, budget: u64, stop: StopRule<'_, Self::State>) -> RunOutcome;

    /// Executes exactly `budget` further interactions (null ones included).
    fn advance(&mut self, budget: u64);

    /// Applies one corruption burst: `states.len()` victims drawn uniformly
    /// over agents (or ∝ counts without replacement in count space), the
    /// `i`-th victim forced into `states[i]`.
    fn inject(&mut self, states: &[Self::State], rng: &mut ScenarioRng);

    /// The current population size.
    fn population(&self) -> usize;

    /// Appends one agent per state; the exact engine also rebuilds its
    /// scheduling topology at the new size.
    fn join(&mut self, states: &[Self::State]);

    /// Removes `k` agents drawn uniformly over agents (or ∝ counts without
    /// replacement in count space).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents would remain (the driver clamps).
    fn leave(&mut self, k: usize, rng: &mut ScenarioRng);

    /// Adds `by` events to the host's unified telemetry registry (see
    /// [`crate::telemetry`]); the driver accounts bursts and membership
    /// changes through this hook.
    fn record_counter(&mut self, counter: Counter, by: u64);

    /// A snapshot of the host's telemetry counter registry.
    fn counters(&self) -> CounterBlock;

    /// Attaches a probe/span [`Recorder`] to the host.
    fn attach_telemetry(&mut self, recorder: Recorder);

    /// Detaches the host's recorder, if any.
    fn take_telemetry(&mut self) -> Option<Recorder>;
}

impl<P: Protocol> PerturbationHost for Simulation<P> {
    type State = P::State;

    fn interactions_so_far(&self) -> Interactions {
        self.interactions()
    }

    fn run_to_silence(&mut self, budget: u64, stop: StopRule<'_, Self::State>) -> RunOutcome {
        self.run_to_stop(stop, budget)
    }

    fn advance(&mut self, budget: u64) {
        self.run_for(budget);
    }

    fn inject(&mut self, states: &[Self::State], rng: &mut ScenarioRng) {
        self.inject_states(states, rng);
    }

    fn population(&self) -> usize {
        self.population_size()
    }

    fn join(&mut self, states: &[Self::State]) {
        Simulation::join(self, states);
    }

    fn leave(&mut self, k: usize, rng: &mut ScenarioRng) {
        Simulation::leave(self, k, rng);
    }

    fn record_counter(&mut self, counter: Counter, by: u64) {
        self.add_counter(counter, by);
    }

    fn counters(&self) -> CounterBlock {
        self.counters()
    }

    fn attach_telemetry(&mut self, recorder: Recorder) {
        self.attach_telemetry(recorder);
    }

    fn take_telemetry(&mut self) -> Option<Recorder> {
        self.take_telemetry()
    }
}

impl<P: Protocol, X: StateIndex<P>> PerturbationHost for CountSimulation<P, X> {
    type State = P::State;

    fn interactions_so_far(&self) -> Interactions {
        self.interactions()
    }

    fn run_to_silence(&mut self, budget: u64, stop: StopRule<'_, Self::State>) -> RunOutcome {
        self.run_to_stop(stop.map(|stop| move |sim: &Self| stop(&sim.to_configuration())), budget)
    }

    fn advance(&mut self, budget: u64) {
        self.run_for(budget);
    }

    fn inject(&mut self, states: &[Self::State], rng: &mut ScenarioRng) {
        self.inject_states(states, rng);
    }

    fn population(&self) -> usize {
        self.population_size()
    }

    fn join(&mut self, states: &[Self::State]) {
        CountSimulation::join(self, states);
    }

    fn leave(&mut self, k: usize, rng: &mut ScenarioRng) {
        CountSimulation::leave(self, k, rng);
    }

    fn record_counter(&mut self, counter: Counter, by: u64) {
        self.add_counter(counter, by);
    }

    fn counters(&self) -> CounterBlock {
        self.counters()
    }

    fn attach_telemetry(&mut self, recorder: Recorder) {
        self.attach_telemetry(recorder);
    }

    fn take_telemetry(&mut self) -> Option<Recorder> {
        self.take_telemetry()
    }
}

/// The record of one fired event (a corruption burst or a churn event):
/// what it did and how long the protocol took to re-stabilize afterwards.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EventRecord {
    /// Absolute interaction index of the event.
    pub at: Interactions,
    /// Agents that joined at this event.
    pub joined: usize,
    /// Agents that departed (after clamping so ≥ 2 remain).
    pub departed: usize,
    /// Agents corrupted at this event (0 for churn events).
    pub corrupted: usize,
    /// Population size immediately after the event.
    pub population_after: usize,
    /// The **re-stabilization time**: the exact silence point re-reached
    /// after this event and before the next one (or the end of the run),
    /// minus the event time. `None` when the next event (or budget
    /// exhaustion) arrived before silence did.
    pub restabilization: Option<Interactions>,
}

/// What a perturbed run measured, independent of the final configuration
/// (see [`crate::TrialReport`] for the spec-level result that includes it).
#[derive(Clone, PartialEq, Debug)]
pub struct PerturbedRun {
    /// Why and when the run finally stopped. For silent stops the
    /// interaction count is the exact silence point of the last segment.
    pub outcome: RunOutcome,
    /// The exact silence point reached before the first event, if the run
    /// silenced before it (with no events, the silence point of the run).
    pub initial_silence: Option<Interactions>,
    /// One record per fired event, in time order (events scheduled at or
    /// beyond the budget never fire and are not listed).
    pub events: Vec<EventRecord>,
}

/// Drives a [`PerturbationHost`] to silence through one resolved event
/// stream: for each event, runs to silence capped at the event's index
/// (recording the re-stabilization of the previous event, or the initial
/// silence, if silence arrived first), advances the trailing null
/// interactions to the index, applies the event, and finally runs the last
/// segment to silence or budget exhaustion. With no events this is one run
/// to silence.
///
/// With a `stop` rule every segment runs until the rule holds instead, and
/// the point where it first holds ends a segment the way a silence point
/// does: it is the re-stabilization (or initial stop) the log records.
///
/// A `Corrupt` event draws its victims from `victim_rng`; a `Resize` event
/// applies its departures (clamped so at least two agents remain), drawn
/// from `departure_rng`, then its joins.
///
/// Events must be in non-decreasing time order (as produced by merging the
/// plans' `resolve` streams); events at or beyond `budget` never fire.
pub fn run_until_silent_perturbed<H: PerturbationHost>(
    host: &mut H,
    events: &[Perturbation<H::State>],
    victim_rng: &mut ScenarioRng,
    departure_rng: &mut ScenarioRng,
    budget: u64,
    stop: StopRule<'_, H::State>,
) -> PerturbedRun {
    // A silent (or stop-rule) segment end re-stabilizes the latest event,
    // or, before any event, is the initial silence; only the first counts.
    fn note_silence(out: &RunOutcome, initial: &mut Option<Interactions>, log: &mut [EventRecord]) {
        if out.is_silent() || out.condition_met() {
            let (slot, since) = match log.last_mut() {
                Some(record) => (&mut record.restabilization, record.at),
                None => (initial, Interactions::ZERO),
            };
            slot.get_or_insert(out.interactions - since);
        }
    }

    let mut initial_silence = None;
    let mut log: Vec<EventRecord> = Vec::new();
    for event in events.iter().take_while(|e| e.at < budget) {
        let now = host.interactions_so_far().count();
        debug_assert!(now <= event.at, "events must be in increasing time order");
        let out = host.run_to_silence(event.at - now, stop);
        note_silence(&out, &mut initial_silence, &mut log);
        // The host may have stopped short of the index (silence detected or
        // the stop rule met): run on to the index so the event lands exactly
        // there.
        let now = host.interactions_so_far().count();
        host.advance(event.at - now);
        let (corrupted, joined, departed) = match &event.kind {
            PerturbationKind::Corrupt(states) => {
                host.inject(states, victim_rng);
                host.record_counter(Counter::FaultBursts, 1);
                host.record_counter(Counter::FaultVictims, states.len() as u64);
                (states.len(), 0, 0)
            }
            PerturbationKind::Resize { joins, leaves } => {
                let departed = (*leaves).min(host.population().saturating_sub(2));
                host.leave(departed, departure_rng);
                host.join(joins);
                host.record_counter(Counter::ChurnEvents, 1);
                host.record_counter(Counter::ChurnJoined, joins.len() as u64);
                host.record_counter(Counter::ChurnDeparted, departed as u64);
                (0, joins.len(), departed)
            }
        };
        log.push(EventRecord {
            at: Interactions::new(event.at),
            joined,
            departed,
            corrupted,
            population_after: host.population(),
            restabilization: None,
        });
    }

    let now = host.interactions_so_far().count();
    let outcome = host.run_to_silence(budget.saturating_sub(now), stop);
    note_silence(&outcome, &mut initial_silence, &mut log);
    PerturbedRun { outcome, initial_silence, events: log }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{BatchedSimulation, Engine, EnumerableProtocol, ForceDense};
    use crate::config::Configuration;
    use crate::fixtures::{leaders, Frat};
    use crate::interned::{AsInterned, InternedSimulation};
    use crate::runspec::{RunSpec, TrialReport};

    const BUDGET: u64 = u64::MAX >> 8;

    /// The interaction index of every fired event.
    fn fired_at(report: &TrialReport<u8>) -> Vec<u64> {
        report.events.iter().map(|r| r.at.count()).collect()
    }

    /// One faulty run through the unified spec, seed taken verbatim.
    fn run_faulty<P>(
        engine: Engine,
        protocol: P,
        init: &Configuration<u8>,
        seed: u64,
        budget: u64,
        plan: &FaultPlan<u8>,
    ) -> TrialReport<u8>
    where
        P: EnumerableProtocol<State = u8> + Clone + Sync,
    {
        RunSpec::new(protocol)
            .engine(engine)
            .init(init.clone())
            .seed(seed)
            .budget(budget)
            .faults(plan.clone())
            .run_one()
            .unwrap()
    }

    #[test]
    fn resolve_is_deterministic_and_increasing() {
        let fixed = FaultPlan::one_shot(500, 3, CorruptionTarget::Fixed(0u8));
        assert_eq!(fixed.resolve(1), fixed.resolve(1));
        assert_eq!(fixed.resolve(1)[0].kind, PerturbationKind::Corrupt(vec![0, 0, 0]));
        assert_eq!(fixed.burst_size(), 3);

        let periodic = FaultPlan::periodic(100, 50, 4, 2, CorruptionTarget::Fixed(0u8));
        let times: Vec<u64> = periodic.resolve(9).iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 150, 200, 250]);

        let poisson = FaultPlan::poisson(200, 2_000, 1, CorruptionTarget::Fixed(0u8));
        let events = poisson.resolve(5);
        assert_eq!(events, poisson.resolve(5));
        assert!(events.windows(2).all(|w| w[0].at < w[1].at));
        assert!(events.iter().all(|e| e.at < 2_000));
        // Mean gap 200 over a 2000-interaction horizon: some bursts fire.
        assert!(!events.is_empty());
        // Distinct seeds draw distinct arrival streams (overwhelmingly).
        assert_ne!(events, poisson.resolve(6));
    }

    #[test]
    fn random_targets_are_reproducible_per_seed() {
        let plan =
            FaultPlan::one_shot(10, 8, CorruptionTarget::random(|rng| rng.gen_range(0..2u8)));
        let a = plan.resolve(3);
        assert_eq!(a, plan.resolve(3));
        assert!(matches!(&a[0].kind, PerturbationKind::Corrupt(states) if states.len() == 8));
    }

    #[test]
    fn all_three_engines_recover_from_a_mid_run_burst() {
        let init = Configuration::uniform(0u8, 60);
        let plan = FaultPlan::one_shot(3_000, 20, CorruptionTarget::Fixed(0u8));
        for seed in 0..3 {
            let exact = run_faulty(Engine::Exact, Frat { n: 60 }, &init, seed, BUDGET, &plan);
            let batched = run_faulty(Engine::Batched, Frat { n: 60 }, &init, seed, BUDGET, &plan);
            let dense =
                run_faulty(Engine::Batched, ForceDense(Frat { n: 60 }), &init, seed, BUDGET, &plan);
            let interned = RunSpec::new(AsInterned(Frat { n: 60 }))
                .engine(Engine::Batched)
                .init(init.clone())
                .seed(seed)
                .budget(BUDGET)
                .faults(plan.clone())
                .run_one()
                .unwrap();
            for report in [&exact, &batched, &dense, &interned] {
                assert!(report.outcome.is_silent());
                assert_eq!(fired_at(report), vec![3_000]);
                assert_eq!(leaders(&report.final_config), 1, "seed {seed}");
                assert!(report.restabilized_after_every_event());
                // Silence after the burst lies beyond the injection index.
                assert!(report.outcome.interactions.count() >= 3_000);
            }
        }
    }

    #[test]
    fn corrupting_a_silent_configuration_restarts_the_silence_clock() {
        // Start *in* the silent configuration (one leader); a burst at
        // t = 10_000 re-plants 5 leaders. Recovery must be measured from the
        // injection, not from t = 0 — the earlier silence must not leak into
        // the recovery of the burst.
        let n = 40;
        let init = Configuration::from_fn(n, |i| u8::from(i > 0));
        let plan = FaultPlan::one_shot(10_000, 5, CorruptionTarget::Fixed(0u8));
        for (engine, interned) in
            [(Engine::Exact, false), (Engine::Batched, false), (Engine::Batched, true)]
        {
            let report = if interned {
                RunSpec::new(AsInterned(Frat { n }))
                    .engine(Engine::Batched)
                    .init(init.clone())
                    .seed(7)
                    .budget(BUDGET)
                    .faults(plan.clone())
                    .run_one()
                    .unwrap()
            } else {
                run_faulty(engine, Frat { n }, &init, 7, BUDGET, &plan)
            };
            // The initial configuration was already silent at interaction 0.
            assert_eq!(report.initial_silence, Some(Interactions::ZERO));
            assert_eq!(fired_at(&report), vec![10_000]);
            let recovery = report.final_restabilization().expect("the burst is recovered from");
            // The clock restarted: the reported recovery is the silence point
            // *minus the injection time* — with 5 leaders to merge it is
            // positive yet far smaller than the absolute silence point.
            assert!(recovery.count() > 0);
            assert_eq!(
                report.outcome.interactions.count(),
                10_000 + recovery.count(),
                "recovery must be measured from the injection"
            );
        }
    }

    #[test]
    fn corruption_into_the_current_silent_state_recovers_instantly() {
        // Burst forces followers to follower: the configuration stays silent,
        // so recovery is exactly zero on every engine.
        let n = 20;
        let init = Configuration::from_fn(n, |i| u8::from(i > 0));
        let plan = FaultPlan::one_shot(1_000, 4, CorruptionTarget::Fixed(1u8));
        for engine in [Engine::Exact, Engine::Batched] {
            let report = run_faulty(engine, Frat { n }, &init, 3, BUDGET, &plan);
            assert!(report.outcome.is_silent());
            // With a single leader among n agents a burst of 4 usually hits
            // followers only; when it hits the leader the configuration is
            // still all-null (leader count 0 or 1). Either way silence is
            // re-reported at the injection index.
            assert_eq!(report.final_restabilization(), Some(Interactions::ZERO));
            assert_eq!(report.outcome.interactions.count(), 1_000);
        }
    }

    #[test]
    fn bursts_beyond_the_budget_never_fire() {
        let init = Configuration::uniform(0u8, 30);
        let plan = FaultPlan::periodic(1_000, 1_000, 5, 3, CorruptionTarget::Fixed(0u8));
        let report = run_faulty(Engine::Batched, Frat { n: 30 }, &init, 1, 2_500, &plan);
        // Only the bursts at 1000 and 2000 fit inside the budget of 2500.
        assert_eq!(fired_at(&report), vec![1_000, 2_000]);
    }

    #[test]
    fn overlapping_bursts_leave_unrecovered_slots() {
        // Bursts every 10 interactions re-seed 10 leaders each: recovery
        // within a 10-interaction window is essentially impossible, so the
        // early slots stay None until the final burst's segment.
        let init = Configuration::uniform(0u8, 100);
        let plan = FaultPlan::periodic(10, 10, 10, 10, CorruptionTarget::Fixed(0u8));
        let report = run_faulty(Engine::Exact, Frat { n: 100 }, &init, 5, BUDGET, &plan);
        assert!(report.outcome.is_silent());
        assert_eq!(report.events.len(), 10);
        assert!(report.events[..9].iter().any(|r| r.restabilization.is_none()));
        assert!(report.final_restabilization().is_some());
        assert_eq!(leaders(&report.final_config), 1);
    }

    #[test]
    fn exact_inject_states_corrupts_distinct_agents() {
        let n = 12;
        let mut sim = Simulation::new(Frat { n }, Configuration::uniform(1u8, n), 1);
        let mut rng = ScenarioRng::seed_from_u64(9);
        sim.inject_states(&[0u8; 5], &mut rng);
        // Exactly 5 distinct agents became leaders.
        assert_eq!(leaders(sim.configuration()), 5);
        assert_eq!(sim.configuration().len(), n);
        // The silence clock restarted at the (zero-interaction) injection.
        assert_eq!(sim.last_change(), sim.interactions());
    }

    #[test]
    fn count_space_injection_conserves_the_population() {
        let n = 50;
        let init = Configuration::uniform(0u8, n);
        let mut batched = BatchedSimulation::new(Frat { n }, &init, 2);
        let mut interned = InternedSimulation::new(AsInterned(Frat { n }), &init, 2);
        let mut rng = ScenarioRng::seed_from_u64(11);
        batched.run_for(500);
        interned.run_for(500);
        batched.inject_states(&[1u8; 30], &mut rng);
        interned.inject_states(&[1u8; 30], &mut rng);
        assert_eq!(batched.state_counts().map(|(_, c)| c).sum::<u64>(), n as u64);
        assert_eq!(interned.state_counts().map(|(_, c)| c).sum::<u64>(), n as u64);
        // The interned engine's incremental rows survive the burst.
        assert_eq!(interned.recount_active_pairs(), interned.active_pairs());
    }

    #[test]
    #[should_panic(expected = "population")]
    fn oversized_bursts_are_rejected() {
        let mut sim = Simulation::new(Frat { n: 4 }, Configuration::uniform(0u8, 4), 1);
        let mut rng = ScenarioRng::seed_from_u64(1);
        sim.inject_states(&[0u8; 5], &mut rng);
    }
}
