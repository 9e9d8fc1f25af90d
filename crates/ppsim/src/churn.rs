//! Population churn: mid-run joins and departures that **resize** the
//! population, with per-event re-stabilization measurement.
//!
//! The fault subsystem ([`crate::faults`]) perturbs *states* at a fixed
//! population size; this module perturbs the *population itself*. A
//! [`ChurnPlan`] schedules join/leave/replace events at chosen interaction
//! indices on the same [`FaultSchedule`] clock the fault plans use, every
//! engine applies them through its count-delta machinery (the count engines
//! route resizes through the same incremental row repair as corruption
//! bursts; the exact engine rebuilds its graph topology at the new size, so
//! a ring stays a ring as agents come and go), and the segment-wise driver
//! reports **re-stabilization time** after each event — the self-stabilizing
//! protocols of the paper do not distinguish "agents were corrupted" from
//! "agents appeared/vanished"; both are transient perturbations they must
//! absorb.
//!
//! # Anatomy of a plan
//!
//! A plan is a [`FaultSchedule`] (one-shot, periodic, or Poisson) and a
//! [`ChurnAction`]: `Join` adds `count` agents in states drawn from a
//! [`CorruptionTarget`] rule, `Leave` removes `count` agents drawn
//! count-proportionally without replacement (the count-space image of a
//! uniform distinct-agent draw), and `Replace` does both, modelling
//! size-preserving turnover. [`ChurnPlan::resolve`] expands the plan
//! deterministically from a seed into concrete [`ChurnEvent`]s, so the same
//! seeded plan drives the identical churn stream on every engine; only the
//! departure draw consumes engine-side randomness.
//!
//! Departures are **clamped** so the population never drops below two
//! agents (an interaction needs a pair); the per-event record reports the
//! clamped count actually removed.
//!
//! # Composition
//!
//! Churn composes with the other experiment axes through
//! [`crate::RunSpec::churn`]: the spec's scheduler applies (so churn runs
//! under weighted rates or, on the exact engine, a graph topology rebuilt at
//! each resize), [`run_until_silent_with_churn_and_faults`] merges a churn
//! stream with a [`FaultPlan`](crate::faults::FaultPlan)'s corruption stream into one segment-wise
//! drive, and the spec's scenario axis supplies adversarial
//! [`crate::Scenario`] initial families.
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
//! // 10 fresh leaders join 2000 interactions into the run.
//! let plan = ChurnPlan::one_shot(
//!     2_000,
//!     ChurnAction::Join { count: 10, state: CorruptionTarget::Fixed(0u8) },
//! );
//! let report = RunSpec::new(Frat { n: 50 })
//!     .engine(Engine::Batched)
//!     .init(Configuration::uniform(0u8, 50))
//!     .churn(plan)
//!     .seed(7)
//!     .run_one()
//!     .unwrap();
//! assert!(report.outcome.is_silent());
//! assert_eq!(report.final_config.len(), 60);
//! assert!(report.restabilized_after_every_event());
//! ```

use rand::SeedableRng;

use crate::batched::{CountSimulation, StateIndex};
use crate::execution::{RunOutcome, Simulation, StopReason};
use crate::faults::{
    sample_exponential_gap, CorruptionTarget, FaultEvent, FaultHost, FaultSchedule,
};
use crate::protocol::Protocol;
use crate::scenario::{name_salt, ScenarioRng};
use crate::telemetry::Counter;
use crate::time::Interactions;

/// What a churn event does to the population.
#[derive(Clone, Debug)]
pub enum ChurnAction<S> {
    /// `count` agents join, each in a state drawn from the rule.
    Join {
        /// How many agents join per event.
        count: usize,
        /// The state rule for the joining agents.
        state: CorruptionTarget<S>,
    },
    /// `count` agents leave, drawn count-proportionally without replacement
    /// (the count-space image of a uniform distinct-agent draw).
    Leave {
        /// How many agents leave per event (clamped so ≥ 2 remain).
        count: usize,
    },
    /// `count` agents leave and `count` join: size-preserving turnover.
    Replace {
        /// How many agents turn over per event.
        count: usize,
        /// The state rule for the replacement agents.
        state: CorruptionTarget<S>,
    },
}

impl<S> ChurnAction<S> {
    fn label(&self) -> String {
        match self {
            ChurnAction::Join { count, .. } => format!("join{count}"),
            ChurnAction::Leave { count } => format!("leave{count}"),
            ChurnAction::Replace { count, .. } => format!("replace{count}"),
        }
    }
}

/// A plan of population-resizing events: a schedule and an action. The unit
/// of the churn experiment axis, the way [`FaultPlan`](crate::faults::FaultPlan) is the unit of the
/// corruption axis — the two share their schedule vocabulary and compose in
/// one drive via [`run_until_silent_with_churn_and_faults`].
#[derive(Clone, Debug)]
pub struct ChurnPlan<S> {
    name: String,
    schedule: FaultSchedule,
    action: ChurnAction<S>,
}

/// One resolved churn event: the interaction index it fires at, the states
/// of the joining agents, and the number of departures requested (the driver
/// clamps departures so at least two agents remain).
#[derive(Clone, PartialEq, Debug)]
pub struct ChurnEvent<S> {
    /// Absolute interaction index of the event.
    pub at: u64,
    /// States of the agents joining at this event.
    pub joins: Vec<S>,
    /// Number of departures requested at this event.
    pub leaves: usize,
}

impl<S: Clone> ChurnPlan<S> {
    /// A plan with a single event at interaction `at`.
    pub fn one_shot(at: u64, action: ChurnAction<S>) -> Self {
        let name = format!("{}@{at}", action.label());
        ChurnPlan { name, schedule: FaultSchedule::OneShot { at }, action }
    }

    /// A plan with `events` events, `period` interactions apart, starting at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` (events must fire at distinct indices).
    pub fn periodic(start: u64, period: u64, events: u32, action: ChurnAction<S>) -> Self {
        assert!(period > 0, "periodic churn needs a positive period");
        let name = format!("{}@{start}+i·{period}×{events}", action.label());
        ChurnPlan {
            name,
            schedule: FaultSchedule::Periodic { start, period, bursts: events },
            action,
        }
    }

    /// A plan with Poisson-arrival events: exponential gaps of the given
    /// mean until `horizon` interactions.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap == 0`.
    pub fn poisson(mean_gap: u64, horizon: u64, action: ChurnAction<S>) -> Self {
        assert!(mean_gap > 0, "Poisson arrivals need a positive mean gap");
        let name = format!("{}·gap{mean_gap}·h{horizon}", action.label());
        ChurnPlan { name, schedule: FaultSchedule::Poisson { mean_gap, horizon }, action }
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

    /// The plan's action.
    pub fn action(&self) -> &ChurnAction<S> {
        &self.action
    }

    /// The schedule of the plan.
    pub fn schedule(&self) -> FaultSchedule {
        self.schedule
    }

    /// Expands the plan into concrete events for a trial seed: event times in
    /// strictly increasing order, each with its joining states and departure
    /// count.
    ///
    /// Deterministic in `(plan, seed)` and independent of the engine, exactly
    /// as [`FaultPlan::resolve`](crate::faults::FaultPlan::resolve): the same seeded plan produces the identical
    /// churn stream on the exact, batched, and interned engines (only the
    /// departure draw is engine-side).
    pub fn resolve(&self, seed: u64) -> Vec<ChurnEvent<S>> {
        let mut rng = ScenarioRng::seed_from_u64(seed ^ name_salt(&self.name) ^ CHURN_PLAN_SALT);
        let times: Vec<u64> = match self.schedule {
            FaultSchedule::OneShot { at } => vec![at],
            FaultSchedule::Periodic { start, period, bursts } => {
                (0..bursts as u64).map(|i| start + i * period).collect()
            }
            FaultSchedule::Poisson { mean_gap, horizon } => {
                let mut times = Vec::new();
                let mut t = 0u64;
                loop {
                    t = t.saturating_add(sample_exponential_gap(mean_gap, &mut rng));
                    if t >= horizon {
                        break;
                    }
                    times.push(t);
                }
                times
            }
        };
        let mut draw_states = |count: usize, state: &CorruptionTarget<S>| -> Vec<S> {
            (0..count)
                .map(|_| match state {
                    CorruptionTarget::Fixed(s) => s.clone(),
                    CorruptionTarget::Random(f) => f(&mut rng),
                })
                .collect()
        };
        times
            .into_iter()
            .map(|at| match &self.action {
                ChurnAction::Join { count, state } => {
                    ChurnEvent { at, joins: draw_states(*count, state), leaves: 0 }
                }
                ChurnAction::Leave { count } => {
                    ChurnEvent { at, joins: Vec::new(), leaves: *count }
                }
                ChurnAction::Replace { count, state } => {
                    ChurnEvent { at, joins: draw_states(*count, state), leaves: *count }
                }
            })
            .collect()
    }
}

const CHURN_PLAN_SALT: u64 = 0xC4A2_B11E;
pub(crate) const DEPARTURE_SALT: u64 = 0xDE9A_2217;

/// The engine-side surface the churn driver needs on top of [`FaultHost`]:
/// report the current population size, append joining agents, and remove
/// departing ones. Both engines implement it ([`Simulation`] and
/// [`CountSimulation`] over either state index).
pub trait ChurnHost: FaultHost {
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
}

impl<P: Protocol> ChurnHost for Simulation<P> {
    fn population(&self) -> usize {
        self.population_size()
    }

    fn join(&mut self, states: &[Self::State]) {
        Simulation::join(self, states);
    }

    fn leave(&mut self, k: usize, rng: &mut ScenarioRng) {
        Simulation::leave(self, k, rng);
    }
}

impl<P: Protocol, X: StateIndex<P>> ChurnHost for CountSimulation<P, X> {
    fn population(&self) -> usize {
        self.population_size()
    }

    fn join(&mut self, states: &[Self::State]) {
        CountSimulation::join(self, states);
    }

    fn leave(&mut self, k: usize, rng: &mut ScenarioRng) {
        CountSimulation::leave(self, k, rng);
    }
}

/// The segment record of one fired event (churn or, in the composed drive,
/// a corruption burst): what it did and how long the protocol took to
/// re-stabilize afterwards.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ChurnRecord {
    /// Absolute interaction index of the event.
    pub at: Interactions,
    /// Agents that joined at this event.
    pub joined: usize,
    /// Agents that departed (after clamping so ≥ 2 remain).
    pub departed: usize,
    /// Agents corrupted at this event (0 for pure churn events; positive for
    /// the bursts of a composed [`FaultPlan`](crate::faults::FaultPlan)).
    pub corrupted: usize,
    /// Population size immediately after the event.
    pub population_after: usize,
    /// The **re-stabilization time**: the exact silence point re-reached
    /// after this event and before the next one (or the end of the run),
    /// minus the event time. `None` when the next event (or budget
    /// exhaustion) arrived before silence did.
    pub restabilization: Option<Interactions>,
}

/// What a churned run measured, independent of the final configuration (see
/// [`crate::TrialReport`] for the spec-level result that includes it).
#[derive(Clone, PartialEq, Debug)]
pub struct ChurnOutcome {
    /// Why and when the run finally stopped. For [`StopReason::Silent`] the
    /// interaction count is the exact silence point of the last segment.
    pub outcome: RunOutcome,
    /// The exact silence point reached before the first event, if the run
    /// silenced before it.
    pub initial_silence: Option<Interactions>,
    /// One record per fired event, in time order (events scheduled at or
    /// beyond the budget never fire and are not listed).
    pub events: Vec<ChurnRecord>,
}

pub(crate) fn final_restabilization(events: &[ChurnRecord]) -> Option<Interactions> {
    events.last().and_then(|r| r.restabilization)
}

pub(crate) fn all_events_restabilized(events: &[ChurnRecord]) -> bool {
    !events.is_empty() && events.iter().all(|r| r.restabilization.is_some())
}

impl ChurnOutcome {
    /// The re-stabilization time of the **last** event, if it fired and the
    /// run re-silenced after it.
    pub fn final_restabilization(&self) -> Option<Interactions> {
        final_restabilization(&self.events)
    }

    /// Whether every fired event was re-stabilized from before the next one.
    pub fn restabilized_after_every_event(&self) -> bool {
        all_events_restabilized(&self.events)
    }
}

/// Drives a [`ChurnHost`] to silence through a resolved churn stream:
/// for each event, runs to silence capped at the event's interaction index
/// (recording the re-stabilization of the previous event if silence arrived
/// first), advances the trailing null interactions to the index, applies the
/// departures (clamped so at least two agents remain) then the joins, and
/// finally runs the last segment to silence or budget exhaustion.
///
/// Events must be in strictly increasing time order (as produced by
/// [`ChurnPlan::resolve`]); events at or beyond `budget` never fire.
pub fn run_until_silent_with_churn<H: ChurnHost>(
    host: &mut H,
    events: &[ChurnEvent<H::State>],
    departure_rng: &mut ScenarioRng,
    budget: u64,
) -> ChurnOutcome {
    let mut unused = ScenarioRng::seed_from_u64(0);
    run_until_silent_with_churn_and_faults(host, events, &[], departure_rng, &mut unused, budget)
}

/// Drives a [`ChurnHost`] through a churn stream **and** a corruption
/// stream merged by interaction index — the composition of the churn and
/// fault axes in one segment-wise drive. A burst and a churn event at the
/// same index both fire, corruption first. Each fired event (of either
/// kind) gets its own [`ChurnRecord`]; burst records carry `corrupted > 0`
/// and zero join/depart counts.
///
/// Both streams must be in strictly increasing time order (as produced by
/// [`ChurnPlan::resolve`] / [`FaultPlan::resolve`](crate::faults::FaultPlan::resolve)).
pub fn run_until_silent_with_churn_and_faults<H: ChurnHost>(
    host: &mut H,
    churn: &[ChurnEvent<H::State>],
    faults: &[FaultEvent<H::State>],
    departure_rng: &mut ScenarioRng,
    victim_rng: &mut ScenarioRng,
    budget: u64,
) -> ChurnOutcome {
    let mut initial_silence = None;
    let mut events: Vec<ChurnRecord> = Vec::new();

    let mut record_silence = |out: &RunOutcome, events: &mut Vec<ChurnRecord>| {
        if out.reason != StopReason::Silent {
            return;
        }
        match events.last_mut() {
            Some(record) => {
                if record.restabilization.is_none() {
                    record.restabilization = Some(out.interactions - record.at);
                }
            }
            None => {
                if initial_silence.is_none() {
                    initial_silence = Some(out.interactions);
                }
            }
        }
    };

    let (mut ci, mut fi) = (0usize, 0usize);
    loop {
        // Next event over the merged streams; bursts win ties so that a
        // corruption and a churn event at the same index apply in a fixed,
        // documented order.
        let next_churn = churn.get(ci).map(|e| e.at);
        let next_fault = faults.get(fi).map(|e| e.at);
        let (at, is_fault) = match (next_churn, next_fault) {
            (None, None) => break,
            (Some(c), None) => (c, false),
            (None, Some(f)) => (f, true),
            (Some(c), Some(f)) => {
                if f <= c {
                    (f, true)
                } else {
                    (c, false)
                }
            }
        };
        if at >= budget {
            break;
        }
        let now = host.interactions_so_far().count();
        debug_assert!(now <= at, "events must be in increasing time order");
        let out = host.run_to_silence(at - now);
        record_silence(&out, &mut events);
        // The host may have stopped short of the index (silence detected, or
        // an exact-engine check chunk ended early): pad with null
        // interactions so the event lands exactly at its scheduled index.
        let now = host.interactions_so_far().count();
        host.advance(at - now);
        if is_fault {
            let event = &faults[fi];
            fi += 1;
            host.inject(&event.states, victim_rng);
            host.record_counter(Counter::FaultBursts, 1);
            host.record_counter(Counter::FaultVictims, event.states.len() as u64);
            events.push(ChurnRecord {
                at: Interactions::new(at),
                joined: 0,
                departed: 0,
                corrupted: event.states.len(),
                population_after: host.population(),
                restabilization: None,
            });
        } else {
            let event = &churn[ci];
            ci += 1;
            let departed = event.leaves.min(host.population().saturating_sub(2));
            host.leave(departed, departure_rng);
            host.join(&event.joins);
            host.record_counter(Counter::ChurnEvents, 1);
            host.record_counter(Counter::ChurnJoined, event.joins.len() as u64);
            host.record_counter(Counter::ChurnDeparted, departed as u64);
            events.push(ChurnRecord {
                at: Interactions::new(at),
                joined: event.joins.len(),
                departed,
                corrupted: 0,
                population_after: host.population(),
                restabilization: None,
            });
        }
    }

    let now = host.interactions_so_far().count();
    let outcome = host.run_to_silence(budget.saturating_sub(now));
    record_silence(&outcome, &mut events);
    ChurnOutcome { outcome, initial_silence, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{Engine, EnumerableProtocol};
    use crate::config::Configuration;
    use crate::error::SimError;
    use crate::faults::FaultPlan;
    use crate::interned::AsInterned;
    use crate::runspec::RunSpec;
    use crate::scheduler::{InteractionScheduler, PairRates, Topology};
    use rand::{Rng, RngCore};

    /// (L, L) -> (L, F) with L = 0, F = 1.
    #[derive(Clone, Copy, Debug)]
    struct Frat {
        n: usize,
    }

    impl Protocol for Frat {
        type State = u8;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
            if *a == 0 && *b == 0 {
                (0, 1)
            } else {
                (*a, *b)
            }
        }
        fn is_null(&self, a: &u8, b: &u8) -> bool {
            !(*a == 0 && *b == 0)
        }
    }

    impl EnumerableProtocol for Frat {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: &u8) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u8 {
            i as u8
        }
        fn interaction_partners(&self, i: usize) -> Option<Vec<usize>> {
            Some(if i == 0 { vec![0] } else { vec![] })
        }
    }

    const BUDGET: u64 = u64::MAX >> 8;

    fn leaders(c: &Configuration<u8>) -> usize {
        c.iter().filter(|&&s| s == 0).count()
    }

    /// A spec over `Frat { n }` starting from the all-leader configuration.
    fn churn_spec(engine: Engine, n: usize, seed: u64, plan: &ChurnPlan<u8>) -> RunSpec<Frat> {
        RunSpec::new(Frat { n })
            .engine(engine)
            .init(Configuration::uniform(0u8, n))
            .seed(seed)
            .budget(BUDGET)
            .churn(plan.clone())
    }

    #[test]
    fn resolve_is_deterministic_and_increasing() {
        let join = ChurnPlan::one_shot(
            500,
            ChurnAction::Join { count: 3, state: CorruptionTarget::Fixed(0u8) },
        );
        assert_eq!(join.resolve(1), join.resolve(1));
        assert_eq!(join.resolve(1)[0].joins, vec![0, 0, 0]);
        assert_eq!(join.resolve(1)[0].leaves, 0);

        let periodic = ChurnPlan::<u8>::periodic(100, 50, 4, ChurnAction::Leave { count: 2 });
        let events = periodic.resolve(9);
        let times: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 150, 200, 250]);
        assert!(events.iter().all(|e| e.joins.is_empty() && e.leaves == 2));

        let poisson = ChurnPlan::poisson(
            200,
            2_000,
            ChurnAction::Replace { count: 1, state: CorruptionTarget::Fixed(1u8) },
        );
        let events = poisson.resolve(5);
        assert_eq!(events, poisson.resolve(5));
        assert!(events.windows(2).all(|w| w[0].at < w[1].at));
        assert!(events.iter().all(|e| e.at < 2_000));
        assert!(!events.is_empty());
        assert_ne!(events, poisson.resolve(6));

        // Random join states are reproducible per seed.
        let random = ChurnPlan::one_shot(
            10,
            ChurnAction::Join {
                count: 8,
                state: CorruptionTarget::random(|rng| rng.gen_range(0..2u8)),
            },
        );
        assert_eq!(random.resolve(3), random.resolve(3));
        assert_eq!(random.resolve(3)[0].joins.len(), 8);

        // Distinct plan names decorrelate the streams.
        assert_ne!(
            poisson.clone().with_name("a").resolve(5),
            poisson.clone().with_name("b").resolve(5)
        );
    }

    #[test]
    fn joins_recover_on_every_engine() {
        // Stabilize, then 10 fresh leaders join; the protocol must thin them
        // back down to one on every engine.
        let plan = ChurnPlan::one_shot(
            5_000,
            ChurnAction::Join { count: 10, state: CorruptionTarget::Fixed(0u8) },
        );
        let init = Configuration::uniform(0u8, 50);
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let report = churn_spec(engine, 50, 7, &plan).run_one().unwrap();
            assert_eq!(report.outcome.reason, StopReason::Silent, "{engine}");
            assert_eq!(report.final_population(), 60, "{engine}");
            assert_eq!(leaders(&report.final_config), 1, "{engine}");
            assert_eq!(report.churn.len(), 1, "{engine}");
            assert_eq!(report.churn[0].joined, 10, "{engine}");
            assert_eq!(report.churn[0].population_after, 60, "{engine}");
            assert!(report.initial_silence.is_some(), "{engine}");
            assert!(report.restabilized_after_every_event(), "{engine}");
            assert!(report.final_restabilization_parallel_time().is_some(), "{engine}");
        }
        let interned = RunSpec::new(AsInterned(Frat { n: 50 }))
            .engine(Engine::Batched)
            .init(init)
            .seed(7)
            .budget(BUDGET)
            .churn(plan)
            .run_one()
            .unwrap();
        assert_eq!(interned.outcome.reason, StopReason::Silent);
        assert_eq!(interned.final_population(), 60);
        assert_eq!(leaders(&interned.final_config), 1);
        assert!(interned.restabilized_after_every_event());
    }

    #[test]
    fn departures_clamp_so_two_agents_remain() {
        let plan = ChurnPlan::one_shot(200, ChurnAction::Leave { count: 1_000 });
        for engine in [Engine::Exact, Engine::Batched] {
            let report = churn_spec(engine, 8, 11, &plan).run_one().unwrap();
            assert_eq!(report.churn[0].departed, 6, "{engine}");
            assert_eq!(report.churn[0].population_after, 2, "{engine}");
            assert_eq!(report.final_population(), 2, "{engine}");
            assert_eq!(report.outcome.reason, StopReason::Silent, "{engine}");
        }
    }

    #[test]
    fn replace_preserves_population_size() {
        let plan = ChurnPlan::periodic(
            1_000,
            3_000,
            3,
            ChurnAction::Replace { count: 5, state: CorruptionTarget::Fixed(0u8) },
        );
        let report = churn_spec(Engine::Batched, 40, 13, &plan).run_one().unwrap();
        assert_eq!(report.churn.len(), 3);
        for record in &report.churn {
            assert_eq!(record.joined, 5);
            assert_eq!(record.departed, 5);
            assert_eq!(record.population_after, 40);
        }
        assert_eq!(report.final_population(), 40);
        assert!(report.restabilized_after_every_event());
    }

    #[test]
    fn churn_composes_with_faults_bursts_first() {
        // A corruption burst and a churn event at the same index: the burst's
        // record must precede the churn record, and both re-stabilize.
        let churn = ChurnPlan::one_shot(
            4_000,
            ChurnAction::Join { count: 4, state: CorruptionTarget::Fixed(0u8) },
        );
        let faults = FaultPlan::one_shot(4_000, 3, CorruptionTarget::Fixed(0u8));
        let report = churn_spec(Engine::Batched, 30, 17, &churn).faults(faults).run_one().unwrap();
        assert_eq!(report.churn.len(), 2);
        assert_eq!(report.churn[0].corrupted, 3);
        assert_eq!(report.churn[0].joined, 0);
        assert_eq!(report.churn[1].corrupted, 0);
        assert_eq!(report.churn[1].joined, 4);
        assert_eq!(report.churn[1].population_after, 34);
        // The burst got zero interactions before the churn event landed on
        // the same index, so only the churn record carries re-stabilization.
        assert!(report.churn[0].restabilization.is_none());
        assert!(report.churn[1].restabilization.is_some());
        assert_eq!(report.outcome.reason, StopReason::Silent);
        assert_eq!(leaders(&report.final_config), 1);
    }

    #[test]
    fn churn_under_weighted_rates_runs_on_count_engines() {
        let plan = ChurnPlan::one_shot(
            2_000,
            ChurnAction::Join { count: 6, state: CorruptionTarget::Fixed(0u8) },
        );
        let rates = PairRates::new(1).with_rate(0u8, 0u8, 5);
        let scheduler = InteractionScheduler::WeightedPairs(rates);
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let report =
                churn_spec(engine, 30, 19, &plan).scheduler(scheduler.clone()).run_one().unwrap();
            assert_eq!(report.outcome.reason, StopReason::Silent, "{engine}");
            assert_eq!(report.final_population(), 36, "{engine}");
            assert_eq!(leaders(&report.final_config), 1, "{engine}");
        }
    }

    #[test]
    fn ring_topology_rebuilds_across_resizes() {
        // The exact engine rebuilds the ring at each resize; the run must
        // stay silent-capable at every intermediate population size.
        let plan = ChurnPlan::periodic(
            2_000,
            4_000,
            3,
            ChurnAction::Replace { count: 3, state: CorruptionTarget::Fixed(0u8) },
        );
        let scheduler = InteractionScheduler::GraphRestricted(Topology::Ring);
        let report =
            churn_spec(Engine::Exact, 20, 23, &plan).scheduler(scheduler).run_one().unwrap();
        assert_eq!(report.churn.len(), 3);
        assert_eq!(report.final_population(), 20);
        assert_eq!(report.outcome.reason, StopReason::Silent);
        // Ring silence is scheduler-relative: no adjacent (L, L) pair. The
        // fratricide protocol still cannot finish with zero leaders.
        assert!(leaders(&report.final_config) >= 1);
    }

    #[test]
    fn count_engines_reject_graph_restricted_churn() {
        let plan = ChurnPlan::one_shot(
            100,
            ChurnAction::Join { count: 1, state: CorruptionTarget::Fixed(0u8) },
        );
        let scheduler = InteractionScheduler::GraphRestricted(Topology::Ring);
        let err = churn_spec(Engine::Batched, 10, 1, &plan)
            .scheduler(scheduler.clone())
            .run_one()
            .unwrap_err();
        assert!(matches!(err, SimError::SchedulerNeedsIdentities { .. }), "{err}");
        let err = RunSpec::new(AsInterned(Frat { n: 10 }))
            .engine(Engine::BatchedCounts)
            .init(Configuration::uniform(0u8, 10))
            .scheduler(scheduler)
            .churn(plan)
            .run_one()
            .unwrap_err();
        assert!(matches!(err, SimError::SchedulerNeedsIdentities { .. }), "{err}");
    }

    #[test]
    fn events_at_or_beyond_budget_never_fire() {
        let plan = ChurnPlan::one_shot(
            10_000,
            ChurnAction::Join { count: 5, state: CorruptionTarget::Fixed(0u8) },
        );
        let report = churn_spec(Engine::Batched, 20, 29, &plan).budget(10_000).run_one().unwrap();
        assert!(report.churn.is_empty());
        assert_eq!(report.final_population(), 20);
    }

    #[test]
    fn seeded_plan_drives_identical_stream_on_every_engine() {
        // The resolved stream is engine-independent by construction; pin that
        // the per-event times and join states agree with a direct resolve.
        let plan = ChurnPlan::poisson(
            1_000,
            8_000,
            ChurnAction::Join {
                count: 2,
                state: CorruptionTarget::random(|rng| rng.gen_range(0..2u8)),
            },
        );
        let events = plan.resolve(31);
        let report = churn_spec(Engine::Exact, 25, 31, &plan).run_one().unwrap();
        let fired: Vec<u64> = report.churn.iter().map(|r| r.at.count()).collect();
        let expected: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(fired, expected);
        assert_eq!(report.final_population(), 25 + 2 * events.len());
    }
}
