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
//! a ring stays a ring as agents come and go), and the one perturbation
//! driver, [`crate::faults::run_until_silent_perturbed`], reports
//! **re-stabilization time** after each event — the self-stabilizing
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
//! deterministically from a seed into concrete [`PerturbationKind::Resize`]
//! events, so the same seeded plan drives the identical churn stream on
//! every engine; only the departure draw consumes engine-side randomness.
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
//! each resize), a [`FaultPlan`](crate::faults::FaultPlan)'s corruption
//! stream merges with the churn stream into one time-ordered drive, and the
//! spec's scenario axis supplies adversarial [`crate::Scenario`] initial
//! families.
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

use crate::faults::{CorruptionTarget, FaultSchedule, Perturbation, PerturbationKind};
use crate::scenario::{name_salt, ScenarioRng};

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
/// corruption axis — the two share their schedule vocabulary and their
/// event type, and compose in one drive via
/// [`crate::faults::run_until_silent_perturbed`].
#[derive(Clone, Debug)]
pub struct ChurnPlan<S> {
    name: String,
    schedule: FaultSchedule,
    action: ChurnAction<S>,
}

impl<S: Clone> ChurnPlan<S> {
    /// A plan with one `action` per scheduled event on any schedule, named
    /// after the action and the schedule (the constructors below are its
    /// three shapes).
    ///
    /// # Panics
    ///
    /// Panics on a zero period or a zero mean gap (events must fire at
    /// distinct indices).
    pub fn new(schedule: FaultSchedule, action: ChurnAction<S>) -> Self {
        let name = format!("{}{}", action.label(), schedule.name_suffix());
        ChurnPlan { name, schedule, action }
    }

    /// A plan with a single event at interaction `at`.
    pub fn one_shot(at: u64, action: ChurnAction<S>) -> Self {
        ChurnPlan::new(FaultSchedule::OneShot { at }, action)
    }

    /// A plan with `events` events, `period` interactions apart, starting at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` (events must fire at distinct indices).
    pub fn periodic(start: u64, period: u64, events: u32, action: ChurnAction<S>) -> Self {
        ChurnPlan::new(FaultSchedule::Periodic { start, period, bursts: events }, action)
    }

    /// A plan with Poisson-arrival events: exponential gaps of the given
    /// mean until `horizon` interactions.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap == 0`.
    pub fn poisson(mean_gap: u64, horizon: u64, action: ChurnAction<S>) -> Self {
        ChurnPlan::new(FaultSchedule::Poisson { mean_gap, horizon }, action)
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

    /// Expands the plan into concrete [`PerturbationKind::Resize`] events
    /// for a trial seed: event times in strictly increasing order, each with
    /// its joining states and departure count.
    ///
    /// Deterministic in `(plan, seed)` and independent of the engine, exactly
    /// as [`FaultPlan::resolve`](crate::faults::FaultPlan::resolve): the same seeded plan produces the identical
    /// churn stream on every engine and state index (only the departure
    /// draw is engine-side).
    pub fn resolve(&self, seed: u64) -> Vec<Perturbation<S>> {
        let mut rng = ScenarioRng::seed_from_u64(seed ^ name_salt(&self.name) ^ CHURN_PLAN_SALT);
        self.schedule.expand(&mut rng, |rng| match &self.action {
            ChurnAction::Join { count, state } => {
                PerturbationKind::Resize { joins: state.draw(*count, rng), leaves: 0 }
            }
            ChurnAction::Leave { count } => {
                PerturbationKind::Resize { joins: Vec::new(), leaves: *count }
            }
            ChurnAction::Replace { count, state } => {
                PerturbationKind::Resize { joins: state.draw(*count, rng), leaves: *count }
            }
        })
    }
}

const CHURN_PLAN_SALT: u64 = 0xC4A2_B11E;
pub(crate) const DEPARTURE_SALT: u64 = 0xDE9A_2217;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::Engine;
    use crate::config::Configuration;
    use crate::error::SimError;
    use crate::execution::StopReason;
    use crate::faults::FaultPlan;
    use crate::fixtures::{leaders, Frat};
    use crate::interned::AsInterned;
    use crate::runspec::RunSpec;
    use crate::scheduler::{InteractionScheduler, PairRates, Topology};
    use rand::Rng;

    const BUDGET: u64 = u64::MAX >> 8;

    fn resize(joins: Vec<u8>, leaves: usize) -> PerturbationKind<u8> {
        PerturbationKind::Resize { joins, leaves }
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
        assert_eq!(join.resolve(1)[0].kind, resize(vec![0, 0, 0], 0));

        let periodic = ChurnPlan::<u8>::periodic(100, 50, 4, ChurnAction::Leave { count: 2 });
        let events = periodic.resolve(9);
        let times: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 150, 200, 250]);
        assert!(events.iter().all(|e| e.kind == resize(vec![], 2)));

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
        assert!(matches!(
            &random.resolve(3)[0].kind,
            PerturbationKind::Resize { joins, leaves: 0 } if joins.len() == 8
        ));

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
            assert_eq!(report.events.len(), 1, "{engine}");
            assert_eq!(report.events[0].joined, 10, "{engine}");
            assert_eq!(report.events[0].population_after, 60, "{engine}");
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
            assert_eq!(report.events[0].departed, 6, "{engine}");
            assert_eq!(report.events[0].population_after, 2, "{engine}");
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
        assert_eq!(report.events.len(), 3);
        for record in &report.events {
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
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].corrupted, 3);
        assert_eq!(report.events[0].joined, 0);
        assert_eq!(report.events[1].corrupted, 0);
        assert_eq!(report.events[1].joined, 4);
        assert_eq!(report.events[1].population_after, 34);
        // The burst got zero interactions before the churn event landed on
        // the same index, so only the churn record carries re-stabilization.
        assert!(report.events[0].restabilization.is_none());
        assert!(report.events[1].restabilization.is_some());
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
        assert_eq!(report.events.len(), 3);
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
        assert!(report.events.is_empty());
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
        let fired: Vec<u64> = report.events.iter().map(|r| r.at.count()).collect();
        let expected: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(fired, expected);
        assert_eq!(report.final_population(), 25 + 2 * events.len());
    }
}
