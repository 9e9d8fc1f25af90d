//! # ppsim — population protocol simulation substrate
//!
//! This crate implements the standard population protocol model used by
//! *Time-Optimal Self-Stabilizing Leader Election in Population Protocols*
//! (Burman, Chen, Chen, Doty, Nowak, Severson, Xu; PODC 2021):
//!
//! * a population of `n` anonymous agents, each holding a local state,
//! * a probabilistic scheduler that at each discrete step selects a uniformly
//!   random **ordered** pair of distinct agents (initiator, responder),
//! * a (possibly randomized) transition function applied to the pair,
//! * **parallel time** defined as the number of interactions divided by `n`.
//!
//! The crate provides the [`Protocol`] trait that concrete protocols implement
//! (see the `ssle` crate for the paper's protocols and the `processes` crate
//! for the foundational stochastic processes), [`Configuration`] for global
//! states, and **two interchangeable engines** that simulate the same Markov
//! chain:
//!
//! * [`Simulation`] — the **exact** per-agent engine: O(1) per interaction,
//!   works for every protocol with no opt-in at all;
//! * [`CountSimulation`] — the **count** (batched) multiset engine:
//!   represents the configuration as state counts, skips each run of null
//!   interactions in O(1) by sampling its geometric length, and pays only per
//!   *non-null* interaction (see the [`batched`] module docs for the
//!   algorithm and its cost model). A pluggable [`StateIndex`] maps states to
//!   dense indices: protocols with a finite state space opt in via
//!   [`EnumerableProtocol`] ([`BatchedSimulation`]); protocols with an
//!   **open** state space — `Sublinear-Time-SSR`'s names × history trees,
//!   roll call's rosters — opt in via [`InternableProtocol`]
//!   ([`InternedSimulation`]), whose index assigns dense indices to states as
//!   they are first observed (see the [`interned`] module docs).
//!
//! [`Engine`] names the engine choice, and every workload — single runs and
//! multi-trial experiments, to silence or to a stop rule, with or without an
//! explicit scheduler, fault plan, or churn plan — is described by one
//! composable [`RunSpec`] builder: `RunSpec::new(protocol).engine(e)
//! .scenario(&s).scheduler(sch).faults(fp).churn(cp).until(rule).trials(t)
//! .seed(b).run()`. Invalid combinations (e.g. a graph-restricted scheduler
//! on a count-based engine) are rejected with a typed [`SimError`] when the
//! spec is built, before any trial runs. [`RunSpec::until`] stops each trial
//! on an arbitrary permutation-invariant predicate instead of silence, and
//! [`runner`] ([`run_trials`], [`TrialPlan`]) distributes any closure across
//! threads. `ARCHITECTURE.md` at the repository root draws
//! the full engine → backend decision tree.
//!
//! # Example
//!
//! ```
//! use ppsim::prelude::*;
//! use rand::RngCore;
//!
//! /// The classic fratricide leader election: (L, L) -> (L, F).
//! struct Fratricide {
//!     n: usize,
//! }
//!
//! #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
//! enum S {
//!     Leader,
//!     Follower,
//! }
//!
//! impl Protocol for Fratricide {
//!     type State = S;
//!     fn population_size(&self) -> usize {
//!         self.n
//!     }
//!     fn transition(&self, a: &S, b: &S, _rng: &mut dyn RngCore) -> (S, S) {
//!         match (a, b) {
//!             (S::Leader, S::Leader) => (S::Leader, S::Follower),
//!             _ => (*a, *b),
//!         }
//!     }
//!     fn is_null(&self, a: &S, b: &S) -> bool {
//!         !matches!((a, b), (S::Leader, S::Leader))
//!     }
//! }
//!
//! let protocol = Fratricide { n: 50 };
//! let config = Configuration::uniform(S::Leader, 50);
//! let mut sim = Simulation::new(protocol, config, 1);
//! let outcome = sim.run_until_silent(1_000_000);
//! assert!(outcome.is_silent());
//! let leaders = sim
//!     .configuration()
//!     .iter()
//!     .filter(|s| matches!(s, S::Leader))
//!     .count();
//! assert_eq!(leaders, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod batched;
pub mod churn;
pub mod config;
pub mod error;
pub mod execution;
pub mod faults;
#[cfg(test)]
mod fixtures;
pub mod interned;
pub mod mcheck;
pub mod protocol;
pub mod runner;
pub mod runspec;
pub mod sampling;
pub mod scenario;
pub mod scheduler;
pub mod symmetry;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use agent::AgentId;
pub use batched::{
    sample_null_run, BatchedSimulation, CountProtocol, CountSimulation, Engine, EnumerableProtocol,
    EnumeratedStates, ForceDense, SamplingMode, StateIndex,
};
pub use churn::{ChurnAction, ChurnPlan};
pub use config::Configuration;
pub use error::SimError;
pub use execution::{RunOutcome, Simulation, StopReason};
pub use faults::{
    run_until_silent_perturbed, CorruptionTarget, EventRecord, FaultPlan, FaultSchedule,
    Perturbation, PerturbationHost, PerturbationKind, PerturbedRun,
};
pub use interned::{
    AsInterned, InternableProtocol, InternedSimulation, InternedStates, StateInterner,
};
pub use mcheck::{
    check_convergence, check_fault_plan_closure, expected_silence_time_exact,
    expected_silence_time_probed, expected_silence_time_scheduled, explore_reachable,
    ConvergenceReport, ConvergenceSource, CorrectnessOracle, ExactSilenceTime, FaultClosureReport,
    MCheckError, MCheckOptions, ModelChecker, ReachableSpace,
};
pub use protocol::{LeaderElectionProtocol, Protocol, Rank, RankingProtocol};
pub use runner::{run_trials, run_trials_sequential, TrialPlan};
pub use runspec::{ReadyRun, RunSpec, TrialReport};
pub use sampling::{sample_distinct_indices, sample_victims_by_counts};
pub use scenario::{Scenario, ScenarioRng};
pub use scheduler::{
    InteractionGraph, InteractionScheduler, OrderedPair, PairRates, Scheduler, Topology,
};
pub use symmetry::StateSymmetry;
pub use telemetry::{Counter, CounterBlock, Probe, Recorder, Span, TelemetrySink};
pub use time::{Interactions, ParallelTime};
pub use trace::{Trace, TraceEvent};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::agent::AgentId;
    pub use crate::batched::{
        BatchedSimulation, CountProtocol, CountSimulation, Engine, EnumerableProtocol,
        EnumeratedStates, ForceDense, SamplingMode, StateIndex,
    };
    pub use crate::churn::{ChurnAction, ChurnPlan};
    pub use crate::config::Configuration;
    pub use crate::error::SimError;
    pub use crate::execution::{RunOutcome, Simulation, StopReason};
    pub use crate::faults::{
        run_until_silent_perturbed, CorruptionTarget, EventRecord, FaultPlan, FaultSchedule,
        Perturbation, PerturbationHost, PerturbationKind, PerturbedRun,
    };
    pub use crate::interned::{
        AsInterned, InternableProtocol, InternedSimulation, InternedStates, StateInterner,
    };
    pub use crate::mcheck::{
        check_convergence, check_fault_plan_closure, expected_silence_time_exact,
        expected_silence_time_probed, expected_silence_time_scheduled, explore_reachable,
        ConvergenceReport, ConvergenceSource, CorrectnessOracle, ExactSilenceTime,
        FaultClosureReport, MCheckError, MCheckOptions, ModelChecker,
    };
    pub use crate::protocol::{LeaderElectionProtocol, Protocol, Rank, RankingProtocol};
    pub use crate::runner::{run_trials, run_trials_sequential, TrialPlan};
    pub use crate::runspec::{ReadyRun, RunSpec, TrialReport};
    pub use crate::sampling::{sample_distinct_indices, sample_victims_by_counts};
    pub use crate::scenario::{Scenario, ScenarioRng};
    pub use crate::scheduler::{
        InteractionGraph, InteractionScheduler, OrderedPair, PairRates, Scheduler, Topology,
    };
    pub use crate::symmetry::StateSymmetry;
    pub use crate::telemetry::{Counter, CounterBlock, Probe, Recorder, Span, TelemetrySink};
    pub use crate::time::{Interactions, ParallelTime};
    pub use crate::trace::{Trace, TraceEvent};
}
