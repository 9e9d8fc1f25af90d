//! One composable description of a workload, run to silence or to a stop
//! rule.
//!
//! [`RunSpec`] is the crate's one run entry point, a single builder over
//! every combination of {enumerable, interned} × {plain, scheduled, faults,
//! churn} × {explicit config, scenario} × {silence, stop rule}: pick a
//! protocol, choose the axes that apply, and run. Invalid combinations — a
//! graph-restricted scheduler on a count-based engine, a weighted scheduler
//! with all-zero rates, a spec with no initial configuration — are rejected
//! with a typed [`SimError`] when the spec is **built**, before any trial
//! spends an interaction.
//!
//! ```text
//! RunSpec::new(protocol)
//!     .engine(Engine::Batched)        // default Engine::Exact
//!     .scenario(&family)              // or .init(config) / .init_with(f)
//!     .scheduler(scheduler)           // default uniform
//!     .faults(fault_plan)             // optional mid-run corruption
//!     .churn(churn_plan)              // optional joins/leaves
//!     .until(|p, c| p.is_correct(c))  // default: stop on silence
//!     .trials(100)                    // default 1
//!     .seed(7)                        // default 0
//!     .run()?                         // Vec<TrialReport<_>>
//! ```
//!
//! Every trial produces the same unified [`TrialReport`], whatever axes were
//! active and whichever stop it ran to: the fault and churn plans resolve
//! into one time-ordered stream, one driver runs it, and every fired event
//! lands in one `events` log (empty for plain runs). The count engines key their tables by the
//! protocol's [`CountProtocol::Index`]: the enumerated space of an
//! [`crate::EnumerableProtocol`], or the interned index of an
//! open-state-space protocol (see [`crate::InternedStates`]).
//!
//! # Seeding
//!
//! [`RunSpec::run`] derives one seed per trial from the base seed with the
//! same SplitMix64 mix as [`TrialPlan`], so multi-trial results are
//! reproducible and independent of the thread schedule. [`RunSpec::run_one`]
//! uses the base seed **verbatim**, so a single run is bit-identical to
//! driving [`Simulation`] (or a batched engine) directly with that seed.

use std::fmt;
use std::sync::Arc;

use rand::SeedableRng;

use crate::batched::{CountProtocol, CountSimulation, Engine};
use crate::churn::{ChurnPlan, DEPARTURE_SALT};
use crate::config::Configuration;
use crate::error::SimError;
use crate::execution::{RunOutcome, Simulation};
use crate::faults::{
    run_until_silent_perturbed, EventRecord, FaultPlan, PerturbationHost, VICTIM_SALT,
};
use crate::protocol::Protocol;
use crate::runner::{run_trials, TrialPlan};
use crate::scenario::{Scenario, ScenarioRng};
use crate::scheduler::InteractionScheduler;
use crate::telemetry::{CounterBlock, Recorder};
use crate::time::{Interactions, ParallelTime};

/// Where a trial's initial configuration comes from.
enum Start<P: Protocol> {
    /// Nothing chosen yet; [`RunSpec::build`] rejects this.
    Unset,
    /// A fixed configuration shared by every trial.
    Config(Configuration<P::State>),
    /// A per-trial generator receiving `(trial, seed)`.
    Generate(
        #[allow(clippy::type_complexity)]
        Arc<dyn Fn(usize, u64) -> Configuration<P::State> + Send + Sync>,
    ),
    /// A named adversarial family; each trial generates its member from the
    /// trial seed.
    Scenario(Scenario<P>),
}

impl<P: Protocol> Clone for Start<P> {
    fn clone(&self) -> Self {
        match self {
            Start::Unset => Start::Unset,
            Start::Config(c) => Start::Config(c.clone()),
            Start::Generate(f) => Start::Generate(Arc::clone(f)),
            Start::Scenario(s) => Start::Scenario(s.clone()),
        }
    }
}

impl<P: Protocol> Start<P> {
    fn configuration(&self, protocol: &P, trial: usize, seed: u64) -> Configuration<P::State> {
        match self {
            Start::Unset => unreachable!("build() rejects specs without an initial configuration"),
            Start::Config(c) => c.clone(),
            Start::Generate(f) => f(trial, seed),
            Start::Scenario(s) => s.configuration(protocol, seed),
        }
    }
}

/// A complete, composable description of a workload: protocol, engine,
/// initial configurations, scheduler, fault plan, churn plan, stop rule and
/// trial plan, in one value.
///
/// The population size is carried by the protocol instance itself (every
/// [`Protocol`] declares `population_size`), so the builder takes only the
/// protocol. See the [module docs](self) for the full shape and an example.
pub struct RunSpec<P: Protocol> {
    protocol: P,
    engine: Engine,
    budget: u64,
    scheduler: InteractionScheduler<P::State>,
    faults: Option<FaultPlan<P::State>>,
    churn: Option<ChurnPlan<P::State>>,
    start: Start<P>,
    /// The stop rule; `None` runs to silence.
    #[allow(clippy::type_complexity)]
    stop: Option<Arc<dyn Fn(&P, &Configuration<P::State>) -> bool + Send + Sync>>,
    trials: usize,
    base_seed: u64,
    threads: usize,
    probe: bool,
}

impl<P: Protocol + Clone> Clone for RunSpec<P> {
    fn clone(&self) -> Self {
        RunSpec {
            protocol: self.protocol.clone(),
            engine: self.engine,
            budget: self.budget,
            scheduler: self.scheduler.clone(),
            faults: self.faults.clone(),
            churn: self.churn.clone(),
            start: self.start.clone(),
            stop: self.stop.clone(),
            trials: self.trials,
            base_seed: self.base_seed,
            threads: self.threads,
            probe: self.probe,
        }
    }
}

/// The default interaction budget: effectively unbounded while staying clear
/// of overflow in downstream arithmetic (matches the budget the experiment
/// binaries have always used).
pub const DEFAULT_BUDGET: u64 = u64::MAX >> 8;

impl<P: Protocol> RunSpec<P> {
    /// Starts a spec for `protocol` with the defaults: exact engine, uniform
    /// scheduler, no faults, no churn, one trial, seed 0, budget
    /// [`DEFAULT_BUDGET`].
    pub fn new(protocol: P) -> Self {
        RunSpec {
            protocol,
            engine: Engine::Exact,
            budget: DEFAULT_BUDGET,
            scheduler: InteractionScheduler::Uniform,
            faults: None,
            churn: None,
            start: Start::Unset,
            stop: None,
            trials: 1,
            base_seed: 0,
            threads: 0,
            probe: false,
        }
    }

    /// Selects the simulation engine (default [`Engine::Exact`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Caps every trial at `budget` interactions (default [`DEFAULT_BUDGET`]).
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Selects the interaction scheduler (default
    /// [`InteractionScheduler::Uniform`]).
    pub fn scheduler(mut self, scheduler: InteractionScheduler<P::State>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Injects a mid-run corruption stream resolved from each trial's seed.
    pub fn faults(mut self, plan: FaultPlan<P::State>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Applies a population churn stream resolved from each trial's seed.
    /// Composes with [`RunSpec::faults`]: both streams merge into one event
    /// sequence in time order.
    pub fn churn(mut self, plan: ChurnPlan<P::State>) -> Self {
        self.churn = Some(plan);
        self
    }

    /// Starts every trial from the same fixed configuration.
    pub fn init(mut self, config: Configuration<P::State>) -> Self {
        self.start = Start::Config(config);
        self
    }

    /// Starts each trial from `generate(trial, seed)`; the generator decides
    /// how (or whether) to use the trial seed.
    pub fn init_with(
        mut self,
        generate: impl Fn(usize, u64) -> Configuration<P::State> + Send + Sync + 'static,
    ) -> Self {
        self.start = Start::Generate(Arc::new(generate));
        self
    }

    /// Starts each trial from the scenario family member generated by the
    /// trial seed (the adversarial-initialization axis).
    pub fn scenario(mut self, scenario: &Scenario<P>) -> Self {
        self.start = Start::Scenario(scenario.clone());
        self
    }

    /// Stops each trial as soon as `stop` holds for the protocol and the
    /// current configuration, instead of at silence (the default).
    ///
    /// The rule must be permutation-invariant: the count engines hand it
    /// their canonical configuration. The exact engine checks it every
    /// `n/8` interactions and reports the end of that chunk; the count
    /// engines check it after every applied transition (after every epoch
    /// in batch-count mode). A trial whose configuration falls silent
    /// before the rule holds can never meet it: it stops there, with
    /// [`StopReason::Silent`](crate::StopReason::Silent) at the exact
    /// silence point, on every engine. Under faults or churn each segment
    /// runs to the rule, and the point where it first holds is the
    /// segment's re-stabilization.
    pub fn until(
        mut self,
        stop: impl Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.stop = Some(Arc::new(stop));
        self
    }

    /// Sets the number of independent trials (default 1).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base seed (default 0). [`RunSpec::run`] derives per-trial
    /// seeds from it; [`RunSpec::run_one`] uses it verbatim.
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Restricts the trial runner to a fixed number of worker threads
    /// (default 0 = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a telemetry [`Recorder`] to every trial (default off).
    ///
    /// When enabled, each [`TrialReport`] carries the full recorder in
    /// [`TrialReport::telemetry`]: log-spaced convergence probes and
    /// begin/end spans around the engine's hot phases. Counters are
    /// **always** harvested into [`TrialReport::counters`], probe or not —
    /// they are RNG-free and never perturb the trajectory.
    pub fn probe(mut self, probe: bool) -> Self {
        self.probe = probe;
        self
    }

    /// Validates the spec and freezes it into a [`ReadyRun`].
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingInitialConfiguration`] — none of `init`,
    ///   `init_with`, or `scenario` was called;
    /// * [`SimError::PopulationTooSmall`] — the protocol declares fewer than
    ///   two agents;
    /// * [`SimError::ConfigurationSizeMismatch`] — a fixed `init`
    ///   configuration does not match the protocol's population size;
    /// * [`SimError::SchedulerNeedsIdentities`] — a graph-restricted
    ///   scheduler paired with a count-based engine, which erases the agent
    ///   identities the graph is defined over;
    /// * [`SimError::ZeroRateScheduler`] — a weighted scheduler whose rates
    ///   are all zero.
    pub fn build(self) -> Result<ReadyRun<P>, SimError> {
        let n = self.protocol.population_size();
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        match &self.start {
            Start::Unset => return Err(SimError::MissingInitialConfiguration),
            Start::Config(c) if c.len() != n => {
                return Err(SimError::ConfigurationSizeMismatch { expected: n, actual: c.len() })
            }
            _ => {}
        }
        match &self.scheduler {
            InteractionScheduler::WeightedPairs(rates) if rates.max_rate() == 0 => {
                return Err(SimError::ZeroRateScheduler)
            }
            InteractionScheduler::GraphRestricted(_) if self.engine != Engine::Exact => {
                return Err(SimError::SchedulerNeedsIdentities {
                    scheduler: self.scheduler.label(),
                    engine: "batched",
                })
            }
            _ => {}
        }
        Ok(ReadyRun { spec: self })
    }

    fn plan(&self) -> TrialPlan {
        TrialPlan { trials: self.trials, base_seed: self.base_seed, threads: self.threads }
    }
}

/// Names the spec: everything but the closures, which show as the kind of
/// start and of stop.
impl<P: Protocol + fmt::Debug> fmt::Debug for RunSpec<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let start = match &self.start {
            Start::Unset => "unset".to_owned(),
            Start::Config(_) => "init".to_owned(),
            Start::Generate(_) => "init_with".to_owned(),
            Start::Scenario(s) => format!("scenario {:?}", s.name()),
        };
        f.debug_struct("RunSpec")
            .field("protocol", &self.protocol)
            .field("engine", &self.engine)
            .field("start", &start)
            .field("stop", &if self.stop.is_some() { "until" } else { "silence" })
            .field("scheduler", &self.scheduler.label())
            .field("faults", &self.faults.as_ref().map(|p| p.name()))
            .field("churn", &self.churn.as_ref().map(|p| p.name()))
            .field("trials", &self.trials)
            .field("seed", &self.base_seed)
            .field("budget", &self.budget)
            .finish()
    }
}

impl<P: CountProtocol + Clone + Sync> RunSpec<P> {
    /// Builds and runs the spec, returning the per-trial reports in trial
    /// order (shorthand for `build()?.run()`).
    ///
    /// # Errors
    ///
    /// The build-time validation errors of [`RunSpec::build`].
    pub fn run(self) -> Result<Vec<TrialReport<P::State>>, SimError> {
        Ok(self.build()?.run())
    }

    /// Builds the spec and runs a single execution seeded with the base seed
    /// verbatim (shorthand for `build()?.run_one()`).
    ///
    /// # Errors
    ///
    /// The build-time validation errors of [`RunSpec::build`].
    pub fn run_one(self) -> Result<TrialReport<P::State>, SimError> {
        Ok(self.build()?.run_one())
    }
}

/// A validated [`RunSpec`]: every trial is guaranteed to construct its
/// simulation successfully, so the run methods are infallible.
pub struct ReadyRun<P: Protocol> {
    spec: RunSpec<P>,
}

impl<P: CountProtocol + Clone + Sync> ReadyRun<P> {
    /// Runs the trials across threads, returning reports in trial order.
    ///
    /// Each trial's seed is derived from the base seed with the
    /// [`TrialPlan`] mix, so results are reproducible and independent of the
    /// thread schedule.
    pub fn run(&self) -> Vec<TrialReport<P::State>> {
        let plan = self.spec.plan();
        run_trials(&plan, |trial, seed| self.trial(trial, seed))
    }

    /// Runs one execution seeded with the spec's base seed verbatim: the
    /// single-run counterpart of [`ReadyRun::run`], bit-identical to driving
    /// the underlying simulation directly with that seed.
    pub fn run_one(&self) -> TrialReport<P::State> {
        self.trial(0, self.spec.base_seed)
    }

    fn trial(&self, trial: usize, seed: u64) -> TrialReport<P::State> {
        let spec = &self.spec;
        let protocol = spec.protocol.clone();
        let config = spec.start.configuration(&protocol, trial, seed);
        match spec.engine {
            Engine::Exact => {
                let mut sim =
                    Simulation::try_new_scheduled(protocol, config, seed, &spec.scheduler)
                        .expect("run spec validated upfront");
                let final_config = |sim: &Simulation<P>| sim.configuration().clone();
                drive(spec, seed, &mut sim, final_config)
            }
            Engine::Batched | Engine::BatchedCounts => {
                let mut sim = CountSimulation::<P, P::Index>::try_new_scheduled(
                    protocol,
                    &config,
                    seed,
                    &spec.scheduler,
                )
                .expect("run spec validated upfront")
                .with_sampling_mode(spec.engine.sampling_mode());
                let final_config = |sim: &CountSimulation<P, P::Index>| sim.to_configuration();
                drive(spec, seed, &mut sim, final_config)
            }
        }
    }
}

/// Drives one constructed simulation through the spec's perturbation stream.
///
/// Shared by the exact and count engines: the host type differs, but the
/// event-stream logic is identical. The fault and churn plans resolve into
/// one time-ordered stream; a plain run is the empty stream. `final_config`
/// extracts the final configuration once the run stops (a closure because
/// the exact engine borrows it while the count engines materialize it).
fn drive<P, H, F>(
    spec: &RunSpec<P>,
    seed: u64,
    sim: &mut H,
    final_config: F,
) -> TrialReport<P::State>
where
    P: Protocol,
    H: PerturbationHost<State = P::State>,
    F: Fn(&H) -> Configuration<P::State>,
{
    if spec.probe {
        sim.attach_telemetry(Recorder::new());
    }
    // Each plan keeps its own stream (and engine-side RNG); the stable sort
    // merges them so a burst fires before a churn event at the same index.
    let faults = spec.faults.iter().flat_map(|plan| plan.resolve(seed));
    let churn = spec.churn.iter().flat_map(|plan| plan.resolve(seed));
    let mut events: Vec<_> = faults.chain(churn).collect();
    events.sort_by_key(|e| e.at);
    let mut victim_rng = ScenarioRng::seed_from_u64(seed ^ VICTIM_SALT);
    let mut departure_rng = ScenarioRng::seed_from_u64(seed ^ DEPARTURE_SALT);
    let stop =
        spec.stop.as_ref().map(|stop| move |c: &Configuration<P::State>| stop(&spec.protocol, c));
    let run = run_until_silent_perturbed(
        sim,
        &events,
        &mut victim_rng,
        &mut departure_rng,
        spec.budget,
        stop.as_ref().map(|stop| stop as &dyn Fn(&Configuration<P::State>) -> bool),
    );
    let final_config = final_config(sim);
    let counters = sim.counters();
    let telemetry = sim.take_telemetry().map(|mut recorder| {
        // Freeze the counter registry into the recorder so a serialized
        // recorder is self-contained.
        recorder.counters = counters;
        Box::new(recorder)
    });
    TrialReport {
        outcome: run.outcome,
        final_config,
        initial_silence: run.initial_silence,
        events: run.events,
        counters,
        telemetry,
    }
}

/// The unified result of one [`RunSpec`] trial, whatever axes were active.
///
/// Every fired fault burst and churn event has one [`EventRecord`] in
/// `events`, in time order; plain runs leave it empty. Runs to silence and
/// runs to a [`RunSpec::until`] rule report the same shape.
#[derive(Clone, PartialEq, Debug)]
pub struct TrialReport<S> {
    /// Why and when the run finally stopped. For silent stops the
    /// interaction count is the exact silence point of the last segment.
    pub outcome: RunOutcome,
    /// The final configuration (for the count engines, the canonical
    /// materialization: agents sorted by state index); its length is the
    /// final population.
    pub final_config: Configuration<S>,
    /// The exact silence point reached before the first fault/churn event —
    /// for plain runs, the silence point of the whole run, if silent. With a
    /// [`RunSpec::until`] rule, the point where the rule first held counts
    /// as well.
    pub initial_silence: Option<Interactions>,
    /// One record per fired fault burst or churn event, in time order.
    pub events: Vec<EventRecord>,
    /// The engine's unified counter registry at the end of the trial.
    /// Always populated (counters are RNG-free and cost one array of
    /// increments whether or not telemetry is attached).
    pub counters: CounterBlock,
    /// The full telemetry recorder — convergence probes and phase spans —
    /// when the spec enabled [`RunSpec::probe`]; `None` otherwise.
    pub telemetry: Option<Box<Recorder>>,
}

impl<S> TrialReport<S> {
    /// The final population size (the length of the final configuration;
    /// differs from the initial size only under churn).
    pub fn final_population(&self) -> usize {
        self.final_config.len()
    }

    /// The run's stop point as parallel time at the final population size.
    pub fn parallel_time(&self) -> ParallelTime {
        self.outcome.interactions.to_parallel_time(self.final_config.len())
    }

    /// The re-stabilization time of the last event, if the run re-silenced
    /// after it — for a fault plan, the paper's "stabilization time from
    /// the final transient corruption".
    pub fn final_restabilization(&self) -> Option<Interactions> {
        self.events.last().and_then(|r| r.restabilization)
    }

    /// The last event's re-stabilization expressed as parallel time **at the
    /// final population size**.
    pub fn final_restabilization_parallel_time(&self) -> Option<ParallelTime> {
        self.final_restabilization().map(|i| i.to_parallel_time(self.final_config.len()))
    }

    /// Whether at least one event fired and every fired event was
    /// re-stabilized from before the next one.
    pub fn restabilized_after_every_event(&self) -> bool {
        !self.events.is_empty() && self.events.iter().all(|r| r.restabilization.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnAction;
    use crate::faults::CorruptionTarget;
    use crate::fixtures::{leaders, Frat};
    use crate::scheduler::{PairRates, Topology};

    fn all_leaders(n: usize) -> Configuration<u8> {
        Configuration::uniform(0u8, n)
    }

    #[test]
    fn invalid_combinations_are_rejected_at_build_time() {
        let err = RunSpec::new(Frat { n: 10 })
            .engine(Engine::Batched)
            .scheduler(InteractionScheduler::GraphRestricted(Topology::Ring))
            .init(all_leaders(10))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SimError::SchedulerNeedsIdentities { .. }), "{err}");

        let err = RunSpec::new(Frat { n: 10 })
            .scheduler(InteractionScheduler::WeightedPairs(PairRates::new(0)))
            .init(all_leaders(10))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, SimError::ZeroRateScheduler);

        let err = RunSpec::new(Frat { n: 10 }).build().map(|_| ()).unwrap_err();
        assert_eq!(err, SimError::MissingInitialConfiguration);

        let err =
            RunSpec::new(Frat { n: 10 }).init(all_leaders(9)).build().map(|_| ()).unwrap_err();
        assert_eq!(err, SimError::ConfigurationSizeMismatch { expected: 10, actual: 9 });

        let err = RunSpec::new(Frat { n: 1 }).init(all_leaders(1)).build().map(|_| ()).unwrap_err();
        assert_eq!(err, SimError::PopulationTooSmall { n: 1 });
    }

    #[test]
    fn graph_schedulers_run_on_the_exact_engine() {
        let report = RunSpec::new(Frat { n: 8 })
            .scheduler(InteractionScheduler::GraphRestricted(Topology::Ring))
            .init(all_leaders(8))
            .seed(3)
            .run_one()
            .unwrap();
        assert!(report.outcome.is_silent());
        // Ring silence is scheduler-relative: no *adjacent* leader pair, so
        // several non-adjacent leaders may survive — but never zero.
        assert!(report.final_config.count_matching(|&s| s == 0) >= 1);
    }

    #[test]
    fn run_one_matches_a_direct_simulation_with_the_same_seed() {
        let report = RunSpec::new(Frat { n: 30 }).init(all_leaders(30)).seed(11).run_one().unwrap();
        let mut sim = Simulation::new(Frat { n: 30 }, all_leaders(30), 11);
        let outcome = sim.run_until_silent(DEFAULT_BUDGET);
        assert_eq!(report.outcome, outcome);
        assert_eq!(&report.final_config, sim.configuration());
        assert_eq!(report.initial_silence, Some(outcome.interactions));
    }

    #[test]
    fn all_three_engines_elect_one_leader_over_trials() {
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let reports = RunSpec::new(Frat { n: 40 })
                .engine(engine)
                .init(all_leaders(40))
                .trials(4)
                .seed(7)
                .run()
                .unwrap();
            assert_eq!(reports.len(), 4);
            for report in &reports {
                assert!(report.outcome.is_silent());
                assert_eq!(report.final_config.count_matching(|&s| s == 0), 1, "{engine}");
                assert!(report.events.is_empty());
            }
        }
    }

    #[test]
    fn trial_seeds_are_reproducible_and_distinct() {
        let spec = || {
            RunSpec::new(Frat { n: 25 })
                .engine(Engine::Batched)
                .init_with(|_, _| all_leaders(25))
                .trials(3)
                .seed(5)
        };
        let a = spec().run().unwrap();
        let b = spec().run().unwrap();
        assert_eq!(a, b);
        // Distinct derived seeds: silence points differ across trials.
        assert!(a.windows(2).any(|w| w[0].outcome != w[1].outcome));
    }

    #[test]
    fn fault_axis_records_injections_and_recoveries() {
        let plan = FaultPlan::periodic(500, 2_000, 3, 4, CorruptionTarget::Fixed(0u8));
        let reports = RunSpec::new(Frat { n: 20 })
            .engine(Engine::Batched)
            .init(all_leaders(20))
            .faults(plan)
            .trials(3)
            .seed(9)
            .run()
            .unwrap();
        for report in &reports {
            assert!(report.outcome.is_silent());
            assert_eq!(report.events.len(), 3);
            assert!(report.events.iter().all(|r| r.corrupted == 4 && r.joined == 0));
            assert!(report.restabilized_after_every_event());
            assert!(report.final_restabilization().is_some());
        }
    }

    #[test]
    fn churn_axis_resizes_the_population() {
        let churn = ChurnPlan::one_shot(
            1_000,
            ChurnAction::Join { count: 5, state: CorruptionTarget::Fixed(0u8) },
        );
        let reports = RunSpec::new(Frat { n: 20 })
            .engine(Engine::Batched)
            .init(all_leaders(20))
            .churn(churn)
            .trials(4)
            .seed(13)
            .run()
            .unwrap();
        assert_eq!(reports.len(), 4);
        for report in &reports {
            assert!(report.outcome.is_silent());
            assert_eq!(report.final_population(), 25);
            assert!(report.restabilized_after_every_event());
            assert!(report.events.iter().all(|r| r.corrupted == 0));
        }
    }

    #[test]
    fn churn_and_faults_merge_into_one_event_stream() {
        let churn = ChurnPlan::one_shot(
            1_000,
            ChurnAction::Join { count: 3, state: CorruptionTarget::Fixed(0u8) },
        );
        let faults = FaultPlan::one_shot(2_000, 2, CorruptionTarget::Fixed(0u8));
        let report = RunSpec::new(Frat { n: 20 })
            .init(all_leaders(20))
            .churn(churn)
            .faults(faults)
            .seed(17)
            .run_one()
            .unwrap();
        assert!(report.outcome.is_silent());
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].joined, 3);
        assert_eq!(report.events[1].corrupted, 2);
        assert_eq!(report.final_population(), 23);
    }

    #[test]
    fn until_stops_on_the_rule_or_at_silence_on_every_engine() {
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let spec = |init| RunSpec::new(Frat { n: 40 }).engine(engine).init(init).seed(3);
            let report = spec(all_leaders(40)).until(|_, c| leaders(c) <= 20).run_one().unwrap();
            assert!(report.outcome.condition_met(), "{engine}");
            assert!(leaders(&report.final_config) <= 20, "{engine}");
            assert_eq!(report.initial_silence, Some(report.outcome.interactions));

            // All followers: silent from the start, so `one leader` can never
            // hold. Every engine stops at the exact silence point.
            let followers = Configuration::uniform(1u8, 40);
            let report = spec(followers).until(|_, c| leaders(c) == 1).run_one().unwrap();
            assert!(report.outcome.is_silent(), "{engine}");
            assert_eq!(report.outcome.interactions, Interactions::ZERO, "{engine}");

            // From all leaders `no leader` never holds; the run stops once
            // one leader is left and the configuration is silent.
            let report = spec(all_leaders(40)).until(|_, c| leaders(c) == 0).run_one().unwrap();
            assert!(report.outcome.is_silent(), "{engine}");
            assert_eq!(leaders(&report.final_config), 1, "{engine}");
            if engine == Engine::Exact {
                // Same seed, same trajectory: the silence point of a plain run.
                let plain = spec(all_leaders(40)).run_one().unwrap();
                assert_eq!(report.outcome, plain.outcome);
            }
        }
    }

    #[test]
    fn until_ends_each_perturbed_segment_where_the_rule_first_holds() {
        let plan = FaultPlan::one_shot(2_000, 4, CorruptionTarget::Fixed(0u8));
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let report = RunSpec::new(Frat { n: 20 })
                .engine(engine)
                .init(all_leaders(20))
                .faults(plan.clone())
                .until(|_, c| leaders(c) == 1)
                .seed(7)
                .run_one()
                .unwrap();
            assert!(report.outcome.condition_met(), "{engine}");
            assert!(report.initial_silence.is_some(), "{engine}");
            assert!(report.restabilized_after_every_event(), "{engine}");
            let event = report.events[0];
            let recovered = event.at + event.restabilization.unwrap();
            assert_eq!(recovered, report.outcome.interactions, "{engine}");
        }
    }

    #[test]
    fn debug_names_the_spec() {
        let spec = RunSpec::new(Frat { n: 8 }).init(all_leaders(8)).trials(2).seed(4);
        let name = format!("{spec:?}");
        assert!(name.contains("stop: \"silence\""), "{name}");
        assert!(name.contains("Frat { n: 8 }") && name.contains("seed: 4"), "{name}");
        let name = format!("{:?}", spec.until(|_, c| leaders(c) == 1));
        assert!(name.contains("stop: \"until\""), "{name}");
    }

    #[test]
    fn scenario_axis_generates_per_trial_members() {
        let scenario = Scenario::new("all-leader", |p: &Frat, _| all_leaders(p.n));
        let reports = RunSpec::new(Frat { n: 30 })
            .engine(Engine::Batched)
            .scenario(&scenario)
            .trials(3)
            .seed(21)
            .run()
            .unwrap();
        assert!(reports.iter().all(|r| r.outcome.is_silent()));
    }
}
