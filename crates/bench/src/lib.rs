//! # bench — experiment harness
//!
//! What the experiment binaries (`cargo run --release -p bench --bin
//! exp_*`) share. A binary describes each measurement as one
//! [`RunSpec`] — protocol, engine, start, stop rule, trials,
//! seed — and [`parallel_times`] runs it, returning one **parallel time**
//! (interactions / n) per trial for the binary's statistics. One spec per
//! protocol below starts the paper's three protocols from their [`Workload`]
//! starts and stops them where the paper measures them; `--engine` picks the
//! engine ([`engine_from_args`]).
//!
//! The engine head-to-heads (`bench_*`) time each engine with [`measure`]
//! instead, and every bench binary writes its `BENCH_*.json` through
//! [`perf::write_bench`].
//!
//! Together the binaries regenerate every table, theorem and lemma of the
//! paper that makes a quantitative claim; `ARCHITECTURE.md` maps each paper
//! object to the binary that measures it, and `README.md` lists the
//! commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use std::fmt::Debug;
use std::time::Instant;

use perf::Json;
use ppsim::{
    AgentId, Configuration, CountProtocol, Counter, CounterBlock, LeaderElectionProtocol,
    PerturbationHost, RunSpec,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::params::{OptimalSilentParams, SublinearParams};
use ssle::reset::ResetTimers;
use ssle::{OptimalSilentSsr, OptimalSilentState, SilentNStateSsr, SublinearTimeSsr};

pub use ppsim::Engine;

/// Runs `spec` and returns each trial's parallel time at its stop point
/// (interactions over the final population size), in trial order.
///
/// A run stops on silence, or on its [`RunSpec::until`] rule; silence ends
/// a stop-rule run too, since a silent configuration never changes again.
///
/// # Panics
///
/// If the spec does not build, or if a trial used up its budget before it
/// stopped. The message names the spec and the trial.
pub fn parallel_times<P>(spec: RunSpec<P>) -> Vec<f64>
where
    P: CountProtocol + Clone + Sync + Debug,
{
    let name = format!("{spec:?}");
    let reports = spec.run().unwrap_or_else(|err| panic!("{name}: {err}"));
    reports
        .iter()
        .enumerate()
        .map(|(trial, report)| {
            assert!(
                !report.outcome.budget_exhausted(),
                "{name}: trial {trial} ran out of budget at {} interactions",
                report.outcome.interactions.count()
            );
            report.parallel_time().value()
        })
        .collect()
}

/// One engine's means over the trials of a head-to-head, from [`measure`].
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Trials run.
    pub trials: usize,
    /// Mean wall-clock seconds of building the engine and running it.
    pub mean_wall_s: f64,
    /// Mean interactions the engine executed.
    pub mean_interactions: f64,
    /// Every engine counter, summed over the trials.
    totals: CounterBlock,
}

impl Measurement {
    /// The mean of one engine counter per trial.
    pub fn mean(&self, counter: Counter) -> f64 {
        self.totals.get(counter) as f64 / self.trials as f64
    }

    /// Mean wall-clock nanoseconds per executed interaction.
    pub fn ns_per_interaction(&self) -> f64 {
        self.mean_wall_s * 1e9 / self.mean_interactions
    }

    /// The row every head-to-head records for one engine at size `n`:
    /// `n`, `engine`, `trials`, `mean_wall_s` and `mean_interactions`.
    pub fn row(&self, n: usize, engine: Engine) -> Json {
        Json::object([
            ("n", n.into()),
            ("engine", engine.to_string().into()),
            ("trials", self.trials.into()),
            ("mean_wall_s", self.mean_wall_s.into()),
            ("mean_interactions", self.mean_interactions.into()),
        ])
    }
}

/// Times `trials` runs of one engine. Trial `t` (seed `t`) builds its start
/// with `start(t)` off the clock; `run(&mut start, t)` builds the engine,
/// runs it and returns it, on the clock. The interactions and counters
/// are the returned engine's own, and the engine and its start are dropped
/// off the clock.
pub fn measure<S, H: PerturbationHost>(
    trials: usize,
    start: impl Fn(u64) -> S,
    run: impl Fn(&mut S, u64) -> H,
) -> Measurement {
    let (mut wall, mut interactions, mut totals) = (0.0, 0.0, CounterBlock::default());
    for seed in 0..trials as u64 {
        let mut state = start(seed);
        let clock = Instant::now();
        let engine = run(&mut state, seed);
        wall += clock.elapsed().as_secs_f64();
        interactions += engine.interactions_so_far().count() as f64;
        totals.merge(&engine.counters());
    }
    let t = trials as f64;
    Measurement { trials, mean_wall_s: wall / t, mean_interactions: interactions / t, totals }
}

/// Moves a [`measure`] start out for an engine that owns its configuration
/// (the exact engine), leaving an empty one to drop off the clock.
pub fn take_start<S>(start: &mut Configuration<S>) -> Configuration<S> {
    std::mem::replace(start, Configuration::from_states(Vec::new()))
}

/// Picks the simulation engine from a `--engine exact|batched|batchcount`
/// (or `--engine=...`) command-line flag, falling back to `default`.
/// Experiment binaries use this so each workload's default routing (batched
/// where the null-skip pays off, exact elsewhere) can be overridden without
/// recompiling.
///
/// # Panics
///
/// Panics on an unrecognized engine name, listing the valid ones.
pub fn engine_from_args(default: Engine) -> Engine {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value = if arg == "--engine" {
            Some(
                args.next()
                    .expect("--engine requires a value: \"exact\", \"batched\" or \"batchcount\""),
            )
        } else {
            arg.strip_prefix("--engine=").map(str::to_owned)
        };
        if let Some(value) = value {
            return match value.as_str() {
                "exact" => Engine::Exact,
                "batched" => Engine::Batched,
                "batchcount" => Engine::BatchedCounts,
                other => panic!(
                    "unknown engine {other:?}; expected \"exact\", \"batched\" or \"batchcount\""
                ),
            };
        }
    }
    default
}

/// Which adversarial initial configuration to start a protocol from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The protocol-specific worst-case configuration (Theorem 2.4's barrier
    /// construction for the baseline, the all-same-rank configuration for
    /// `Optimal-Silent-SSR`, a planted duplicate name for
    /// `Sublinear-Time-SSR`).
    WorstCase,
    /// An independently random configuration over the protocol's state space
    /// (a "typical" transient-fault outcome).
    Random,
    /// The configuration reached right after a clean reset (unique random
    /// names / a single settled root), measuring the non-self-stabilizing
    /// "happy path".
    CleanStart,
}

/// A per-trial start for [`RunSpec::init_with`]: `draw` receives an RNG
/// seeded with the trial seed XOR `salt`.
fn salted<S>(
    salt: u64,
    draw: impl Fn(&mut ChaCha8Rng) -> Configuration<S> + Send + Sync + 'static,
) -> impl Fn(usize, u64) -> Configuration<S> + Send + Sync + 'static {
    move |_, seed| draw(&mut ChaCha8Rng::seed_from_u64(seed ^ salt))
}

/// `Silent-n-state-SSR` at population `n` from a workload's per-trial
/// starts, run to silence.
pub fn silent_n_state(n: usize, workload: Workload) -> RunSpec<SilentNStateSsr> {
    let protocol = SilentNStateSsr::new(n);
    RunSpec::new(protocol).init_with(salted(0xA5A5, move |rng| match workload {
        Workload::WorstCase => protocol.worst_case_configuration(),
        Workload::Random => protocol.random_configuration(rng),
        Workload::CleanStart => protocol.ranked_configuration(),
    }))
}

/// `Optimal-Silent-SSR` from a workload's per-trial starts, run until the
/// ranking is correct (a correct configuration is silent, hence stable).
pub fn optimal_silent(
    params: OptimalSilentParams,
    workload: Workload,
) -> RunSpec<OptimalSilentSsr> {
    let protocol = OptimalSilentSsr::new(params);
    RunSpec::new(protocol)
        .init_with(salted(0x5A5A, move |rng| match workload {
            Workload::WorstCase => protocol.adversarial_all_same_rank(1),
            Workload::Random => protocol.random_configuration(rng),
            Workload::CleanStart => protocol.post_reset_configuration(),
        }))
        .until(|p, c| p.is_correct(c))
}

/// `Propagate-Reset` inside `Optimal-Silent-SSR`: from the all-triggered
/// configuration until every agent has left the `Resetting` role
/// (Lemmas 3.2–3.4).
pub fn optimal_silent_reset(params: OptimalSilentParams) -> RunSpec<OptimalSilentSsr> {
    let timers = ResetTimers { resetcount: params.reset.r_max, delaytimer: 0 };
    let triggered = OptimalSilentState::Resetting { leader: true, timers };
    RunSpec::new(OptimalSilentSsr::new(params))
        .init(Configuration::uniform(triggered, params.n))
        .until(|_, c| c.iter().all(|s| !matches!(s, OptimalSilentState::Resetting { .. })))
}

/// `Sublinear-Time-SSR` from a workload's per-trial starts, run until the
/// ranking is correct (the protocol is not silent at `H ≥ 1`).
pub fn sublinear(params: SublinearParams, workload: Workload) -> RunSpec<SublinearTimeSsr> {
    let protocol = SublinearTimeSsr::new(params);
    RunSpec::new(protocol)
        .init_with(salted(0x1234, move |rng| match workload {
            Workload::WorstCase => protocol.colliding_configuration(rng),
            Workload::Random => protocol.ghost_configuration(rng),
            Workload::CleanStart => protocol.fresh_configuration(rng),
        }))
        .until(|p, c| p.is_correct(c))
}

/// `Sublinear-Time-SSR` from a planted duplicate name (drawn apart from
/// [`sublinear`]'s worst case) until the first agent resets: Lemma 5.6's
/// collision-detection latency, without the reset and roll-call costs that
/// follow it.
pub fn sublinear_detection(params: SublinearParams) -> RunSpec<SublinearTimeSsr> {
    let protocol = SublinearTimeSsr::new(params);
    RunSpec::new(protocol)
        .init_with(salted(0x4321, move |rng| protocol.colliding_configuration(rng)))
        .until(|_, c| SublinearTimeSsr::any_resetting(c))
}

/// `config` with a second copy of its leader's state planted on agent 1:
/// Observation 2.6's start, from which the two copies must meet directly.
///
/// # Panics
///
/// If `config` has no leader.
pub fn with_cloned_leader<P: LeaderElectionProtocol>(
    protocol: &P,
    mut config: Configuration<P::State>,
) -> Configuration<P::State> {
    let leader = config.iter().find(|s| protocol.is_leader(s)).expect("a leader to clone").clone();
    config.set(AgentId::new(1), leader);
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::Summary;
    use ppsim::prelude::*;
    use ssle::SilentRank;

    fn roll_call(n: usize) -> RunSpec<processes::RollCall> {
        let protocol = processes::RollCall::new(n);
        RunSpec::new(protocol).init(protocol.initial_configuration())
    }

    fn boosted(rate: u64) -> InteractionScheduler<SilentRank> {
        InteractionScheduler::WeightedPairs(PairRates::new(1).with_rate(
            SilentRank(0),
            SilentRank(0),
            rate,
        ))
    }

    /// Runs `spec` over `trials` trials and checks every time is positive.
    fn assert_positive<P>(spec: RunSpec<P>, trials: usize)
    where
        P: CountProtocol + Clone + Sync + Debug,
    {
        let times = parallel_times(spec.trials(trials));
        assert_eq!(times.len(), trials);
        assert!(times.iter().all(|&t| t > 0.0), "{times:?}");
    }

    #[test]
    fn measure_seeds_trials_verbatim_and_counts_what_the_engine_ran() {
        let protocol = SilentNStateSsr::new(20);
        let start = |_| protocol.worst_case_configuration();
        let capped = measure(3, start, |config, seed| {
            let mut sim = Simulation::new(protocol, take_start(config), seed);
            sim.run_for(1_000);
            sim
        });
        assert_eq!((capped.trials, capped.mean_interactions), (3, 1_000.0));
        let batched = measure(2, start, |config, seed| {
            let mut sim = BatchedSimulation::new(protocol, config, seed);
            assert!(sim.run_until_silent(u64::MAX >> 1).is_silent());
            sim
        });
        let direct: Vec<(f64, f64)> = (0..2)
            .map(|seed| {
                let mut sim = BatchedSimulation::new(protocol, &start(seed), seed);
                sim.run_until_silent(u64::MAX >> 1);
                (sim.interactions().count() as f64, sim.transitions() as f64)
            })
            .collect();
        assert_eq!(batched.mean_interactions, (direct[0].0 + direct[1].0) / 2.0);
        assert_eq!(batched.mean(Counter::Transitions), (direct[0].1 + direct[1].1) / 2.0);
        assert!(batched.mean_wall_s > 0.0);
        let row = batched.row(20, Engine::Batched);
        assert_eq!(row.get("engine").and_then(Json::as_str), Some("batched"));
        assert_eq!(row.get("n").and_then(Json::as_f64), Some(20.0));
        assert_eq!(
            row.get("mean_interactions").and_then(Json::as_f64),
            Some(batched.mean_interactions)
        );
    }

    #[test]
    fn measurement_helpers_produce_positive_times() {
        assert_positive(silent_n_state(12, Workload::WorstCase).seed(1), 3);
        let params = OptimalSilentParams::recommended(12);
        assert_positive(optimal_silent(params, Workload::WorstCase).seed(2), 3);
        let params = SublinearParams::recommended(10, 1);
        assert_positive(sublinear(params, Workload::WorstCase).seed(3), 2);
    }

    #[test]
    #[should_panic(expected = "trial 0 ran out of budget")]
    fn parallel_times_names_the_spec_of_a_trial_that_missed_its_stop() {
        parallel_times(silent_n_state(12, Workload::WorstCase).budget(10));
    }

    #[test]
    fn clean_start_is_faster_than_worst_case_for_the_baseline() {
        let times = |workload, seed| silent_n_state(16, workload).trials(4).seed(seed);
        let worst = Summary::from_samples(&parallel_times(times(Workload::WorstCase, 5))).mean;
        let clean = Summary::from_samples(&parallel_times(times(Workload::CleanStart, 6))).mean;
        assert!(clean <= worst);
        // A ranked configuration is already silent.
        assert_eq!(clean, 0.0);
    }

    #[test]
    fn scenario_routines_measure_all_families() {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            for engine in [Engine::Exact, Engine::Batched] {
                let spec =
                    RunSpec::new(SilentNStateSsr::new(10)).engine(engine).scenario(&scenario);
                let times = parallel_times(spec.budget(50_000_000).trials(2).seed(11));
                assert_eq!(times.len(), 2);
                assert!(times.iter().all(|&t| t >= 0.0));
            }
        }
        let scenario = &OptimalSilentSsr::adversarial_scenarios()[0];
        let spec = optimal_silent(OptimalSilentParams::recommended(10), Workload::WorstCase);
        assert_positive(spec.scenario(scenario).budget(50_000_000).seed(13), 2);
    }

    #[test]
    fn sublinear_scenarios_measure_on_both_engines() {
        let scenario = &SublinearTimeSsr::adversarial_scenarios()[0];
        for engine in [Engine::Exact, Engine::Batched] {
            let spec = sublinear(SublinearParams::recommended(10, 1), Workload::WorstCase);
            assert_positive(spec.engine(engine).scenario(scenario).budget(100_000_000).seed(17), 2);
        }
    }

    #[test]
    fn detection_scenario_times_measure_first_reset_on_both_engines() {
        let scenarios = SublinearTimeSsr::adversarial_scenarios();
        let merged = scenarios.iter().find(|s| s.name() == "merged-collision").unwrap();
        for engine in [Engine::Exact, Engine::Batched] {
            let spec = sublinear_detection(SublinearParams::recommended(12, 0)).engine(engine);
            assert_positive(spec.scenario(merged).budget(100_000_000).seed(19), 2);
        }
    }

    #[test]
    fn roll_call_times_measure_on_both_engines() {
        for engine in [Engine::Exact, Engine::Batched] {
            assert_positive(roll_call(20).engine(engine).seed(23), 3);
        }
    }

    #[test]
    fn scheduled_measurement_helpers_thread_the_scheduler() {
        let worst = || silent_n_state(12, Workload::WorstCase);
        for engine in [Engine::Exact, Engine::Batched] {
            assert_positive(worst().engine(engine).scheduler(boosted(3)).seed(3), 2);
        }
        // The uniform strategy reproduces the plain measurement sample for
        // sample (trajectory preservation, surfaced at the bench layer).
        let plain = parallel_times(worst().trials(3).seed(5));
        let uniform = worst().scheduler(InteractionScheduler::Uniform);
        assert_eq!(plain, parallel_times(uniform.trials(3).seed(5)));
        // Graph topologies on a count engine are rejected before any trial.
        let ring = InteractionScheduler::GraphRestricted(Topology::Ring);
        let spec = worst().engine(Engine::Batched).scheduler(ring);
        assert!(matches!(spec.build().err(), Some(SimError::SchedulerNeedsIdentities { .. })));
    }

    #[test]
    fn scheduled_scenario_and_roll_call_helpers_measure() {
        let scenario = &SilentNStateSsr::adversarial_scenarios()[0];
        for engine in [Engine::Exact, Engine::Batched] {
            let spec = RunSpec::new(SilentNStateSsr::new(10)).engine(engine).scenario(scenario);
            assert_positive(spec.budget(50_000_000).scheduler(boosted(4)).seed(11), 2);
        }
        // Uniform-scheduled roll call matches the plain interned measurement.
        let plain = parallel_times(roll_call(20).engine(Engine::Batched).trials(2).seed(23));
        let uniform =
            roll_call(20).engine(Engine::Batched).scheduler(InteractionScheduler::Uniform);
        assert_eq!(plain, parallel_times(uniform.trials(2).seed(23)));
    }

    #[test]
    fn churn_reports_resize_and_restabilize() {
        let n = 16usize;
        let cube = (n as u64).pow(3);
        let replace =
            ChurnAction::Replace { count: 2, state: CorruptionTarget::Fixed(SilentRank(0)) };
        let plan = ChurnPlan::periodic(cube, cube / 2, 2, replace);
        let spec = silent_n_state(n, Workload::Random).engine(Engine::Batched).churn(plan);
        for report in &spec.trials(3).seed(29).run().unwrap() {
            assert!(report.outcome.is_silent());
            assert_eq!(report.final_population(), n);
            assert_eq!(report.events.len(), 2);
            assert!(report.restabilized_after_every_event());
        }
    }

    #[test]
    fn reset_trials_report_leader_uniqueness() {
        let spec = optimal_silent_reset(OptimalSilentParams::with_multipliers(16, 4, 20));
        let reports = spec.trials(4).seed(7).run().unwrap();
        assert!(reports
            .iter()
            .all(|r| r.outcome.condition_met() && r.parallel_time().value() > 0.0));
        // With Dmax = 4n the dormant leader election usually succeeds.
        let root =
            |s: &OptimalSilentState| matches!(s, OptimalSilentState::Settled { rank: 1, .. });
        assert!(reports.iter().any(|r| r.final_config.count_matching(root) == 1));
    }

    #[test]
    fn duplicated_leader_recovery_takes_time() {
        let params = OptimalSilentParams::recommended(16);
        let protocol = OptimalSilentSsr::new(params);
        let init = with_cloned_leader(&protocol, protocol.ranked_configuration());
        assert_positive(optimal_silent(params, Workload::WorstCase).init(init).seed(9), 2);
        let protocol = SilentNStateSsr::new(16);
        let init = with_cloned_leader(&protocol, protocol.ranked_configuration());
        assert_positive(RunSpec::new(protocol).init(init).seed(10), 2);
    }
}
