//! # bench — experiment harness
//!
//! Shared measurement routines used by the experiment binaries
//! (`cargo run --release -p bench --bin exp_*`) and the Criterion benches.
//! Every routine measures **parallel time** (interactions / n) over a number
//! of independent trials and returns the per-trial samples so callers can
//! compute whichever statistics they need.
//!
//! The experiment binaries regenerate, with measured numbers, every table,
//! figure, theorem and lemma of the paper that makes a quantitative claim;
//! the mapping is listed in `DESIGN.md` and the outputs are archived in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use ppsim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::params::{OptimalSilentParams, SublinearParams};
use ssle::{OptimalSilentSsr, SilentNStateSsr, SublinearTimeSsr};

pub use ppsim::Engine;

/// Parallel silence times of a [`Scenario`] family on the chosen engine: one
/// trial per seed, each generating its family member and running it to
/// silence.
///
/// This is the scenario subsystem's generic measurement routine for silent
/// protocols (and silence-terminated processes); every trial must actually
/// reach silence within `budget` interactions or the routine panics —
/// adversarial starts that fail to stabilize are treated as errors, not
/// data. Callers pick a budget comfortably above the protocol's expected
/// stabilization time but small enough that a regression *panics* rather
/// than hangs (on the exact engine a near-maximal budget would step for
/// years before exhausting). Callers needing a correctness predicate
/// instead of silence use [`scenario_convergence_times_with_engine`].
pub fn scenario_times_with_engine<P, F>(
    make_protocol: F,
    scenario: &Scenario<P>,
    trials: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> Vec<f64>
where
    P: EnumerableProtocol + Clone + Sync,
    F: Fn(usize, u64) -> P + Sync,
{
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |trial, trial_seed| {
        let report = RunSpec::new(make_protocol(trial, trial_seed))
            .engine(engine)
            .budget(budget)
            .scenario(scenario)
            .seed(trial_seed)
            .run_one()
            .expect("a scenario spec under the uniform scheduler always builds");
        assert!(
            report.outcome.is_silent(),
            "scenario {:?} failed to silence within {budget} interactions",
            scenario.name()
        );
        report.parallel_time().value()
    })
}

/// Parallel silence times of a [`Scenario`] family under an explicit
/// [`InteractionScheduler`] on the chosen engine: the scheduler-threaded
/// counterpart of [`scenario_times_with_engine`] (which it reproduces sample
/// for sample under [`InteractionScheduler::Uniform`]).
///
/// Incompatible scheduler/engine pairings — a graph-restricted scheduler on
/// a count engine, a weighted scheduler whose rates are all zero — are
/// rejected once upfront with the typed [`SimError`] every trial would
/// produce, before any trial runs.
pub fn scenario_times_with_engine_scheduled<P, F>(
    make_protocol: F,
    scenario: &Scenario<P>,
    scheduler: &InteractionScheduler<P::State>,
    trials: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> Result<Vec<f64>, SimError>
where
    P: EnumerableProtocol + Clone + Sync,
    F: Fn(usize, u64) -> P + Sync,
{
    let plan = TrialPlan::new(trials, seed);
    let spec_for = |trial: usize, trial_seed: u64| {
        RunSpec::new(make_protocol(trial, trial_seed))
            .engine(engine)
            .budget(budget)
            .scheduler(scheduler.clone())
            .scenario(scenario)
            .seed(trial_seed)
    };
    // Reject incompatible scheduler/engine pairings once, before any trial.
    spec_for(0, plan.seed_for(0)).build()?;
    Ok(run_trials(&plan, |trial, trial_seed| {
        let report = spec_for(trial, trial_seed)
            .run_one()
            .expect("the probe build above validated this pairing");
        assert!(
            report.outcome.is_silent(),
            "scenario {:?} failed to silence within {budget} interactions under the {} \
             scheduler",
            scenario.name(),
            scheduler.label()
        );
        report.parallel_time().value()
    }))
}

/// Parallel convergence times of a [`Scenario`] family on the chosen engine:
/// each trial runs until `correct` holds for the configuration.
///
/// Every trial must converge within `budget` interactions or the routine
/// panics. The budget must be finite-minded (see
/// [`scenario_times_with_engine`]): the exact engine's `run_until` has no
/// silence early-exit, so a non-converging regression runs the budget down
/// step by step.
pub fn scenario_convergence_times_with_engine<P, F, C>(
    make_protocol: F,
    scenario: &Scenario<P>,
    correct: C,
    trials: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> Vec<f64>
where
    P: EnumerableProtocol + Clone,
    F: Fn(usize, u64) -> P + Sync,
    C: Fn(&P, &ppsim::Configuration<P::State>) -> bool + Sync,
{
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |trial, trial_seed| {
        let protocol = make_protocol(trial, trial_seed);
        let config = scenario.configuration(&protocol, trial_seed);
        let report = engine
            .run_until(protocol.clone(), &config, trial_seed, budget, |c| correct(&protocol, c));
        assert!(
            report.outcome.condition_met(),
            "scenario {:?} failed to converge within {budget} interactions",
            scenario.name()
        );
        report.parallel_time().value()
    })
}

/// Parallel convergence times of a `Sublinear-Time-SSR` [`Scenario`] family
/// on the chosen engine.
///
/// The protocol's state space is not statically enumerable (names × history
/// trees), so [`Engine::Batched`] routes through the dynamically interned
/// backend ([`ppsim::InternedSimulation`]) rather than the enumerated one.
/// `budget` bounds each trial (the protocol is non-silent at `H ≥ 1`, so a
/// run that never converges would otherwise spin forever); every trial must
/// converge within it or the routine panics.
pub fn sublinear_scenario_times_with_engine(
    n: usize,
    h: u32,
    scenario: &Scenario<SublinearTimeSsr>,
    trials: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = SublinearTimeSsr::new(SublinearParams::recommended(n, h));
        let config = scenario.configuration(&protocol, trial_seed);
        let report =
            engine.run_until(protocol, &config, trial_seed, budget, |c| protocol.is_correct(c));
        assert!(
            report.outcome.condition_met(),
            "scenario {:?} failed to converge within {budget} interactions",
            scenario.name()
        );
        report.parallel_time().value()
    })
}

/// [`sublinear_scenario_times_with_engine`] on the exact engine (the
/// historical default).
pub fn sublinear_scenario_times(
    n: usize,
    h: u32,
    scenario: &Scenario<SublinearTimeSsr>,
    trials: usize,
    seed: u64,
    budget: u64,
) -> Vec<f64> {
    sublinear_scenario_times_with_engine(n, h, scenario, trials, seed, Engine::Exact, budget)
}

/// Parallel **detection** times of a `Sublinear-Time-SSR` [`Scenario`]
/// family on the chosen engine: time from the adversarial configuration
/// until the first agent enters the `Resetting` role (i.e. the planted error
/// is noticed), rather than until full recovery.
///
/// This isolates the Lemma 5.6 quantity on arbitrary families the way
/// [`sublinear_detection_times`] does for the classic planted-duplicate
/// start. On the merged-collision family at `H = 0` almost every pair is
/// null until the duplicates meet directly, which is the regime where the
/// batched (interned) engine's null-run skipping dominates the exact engine
/// — the headline workload of `bench_interned`.
pub fn sublinear_detection_scenario_times_with_engine(
    params: SublinearParams,
    scenario: &Scenario<SublinearTimeSsr>,
    trials: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = SublinearTimeSsr::new(params);
        let config = scenario.configuration(&protocol, trial_seed);
        let report = engine.run_until(
            protocol,
            &config,
            trial_seed,
            budget,
            SublinearTimeSsr::any_resetting,
        );
        assert!(
            report.outcome.condition_met(),
            "scenario {:?} was never detected within {budget} interactions",
            scenario.name()
        );
        report.parallel_time().value()
    })
}

/// Parallel completion times of the roll-call process (`R_n / n`, Lemma 2.9)
/// on the chosen engine. Completion coincides with silence (all rosters
/// equal ⟺ all full), so this measures silence time; the roster state space
/// is open, so [`Engine::Batched`] routes through the interned backend.
pub fn roll_call_times_with_engine(n: usize, trials: usize, seed: u64, engine: Engine) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = processes::RollCall::new(n);
        let config = protocol.initial_configuration();
        let report = RunSpec::new(protocol)
            .engine(engine)
            .init(config)
            .seed(trial_seed)
            .run_one()
            .expect("an interned roll-call spec under the uniform scheduler always builds");
        assert!(report.outcome.is_silent());
        report.parallel_time().value()
    })
}

/// Parallel completion times of the roll-call process under an explicit
/// [`InteractionScheduler`]: the scheduler-threaded counterpart of
/// [`roll_call_times_with_engine`], routed through the dynamically interned
/// backend on the count engines. Graph-restricted schedulers are accepted
/// only by [`Engine::Exact`]; elsewhere the typed [`SimError`] is returned
/// upfront.
pub fn roll_call_times_with_scheduler(
    n: usize,
    trials: usize,
    seed: u64,
    engine: Engine,
    scheduler: &InteractionScheduler<processes::Roster>,
) -> Result<Vec<f64>, SimError> {
    let plan = TrialPlan::new(trials, seed);
    let spec_for = |trial_seed: u64| {
        let protocol = processes::RollCall::new(n);
        let config = protocol.initial_configuration();
        RunSpec::new(protocol)
            .engine(engine)
            .init(config)
            .scheduler(scheduler.clone())
            .seed(trial_seed)
    };
    spec_for(plan.seed_for(0)).build()?;
    Ok(run_trials(&plan, |_, trial_seed| {
        let report =
            spec_for(trial_seed).run_one().expect("the probe build above validated this pairing");
        assert!(report.outcome.is_silent());
        report.parallel_time().value()
    }))
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

/// The initial configuration of `Silent-n-state-SSR` for a workload.
fn silent_n_state_workload(
    protocol: &SilentNStateSsr,
    workload: Workload,
    trial_seed: u64,
) -> ppsim::Configuration<ssle::SilentRank> {
    let mut rng = ChaCha8Rng::seed_from_u64(trial_seed ^ 0xA5A5);
    match workload {
        Workload::WorstCase => protocol.worst_case_configuration(),
        Workload::Random => protocol.random_configuration(&mut rng),
        Workload::CleanStart => protocol.ranked_configuration(),
    }
}

/// Stabilization times (parallel) of `Silent-n-state-SSR`, measured by running
/// to silence on the exact engine. See
/// [`silent_n_state_times_with_engine`] to pick the engine per workload.
pub fn silent_n_state_times(n: usize, workload: Workload, trials: usize, seed: u64) -> Vec<f64> {
    silent_n_state_times_with_engine(n, workload, trials, seed, Engine::Exact)
}

/// Stabilization times (parallel) of `Silent-n-state-SSR` on the chosen
/// engine. The batched engine makes `n = 10⁵..10⁶` runs feasible: it skips
/// the null interactions that dominate this protocol's `Θ(n²)` parallel time.
pub fn silent_n_state_times_with_engine(
    n: usize,
    workload: Workload,
    trials: usize,
    seed: u64,
    engine: Engine,
) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = SilentNStateSsr::new(n);
        let config = silent_n_state_workload(&protocol, workload, trial_seed);
        let report = RunSpec::new(protocol)
            .engine(engine)
            .init(config)
            .seed(trial_seed)
            .run_one()
            .expect("a uniform-scheduled spec always builds");
        assert!(report.outcome.is_silent());
        report.parallel_time().value()
    })
}

/// Stabilization times (parallel) of `Silent-n-state-SSR` under an explicit
/// [`InteractionScheduler`]: the scheduler-threaded counterpart of
/// [`silent_n_state_times_with_engine`] (which it reproduces sample for
/// sample under [`InteractionScheduler::Uniform`]). Graph-restricted
/// schedulers run only on [`Engine::Exact`]; elsewhere the typed
/// [`SimError`] is returned upfront.
pub fn silent_n_state_times_with_scheduler(
    n: usize,
    workload: Workload,
    scheduler: &InteractionScheduler<ssle::SilentRank>,
    trials: usize,
    seed: u64,
    engine: Engine,
) -> Result<Vec<f64>, SimError> {
    let plan = TrialPlan::new(trials, seed);
    let spec_for = |trial_seed: u64| {
        let protocol = SilentNStateSsr::new(n);
        let config = silent_n_state_workload(&protocol, workload, trial_seed);
        RunSpec::new(protocol)
            .engine(engine)
            .init(config)
            .scheduler(scheduler.clone())
            .seed(trial_seed)
    };
    spec_for(plan.seed_for(0)).build()?;
    Ok(run_trials(&plan, |_, trial_seed| {
        let report =
            spec_for(trial_seed).run_one().expect("the probe build above validated this pairing");
        assert!(report.outcome.is_silent());
        report.parallel_time().value()
    }))
}

/// Per-trial churn reports of `Silent-n-state-SSR` under an
/// [`InteractionScheduler`] and a [`ChurnPlan`] on the chosen engine: the
/// population-churn counterpart of [`silent_n_state_times_with_scheduler`],
/// returning the full [`TrialReport`]s so callers can extract per-event
/// re-stabilization times and final-population arithmetic (churn resizes
/// the population, so a single silence time would under-report).
#[allow(clippy::too_many_arguments)]
pub fn silent_n_state_churn_reports(
    n: usize,
    workload: Workload,
    scheduler: &InteractionScheduler<ssle::SilentRank>,
    churn: &ChurnPlan<ssle::SilentRank>,
    trials: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> Result<Vec<TrialReport<ssle::SilentRank>>, SimError> {
    let plan = TrialPlan::new(trials, seed);
    let spec_for = |trial_seed: u64| {
        let protocol = SilentNStateSsr::new(n);
        let config = silent_n_state_workload(&protocol, workload, trial_seed);
        RunSpec::new(protocol)
            .engine(engine)
            .budget(budget)
            .init(config)
            .scheduler(scheduler.clone())
            .churn(churn.clone())
            .seed(trial_seed)
    };
    spec_for(plan.seed_for(0)).build()?;
    Ok(run_trials(&plan, |_, trial_seed| {
        spec_for(trial_seed).run_one().expect("the probe build above validated this pairing")
    }))
}

/// Stabilization times (parallel) of `Optimal-Silent-SSR`, measured by running
/// until the ranking is correct (the correct configuration is silent, hence
/// stable) on the exact engine. See [`optimal_silent_times_with_engine`] to
/// pick the engine per workload.
pub fn optimal_silent_times(n: usize, workload: Workload, trials: usize, seed: u64) -> Vec<f64> {
    optimal_silent_times_with_engine(n, workload, trials, seed, Engine::Exact)
}

/// Stabilization times (parallel) of `Optimal-Silent-SSR` on the chosen
/// engine.
///
/// This protocol's unsettled/resetting states interact with everything, so
/// the batched engine runs it on the present route: correct, and
/// worthwhile only on configurations that idle near silence. The exact engine
/// is the sensible default for whole-stabilization measurements.
pub fn optimal_silent_times_with_engine(
    n: usize,
    workload: Workload,
    trials: usize,
    seed: u64,
    engine: Engine,
) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seed ^ 0x5A5A);
        let config = match workload {
            Workload::WorstCase => protocol.adversarial_all_same_rank(1),
            Workload::Random => protocol.random_configuration(&mut rng),
            Workload::CleanStart => protocol.post_reset_configuration(),
        };
        let report = engine
            .run_until(protocol, &config, trial_seed, u64::MAX >> 8, |c| protocol.is_correct(c));
        assert!(report.outcome.condition_met());
        report.parallel_time().value()
    })
}

/// Stabilization times (parallel) of `Optimal-Silent-SSR` with explicit
/// `Dmax`/`Emax` multipliers (the ablation knobs of Section 4).
pub fn optimal_silent_times_with_multipliers(
    n: usize,
    d_mult: u32,
    e_mult: u32,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol =
            OptimalSilentSsr::new(OptimalSilentParams::with_multipliers(n, d_mult, e_mult));
        let mut sim = Simulation::new(protocol, protocol.adversarial_all_same_rank(1), trial_seed);
        let outcome = sim.run_until(|c| protocol.is_correct(c), u64::MAX >> 8);
        assert!(outcome.condition_met());
        sim.parallel_time().value()
    })
}

/// Stabilization times (parallel) of `Sublinear-Time-SSR` at history depth
/// `h`.
pub fn sublinear_times(n: usize, h: u32, workload: Workload, trials: usize, seed: u64) -> Vec<f64> {
    sublinear_times_with_params(SublinearParams::recommended(n, h), workload, trials, seed)
}

/// Stabilization times of `Sublinear-Time-SSR` with fully explicit parameters
/// (used by the `T_H` ablation).
pub fn sublinear_times_with_params(
    params: SublinearParams,
    workload: Workload,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = SublinearTimeSsr::new(params);
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seed ^ 0x1234);
        let config = match workload {
            Workload::WorstCase => protocol.colliding_configuration(&mut rng),
            Workload::Random => protocol.ghost_configuration(&mut rng),
            Workload::CleanStart => protocol.fresh_configuration(&mut rng),
        };
        let mut sim = Simulation::new(protocol, config, trial_seed);
        let outcome = sim.run_until(|c| protocol.is_correct(c), u64::MAX >> 8);
        assert!(outcome.condition_met());
        sim.parallel_time().value()
    })
}

/// Collision-detection latency of `Sublinear-Time-SSR`: parallel time from
/// the planted-duplicate configuration until the first agent triggers a reset
/// (i.e. `Detect-Name-Collision` fires). This isolates the `Θ(H·n^{1/(H+1)})`
/// / `Θ(log n)` quantity bounded by Lemma 5.6, without the additive reset and
/// roll-call costs that dominate full stabilization at small `n`.
pub fn sublinear_detection_times(params: SublinearParams, trials: usize, seed: u64) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = SublinearTimeSsr::new(params);
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seed ^ 0x4321);
        let config = protocol.colliding_configuration(&mut rng);
        let mut sim = Simulation::new(protocol, config, trial_seed);
        let outcome = sim.run_until(SublinearTimeSsr::any_resetting, u64::MAX >> 8);
        assert!(outcome.condition_met());
        sim.parallel_time().value()
    })
}

/// Time (parallel) for `Optimal-Silent-SSR` to come back from a duplicated
/// leader planted in its silent correct configuration — the Observation 2.6
/// lower-bound scenario for silent protocols.
pub fn optimal_silent_duplicated_leader_times(n: usize, trials: usize, seed: u64) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
        let mut sim = Simulation::new(protocol, protocol.ranked_configuration(), trial_seed);
        // Plant a second copy of the leader state on agent 1.
        let leader_state = *sim
            .configuration()
            .iter()
            .find(|s| protocol.is_leader(s))
            .expect("the ranked configuration has a leader");
        sim.corrupt(|i, s| {
            if i == 1 {
                *s = leader_state;
            }
        });
        let outcome = sim.run_until(|c| protocol.is_correct(c), u64::MAX >> 8);
        assert!(outcome.condition_met());
        sim.parallel_time().value()
    })
}

/// Same duplicated-leader scenario for the baseline `Silent-n-state-SSR`.
pub fn silent_n_state_duplicated_leader_times(n: usize, trials: usize, seed: u64) -> Vec<f64> {
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let protocol = SilentNStateSsr::new(n);
        let mut sim = Simulation::new(protocol, protocol.ranked_configuration(), trial_seed);
        let leader_state = *sim
            .configuration()
            .iter()
            .find(|s| protocol.is_leader(s))
            .expect("the ranked configuration has a leader");
        sim.corrupt(|i, s| {
            if i == 1 {
                *s = leader_state;
            }
        });
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        sim.parallel_time().value()
    })
}

/// Outcome of one `Propagate-Reset` measurement: how long until the first
/// agent awoke, and whether the awakening configuration had a unique leader
/// candidate (Lemma 4.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ResetTrial {
    /// Parallel time from the all-triggered configuration until every agent
    /// has left the `Resetting` role.
    pub full_recovery_time: f64,
    /// Whether exactly one agent awoke as the settled root (rank 1).
    pub unique_leader: bool,
}

/// Measures `Propagate-Reset` inside `Optimal-Silent-SSR` from an
/// all-triggered configuration with the given `Dmax` multiplier, reporting the
/// recovery time and whether the post-reset epoch started with a unique
/// leader.
pub fn reset_trials(n: usize, d_mult: u32, trials: usize, seed: u64) -> Vec<ResetTrial> {
    use ssle::reset::ResetTimers;
    use ssle::OptimalSilentState;
    let plan = TrialPlan::new(trials, seed);
    run_trials(&plan, |_, trial_seed| {
        let params = OptimalSilentParams::with_multipliers(n, d_mult, 20);
        let protocol = OptimalSilentSsr::new(params);
        let config = Configuration::uniform(
            OptimalSilentState::Resetting {
                leader: true,
                timers: ResetTimers { resetcount: params.reset.r_max, delaytimer: 0 },
            },
            n,
        );
        let mut sim = Simulation::new(protocol, config, trial_seed);
        let outcome = sim.run_until(
            |c| c.iter().all(|s| !matches!(s, OptimalSilentState::Resetting { .. })),
            u64::MAX >> 8,
        );
        assert!(outcome.condition_met());
        let roots = sim
            .configuration()
            .iter()
            .filter(|s| matches!(s, OptimalSilentState::Settled { rank: 1, .. }))
            .count();
        ResetTrial { full_recovery_time: sim.parallel_time().value(), unique_leader: roots == 1 }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::Summary;

    #[test]
    fn measurement_helpers_produce_positive_times() {
        let baseline = silent_n_state_times(12, Workload::WorstCase, 3, 1);
        assert_eq!(baseline.len(), 3);
        assert!(baseline.iter().all(|&t| t > 0.0));

        let optimal = optimal_silent_times(12, Workload::WorstCase, 3, 2);
        assert!(optimal.iter().all(|&t| t > 0.0));

        let sublinear = sublinear_times(10, 1, Workload::WorstCase, 2, 3);
        assert!(sublinear.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn clean_start_is_faster_than_worst_case_for_the_baseline() {
        let worst =
            Summary::from_samples(&silent_n_state_times(16, Workload::WorstCase, 4, 5)).mean;
        let clean =
            Summary::from_samples(&silent_n_state_times(16, Workload::CleanStart, 4, 6)).mean;
        assert!(clean <= worst);
        // A ranked configuration is already silent.
        assert_eq!(clean, 0.0);
    }

    #[test]
    fn scenario_routines_measure_all_families() {
        use ssle::SilentNStateSsr;
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            for engine in [Engine::Exact, Engine::Batched] {
                let times = scenario_times_with_engine(
                    |_, _| SilentNStateSsr::new(10),
                    &scenario,
                    2,
                    11,
                    engine,
                    50_000_000,
                );
                assert_eq!(times.len(), 2);
                assert!(times.iter().all(|&t| t >= 0.0));
            }
        }
        let scenarios = OptimalSilentSsr::adversarial_scenarios();
        let times = scenario_convergence_times_with_engine(
            |_, _| OptimalSilentSsr::new(OptimalSilentParams::recommended(10)),
            &scenarios[0],
            |p, c| p.is_correct(c),
            2,
            13,
            Engine::Exact,
            50_000_000,
        );
        assert!(times.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn sublinear_scenarios_measure_on_both_engines() {
        let scenarios = SublinearTimeSsr::adversarial_scenarios();
        for engine in [Engine::Exact, Engine::Batched] {
            let times = sublinear_scenario_times_with_engine(
                10,
                1,
                &scenarios[0],
                2,
                17,
                engine,
                100_000_000,
            );
            assert_eq!(times.len(), 2);
            assert!(times.iter().all(|&t| t > 0.0));
        }
        // The exact-engine wrapper is the same measurement.
        let times = sublinear_scenario_times(10, 1, &scenarios[0], 2, 17, 100_000_000);
        assert_eq!(times.len(), 2);
    }

    #[test]
    fn detection_scenario_times_measure_first_reset_on_both_engines() {
        let scenarios = SublinearTimeSsr::adversarial_scenarios();
        let merged = scenarios
            .iter()
            .find(|s| s.name() == "merged-collision")
            .expect("the merged-collision family exists");
        for engine in [Engine::Exact, Engine::Batched] {
            let times = sublinear_detection_scenario_times_with_engine(
                SublinearParams::recommended(12, 0),
                merged,
                2,
                19,
                engine,
                100_000_000,
            );
            assert_eq!(times.len(), 2);
            assert!(times.iter().all(|&t| t > 0.0));
        }
    }

    #[test]
    fn roll_call_times_measure_on_both_engines() {
        for engine in [Engine::Exact, Engine::Batched] {
            let times = roll_call_times_with_engine(20, 3, 23, engine);
            assert_eq!(times.len(), 3);
            assert!(times.iter().all(|&t| t > 0.0));
        }
    }

    #[test]
    fn scheduled_measurement_helpers_thread_the_scheduler() {
        use ssle::SilentRank;
        let boosted = InteractionScheduler::WeightedPairs(PairRates::new(1).with_rate(
            SilentRank(0),
            SilentRank(0),
            3,
        ));
        for engine in [Engine::Exact, Engine::Batched] {
            let times = silent_n_state_times_with_scheduler(
                12,
                Workload::WorstCase,
                &boosted,
                2,
                3,
                engine,
            )
            .unwrap();
            assert_eq!(times.len(), 2);
            assert!(times.iter().all(|&t| t > 0.0));
        }
        // The uniform strategy reproduces the plain measurement sample for
        // sample (trajectory preservation, surfaced at the bench layer).
        let plain = silent_n_state_times(12, Workload::WorstCase, 3, 5);
        let scheduled = silent_n_state_times_with_scheduler(
            12,
            Workload::WorstCase,
            &InteractionScheduler::Uniform,
            3,
            5,
            Engine::Exact,
        )
        .unwrap();
        assert_eq!(plain, scheduled);
        // Graph topologies on a count engine are rejected before any trial.
        let ring = InteractionScheduler::GraphRestricted(Topology::Ring);
        assert!(matches!(
            silent_n_state_times_with_scheduler(
                12,
                Workload::WorstCase,
                &ring,
                2,
                3,
                Engine::Batched
            ),
            Err(SimError::SchedulerNeedsIdentities { .. })
        ));
    }

    #[test]
    fn scheduled_scenario_and_roll_call_helpers_measure() {
        use ssle::{SilentNStateSsr, SilentRank};
        let scenario = &SilentNStateSsr::adversarial_scenarios()[0];
        let boosted = InteractionScheduler::WeightedPairs(PairRates::new(1).with_rate(
            SilentRank(0),
            SilentRank(0),
            4,
        ));
        for engine in [Engine::Exact, Engine::Batched] {
            let times = scenario_times_with_engine_scheduled(
                |_, _| SilentNStateSsr::new(10),
                scenario,
                &boosted,
                2,
                11,
                engine,
                50_000_000,
            )
            .unwrap();
            assert_eq!(times.len(), 2);
            assert!(times.iter().all(|&t| t > 0.0));
        }
        // Uniform-scheduled roll call matches the plain interned measurement.
        let plain = roll_call_times_with_engine(20, 2, 23, Engine::Batched);
        let scheduled = roll_call_times_with_scheduler(
            20,
            2,
            23,
            Engine::Batched,
            &InteractionScheduler::Uniform,
        )
        .unwrap();
        assert_eq!(plain, scheduled);
    }

    #[test]
    fn churn_reports_resize_and_restabilize() {
        use ssle::SilentRank;
        let n = 16usize;
        let cube = (n as u64).pow(3);
        let plan = ChurnPlan::periodic(
            cube,
            cube / 2,
            2,
            ChurnAction::Replace { count: 2, state: CorruptionTarget::Fixed(SilentRank(0)) },
        );
        let reports = silent_n_state_churn_reports(
            n,
            Workload::Random,
            &InteractionScheduler::Uniform,
            &plan,
            3,
            29,
            Engine::Batched,
            u64::MAX >> 8,
        )
        .unwrap();
        for report in &reports {
            assert!(report.outcome.is_silent());
            assert_eq!(report.final_population(), n);
            assert_eq!(report.events.len(), 2);
            assert!(report.restabilized_after_every_event());
        }
    }

    #[test]
    fn reset_trials_report_leader_uniqueness() {
        let trials = reset_trials(16, 4, 4, 7);
        assert_eq!(trials.len(), 4);
        assert!(trials.iter().all(|t| t.full_recovery_time > 0.0));
        // With Dmax = 4n the dormant leader election usually succeeds.
        assert!(trials.iter().filter(|t| t.unique_leader).count() >= 1);
    }

    #[test]
    fn duplicated_leader_recovery_takes_time() {
        let times = optimal_silent_duplicated_leader_times(16, 2, 9);
        assert!(times.iter().all(|&t| t > 0.0));
        let times = silent_n_state_duplicated_leader_times(16, 2, 10);
        assert!(times.iter().all(|&t| t > 0.0));
    }
}
