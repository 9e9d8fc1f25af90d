//! Request execution: translates parsed wire requests into calls on the
//! simulation engines and the model checker, and renders results back to
//! canonical JSON.
//!
//! Everything here is deterministic in the request (seeded engines, exact
//! model checking), which is what makes the responses cacheable under the
//! canonical request text. A worker panic is caught and rendered as a typed
//! `internal` error rather than taking the worker thread down.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use bench::perf::{chrome_trace, Json, TraceSpan};
use ppsim::batched::EnumerableProtocol;
use ppsim::mcheck::{
    check_convergence, expected_silence_time_exact, ConvergenceSource, CorrectnessOracle,
    MCheckError, MCheckOptions,
};
use ppsim::telemetry::{CounterBlock, Recorder};
use ppsim::{
    ChurnAction, ChurnPlan, Configuration, CorruptionTarget, FaultPlan, FaultSchedule,
    InteractionScheduler, Protocol, Scenario, SimError, Topology, TrialPlan, TrialReport,
};
use processes::{Coupon, Epidemic, Fratricide, LeaderState};
use rand::Rng;
use ssle::{OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr};

use crate::proto::{
    ChurnKind, ChurnSpec, ErrorKind, ExpectSpec, FaultSpec, ProtocolId, Request, Response, RunSpec,
    ScheduleSpec, SchedulerSpec, VerifySpec, WireError,
};

/// Executes one non-compound request (run / expect / verify), converting
/// panics into typed `internal` errors. `sweep`, `stats` and `metrics` are
/// composed by the server, not here.
///
/// Returns the response together with the engine's counter registry for the
/// whole job (summed over trials), which the server folds into its
/// per-request-type metrics. Errors and panics return an empty block.
pub fn execute(request: &Request) -> (Response, CounterBlock) {
    let kind = request.kind();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match request {
        Request::Run(spec) => dispatch_run(spec),
        Request::Expect(spec) => dispatch_expect(spec),
        Request::Verify(spec) => dispatch_verify(spec),
        Request::Sweep(_) | Request::Stats | Request::Metrics => Err(WireError::new(
            ErrorKind::Internal,
            "compound requests must be decomposed by the server",
        )),
    }));
    match outcome {
        Ok(Ok((result, counters))) => (Response::ok(kind, result), counters),
        Ok(Err(err)) => (Response::Err(err), CounterBlock::default()),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned());
            (
                Response::error(ErrorKind::Internal, format!("execution panicked: {what}")),
                CounterBlock::default(),
            )
        }
    }
}

/// Expands `protocol`/`params` into a concrete protocol value plus its
/// scenario list and runs `$body` with both in scope. The scenario list is
/// the protocol's own adversarial set (plus a synthesized pair for
/// fratricide, which ships none).
macro_rules! with_protocol {
    ($spec:expr, $protocol:ident, $scenarios:ident, $body:expr) => {
        match $spec.protocol {
            ProtocolId::SilentNState => {
                let $protocol = SilentNStateSsr::new($spec.n);
                let $scenarios = SilentNStateSsr::adversarial_scenarios();
                $body
            }
            ProtocolId::OptimalSilent => {
                let params = match $spec.params {
                    crate::proto::ParamsId::Paper => OptimalSilentParams::recommended($spec.n),
                    crate::proto::ParamsId::MCheck => OptimalSilentParams::mcheck($spec.n),
                };
                let $protocol = OptimalSilentSsr::new(params);
                let $scenarios = OptimalSilentSsr::adversarial_scenarios();
                $body
            }
            ProtocolId::Epidemic => {
                let $protocol = Epidemic::new($spec.n);
                let $scenarios = Epidemic::adversarial_scenarios();
                $body
            }
            ProtocolId::Coupon => {
                let $protocol = Coupon::new($spec.n);
                let $scenarios = Coupon::adversarial_scenarios();
                $body
            }
            ProtocolId::Fratricide => {
                let $protocol = Fratricide::new($spec.n);
                let $scenarios = fratricide_scenarios();
                $body
            }
        }
    };
}

fn dispatch_run(spec: &RunSpec) -> Result<(Json, CounterBlock), WireError> {
    with_protocol!(spec, protocol, scenarios, run_protocol(protocol, &scenarios, spec))
}

fn dispatch_expect(spec: &ExpectSpec) -> Result<(Json, CounterBlock), WireError> {
    with_protocol!(spec, protocol, scenarios, expect_protocol(protocol, &scenarios, spec))
}

fn dispatch_verify(spec: &VerifySpec) -> Result<(Json, CounterBlock), WireError> {
    with_protocol!(spec, protocol, scenarios, {
        let _ = scenarios;
        verify_protocol(protocol)
    })
}

/// Scenarios for [`Fratricide`], which ships none of its own: the all-leader
/// worst case and a uniform random leader/follower split.
fn fratricide_scenarios() -> Vec<Scenario<Fratricide>> {
    vec![
        Scenario::new("all-leader", |p: &Fratricide, _| p.all_leaders_configuration()),
        Scenario::new("random", |p: &Fratricide, rng| {
            Configuration::from_fn(p.population_size(), |_| {
                if rng.gen_bool(0.5) {
                    LeaderState::Leader
                } else {
                    LeaderState::Follower
                }
            })
        }),
    ]
}

fn resolve_scenario<'a, P: Protocol>(
    scenarios: &'a [Scenario<P>],
    name: &str,
    protocol: ProtocolId,
) -> Result<&'a Scenario<P>, WireError> {
    scenarios.iter().find(|s| s.name() == name).ok_or_else(|| {
        let known: Vec<&str> = scenarios.iter().map(Scenario::name).collect();
        WireError::new(
            ErrorKind::BadRequest,
            format!(
                "unknown scenario {name:?} for protocol {:?} (expected one of {known:?})",
                protocol.label()
            ),
        )
    })
}

fn build_scheduler<S>(
    spec: SchedulerSpec,
    n: usize,
    seed: u64,
) -> Result<InteractionScheduler<S>, WireError> {
    let topology = match spec {
        SchedulerSpec::Uniform => return Ok(InteractionScheduler::Uniform),
        SchedulerSpec::Ring => Topology::Ring,
        SchedulerSpec::Star => Topology::Star,
        SchedulerSpec::RandomRegular(degree) => {
            if degree >= n || !(degree * n).is_multiple_of(2) {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    format!("infeasible random-regular degree {degree} for n={n} (need degree < n and degree·n even)"),
                ));
            }
            Topology::RandomRegular { degree, seed }
        }
    };
    Ok(InteractionScheduler::GraphRestricted(topology))
}

fn resolve_state<P: EnumerableProtocol>(
    protocol: &P,
    index: usize,
    field: &str,
) -> Result<P::State, WireError> {
    let states = protocol.num_states();
    if index >= states {
        return Err(WireError::new(
            ErrorKind::BadRequest,
            format!("{field} index {index} out of range (protocol has {states} states)"),
        ));
    }
    Ok(protocol.state_from_index(index))
}

/// The simulation-side schedule of a wire schedule. Fault and churn plans
/// are both built from it and named after it, and the name seeds the plan's
/// event stream.
fn fault_schedule(spec: ScheduleSpec) -> FaultSchedule {
    match spec {
        ScheduleSpec::OneShot { at } => FaultSchedule::OneShot { at },
        ScheduleSpec::Periodic { start, period, events } => {
            FaultSchedule::Periodic { start, period, bursts: events }
        }
        ScheduleSpec::Poisson { mean_gap, horizon } => FaultSchedule::Poisson { mean_gap, horizon },
    }
}

fn build_fault_plan<P: EnumerableProtocol>(
    protocol: &P,
    spec: &FaultSpec,
) -> Result<FaultPlan<P::State>, WireError> {
    let target = CorruptionTarget::Fixed(resolve_state(protocol, spec.state, "fault state")?);
    Ok(FaultPlan::new(fault_schedule(spec.schedule), spec.k, target))
}

fn build_churn_plan<P: EnumerableProtocol>(
    protocol: &P,
    spec: &ChurnSpec,
) -> Result<ChurnPlan<P::State>, WireError> {
    let state = match spec.state {
        Some(index) => {
            Some(CorruptionTarget::Fixed(resolve_state(protocol, index, "churn state")?))
        }
        None => None,
    };
    let action = match spec.action {
        ChurnKind::Join => {
            ChurnAction::Join { count: spec.count, state: state.expect("validated at parse") }
        }
        ChurnKind::Leave => ChurnAction::Leave { count: spec.count },
        ChurnKind::Replace => {
            ChurnAction::Replace { count: spec.count, state: state.expect("validated at parse") }
        }
    };
    Ok(ChurnPlan::new(fault_schedule(spec.schedule), action))
}

fn sim_err(err: SimError) -> WireError {
    WireError::new(ErrorKind::Unsupported, format!("engine rejected the request: {err:?}"))
}

/// Maps a model-checker refusal onto the wire vocabulary. Capacity
/// overruns and protocol/scheduler shapes the checker cannot handle are
/// `unsupported` — the request was well-formed, the combination is simply
/// beyond the exact oracle — and the Display form carries the capacity
/// detail (lattice size vs guard). Only faults of the checker itself (a
/// spill-store I/O error, a stalled solve) are `internal`.
fn mcheck_err(err: MCheckError) -> WireError {
    let kind = match &err {
        MCheckError::SpillIo { .. } | MCheckError::NotConverged { .. } => ErrorKind::Internal,
        _ => ErrorKind::Unsupported,
    };
    WireError::new(kind, format!("model checker: {err}"))
}

/// Per-trial aggregates of a `run` request.
#[derive(Default)]
struct RunAccumulator {
    interactions: Vec<Json>,
    silent_trials: usize,
    total_interactions: f64,
    total_parallel: f64,
    // Fault aggregates (rendered only for fault runs).
    recovered_trials: usize,
    final_recovery_parallel: Vec<Json>,
    // Churn aggregates (rendered only for churn runs).
    final_population: Vec<Json>,
    restabilized_trials: usize,
}

impl RunAccumulator {
    fn record<S>(&mut self, report: &TrialReport<S>) {
        let count = report.outcome.interactions.count();
        let final_n = report.final_population();
        self.interactions.push(Json::Num(count as f64));
        self.silent_trials += usize::from(report.outcome.is_silent());
        self.total_interactions += count as f64;
        self.total_parallel += count as f64 / final_n as f64;
        // The fault plan's bursts are the records that corrupted agents (the
        // wire requires k >= 1); churn events in between do not count.
        let bursts = || report.events.iter().filter(|r| r.corrupted > 0);
        let recovered = bursts().next().is_some() && bursts().all(|r| r.restabilization.is_some());
        self.recovered_trials += usize::from(recovered);
        self.final_recovery_parallel.push(
            bursts()
                .next_back()
                .and_then(|r| r.restabilization)
                .map_or(Json::Null, |i| Json::Num(i.to_parallel_time(final_n).value())),
        );
        self.final_population.push(Json::Num(final_n as f64));
        self.restabilized_trials += usize::from(report.restabilized_after_every_event());
    }
}

/// Renders one trial's telemetry recorder: the probe stream as
/// `[interactions, active-pairs, distinct-states, transitions, population]`
/// rows plus the recorder's span list converted into trace spans on lane
/// `tid` (one lane per trial).
fn render_probes(recorder: &Recorder) -> Json {
    Json::Arr(
        recorder
            .probes
            .iter()
            .map(|p| {
                Json::Arr(vec![
                    Json::Num(p.interactions as f64),
                    Json::Num(p.active_pairs as f64),
                    Json::Num(p.distinct_states as f64),
                    Json::Num(p.transitions as f64),
                    Json::Num(p.population as f64),
                ])
            })
            .collect(),
    )
}

fn trace_spans(recorder: &Recorder, tid: u64) -> Vec<TraceSpan> {
    recorder
        .spans
        .iter()
        .map(|s| TraceSpan { name: s.name.to_owned(), tid, start_us: s.start_us, end_us: s.end_us })
        .collect()
}

fn run_protocol<P: EnumerableProtocol + Copy + Sync>(
    protocol: P,
    scenarios: &[Scenario<P>],
    spec: &RunSpec,
) -> Result<(Json, CounterBlock), WireError> {
    let scenario = resolve_scenario(scenarios, &spec.scenario, spec.protocol)?;
    let scheduler = build_scheduler::<P::State>(spec.scheduler, spec.n, spec.seed)?;
    let fault_plan = spec.faults.as_ref().map(|f| build_fault_plan(&protocol, f)).transpose()?;
    let churn_plan = spec.churn.as_ref().map(|c| build_churn_plan(&protocol, c)).transpose()?;
    let plan = TrialPlan::new(spec.trials, spec.seed);

    let mut acc = RunAccumulator::default();
    let mut counters = CounterBlock::default();
    let mut probes: Vec<Json> = Vec::new();
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut dropped_spans = 0u64;
    for trial in 0..spec.trials {
        let seed = plan.seed_for(trial);
        let init = scenario.configuration(&protocol, seed);
        // `ppsim::RunSpec` is the simulation-side run spec; the wire-side
        // `RunSpec` in scope is the parsed request.
        let mut sim_spec = ppsim::RunSpec::new(protocol)
            .engine(spec.engine)
            .budget(spec.budget)
            .scheduler(scheduler.clone())
            .init(init)
            .probe(spec.trace)
            .seed(seed);
        if let Some(faults) = &fault_plan {
            sim_spec = sim_spec.faults(faults.clone());
        }
        if let Some(churn) = &churn_plan {
            sim_spec = sim_spec.churn(churn.clone());
        }
        let report = sim_spec.run_one().map_err(sim_err)?;
        counters.merge(&report.counters);
        if let Some(recorder) = &report.telemetry {
            probes.push(render_probes(recorder));
            spans.extend(trace_spans(recorder, trial as u64 + 1));
            dropped_spans += recorder.dropped_spans;
        }
        acc.record(&report);
    }

    let mut map = BTreeMap::new();
    map.insert("protocol".to_owned(), Json::Str(spec.protocol.label().to_owned()));
    map.insert("n".to_owned(), Json::Num(spec.n as f64));
    map.insert("engine".to_owned(), Json::Str(spec.engine.to_string()));
    map.insert("scenario".to_owned(), Json::Str(spec.scenario.clone()));
    map.insert("trials".to_owned(), Json::Num(spec.trials as f64));
    map.insert("silent-trials".to_owned(), Json::Num(acc.silent_trials as f64));
    map.insert("interactions".to_owned(), Json::Arr(acc.interactions));
    map.insert(
        "mean-interactions".to_owned(),
        Json::Num(acc.total_interactions / spec.trials as f64),
    );
    map.insert("mean-parallel".to_owned(), Json::Num(acc.total_parallel / spec.trials as f64));
    if spec.faults.is_some() {
        let mut faults = BTreeMap::new();
        faults.insert("recovered-trials".to_owned(), Json::Num(acc.recovered_trials as f64));
        faults.insert("final-recovery-parallel".to_owned(), Json::Arr(acc.final_recovery_parallel));
        map.insert("faults".to_owned(), Json::Obj(faults));
    }
    if spec.churn.is_some() {
        let mut churn = BTreeMap::new();
        churn.insert("final-population".to_owned(), Json::Arr(acc.final_population));
        churn.insert("restabilized-trials".to_owned(), Json::Num(acc.restabilized_trials as f64));
        map.insert("churn".to_owned(), Json::Obj(churn));
    }
    if spec.trace {
        let mut telemetry = BTreeMap::new();
        let mut counter_map = BTreeMap::new();
        for (counter, value) in counters.iter_nonzero() {
            counter_map.insert(counter.name().to_owned(), Json::Num(value as f64));
        }
        telemetry.insert("counters".to_owned(), Json::Obj(counter_map));
        telemetry.insert("probes".to_owned(), Json::Arr(probes));
        telemetry.insert("trace".to_owned(), chrome_trace(&spans));
        if dropped_spans > 0 {
            telemetry.insert("dropped-spans".to_owned(), Json::Num(dropped_spans as f64));
        }
        map.insert("telemetry".to_owned(), Json::Obj(telemetry));
    }
    Ok((Json::Obj(map), counters))
}

fn expect_protocol<P: EnumerableProtocol + Copy>(
    protocol: P,
    scenarios: &[Scenario<P>],
    spec: &ExpectSpec,
) -> Result<(Json, CounterBlock), WireError> {
    let scenario = resolve_scenario(scenarios, &spec.scenario, spec.protocol)?;
    let init = scenario.configuration(&protocol, spec.seed);
    let est = expected_silence_time_exact(protocol, &init, &MCheckOptions::default())
        .map_err(mcheck_err)?;
    let mut map = BTreeMap::new();
    map.insert("protocol".to_owned(), Json::Str(spec.protocol.label().to_owned()));
    map.insert("n".to_owned(), Json::Num(spec.n as f64));
    map.insert("scenario".to_owned(), Json::Str(spec.scenario.clone()));
    map.insert("expected-interactions".to_owned(), Json::Num(est.expected_interactions));
    map.insert("expected-parallel".to_owned(), Json::Num(est.expected_parallel));
    map.insert("states".to_owned(), Json::Num(est.states as f64));
    map.insert("sweeps".to_owned(), Json::Num(est.sweeps as f64));
    map.insert("residual".to_owned(), Json::Num(est.residual));
    map.insert("quotient".to_owned(), Json::Bool(est.quotient));
    map.insert("spilled".to_owned(), Json::Bool(est.spilled));
    Ok((Json::Obj(map), est.counters))
}

fn verify_protocol<P: EnumerableProtocol + CorrectnessOracle + Copy>(
    protocol: P,
) -> Result<(Json, CounterBlock), WireError> {
    // The default options quotient the lattice by the protocol's validated
    // symmetry: the verdict covers the same full lattice (exact lumping)
    // while classifying only orbit representatives, reported as `orbits`.
    let report = check_convergence(protocol, ConvergenceSource::Lattice, &MCheckOptions::default())
        .map_err(mcheck_err)?;
    let mut map = BTreeMap::new();
    map.insert("verified".to_owned(), Json::Bool(report.verified()));
    map.insert("configurations".to_owned(), Json::Num(report.configurations as f64));
    map.insert("orbits".to_owned(), Json::Num(report.states as f64));
    map.insert("group-order".to_owned(), Json::Num(report.group_order as f64));
    map.insert("silent".to_owned(), Json::Num(report.silent as f64));
    map.insert("correct".to_owned(), Json::Num(report.correct as f64));
    map.insert("silent-incorrect".to_owned(), Json::Num(report.silent_incorrect as f64));
    map.insert("correct-nonsilent".to_owned(), Json::Num(report.correct_nonsilent as f64));
    map.insert("non-convergent".to_owned(), Json::Num(report.non_convergent as f64));
    Ok((Json::Obj(map), report.counters))
}
