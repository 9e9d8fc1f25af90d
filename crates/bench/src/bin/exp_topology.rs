//! Experiment T: the pluggable interaction-scheduler layer measured end to
//! end — weighted pair rates on all four backends, restricted interaction
//! graphs on the exact engine, and population churn composed with both.
//!
//! Sweeps **scheduler × backend × n**:
//!
//! * `Silent-n-state-SSR` from the all-leader start under a weighted
//!   scheduler that boosts the contended leader-rank duels to 4× the
//!   baseline rate, on the exact engine and all three count backends
//!   (indexed, batch-count sampling, dynamically interned). The count
//!   backends' wall-clock speedups over the exact engine are recorded and
//!   **gated**: the committed full sweep shows ≥ 100× at n = 10³, i.e. the
//!   scheduler layer keeps the count engines' null-run skipping intact
//!   under a non-uniform pair measure (the exact engine pays a further
//!   rejection-sampling factor for the same law).
//! * the fratricide process on ring / star / random 4-regular topologies
//!   (exact engine only — the count backends reject graph schedulers with a
//!   typed error, asserted here). Silence is **scheduler-relative**, so
//!   runs settle into locally silent configurations whose surviving-leader
//!   counts the table reports alongside the times: the complete graph
//!   always elects exactly one leader, sparse graphs strand leaders that
//!   share no edge.
//! * periodic and Poisson churn plans (size-preserving replacement and
//!   departures) under the uniform and the weighted scheduler on the
//!   batched engine: every trial re-silences after every event, and
//!   replacement churn re-stabilizes into a valid ranking at the original
//!   population size.
//!
//! A power-law fit of the batched weighted silence times against n asserts
//! that the Θ(n²) stabilization envelope survives the weighted scheduler —
//! boosting the duel rate accelerates a lower-order phase, not the
//! bottleneck walk.
//!
//! Writes `BENCH_topology.json` into the current directory. The nightly CI
//! job runs `--quick` (a size-subset of the committed full sweep, so every
//! gated workload is still measured) and enforces the recorded speedups via
//! `check_bench` against the committed baseline.
//!
//! ```text
//! cargo run --release -p bench --bin exp_topology [-- --quick]
//! ```

use analysis::table::format_value;
use analysis::{fit_power_law, Summary, Table};
use bench::perf::{write_bench, Json};
use bench::{parallel_times, silent_n_state, Engine, Workload};
use ppsim::prelude::*;
use processes::{Fratricide, LeaderState};
use ssle::{SilentNStateSsr, SilentRank};
use std::time::Instant;

/// Which backend a sweep cell ran on (the interned backend is reached
/// through `Engine::Batched` + `AsInterned`, so `Engine` alone cannot name
/// it in tables).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Exact,
    Batched,
    BatchCount,
    Interned,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Exact => "exact",
            Backend::Batched => "batched",
            Backend::BatchCount => "batchcount",
            Backend::Interned => "interned",
        }
    }
}

/// One measured sweep cell's row: the mean and standard error of its
/// parallel times (for churn cells: final re-stabilization times, relative
/// to the final population) and its mean wall clock per trial.
fn cell_row(
    workload: &str,
    n: usize,
    engine: &str,
    trials: usize,
    times: &[f64],
    mean_wall_s: f64,
) -> Json {
    let summary = Summary::from_samples(times);
    Json::object([
        ("workload", workload.into()),
        ("n", n.into()),
        ("engine", engine.into()),
        ("trials", trials.into()),
        ("mean_time", summary.mean.into()),
        ("se_time", summary.standard_error().into()),
        ("mean_wall_s", mean_wall_s.into()),
    ])
}

/// The weighted workload: leader-rank duels at 4× the baseline rate. The
/// boost targets the pair that is maximally contended from the all-leader
/// start, so the non-uniform measure matters from the first interaction.
fn boosted_scheduler() -> InteractionScheduler<SilentRank> {
    InteractionScheduler::WeightedPairs(PairRates::new(1).with_rate(
        SilentRank(0),
        SilentRank(0),
        4,
    ))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        println!("(quick mode: reduced n sweep and trial counts)\n");
    }
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let fit_points = weighted_sweep(quick, &mut rows, &mut speedups);
    topology_sweep(quick, &mut rows);
    churn_sweep(quick, &mut rows);
    let fit = fit_weighted_scaling(fit_points);
    rows.extend(speedups);
    rows.push(Json::object([
        ("workload", "weighted-ssr".into()),
        ("engine", "fit-batched".into()),
        ("exponent", fit.exponent.into()),
        ("coefficient", fit.coefficient.into()),
        ("r_squared", fit.r_squared.into()),
    ]));
    let fields = [
        ("schema", Json::from("exp_topology/v1")),
        ("time", "parallel silence time (churn rows: final re-stabilization time)".into()),
        ("quick", quick.into()),
    ];
    write_bench("BENCH_topology.json", &fields, &rows);
    println!(
        "scheduler layer verified end to end: weighted speedups recorded, graph runs \
         scheduler-relative-silent, churn trials re-stabilized after every event"
    );
}

/// ~60× the expected n³/2 interactions to silence, with headroom for the
/// weighted boost and any churn recoveries; small enough that a
/// non-stabilizing regression exhausts it and panics.
fn budget(n: usize) -> u64 {
    30 * (n as u64).pow(3) + 1_000_000
}

/// Returns the batched engine's `(n, mean time)` points for the scaling fit.
fn weighted_sweep(quick: bool, rows: &mut Vec<Json>, speedups: &mut Vec<Json>) -> Vec<(f64, f64)> {
    println!("== Silent-n-state-SSR under weighted duel rates: all four backends ==\n");
    let ns: &[usize] = if quick { &[64, 250] } else { &[64, 250, 1000] };
    // Batched-only extension for the scaling fit: the count engine skips the
    // Θ(n³) null interactions, so the extra sizes stay cheap.
    let fit_ns: &[usize] = if quick { &[125, 500] } else { &[2000] };
    let scheduler = boosted_scheduler();
    let mut fit_points = Vec::new();

    let mut table = Table::new(vec![
        "n",
        "exact time",
        "batched time",
        "batchcount time",
        "interned time",
        "speedup (batched)",
    ]);
    for &n in ns {
        let mut walls = [0f64; 4];
        let mut row = vec![n.to_string()];
        for (i, backend) in
            [Backend::Exact, Backend::Batched, Backend::BatchCount, Backend::Interned]
                .into_iter()
                .enumerate()
        {
            // The exact engine steps every null interaction *and* pays the
            // weighted rejection factor, so at n = 1000 a single trial is
            // minutes of wall clock; one trial there records the cell, and
            // the gate compares only the quick-overlap sizes anyway.
            let trials = if backend == Backend::Exact && n >= 1000 { 1 } else { 3 };
            let start = Instant::now();
            let times = measure_weighted(n, backend, &scheduler, trials, quick);
            walls[i] = start.elapsed().as_secs_f64() / trials as f64;
            let mean = Summary::from_samples(&times).mean;
            row.push(format_value(mean));
            if backend == Backend::Batched {
                fit_points.push((n as f64, mean));
            }
            rows.push(cell_row("weighted-ssr", n, backend.label(), trials, &times, walls[i]));
        }
        for (label, wall) in
            [("batched", walls[1]), ("batchcount", walls[2]), ("interned", walls[3])]
        {
            let workload = format!("weighted-ssr exact-vs-{label}");
            let speedup = walls[0] / wall;
            // The acceptance headline: the committed full sweep must show the
            // count engines (indexed batched and batch-count sampling) ≥ 100×
            // over exact at n = 10³ on the weighted workload. The interned
            // backend pays to discover its ~n² weighted state-pairs
            // dynamically, so it clears a softer 10× floor — its honest cost
            // is recorded in the JSON either way.
            let floor = if label == "interned" { 10.0 } else { 100.0 };
            assert!(
                quick || n != 1000 || speedup >= floor,
                "{workload} at n=1000: speedup {speedup:.1}x fell below the {floor:.0}x acceptance floor",
            );
            speedups.push(Json::object([
                ("workload", workload.into()),
                ("n", n.into()),
                ("engine", "speedup".into()),
                ("exact_wall_s", walls[0].into()),
                ("count_wall_s", wall.into()),
                ("speedup", speedup.into()),
            ]));
        }
        row.push(format!("{:.0}x", walls[0] / walls[1]));
        table.add_row(row);
    }
    for &n in fit_ns {
        let trials = 3;
        let start = Instant::now();
        let times = measure_weighted(n, Backend::Batched, &scheduler, trials, quick);
        let wall = start.elapsed().as_secs_f64() / trials as f64;
        let mean = Summary::from_samples(&times).mean;
        table.add_row(vec![
            n.to_string(),
            "-".to_owned(),
            format_value(mean),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
        ]);
        fit_points.push((n as f64, mean));
        rows.push(cell_row("weighted-ssr", n, Backend::Batched.label(), trials, &times, wall));
    }
    println!("{}", table.to_plain_text());
    println!(
        "times are parallel silence times from the all-leader start under the 4×-boosted\n\
         duel measure; all four backends simulate the same law (the cross-backend\n\
         distribution tests pin this), so the wall-clock ratio is the scheduler\n\
         layer's cost on each representation.\n"
    );
    fit_points
}

fn measure_weighted(
    n: usize,
    backend: Backend,
    scheduler: &InteractionScheduler<SilentRank>,
    trials: usize,
    quick: bool,
) -> Vec<f64> {
    let seed = if quick { 409 } else { 419 } + n as u64;
    match backend {
        Backend::Exact | Backend::Batched | Backend::BatchCount => {
            let engine = match backend {
                Backend::Exact => Engine::Exact,
                Backend::BatchCount => Engine::BatchedCounts,
                _ => Engine::Batched,
            };
            let scenario = Scenario::new("all-leader", |p: &SilentNStateSsr, _| {
                p.all_same_rank_configuration()
            });
            parallel_times(
                RunSpec::new(SilentNStateSsr::new(n))
                    .engine(engine)
                    .budget(budget(n))
                    .scheduler(scheduler.clone())
                    .scenario(&scenario)
                    .trials(trials)
                    .seed(seed),
            )
        }
        Backend::Interned => {
            let protocol = SilentNStateSsr::new(n);
            parallel_times(
                RunSpec::new(AsInterned(protocol))
                    .engine(Engine::Batched)
                    .budget(budget(n))
                    .scheduler(scheduler.clone())
                    .init(protocol.all_same_rank_configuration())
                    .trials(trials)
                    .seed(seed),
            )
        }
    }
}

fn topology_sweep(quick: bool, rows: &mut Vec<Json>) {
    println!("== Fratricide on restricted interaction graphs: exact engine ==\n");
    let ns: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    let trials = if quick { 5 } else { 10 };
    let topologies: Vec<(&'static str, InteractionScheduler<LeaderState>)> = vec![
        ("complete", InteractionScheduler::Uniform),
        ("ring", InteractionScheduler::GraphRestricted(Topology::Ring)),
        ("star", InteractionScheduler::GraphRestricted(Topology::Star)),
        (
            "random-4-regular",
            InteractionScheduler::GraphRestricted(Topology::RandomRegular { degree: 4, seed: 7 }),
        ),
    ];

    let mut table = Table::new(vec!["topology", "n", "silence time", "surviving leaders"]);
    for (name, scheduler) in &topologies {
        for &n in ns {
            let start = Instant::now();
            let frat = Fratricide::new(n);
            let reports = RunSpec::new(frat)
                .budget(budget(n))
                .scheduler(scheduler.clone())
                .init(frat.all_leaders_configuration())
                .trials(trials)
                .seed(311 + n as u64)
                .run()
                .expect("every topology runs on the exact engine");
            let wall = start.elapsed().as_secs_f64() / trials as f64;
            let mut times = Vec::new();
            let mut survivors_total = 0usize;
            for report in &reports {
                assert!(
                    report.outcome.is_silent(),
                    "fratricide on {name} at n={n} failed to reach scheduler-relative silence"
                );
                let survivors =
                    report.final_config.iter().filter(|s| **s == LeaderState::Leader).count();
                assert!(survivors >= 1, "fratricide on {name} at n={n} killed every leader");
                if *name == "complete" {
                    assert_eq!(survivors, 1, "the complete graph must elect a unique leader");
                }
                survivors_total += survivors;
                times.push(report.parallel_time().value());
            }
            let survivors = survivors_total as f64 / trials as f64;
            table.add_row(vec![
                (*name).to_owned(),
                n.to_string(),
                format_value(Summary::from_samples(&times).mean),
                format!("{survivors:.1}"),
            ]);
            let mut cell =
                cell_row(&format!("fratricide {name}"), n, "exact", trials, &times, wall);
            cell.insert("mean_survivors", survivors);
            rows.push(cell);
        }
    }
    println!("{}", table.to_plain_text());
    println!(
        "silence is scheduler-relative: on sparse graphs leaders with no shared edge\n\
         never duel, so runs settle with several survivors — the complete graph is\n\
         the only topology guaranteed to elect exactly one.\n"
    );
    // The count engines reject every one of these topologies upfront.
    for (name, scheduler) in &topologies[1..] {
        let frat = Fratricide::new(8);
        let init = frat.all_leaders_configuration();
        let err = RunSpec::new(frat)
            .engine(Engine::Batched)
            .budget(1_000)
            .scheduler(scheduler.clone())
            .init(init)
            .seed(1)
            .run_one()
            .map(|_| ())
            .expect_err("count engines have no agent identities to restrict");
        assert!(
            matches!(err, SimError::SchedulerNeedsIdentities { .. }),
            "{name} on the batched engine returned the wrong error: {err:?}"
        );
    }
}

fn churn_sweep(quick: bool, rows: &mut Vec<Json>) {
    println!("== Silent-n-state-SSR under population churn: batched engine ==\n");
    let n: usize = if quick { 32 } else { 64 };
    let trials = if quick { 4 } else { 8 };
    let cube = (n as u64).pow(3);
    let k = (n / 8).max(1);
    // Joins are excluded on purpose: with more than n agents the n-rank
    // protocol can never silence (pigeonhole), so the to-silence drive only
    // composes with size-preserving or shrinking churn.
    let plans = vec![
        ChurnPlan::periodic(
            cube,
            cube / 2,
            3,
            ChurnAction::Replace { count: k, state: CorruptionTarget::Fixed(SilentRank(0)) },
        )
        .with_name("periodic-replace"),
        ChurnPlan::poisson(
            cube / 2,
            3 * cube,
            ChurnAction::Replace { count: k, state: CorruptionTarget::Fixed(SilentRank(0)) },
        )
        .with_name("poisson-replace"),
        ChurnPlan::periodic(cube, cube / 2, 3, ChurnAction::Leave { count: k })
            .with_name("periodic-leave"),
    ];
    let schedulers: Vec<(&'static str, InteractionScheduler<SilentRank>)> =
        vec![("uniform", InteractionScheduler::Uniform), ("weighted", boosted_scheduler())];

    let mut table = Table::new(vec!["plan", "scheduler", "n", "events", "final restabilization"]);
    for (sched_name, scheduler) in &schedulers {
        for plan in &plans {
            let start = Instant::now();
            let reports = silent_n_state(n, Workload::Random)
                .engine(Engine::Batched)
                .budget(budget(n))
                .scheduler(scheduler.clone())
                .churn(plan.clone())
                .trials(trials)
                .seed(613 + n as u64)
                .run()
                .expect("uniform and weighted schedulers run churn on the count engines");
            let wall = start.elapsed().as_secs_f64() / trials as f64;
            let protocol = SilentNStateSsr::new(n);
            let mut times = Vec::new();
            let mut events = 0usize;
            for report in &reports {
                let ctx = format!("{} under {sched_name} at n={n}", plan.name());
                assert!(report.outcome.is_silent(), "{ctx}: did not re-silence within budget");
                events += report.events.len();
                if plan.name().contains("replace") {
                    assert_eq!(
                        report.final_population(),
                        n,
                        "{ctx}: replacement churn must preserve the population size"
                    );
                    assert!(
                        protocol.is_correctly_ranked(&report.final_config),
                        "{ctx}: re-silenced into a wrong ranking"
                    );
                } else {
                    assert!(report.final_population() >= 2, "{ctx}: churn broke the clamp");
                    assert!(report.final_population() < n, "{ctx}: departures did not shrink");
                }
                if !report.events.is_empty() {
                    // Events can overlap (the period is of the order of the
                    // recovery time), so only the final event's recovery is
                    // guaranteed — and required.
                    let recovery = report
                        .final_restabilization_parallel_time()
                        .unwrap_or_else(|| panic!("{ctx}: final event never recovered from"));
                    times.push(recovery.value());
                }
            }
            let mean_events = events as f64 / trials as f64;
            table.add_row(vec![
                plan.name().to_owned(),
                (*sched_name).to_owned(),
                n.to_string(),
                format!("{mean_events:.1}"),
                format_value(Summary::from_samples(&times).mean),
            ]);
            let workload = format!("churn {} {sched_name}", plan.name());
            let mut cell = cell_row(&workload, n, "batched", trials, &times, wall);
            cell.insert("mean_events", mean_events);
            rows.push(cell);
        }
    }
    println!("{}", table.to_plain_text());
    println!(
        "final restabilization = parallel time from the last churn event to silence;\n\
         replacement churn must land back on a valid ranking of the original n,\n\
         departures only need to re-silence at the shrunken size.\n"
    );
}

/// Fits the batched weighted silence times against n and asserts the Θ(n²)
/// envelope: the weighted scheduler reshapes a lower-order phase, not the
/// bottleneck walk that Theorem 2.4 counts.
fn fit_weighted_scaling(points: Vec<(f64, f64)>) -> analysis::PowerLawFit {
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
    let fit = fit_power_law(&xs, &ys);
    println!(
        "weighted silence power law (batched): time ~ {:.3}·n^{:.3} (r² = {:.4}); \
         Theorem 2.4's envelope is n²\n",
        fit.coefficient, fit.exponent, fit.r_squared
    );
    assert!(
        (1.6..=2.5).contains(&fit.exponent),
        "weighted silence exponent {:.3} escapes the Θ(n²) envelope [1.6, 2.5]",
        fit.exponent
    );
    fit
}
