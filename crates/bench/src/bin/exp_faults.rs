//! Experiment F: mid-run fault injection — the paper's *self-stabilization*
//! claim exercised at the point it actually speaks about: recovery from an
//! arbitrary transient corruption **during** the run, not just an
//! adversarial configuration at t = 0 (which `exp_adversarial` covers).
//!
//! Sweeps **protocol × fault plan × n** on **all three engines** (exact,
//! statically batched, dynamically interned):
//!
//! * `Silent-n-state-SSR` from a random start under a one-shot all-leader
//!   burst, periodic random-rank bursts, and Poisson-arrival random-rank
//!   bursts (k agents per burst, drawn uniformly — ∝ counts in count space);
//! * the roll-call process under periodic roster-wiping bursts planted after
//!   completion (the exact and interned engines; rosters are not statically
//!   enumerable).
//!
//! Three properties are asserted, not just printed:
//!
//! * every trial re-silences within budget after the final injected burst,
//!   into a unique leader / valid ranking (resp. a complete roll call);
//! * the recovery clock restarts at each burst (recovery times are measured
//!   from the injection, so they stay O(stabilization time) even though the
//!   bursts land long after t = 0);
//! * the batched engine's one-shot recovery times fit a power law with
//!   exponent inside the Θ(n²) envelope — recovering from a transient
//!   corruption costs what Theorem 2.4 says stabilization costs.
//!
//! Writes `BENCH_faults.json` into the current directory; the nightly CI job
//! runs `--quick` and uploads it with the other perf artifacts.
//!
//! ```text
//! cargo run --release -p bench --bin exp_faults [-- --quick]
//! ```

use analysis::table::format_value;
use analysis::{fit_power_law, Summary, Table};
use bench::perf::{write_bench, Json};
use bench::Engine;
use ppsim::prelude::*;
use processes::RollCall;
use ssle::{SilentNStateSsr, SilentRank};
use std::time::Instant;

/// Which backend a sweep cell ran on (the interned backend is reached
/// through `Engine::Batched` + `AsInterned`, so `Engine` alone cannot name
/// it in tables).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Exact,
    Batched,
    Interned,
    /// The batch-count sampling mode ([`Engine::BatchedCounts`]) on the
    /// statically enumerated count engine.
    BatchCount,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Exact => "exact",
            Backend::Batched => "batched",
            Backend::Interned => "interned",
            Backend::BatchCount => "batchcount",
        }
    }
}

/// One measured sweep cell's row: the mean bursts fired per trial (Poisson
/// plans vary), the mean and standard error of the final-burst recovery
/// times (parallel), and the mean wall clock per trial.
fn cell_row<S>(
    protocol: &str,
    plan: &str,
    n: usize,
    backend: Backend,
    reports: &[TrialReport<S>],
    recoveries: &[f64],
    wall: f64,
) -> Json {
    let trials = reports.len() as f64;
    let bursts: usize = reports.iter().map(|r| r.events.len()).sum();
    let summary = Summary::from_samples(recoveries);
    Json::object([
        ("protocol", protocol.into()),
        ("plan", plan.into()),
        ("n", n.into()),
        ("engine", backend.label().into()),
        ("trials", reports.len().into()),
        ("mean_bursts", (bursts as f64 / trials).into()),
        ("mean_recovery_parallel", summary.mean.into()),
        ("se_recovery", summary.standard_error().into()),
        ("mean_wall_s", (wall / trials).into()),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        println!("(quick mode: reduced n sweep and trial counts)\n");
    }
    let mut rows = Vec::new();
    let fit_points = silent_n_state(quick, &mut rows);
    roll_call(quick, &mut rows);
    let fit = fit_recovery_scaling(fit_points);
    rows.push(Json::object([
        ("protocol", "SilentNStateSsr".into()),
        ("plan", "one-shot-all-leader".into()),
        ("engine", "fit-batched".into()),
        ("exponent", fit.exponent.into()),
        ("coefficient", fit.coefficient.into()),
        ("r_squared", fit.r_squared.into()),
    ]));
    let fields = [
        ("schema", Json::from("exp_faults/v1")),
        ("recovery", "parallel silence time minus last-injection time".into()),
        ("quick", quick.into()),
    ];
    write_bench("BENCH_faults.json", &fields, &rows);
    println!("all faulted trials re-stabilized after their final burst on every engine");
}

/// Returns the batched engine's one-shot `(n, mean recovery)` points for
/// the scaling fit.
fn silent_n_state(quick: bool, rows: &mut Vec<Json>) -> Vec<(f64, f64)> {
    println!("== Silent-n-state-SSR: mid-run bursts from a random start, all four engines ==\n");
    let ns: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 128] };
    let trials = if quick { 3 } else { 5 };
    // Extra batched-only sizes for the recovery-scaling fit: the batched
    // engine skips the Θ(n³) null interactions, so large n stays cheap.
    let fit_ns: &[usize] = if quick { &[64, 128] } else { &[256, 512] };

    let scenario = Scenario::new("random", |p: &SilentNStateSsr, rng| p.random_configuration(rng));
    let scenario_interned = Scenario::new("random", |p: &AsInterned<SilentNStateSsr>, rng| {
        p.0.random_configuration(rng)
    });

    let mut fit_points = Vec::new();
    let mut run_cell = |n, plan: &FaultPlan<SilentRank>, backend| {
        let mean =
            measure_silent_cell(n, plan, backend, trials, &scenario, &scenario_interned, rows);
        if backend == Backend::Batched && plan.name() == "one-shot-all-leader" {
            fit_points.push((n as f64, mean));
        }
        format_value(mean)
    };
    let mut table = Table::new(vec![
        "plan",
        "n",
        "exact recovery",
        "batched recovery",
        "interned recovery",
        "batchcount recovery",
    ]);
    for &n in ns {
        for plan in SilentNStateSsr::new(n).adversarial_fault_plans() {
            let mut row = vec![plan.name().to_owned(), n.to_string()];
            for backend in
                [Backend::Exact, Backend::Batched, Backend::Interned, Backend::BatchCount]
            {
                row.push(run_cell(n, &plan, backend));
            }
            table.add_row(row);
        }
    }
    // Batched-only extension of the one-shot sweep for the scaling fit.
    for &n in fit_ns {
        let plan = &SilentNStateSsr::new(n).adversarial_fault_plans()[0];
        let mean = run_cell(n, plan, Backend::Batched);
        let dash = || "-".to_owned();
        table.add_row(vec![plan.name().to_owned(), n.to_string(), dash(), mean, dash(), dash()]);
    }
    println!("{}", table.to_plain_text());
    println!(
        "recovery = exact silence point minus last-injection time (parallel); bursts\n\
         corrupt k agents drawn uniformly (∝ counts on the count engines) into\n\
         adversary-chosen or random ranks.\n"
    );
    fit_points
}

/// Records one cell's row and returns its mean recovery time.
fn measure_silent_cell(
    n: usize,
    plan: &FaultPlan<SilentRank>,
    backend: Backend,
    trials: usize,
    scenario: &Scenario<SilentNStateSsr>,
    scenario_interned: &Scenario<AsInterned<SilentNStateSsr>>,
    rows: &mut Vec<Json>,
) -> f64 {
    // ~60× the expected n³/2 interactions to silence: room for the initial
    // stabilization plus every burst's recovery, yet small enough that a
    // non-recovering regression exhausts it (and panics below).
    let budget = 30 * (n as u64).pow(3) + 1_000_000;
    let seed = 131 + n as u64;
    let start = Instant::now();
    let reports = match backend {
        Backend::Interned => RunSpec::new(AsInterned(SilentNStateSsr::new(n)))
            .engine(Engine::Batched)
            .budget(budget)
            .scenario(scenario_interned)
            .faults(plan.clone())
            .trials(trials)
            .seed(seed)
            .run(),
        Backend::Exact | Backend::Batched | Backend::BatchCount => {
            let engine = match backend {
                Backend::Exact => Engine::Exact,
                Backend::BatchCount => Engine::BatchedCounts,
                _ => Engine::Batched,
            };
            RunSpec::new(SilentNStateSsr::new(n))
                .engine(engine)
                .budget(budget)
                .scenario(scenario)
                .faults(plan.clone())
                .trials(trials)
                .seed(seed)
                .run()
        }
    }
    .expect("a uniform-scheduled fault spec always builds");
    let wall = start.elapsed().as_secs_f64();
    let protocol = SilentNStateSsr::new(n);
    let mut recoveries = Vec::new();
    for report in &reports {
        let ctx = format!("{} n={n} {}", plan.name(), backend.label());
        assert!(report.outcome.is_silent(), "{ctx}: did not re-silence within budget");
        assert!(
            protocol.is_correctly_ranked(&report.final_config),
            "{ctx}: silenced into a wrong ranking"
        );
        assert!(
            protocol.has_unique_leader(&report.final_config),
            "{ctx}: ended without a unique leader"
        );
        if !report.events.is_empty() {
            let recovery = report
                .final_restabilization()
                .unwrap_or_else(|| panic!("{ctx}: final burst not recovered from"));
            recoveries.push(recovery.to_parallel_time(n).value());
        }
    }
    rows.push(cell_row("SilentNStateSsr", plan.name(), n, backend, &reports, &recoveries, wall));
    Summary::from_samples(&recoveries).mean
}

fn roll_call(quick: bool, rows: &mut Vec<Json>) {
    println!("== Roll call: post-completion roster wipes, exact and interned engines ==\n");
    let ns: &[usize] = if quick { &[32] } else { &[64, 128] };
    let trials = if quick { 3 } else { 5 };

    let mut table =
        Table::new(vec!["plan", "n", "exact recovery", "interned recovery", "batchcount recovery"]);
    for &n in ns {
        // Post-completion wipes only: roll call recovers lost ids from
        // surviving copies, so the plan's scheduling guard (bursts far past
        // the expected R_n completion) is what keeps re-completion certain.
        let plan = RollCall::new(n).roster_wipe_fault_plan(3, (n / 8).max(1));
        let base = match plan.schedule() {
            FaultSchedule::Periodic { start, .. } => start,
            _ => unreachable!("roster wipes are periodic"),
        };
        let budget = 100 * base;
        let mut row = vec![plan.name().to_owned(), n.to_string()];
        for backend in [Backend::Exact, Backend::Interned, Backend::BatchCount] {
            let engine = match backend {
                Backend::Exact => Engine::Exact,
                Backend::BatchCount => Engine::BatchedCounts,
                _ => Engine::Batched,
            };
            let start = Instant::now();
            let protocol = RollCall::new(n);
            let reports = RunSpec::new(protocol)
                .engine(engine)
                .budget(budget)
                .init(protocol.initial_configuration())
                .faults(plan.clone())
                .trials(trials)
                .seed(977 + n as u64)
                .run()
                .expect("a uniform-scheduled interned fault spec always builds");
            let wall = start.elapsed().as_secs_f64();
            let mut recoveries = Vec::new();
            for report in &reports {
                let ctx = format!("roll-call n={n} {}", backend.label());
                assert!(report.outcome.is_silent(), "{ctx}: did not re-complete within budget");
                assert!(
                    RollCall::is_complete(&report.final_config),
                    "{ctx}: silenced without a complete roll call"
                );
                let recovery = report
                    .final_restabilization()
                    .unwrap_or_else(|| panic!("{ctx}: final burst not recovered from"));
                recoveries.push(recovery.to_parallel_time(n).value());
            }
            row.push(format_value(Summary::from_samples(&recoveries).mean));
            rows.push(cell_row("RollCall", plan.name(), n, backend, &reports, &recoveries, wall));
        }
        table.add_row(row);
    }
    println!("{}", table.to_plain_text());
    println!(
        "each burst wipes k rosters to random singletons after completion; the wiped\n\
         ids survive in the untouched full rosters, so the union re-spreads and the\n\
         process re-completes (silence ⟺ completion).\n"
    );
}

/// Fits the batched engine's one-shot recovery times against n and asserts
/// the Θ(n²) envelope: a transient corruption of n/4 agents costs what
/// Theorem 2.4 says a fresh adversarial start costs.
fn fit_recovery_scaling(points: Vec<(f64, f64)>) -> analysis::PowerLawFit {
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
    let fit = fit_power_law(&xs, &ys);
    println!(
        "one-shot recovery power law (batched): time ~ {:.3}·n^{:.3} (r² = {:.4}); \
         Theorem 2.4 predicts n²\n",
        fit.coefficient, fit.exponent, fit.r_squared
    );
    assert!(
        (1.7..=2.4).contains(&fit.exponent),
        "recovery exponent {:.3} escapes the Θ(n²) envelope [1.7, 2.4]",
        fit.exponent
    );
    fit
}
