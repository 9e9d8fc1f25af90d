//! Experiment A: adversarial initialization — the paper's self-stabilization
//! claim, exercised end to end.
//!
//! Every other experiment starts the protocols from clean or uniform
//! configurations; this one sweeps **protocol × scenario × n** over the
//! adversarial scenario families (zero-leader, all-leader,
//! near-silent-but-wrong, worst-case placements, k-way and merged name
//! collisions, ghost rosters, corrupted history trees, mid-reset timers,
//! seeded-epidemic and skewed-coupon corner cases) and tabulates
//! stabilization time from adversarial starts against clean starts. Every
//! protocol runs on **both** engines, cross-validating the scenario path
//! through the engine routing: enumerable protocols through the statically
//! enumerated batched backends, `Sublinear-Time-SSR` — whose state space is
//! open — through the dynamically interned backend.
//!
//! Two properties are asserted, not just printed:
//!
//! * every adversarial trial stabilizes within budget to a unique leader /
//!   valid ranking (the measurement routines panic otherwise), and
//! * `Silent-n-state-SSR` from its worst-case scenario fits a power law with
//!   exponent in [1.8, 2.2] across the n sweep — the Θ(n²) envelope of
//!   Theorem 2.4 holds from adversarial starts.
//!
//! ```text
//! cargo run --release -p bench --bin exp_adversarial [-- --quick]
//! ```

use analysis::table::format_value;
use analysis::{fit_power_law, Summary, Table};
use bench::{parallel_times, Engine};
use ppsim::prelude::*;
use processes::{Coupon, Epidemic};
use ssle::params::{OptimalSilentParams, SublinearParams};
use ssle::{OptimalSilentSsr, SilentNStateSsr, SublinearTimeSsr};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        println!("(quick mode: reduced n sweep and trial counts)\n");
    }
    silent_n_state(quick);
    optimal_silent(quick);
    sublinear(quick);
    epidemic_and_coupon(quick);
    println!("all adversarial trials stabilized within budget on every engine");
}

fn silent_n_state(quick: bool) {
    println!("== Silent-n-state-SSR: adversarial starts on all engines ==\n");
    let ns: &[usize] = if quick { &[16, 32, 64] } else { &[16, 32, 64, 128, 256] };
    let trials = if quick { 4 } else { 10 };

    let mut scenarios = SilentNStateSsr::adversarial_scenarios();
    scenarios.push(Scenario::new("clean-start", |p: &SilentNStateSsr, _| p.ranked_configuration()));

    let mut table =
        Table::new(vec!["scenario", "n", "exact mean", "batched mean", "batchcount mean"]);
    let mut worst_case_means = Vec::new();
    for scenario in &scenarios {
        for &n in ns {
            // ~40× the expected n³/2 interactions to silence: generous for
            // the Θ(n²) worst case, yet small enough that a non-stabilizing
            // regression exhausts it (and panics below) instead of hanging.
            let budget = 20 * (n as u64).pow(3) + 1_000_000;
            let mut means = Vec::new();
            for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
                let reports = RunSpec::new(SilentNStateSsr::new(n))
                    .engine(engine)
                    .budget(budget)
                    .scenario(scenario)
                    .trials(trials)
                    .seed(41 + n as u64)
                    .run()
                    .expect("a uniform-scheduled scenario spec always builds");
                let protocol = SilentNStateSsr::new(n);
                let times: Vec<f64> = reports
                    .iter()
                    .map(|r| {
                        assert!(r.outcome.is_silent(), "{} n={n} did not silence", scenario.name());
                        assert!(
                            protocol.is_correctly_ranked(&r.final_config),
                            "{} n={n} silenced into a wrong ranking",
                            scenario.name()
                        );
                        assert!(
                            protocol.has_unique_leader(&r.final_config),
                            "{} n={n} ended without a unique leader",
                            scenario.name()
                        );
                        r.parallel_time().value()
                    })
                    .collect();
                means.push(Summary::from_samples(&times).mean);
            }
            if scenario.name() == "worst-case" {
                worst_case_means.push((n as f64, means[1]));
            }
            table.add_row(vec![
                scenario.name().to_owned(),
                n.to_string(),
                format_value(means[0]),
                format_value(means[1]),
                format_value(means[2]),
            ]);
        }
    }
    println!("{}", table.to_plain_text());

    let (xs, ys): (Vec<f64>, Vec<f64>) = worst_case_means.into_iter().unzip();
    let fit = fit_power_law(&xs, &ys);
    println!(
        "worst-case power law: time ~ {:.3}·n^{:.3} (r² = {:.4}); Theorem 2.4 predicts n²\n",
        fit.coefficient, fit.exponent, fit.r_squared
    );
    assert!(
        (1.8..=2.2).contains(&fit.exponent),
        "worst-case exponent {:.3} escapes the Θ(n²) envelope [1.8, 2.2]",
        fit.exponent
    );
}

fn optimal_silent(quick: bool) {
    println!("== Optimal-Silent-SSR: adversarial starts on all engines ==\n");
    let ns: &[usize] = if quick { &[12] } else { &[16, 32] };
    let trials = if quick { 3 } else { 8 };

    let mut scenarios = OptimalSilentSsr::adversarial_scenarios();
    scenarios
        .push(Scenario::new("clean-start", |p: &OptimalSilentSsr, _| p.post_reset_configuration()));

    let mut table =
        Table::new(vec!["scenario", "n", "exact mean", "batched mean", "batchcount mean"]);
    for scenario in &scenarios {
        for &n in ns {
            let mut means = Vec::new();
            for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
                let times = parallel_times(
                    RunSpec::new(OptimalSilentSsr::new(OptimalSilentParams::recommended(n)))
                        .engine(engine)
                        // Θ(n) expected parallel time = Θ(n²) interactions,
                        // with constant-probability reset epochs; orders of
                        // magnitude of headroom while keeping a regression a
                        // panic.
                        .budget(50_000 * (n as u64).pow(2) + 10_000_000)
                        .scenario(scenario)
                        .until(|p, c| p.is_correct(c))
                        .trials(trials)
                        .seed(59 + n as u64),
                );
                means.push(Summary::from_samples(&times).mean);
            }
            table.add_row(vec![
                scenario.name().to_owned(),
                n.to_string(),
                format_value(means[0]),
                format_value(means[1]),
                format_value(means[2]),
            ]);
        }
    }
    println!("{}", table.to_plain_text());
    println!(
        "the correct ranking is silent and unique, so convergence here witnesses\n\
         stabilization; adversarial starts stay within a constant factor of the\n\
         clean start's Θ(n) time.\n"
    );
}

fn sublinear(quick: bool) {
    println!("== Sublinear-Time-SSR: adversarial starts on all engines ==\n");
    let (ns, trials): (&[usize], usize) = if quick { (&[10], 2) } else { (&[12, 16], 3) };
    let h = 2;

    let mut scenarios = SublinearTimeSsr::adversarial_scenarios();
    scenarios
        .push(Scenario::new("clean-start", |p: &SublinearTimeSsr, rng| p.fresh_configuration(rng)));

    let mut table =
        Table::new(vec!["scenario", "n", "exact mean", "interned mean", "batchcount mean"]);
    for scenario in &scenarios {
        for &n in ns {
            let budget = 400_000u64 * n as u64;
            let mut means = Vec::new();
            for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
                let times = parallel_times(
                    RunSpec::new(SublinearTimeSsr::new(SublinearParams::recommended(n, h)))
                        .engine(engine)
                        .budget(budget)
                        .scenario(scenario)
                        .until(|p, c| p.is_correct(c))
                        .trials(trials)
                        .seed(73 + n as u64),
                );
                means.push(Summary::from_samples(&times).mean);
            }
            table.add_row(vec![
                scenario.name().to_owned(),
                n.to_string(),
                format_value(means[0]),
                format_value(means[1]),
                format_value(means[2]),
            ]);
        }
    }
    println!("{}", table.to_plain_text());
    println!(
        "the state space is open (names × history trees), so the batched column runs\n\
         through the dynamically interned backend (ppsim::InternedSimulation); the\n\
         protocol is non-silent at H ≥ 1, so correctness of the ranking is the\n\
         stabilization criterion.\n"
    );
}

fn epidemic_and_coupon(quick: bool) {
    println!("== Foundational processes: seeded-epidemic and skewed-coupon corner cases ==\n");
    let n = if quick { 50 } else { 200 };
    let trials = if quick { 10 } else { 40 };

    let mut table = Table::new(vec![
        "process",
        "scenario",
        "n",
        "exact mean",
        "batched mean",
        "batchcount mean",
    ]);
    for scenario in Epidemic::adversarial_scenarios() {
        let mut means = Vec::new();
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let times = parallel_times(
                RunSpec::new(Epidemic::new(n))
                    .engine(engine)
                    .budget(1_000 * (n as u64).pow(2))
                    .scenario(&scenario)
                    .trials(trials)
                    .seed(87),
            );
            means.push(Summary::from_samples(&times).mean);
        }
        table.add_row(vec![
            "epidemic".to_owned(),
            scenario.name().to_owned(),
            n.to_string(),
            format_value(means[0]),
            format_value(means[1]),
            format_value(means[2]),
        ]);
    }
    for scenario in Coupon::adversarial_scenarios() {
        let mut means = Vec::new();
        for engine in [Engine::Exact, Engine::Batched, Engine::BatchedCounts] {
            let times = parallel_times(
                RunSpec::new(Coupon::new(n))
                    .engine(engine)
                    .budget(1_000 * (n as u64).pow(2))
                    .scenario(&scenario)
                    .trials(trials)
                    .seed(93),
            );
            means.push(Summary::from_samples(&times).mean);
        }
        table.add_row(vec![
            "coupon".to_owned(),
            scenario.name().to_owned(),
            n.to_string(),
            format_value(means[0]),
            format_value(means[1]),
            format_value(means[2]),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!(
        "every start with at least one infected agent silences exactly at infection\n\
         completion; every coupon start silences when the last fresh agent interacts.\n"
    );
}
