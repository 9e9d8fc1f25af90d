//! Experiment T1: regenerate Table 1 (time column) of the paper.
//!
//! For each protocol, sweeps the population size, measures stabilization time
//! from an adversarial start, and fits the growth exponent so the measured
//! shape can be compared with the claimed `Θ(n²)`, `Θ(n)` / `Θ(n log n)` and
//! `Θ(log n)` rows. State counts (the other Table 1 column) are reproduced by
//! `exp_state_space`.
//!
//! ```text
//! cargo run --release -p bench --bin exp_table1
//! ```

use analysis::table::format_value;
use analysis::{fit_power_law, Summary, Table};
use bench::{
    engine_from_args, optimal_silent, parallel_times, silent_n_state, sublinear,
    sublinear_detection, Engine, Workload,
};
use ssle::params::{OptimalSilentParams, SublinearParams};

fn main() {
    println!("== Table 1 reproduction: stabilization time from adversarial starts ==\n");

    // ------------------------------------------------------------------
    // Row 1: Silent-n-state-SSR, expected Θ(n²), WHP Θ(n²).
    //
    // Default routing: the batched engine, whose null-interaction skipping is
    // what makes the Θ(n²)-parallel-time (Θ(n³) interactions) runs at the
    // larger sizes feasible at all. Pass `--engine exact` to force the
    // per-agent engine (with a reduced size sweep).
    // ------------------------------------------------------------------
    let engine = engine_from_args(Engine::Batched);
    let ns: &[usize] = if engine != Engine::Exact {
        &[16, 32, 64, 128, 256, 512, 1024, 2048]
    } else {
        &[16, 32, 64, 128, 256]
    };
    let mut table = Table::new(vec!["n", "mean time", "p95 time", "paper shape (n-1)^2/2"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in ns {
        let trials = if n <= 64 { 20 } else { 8 };
        let spec = silent_n_state(n, Workload::WorstCase).engine(engine);
        let samples = parallel_times(spec.trials(trials).seed(11));
        let summary = Summary::from_samples(&samples);
        let p95 = Summary::quantile_of(&samples, 0.95);
        table.add_row(vec![
            n.to_string(),
            format_value(summary.mean),
            format_value(p95),
            format_value(analysis::theory::silent_n_state_worst_case_time(n)),
        ]);
        xs.push(n as f64);
        ys.push(summary.mean);
    }
    let fit = fit_power_law(&xs, &ys);
    println!("-- Silent-n-state-SSR [Cai-Izumi-Wada], worst-case start ({engine} engine) --");
    println!("{}", table.to_plain_text());
    println!(
        "fitted exponent: {:.2} (paper: 2, i.e. Θ(n²)); R² = {:.3}\n",
        fit.exponent, fit.r_squared
    );

    // ------------------------------------------------------------------
    // Row 2: Optimal-Silent-SSR, expected Θ(n), WHP Θ(n log n).
    //
    // Default routing: the exact engine — this protocol's timer states make
    // almost every pair non-null, so there is little for the batched engine
    // to skip (it would run on its dense fallback backend).
    // ------------------------------------------------------------------
    let engine = engine_from_args(Engine::Exact);
    let ns = [32usize, 64, 128, 256, 512];
    let mut table = Table::new(vec!["n", "mean time", "p95 time", "mean time / n"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &ns {
        let trials = if n <= 128 { 20 } else { 8 };
        let spec = optimal_silent(OptimalSilentParams::recommended(n), Workload::WorstCase);
        let samples = parallel_times(spec.engine(engine).trials(trials).seed(13));
        let summary = Summary::from_samples(&samples);
        let p95 = Summary::quantile_of(&samples, 0.95);
        table.add_row(vec![
            n.to_string(),
            format_value(summary.mean),
            format_value(p95),
            format!("{:.2}", summary.mean / n as f64),
        ]);
        xs.push(n as f64);
        ys.push(summary.mean);
    }
    let fit = fit_power_law(&xs, &ys);
    println!("-- Optimal-Silent-SSR (Section 4), all-same-rank start --");
    println!("{}", table.to_plain_text());
    println!(
        "fitted exponent: {:.2} (paper: 1, i.e. Θ(n)); R² = {:.3}\n",
        fit.exponent, fit.r_squared
    );

    // ------------------------------------------------------------------
    // Row 3: Sublinear-Time-SSR with H = Θ(log n), expected Θ(log n).
    // ------------------------------------------------------------------
    let ns = [8usize, 16, 32, 64];
    let mut table = Table::new(vec![
        "n",
        "H=ceil(log2 n)",
        "detection latency",
        "detect / ln n",
        "full stabilization",
        "stabilization / ln n",
    ]);
    for &n in &ns {
        let h = (n as f64).log2().ceil() as u32;
        let trials = if n <= 32 { 10 } else { 5 };
        let params = SublinearParams::recommended(n, h);
        let detection = parallel_times(sublinear_detection(params).trials(2 * trials).seed(53));
        let detection_mean = Summary::from_samples(&detection).mean;
        let spec = sublinear(params, Workload::WorstCase);
        let samples = parallel_times(spec.trials(trials).seed(17));
        let summary = Summary::from_samples(&samples);
        table.add_row(vec![
            n.to_string(),
            h.to_string(),
            format_value(detection_mean),
            format!("{:.2}", detection_mean / (n as f64).ln()),
            format_value(summary.mean),
            format!("{:.2}", summary.mean / (n as f64).ln()),
        ]);
    }
    println!("-- Sublinear-Time-SSR with H = Θ(log n) (Section 5), planted duplicate name --");
    println!("{}", table.to_plain_text());
    println!(
        "paper shape: Θ(log n) — both the detection/ln n and stabilization/ln n columns should\n\
         stay roughly flat (the stabilization constant is dominated by Rmax/Dmax at these sizes).\n"
    );

    // ------------------------------------------------------------------
    // Row 4: Sublinear-Time-SSR with constant H: Θ(H·n^{1/(H+1)}).
    // ------------------------------------------------------------------
    let ns = [16usize, 32, 64, 128, 256];
    let h = 1;
    let mut table = Table::new(vec![
        "n",
        "detection latency",
        "paper shape H*n^(1/(H+1))",
        "full stabilization",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &ns {
        let trials = if n <= 64 { 16 } else { 8 };
        let params = SublinearParams::recommended(n, h);
        let spec = sublinear_detection(params);
        let detection = parallel_times(spec.trials(trials).seed(19 + n as u64));
        let detection_mean = Summary::from_samples(&detection).mean;
        let spec = sublinear(params, Workload::WorstCase);
        let samples = parallel_times(spec.trials(trials / 2).seed(19));
        table.add_row(vec![
            n.to_string(),
            format_value(detection_mean),
            format_value(analysis::theory::sublinear_expected_time_shape(n, h as usize)),
            format_value(Summary::from_samples(&samples).mean),
        ]);
        xs.push(n as f64);
        ys.push(detection_mean);
    }
    let fit = fit_power_law(&xs, &ys);
    println!("-- Sublinear-Time-SSR with constant H = {h}, planted duplicate name --");
    println!("{}", table.to_plain_text());
    println!(
        "fitted detection-latency exponent: {:.2} (paper: 1/(H+1) = {:.2}); full stabilization\n\
         adds an additive Θ(log n) reset/roll-call term with a large constant that flattens the\n\
         total at these sizes.",
        fit.exponent,
        1.0 / (h as f64 + 1.0)
    );
}
