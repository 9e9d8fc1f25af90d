//! Experiment P: the foundational processes of Section 2.1 and Section 6.
//!
//! Regenerates, with measured numbers, the quantitative claims of
//! Lemma 2.7 / Corollary 2.8 (epidemic), Lemma 2.9 (roll call),
//! Lemmas 2.10 / 2.11 (bounded epidemic), Lemma 4.1 (binary-tree rank
//! assignment), the coupon-collector step, and the synthetic-coin rate of
//! Section 6.
//!
//! ```text
//! cargo run --release -p bench --bin exp_processes
//! ```

use analysis::table::format_value;
use analysis::{theory, Summary, Table};
use ppsim::prelude::*;
use processes::{
    simulate_bounded_epidemic, simulate_coin_harvest, simulate_epidemic_interactions,
    simulate_pairwise_coupon_collector, simulate_roll_call_interactions, BinaryTreeAssignment,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    epidemic_and_roll_call();
    bounded_epidemic();
    binary_tree_assignment();
    synthetic_coin();
}

fn epidemic_and_roll_call() {
    println!("== Lemma 2.7 / Corollary 2.8 (epidemic) and Lemma 2.9 (roll call) ==\n");
    let ns = [100usize, 200, 400, 800, 1600];
    let trials = 400;
    let mut table = Table::new(vec![
        "n",
        "epidemic mean (meas)",
        "epidemic mean (paper (n-1)H_{n-1}/n)",
        "P[T > 3 n ln n] (meas)",
        "roll call mean (meas)",
        "roll call / epidemic",
    ]);
    for &n in &ns {
        let epidemic: Vec<f64> = run_trials(&TrialPlan::new(trials, 1), |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_epidemic_interactions(n, 1, &mut rng) as f64 / n as f64
        });
        let roll_call: Vec<f64> = run_trials(&TrialPlan::new(trials / 4, 2), |_, seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            simulate_roll_call_interactions(n, &mut rng) as f64 / n as f64
        });
        let epidemic_summary = Summary::from_samples(&epidemic);
        let roll_call_summary = Summary::from_samples(&roll_call);
        let exceed = Summary::exceedance_fraction(&epidemic, 3.0 * (n as f64).ln());
        table.add_row(vec![
            n.to_string(),
            format_value(epidemic_summary.mean),
            format_value(theory::epidemic_expected_time(n)),
            format!("{exceed:.4} (bound {:.4})", theory::epidemic_three_n_ln_n_tail(n)),
            format_value(roll_call_summary.mean),
            format!("{:.3}", roll_call_summary.mean / epidemic_summary.mean),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!("paper: roll call / epidemic → 1.5 (Lemma 2.9)\n");
}

fn bounded_epidemic() {
    println!("== Lemmas 2.10 / 2.11: bounded epidemic hitting times τ_k ==\n");
    let n = 2048;
    let trials = 60;
    let levels = [1usize, 2, 3, 4];
    let mut table = Table::new(vec!["k", "mean τ_k (meas)", "paper bound k·n^(1/k)"]);
    let results: Vec<Vec<f64>> = run_trials(&TrialPlan::new(trials, 3), |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outcome = simulate_bounded_epidemic(n, 4, u64::MAX >> 8, &mut rng);
        levels.iter().map(|&k| outcome.tau_parallel(k, n).unwrap()).collect()
    });
    for (idx, &k) in levels.iter().enumerate() {
        let samples: Vec<f64> = results.iter().map(|r| r[idx]).collect();
        table.add_row(vec![
            k.to_string(),
            format_value(Summary::from_samples(&samples).mean),
            format_value(theory::bounded_epidemic_time_bound(n, k)),
        ]);
    }
    println!("n = {n}");
    println!("{}", table.to_plain_text());

    // Lemma 2.11: k = 3 log2 n gives τ_k ≤ 3 ln n.
    let k = (3.0 * (n as f64).log2()) as usize;
    let samples: Vec<f64> = run_trials(&TrialPlan::new(trials, 4), |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outcome = simulate_bounded_epidemic(n, k, u64::MAX >> 8, &mut rng);
        outcome.tau_parallel(k, n).unwrap()
    });
    println!(
        "k = 3·log₂ n = {k}: mean τ_k = {:.2}, paper bound 3·ln n = {:.2}\n",
        Summary::from_samples(&samples).mean,
        theory::bounded_epidemic_log_time_bound(n)
    );
}

fn binary_tree_assignment() {
    println!("== Lemma 4.1: binary-tree rank assignment completes in O(n) time ==\n");
    let ns = [64usize, 128, 256, 512];
    let trials = 10;
    let mut table = Table::new(vec!["n", "mean completion time", "time / n"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &ns {
        let samples: Vec<f64> = run_trials(&TrialPlan::new(trials, 5), |_, seed| {
            let protocol = BinaryTreeAssignment::new(n);
            let mut sim = Simulation::new(protocol, protocol.initial_configuration(), seed);
            let outcome = sim.run_until(BinaryTreeAssignment::is_complete, u64::MAX >> 8);
            assert!(outcome.condition_met());
            sim.parallel_time().value()
        });
        let mean = Summary::from_samples(&samples).mean;
        table.add_row(vec![n.to_string(), format_value(mean), format!("{:.3}", mean / n as f64)]);
        xs.push(n as f64);
        ys.push(mean);
    }
    let fit = analysis::fit_power_law(&xs, &ys);
    println!("{}", table.to_plain_text());
    println!("fitted exponent: {:.2} (paper: 1, i.e. O(n))\n", fit.exponent);

    println!("== Coupon-collector step of Lemma 2.9 ==\n");
    let n = 1000;
    let samples: Vec<f64> = run_trials(&TrialPlan::new(200, 6), |_, seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        simulate_pairwise_coupon_collector(n, &mut rng) as f64 / n as f64
    });
    println!(
        "n = {n}: mean time for every agent to interact = {:.3}, paper ~ (1/2)·ln n = {:.3}\n",
        Summary::from_samples(&samples).mean,
        theory::coupon_collector_all_agents_time(n)
    );
}

fn synthetic_coin() {
    println!("== Section 6: synthetic-coin derandomization ==\n");
    let mut table = Table::new(vec![
        "n",
        "bits/agent",
        "interactions per bit (meas)",
        "paper",
        "heads fraction",
        "completion time",
    ]);
    for &n in &[64usize, 256, 1024] {
        let bits = 24;
        let outcome = simulate_coin_harvest(n, bits, 9);
        table.add_row(vec![
            n.to_string(),
            bits.to_string(),
            format!("{:.2}", outcome.interactions_per_bit),
            format!("{:.1}", theory::synthetic_coin_expected_interactions_per_bit()),
            format!("{:.4}", outcome.heads as f64 / outcome.total_bits as f64),
            format!("{:.1}", outcome.parallel_time),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!("paper: ≈ 4 of an agent's own interactions per harvested bit, unbiased bits.");
}
