//! Protocol comparison: the Table 1 trade-off in miniature.
//!
//! Sweeps the population size and measures the stabilization time of all three
//! protocols from adversarial starts, alongside their per-agent memory
//! footprint, printing a small version of the paper's Table 1 with measured
//! numbers.
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::space::{log2_states_optimal_silent, log2_states_silent_n_state, log2_states_sublinear};
use ssle_pp::prelude::*;

fn main() {
    let sizes = [16usize, 32, 64];
    let trials = 5;

    let mut table =
        Table::new(vec!["protocol", "n", "mean parallel time", "bits / agent", "silent"]);

    for &n in &sizes {
        // Baseline Θ(n²) protocol, timed at its exact silence point.
        let p = SilentNStateSsr::new(n);
        let spec = RunSpec::new(p).init(p.worst_case_configuration()).trials(trials).seed(1);
        let baseline_times: Vec<f64> = spec
            .run()
            .expect("a uniform exact-engine spec builds")
            .iter()
            .map(|report| {
                assert!(report.outcome.is_silent());
                report.parallel_time().value()
            })
            .collect();
        table.add_row(vec![
            "Silent-n-state-SSR".into(),
            n.to_string(),
            format!("{:.1}", Summary::from_samples(&baseline_times).mean),
            format!("{:.1}", log2_states_silent_n_state(n)),
            "yes".into(),
        ]);

        // Linear-time silent protocol.
        let optimal_times: Vec<f64> = run_trials(&TrialPlan::new(trials, 2), |_, seed| {
            let p = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
            let mut sim = Simulation::new(p, p.adversarial_all_same_rank(1), seed);
            let outcome = sim.run_until(|c| p.is_correct(c), u64::MAX >> 16);
            assert!(outcome.condition_met());
            sim.parallel_time().value()
        });
        table.add_row(vec![
            "Optimal-Silent-SSR".into(),
            n.to_string(),
            format!("{:.1}", Summary::from_samples(&optimal_times).mean),
            format!("{:.1}", log2_states_optimal_silent(&OptimalSilentParams::recommended(n))),
            "yes".into(),
        ]);

        // Sublinear-time protocol with H = 2.
        let sublinear_times: Vec<f64> = run_trials(&TrialPlan::new(trials, 3), |trial, seed| {
            let params = SublinearParams::recommended(n, 2);
            let p = SublinearTimeSsr::new(params);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ trial as u64);
            let mut sim = Simulation::new(p, p.colliding_configuration(&mut rng), seed);
            let outcome = sim.run_until(|c| p.is_correct(c), u64::MAX >> 16);
            assert!(outcome.condition_met());
            sim.parallel_time().value()
        });
        table.add_row(vec![
            "Sublinear-Time-SSR (H=2)".into(),
            n.to_string(),
            format!("{:.1}", Summary::from_samples(&sublinear_times).mean),
            format!("{:.0}", log2_states_sublinear(&SublinearParams::recommended(n, 2))),
            "no".into(),
        ]);
    }

    println!("{}", table.to_plain_text());
    println!(
        "note: times are from adversarial starts; the ordering baseline >> optimal-silent >\n\
         sublinear matches Table 1, while the memory column grows in the opposite direction."
    );
}
