//! Integration tests for the headline complexity shapes of Table 1, at sizes
//! chosen so the whole file runs in a few tens of seconds in release CI (and a
//! few minutes in debug). The full sweeps with larger populations live in the
//! `bench` crate's experiment binaries.

use analysis::fit_power_law;
use analysis::Summary;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle_pp::prelude::*;

/// Mean stabilization time (parallel) of `Silent-n-state-SSR` from its
/// worst-case configuration, at the exact silence point.
fn silent_n_state_time(n: usize, trials: usize, seed: u64) -> f64 {
    let p = SilentNStateSsr::new(n);
    let spec = RunSpec::new(p).init(p.worst_case_configuration()).trials(trials).seed(seed);
    let samples: Vec<f64> = spec
        .run()
        .expect("a uniform exact-engine spec builds")
        .iter()
        .map(|report| {
            assert!(report.outcome.is_silent());
            report.parallel_time().value()
        })
        .collect();
    Summary::from_samples(&samples).mean
}

/// Mean stabilization time of `Optimal-Silent-SSR` from the all-same-rank
/// adversarial configuration.
fn optimal_silent_time(n: usize, trials: usize, seed: u64) -> f64 {
    let samples: Vec<f64> = run_trials(&TrialPlan::new(trials, seed), |_, s| {
        let p = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
        let mut sim = Simulation::new(p, p.adversarial_all_same_rank(1), s);
        let outcome = sim.run_until(|c| p.is_correct(c), u64::MAX >> 16);
        assert!(outcome.condition_met());
        sim.parallel_time().value()
    });
    Summary::from_samples(&samples).mean
}

/// Mean time for `Sublinear-Time-SSR` (depth `h`) to detect a planted name
/// collision and re-stabilize.
fn sublinear_time(n: usize, h: u32, trials: usize, seed: u64) -> f64 {
    let samples: Vec<f64> = run_trials(&TrialPlan::new(trials, seed), |trial, s| {
        let p = SublinearTimeSsr::new(SublinearParams::recommended(n, h));
        let mut rng = ChaCha8Rng::seed_from_u64(s ^ (trial as u64) << 32);
        let mut sim = Simulation::new(p, p.colliding_configuration(&mut rng), s);
        let outcome = sim.run_until(|c| p.is_correct(c), u64::MAX >> 16);
        assert!(outcome.condition_met());
        sim.parallel_time().value()
    });
    Summary::from_samples(&samples).mean
}

#[test]
fn silent_n_state_scales_roughly_quadratically() {
    let ns = [12usize, 24, 48];
    let times: Vec<f64> = ns.iter().map(|&n| silent_n_state_time(n, 8, 3)).collect();
    let fit = fit_power_law(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>(), &times);
    assert!(
        fit.exponent > 1.5 && fit.exponent < 2.6,
        "Silent-n-state-SSR exponent {} should be near 2 (Θ(n²))",
        fit.exponent
    );
}

#[test]
fn optimal_silent_scales_roughly_linearly() {
    let ns = [16usize, 32, 64, 128];
    let times: Vec<f64> = ns.iter().map(|&n| optimal_silent_time(n, 6, 5)).collect();
    let fit = fit_power_law(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>(), &times);
    assert!(
        fit.exponent > 0.6 && fit.exponent < 1.4,
        "Optimal-Silent-SSR exponent {} should be near 1 (Θ(n))",
        fit.exponent
    );
}

#[test]
fn optimal_silent_beats_the_baseline_at_moderate_sizes() {
    // The headline claim of Table 1: the new silent protocol is dramatically
    // faster than the Θ(n²) baseline, already visible at n = 48.
    let n = 48;
    let baseline = silent_n_state_time(n, 6, 11);
    let optimal = optimal_silent_time(n, 6, 12);
    assert!(
        optimal * 2.0 < baseline,
        "expected Optimal-Silent-SSR ({optimal}) to be well below the baseline ({baseline})"
    );
}

#[test]
fn deeper_history_trees_detect_collisions_faster() {
    // The H-parameterized trade-off (Table 1 last row): larger H means lower
    // detection/stabilization time. H = 0 is direct detection (Θ(n)).
    // Full stabilization at this size is dominated by the additive reset and
    // roll-call costs (standard deviation ~15 parallel time units), so a
    // handful of trials cannot resolve the H-separation; 20 trials can.
    let n = 24;
    let t0 = sublinear_time(n, 0, 20, 21);
    let t2 = sublinear_time(n, 2, 20, 23);
    assert!(t2 < t0, "H = 2 ({t2}) should stabilize faster than direct detection H = 0 ({t0})");
}
