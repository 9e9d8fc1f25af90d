//! Experiment L: the paper's lower-bound constructions.
//!
//! * Theorem 2.4 (lower-bound half): from the barrier worst-case configuration
//!   `Silent-n-state-SSR` needs `Θ(n²)` time — the duplicate rank must be
//!   pushed through `n − 1` consecutive direct meetings.
//! * Observation 2.6: **any** silent protocol needs `Ω(n)` time, because from
//!   its silent single-leader configuration the adversary can clone the leader
//!   and the two copies must meet directly. Measured for both silent
//!   protocols; the non-silent `Sublinear-Time-SSR` escapes the argument,
//!   which is exactly why it can be sublinear.
//! * The Ω(log n) observation for any SSLE protocol: from the all-leaders
//!   configuration, `n − 1` agents must each interact at least once.
//!
//! ```text
//! cargo run --release -p bench --bin exp_lower_bounds
//! ```

use analysis::table::format_value;
use analysis::{theory, Summary, Table};
use bench::{
    engine_from_args, parallel_times, silent_n_state, with_cloned_leader, Engine, Workload,
};
use ppsim::prelude::*;
use processes::{Fratricide, LeaderState};
use ssle::params::OptimalSilentParams;
use ssle::{OptimalSilentSsr, SilentNStateSsr};

fn main() {
    theorem_2_4();
    observation_2_6();
    log_lower_bound();
}

fn theorem_2_4() {
    println!("== Theorem 2.4: Silent-n-state-SSR needs Θ(n²) from the barrier configuration ==\n");
    // The batched engine skips the Θ(n²)-interaction waits between the
    // bottleneck meetings, which is what lets this sweep reach n = 1024;
    // `--engine exact` restores the per-agent engine on the smaller sizes.
    let engine = engine_from_args(Engine::Batched);
    let ns: &[usize] = if engine != Engine::Exact {
        &[16, 32, 64, 128, 256, 512, 1024]
    } else {
        &[16, 32, 64, 128]
    };
    let trials = 10;
    let mut table =
        Table::new(vec!["n", "mean time (meas)", "exact expectation (n-1)²/2... see note"]);
    for &n in ns {
        let spec = silent_n_state(n, Workload::WorstCase).engine(engine);
        let samples = parallel_times(spec.trials(trials).seed(3));
        table.add_row(vec![
            n.to_string(),
            format_value(Summary::from_samples(&samples).mean),
            format_value(theory::silent_n_state_worst_case_time(n)),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!(
        "note: the right column is the exact expectation (n−1)·C(n,2)/n of the bottleneck chain\n\
         alone; the measured mean tracks it closely because the bottleneck dominates.\n"
    );
}

fn observation_2_6() {
    println!("== Observation 2.6: silent protocols pay Ω(n) to notice a cloned leader ==\n");
    let ns = [32usize, 64, 128, 256];
    let trials = 20;
    let mut table = Table::new(vec![
        "n",
        "Silent-n-state-SSR (meas)",
        "Optimal-Silent-SSR (meas)",
        "direct-meeting expectation (n-1)/2",
    ]);
    for &n in &ns {
        let protocol = SilentNStateSsr::new(n);
        let baseline = parallel_times(
            RunSpec::new(protocol)
                .init(with_cloned_leader(&protocol, protocol.ranked_configuration()))
                .trials(trials)
                .seed(5),
        );
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
        let optimal = parallel_times(
            RunSpec::new(protocol)
                .init(with_cloned_leader(&protocol, protocol.ranked_configuration()))
                .until(|p, c| p.is_correct(c))
                .trials(trials)
                .seed(6),
        );
        table.add_row(vec![
            n.to_string(),
            format_value(Summary::from_samples(&baseline).mean),
            format_value(Summary::from_samples(&optimal).mean),
            format_value((n as f64 - 1.0) / 2.0),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!(
        "paper: the two copies of the leader state must meet directly, which takes (n−1)/2\n\
         expected time — both silent protocols therefore grow linearly here (the baseline pays\n\
         more because the duplicate must then also walk to the free rank). Sublinear-Time-SSR\n\
         is exempt precisely because it is not silent.\n"
    );
}

fn log_lower_bound() {
    println!("== Ω(log n) for any SSLE protocol: the all-leaders coupon-collector argument ==\n");
    let ns = [64usize, 256, 1024, 4096];
    let trials = 100;
    let mut table = Table::new(vec!["n", "fratricide from all-leaders (meas)", "ln n"]);
    for &n in &ns {
        // The halving time of the all-leaders configuration: the first
        // halving is fast; the Ω(log n) bound comes from the coupon-collector
        // tail the note below points to.
        let protocol = Fratricide::new(n);
        let samples = parallel_times(
            RunSpec::new(protocol)
                .init(protocol.all_leaders_configuration())
                .until(move |_, c| c.count_matching(|s| *s == LeaderState::Leader) <= n / 2)
                .trials(trials)
                .seed(9),
        );
        table.add_row(vec![
            n.to_string(),
            format_value(Summary::from_samples(&samples).mean),
            format_value((n as f64).ln()),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!(
        "the halving time of the all-leaders configuration is Θ(1); the full Ω(log n) bound\n\
         comes from the coupon-collector tail (every agent must interact), cf. exp_processes'\n\
         coupon-collector measurement of ~ (1/2)·ln n."
    );
}
