//! Experiment X: self-stabilization stress test.
//!
//! For each protocol and a catalogue of adversarial initial configurations
//! (the transient-fault outcomes the self-stabilizing setting is about),
//! measures the recovery time to a stably correct ranking. This is the
//! experiment a practitioner deploying the paper's protocols would care about
//! most: *whatever* state the network is left in, how long until a unique
//! coordinator re-emerges?
//!
//! ```text
//! cargo run --release -p bench --bin exp_recovery
//! ```

use analysis::table::format_value;
use analysis::{Summary, Table};
use bench::{optimal_silent, parallel_times, silent_n_state, sublinear, Workload};
use ssle::params::{OptimalSilentParams, SublinearParams};

fn main() {
    let trials = 10;
    println!("== Recovery time from adversarial configurations (n chosen per protocol) ==\n");

    let mut table = Table::new(vec!["protocol", "n", "workload", "mean", "p95", "max"]);

    let n = 64;
    for workload in [Workload::WorstCase, Workload::Random, Workload::CleanStart] {
        let samples = parallel_times(silent_n_state(n, workload).trials(trials).seed(3));
        add_row(&mut table, "Silent-n-state-SSR", n, workload, &samples);
    }

    let n = 128;
    for workload in [Workload::WorstCase, Workload::Random, Workload::CleanStart] {
        let spec = optimal_silent(OptimalSilentParams::recommended(n), workload);
        let samples = parallel_times(spec.trials(trials).seed(5));
        add_row(&mut table, "Optimal-Silent-SSR", n, workload, &samples);
    }

    let n = 48;
    for workload in [Workload::WorstCase, Workload::Random, Workload::CleanStart] {
        let spec = sublinear(SublinearParams::recommended(n, 2), workload);
        let samples = parallel_times(spec.trials(trials).seed(7));
        add_row(&mut table, "Sublinear-Time-SSR (H=2)", n, workload, &samples);
    }

    println!("{}", table.to_plain_text());
    println!(
        "workloads: WorstCase = the protocol's hardest known start (barrier configuration /\n\
         all-same-rank / planted duplicate name); Random = independently random states\n\
         (ghost-name roster for the sublinear protocol); CleanStart = the post-reset or\n\
         already-correct configuration (so the baseline reports 0)."
    );
}

fn add_row(table: &mut Table, protocol: &str, n: usize, workload: Workload, samples: &[f64]) {
    let summary = Summary::from_samples(samples);
    table.add_row(vec![
        protocol.to_string(),
        n.to_string(),
        format!("{workload:?}"),
        format_value(summary.mean),
        format_value(Summary::quantile_of(samples, 0.95)),
        format_value(summary.max),
    ]);
}
