//! Experiment H: the time/space trade-off of `Sublinear-Time-SSR`
//! (Table 1, last two rows) and the `T_H` edge-timer ablation.
//!
//! * At a fixed population size, sweep the history depth `H` from 0 (direct
//!   collision detection, the silent-style Θ(n) regime) up to `⌈log₂ n⌉` and
//!   report the measured stabilization time next to the paper's
//!   `Θ(H·n^{1/(H+1)})` shape and the per-agent memory bits.
//! * At a fixed depth, sweep `n` to expose the `n^{1/(H+1)}` growth.
//! * Ablate `T_H`: timers much smaller than `τ_{H+1}` forget histories before
//!   they can be cross-examined, pushing detection back toward direct
//!   meetings.
//!
//! ```text
//! cargo run --release -p bench --bin exp_h_tradeoff
//! ```

use analysis::table::format_value;
use analysis::{theory, Summary, Table};
use bench::{parallel_times, sublinear, sublinear_detection, Workload};
use ssle::params::SublinearParams;
use ssle::space::log2_states_sublinear;

fn main() {
    depth_sweep();
    size_sweep();
    timer_ablation();
}

fn depth_sweep() {
    let n = 64;
    let trials = 8;
    println!("== Depth sweep at n = {n}: detection gets faster, memory explodes ==\n");
    let mut table = Table::new(vec![
        "H",
        "detection latency (meas)",
        "paper shape H·n^(1/(H+1))",
        "full stabilization (meas)",
        "bits / agent",
    ]);
    let log_h = (n as f64).log2().ceil() as u32;
    for h in [0u32, 1, 2, 3, log_h] {
        let params = SublinearParams::recommended(n, h);
        let spec = sublinear_detection(params);
        let detection = parallel_times(spec.trials(2 * trials).seed(53 + h as u64));
        let spec = sublinear(params, Workload::WorstCase);
        let samples = parallel_times(spec.trials(trials).seed(23 + h as u64));
        table.add_row(vec![
            if h == log_h { format!("{h} (=⌈log₂ n⌉)") } else { h.to_string() },
            format_value(Summary::from_samples(&detection).mean),
            format_value(theory::sublinear_expected_time_shape(n, h as usize)),
            format_value(Summary::from_samples(&samples).mean),
            format_value(log2_states_sublinear(&SublinearParams::recommended(n, h))),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!(
        "paper: detection latency Θ(H·n^(1/(H+1))) (Θ(n) at H = 0, Θ(log n) at H = ⌈log₂ n⌉);\n\
         full stabilization adds the Θ(log n)-with-a-large-constant reset + roll-call cost,\n\
         which dominates at this n; memory exp(O(n^H)·log n) states.\n"
    );
}

fn size_sweep() {
    let trials = 12;
    println!("== Size sweep at fixed H: the n^(1/(H+1)) exponent of the detection latency ==\n");
    for h in [0u32, 1, 2] {
        let ns = [16usize, 32, 64, 128, 256];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut table =
            Table::new(vec!["n", "detection latency (meas)", "paper shape H·n^(1/(H+1))"]);
        for &n in &ns {
            let trials_here = if n <= 64 { 2 * trials } else { trials };
            let spec = sublinear_detection(SublinearParams::recommended(n, h));
            let samples = parallel_times(spec.trials(trials_here).seed(31 + n as u64));
            let mean = Summary::from_samples(&samples).mean;
            table.add_row(vec![
                n.to_string(),
                format_value(mean),
                format_value(theory::sublinear_expected_time_shape(n, h as usize)),
            ]);
            xs.push(n as f64);
            ys.push(mean);
        }
        let fit = analysis::fit_power_law(&xs, &ys);
        println!("-- H = {h} --");
        println!("{}", table.to_plain_text());
        println!(
            "fitted exponent {:.2}; paper predicts {:.2}\n",
            fit.exponent,
            1.0 / (h as f64 + 1.0)
        );
    }
}

fn timer_ablation() {
    let n = 128;
    let h = 2;
    let trials = 12;
    println!("== T_H ablation at n = {n}, H = {h} ==\n");
    let recommended = SublinearParams::recommended(n, h);
    let mut table =
        Table::new(vec!["T_H", "detection latency (meas)", "full stabilization (meas)"]);
    for factor in [0.05f64, 0.15, 0.5, 1.0, 2.0] {
        let t_h = ((recommended.t_h as f64) * factor).round().max(1.0) as u32;
        let params = recommended.with_t_h(t_h);
        let spec = sublinear_detection(params);
        let detection = parallel_times(spec.trials(trials).seed(61 + t_h as u64));
        let spec = sublinear(params, Workload::WorstCase);
        let samples = parallel_times(spec.trials(trials / 2).seed(41 + t_h as u64));
        table.add_row(vec![
            format!("{t_h} ({factor}x recommended)"),
            format_value(Summary::from_samples(&detection).mean),
            format_value(Summary::from_samples(&samples).mean),
        ]);
    }
    println!("{}", table.to_plain_text());
    println!(
        "expectation: very small timers expire remembered histories before the duplicate is\n\
         cross-examined, pushing detection back toward the direct-meeting (Θ(n)) regime; timers\n\
         at or above the recommended Θ(τ_(H+1)) value change little."
    );
}
