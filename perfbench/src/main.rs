//! The repository benchmark: the paper's workloads end to end, and a traced
//! run that splits their time over the layers they pass through.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <count-engines|exact-protocols|ppsimd-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Progress and a
//! readable summary go to standard error. See `README.md` for what each
//! workload and metric means.

mod layers;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bench::perf::{self, Json};

use layers::UnitCosts;
use metrics::{END_TO_END, PER_LAYER};
use workloads::{drive, Opts, RunData, NAMES};

fn usage() -> &'static str {
    "usage: perfbench --workload <count-engines|exact-protocols|ppsimd-mixed|all> \
     --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]"
}

/// Parses the command line; `Err` carries the message for stderr.
fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => opts.tiny = true,
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::from(2);
    }
    let origin = Instant::now();
    // The calibration loop at the start and the end of the run shows a
    // change of machine speed between runs; it rescales nothing.
    let calib_start = sys::chacha8_ns();
    let data = match workload.as_str() {
        "count-engines" => drive::<workloads::count::CountEngines>(&opts, origin),
        "exact-protocols" => drive::<workloads::exact::ExactProtocols>(&opts, origin),
        "ppsimd-mixed" => drive::<workloads::service::PpsimdMixed>(&opts, origin),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let line = if opts.trace {
        traced_result(&workload, &opts, data, calib_start)
    } else {
        let calib_end = sys::chacha8_ns();
        eprintln!("calib.chacha8_ns.start {calib_start:.4}, calib.chacha8_ns.end {calib_end:.4}");
        end_to_end_result(&workload, data)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Prints the failures, if any, and returns `(attempted, failed)`; a run
/// that checked nothing counts as one failure.
fn tally(workload: &str, ctx: &workloads::Ctx) -> (u64, u64) {
    for failure in &ctx.failures {
        eprintln!("{workload}: FAILED {failure}");
    }
    (ctx.attempted.max(1), ctx.failed + u64::from(ctx.attempted == 0))
}

/// The phases' metric names: `(rate, median, tail)`.
const PHASE_METRICS: [(&str, &str, &str); 3] = [
    ("phase_a_per_s", "phase_a_p50_ms", "phase_a_tail_ms"),
    ("phase_b_per_s", "phase_b_p50_ms", "phase_b_tail_ms"),
    ("phase_c_per_s", "phase_c_p50_ms", "phase_c_tail_ms"),
];

/// The end-to-end result line of an untraced run, from every execution of
/// every untraced round.
fn end_to_end_result(workload: &str, data: RunData) -> String {
    let phases = &data.ctx.phases;
    let executions: usize = phases.iter().map(Vec::len).sum();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("setup_s", stats::median(&data.setups_s).unwrap_or(0.0));
    values.insert("wall_s", stats::median(&data.rounds_s).unwrap_or(0.0));
    // The median of the rounds' peaks: the process's own peak is set by the
    // run's single hungriest trajectory, so it follows the seed. Without a
    // resettable peak, the process's.
    let peak = stats::median(&data.round_peaks_mb).or_else(sys::peak_rss_mb);
    values.insert("peak_rss_mb", peak.unwrap_or(0.0));
    values.insert("ops_per_s", executions as f64 / data.rounds_s.iter().sum::<f64>());
    let mut tails = Vec::new();
    for (execs, (rate, p50, tail)) in phases.iter().zip(PHASE_METRICS) {
        let work: f64 = execs.iter().map(|e| e.work).sum();
        let busy: f64 = execs.iter().map(|e| e.seconds).sum();
        values.insert(rate, if busy > 0.0 { work / busy } else { 0.0 });
        let ms: Vec<f64> = execs.iter().map(|e| e.seconds * 1e3).collect();
        values.insert(p50, stats::median(&ms).unwrap_or(0.0));
        // Too few executions for the tail rule (only in smoke runs): the
        // slowest.
        let (percentile, value) =
            stats::tail(&ms).unwrap_or_else(|| (100, ms.iter().copied().fold(0.0, f64::max)));
        values.insert(tail, value);
        let cv = stats::cv(&ms).unwrap_or(0.0);
        tails.push(format!(
            "{} of {} executions at p{percentile} (cv {cv:.2})",
            &tail[..7],
            ms.len()
        ));
    }

    eprintln!(
        "{workload}: {} rounds in {:.2} s; {}",
        data.rounds_s.len(),
        data.rounds_s.iter().sum::<f64>(),
        tails.join(", ")
    );
    for metric in END_TO_END {
        let (name, unit, better) = (metric.name, metric.unit, metric.better.label());
        eprintln!("  {name:<16} {:>16.6} {unit:<5} ({better} is better)", values[name]);
    }
    let (attempted, failed) = tally(workload, &data.ctx);
    metrics::result_line(END_TO_END, &values, attempted, failed)
}

/// The per-layer result line of a traced run; also writes the Chrome trace.
fn traced_result(workload: &str, opts: &Opts, data: RunData, calib_start: f64) -> String {
    let unit_started = Instant::now();
    let costs =
        layers::unit_costs(&data.ctx.capture, opts.seed, if opts.tiny { 2.0 } else { 10.0 });
    let calib_end = sys::chacha8_ns();
    eprintln!("{workload}: unit costs timed in {:.2} s", unit_started.elapsed().as_secs_f64());

    // Merge the lanes and write the trace.
    let RunData { mut ctx, rounds_s, traced_rounds_s, lanes, .. } = data;
    let main_lane =
        std::mem::replace(&mut ctx.tracer, trace::Tracer::new(Instant::now(), 0, false));
    let mut spans = Vec::new();
    let mut dropped = 0;
    for lane in std::iter::once(main_lane).chain(lanes) {
        let (lane_spans, lane_dropped) = lane.finish();
        spans.extend(lane_spans);
        dropped += lane_dropped;
    }
    let self_us = trace::self_times(&spans);
    let path = opts.out_dir.join(format!("trace-{workload}.json"));
    match trace::render(&spans) {
        Ok((text, events)) => {
            let written = std::fs::write(&path, text);
            ctx.check(written.is_ok(), || format!("cannot write {}", path.display()));
            eprintln!("wrote {} ({events} events, {dropped} spans past the cap)", path.display());
        }
        Err(e) => ctx.check(false, || format!("trace failed validation: {e}")),
    }

    let rounds = traced_rounds_s.len().max(1) as f64;
    // Each round's traced pass over its untraced pass, on the same inputs.
    let ratios: Vec<f64> = traced_rounds_s.iter().zip(&rounds_s).map(|(t, u)| t / u).collect();
    let overhead = stats::median(&ratios).map_or(0.0, |ratio| ratio - 1.0);
    let mut values = per_layer(&ctx.counts, &self_us, &costs, rounds);
    values.insert("trace.overhead_frac", overhead);
    values.insert("calib.chacha8_ns.start", calib_start);
    values.insert("calib.chacha8_ns.end", calib_end);
    // Ledger: Σ counter × unit cost per round over the operations' own time
    // per round, both from this run's rounds (each round's untraced and
    // traced passes run the same inputs).
    let untraced_rounds = rounds_s.len().max(1) as f64;
    let busy_per_round_ns =
        ctx.phases.iter().flatten().map(|e| e.seconds).sum::<f64>() * 1e9 / untraced_rounds;
    let ops_per_round: Vec<f64> =
        ctx.phases.iter().map(|execs| execs.len() as f64 / untraced_rounds).collect();
    let explained =
        layers::explained_ns(workload, &values, &ctx.counts, rounds, &costs, &ops_per_round);
    values.insert("ledger.explained_frac", explained / busy_per_round_ns);

    for metric in PER_LAYER {
        eprintln!("  {:<36} {:>16.4} {}", metric.name, values[metric.name], metric.unit);
    }
    let (attempted, failed) = tally(workload, &ctx);
    metrics::result_line(PER_LAYER, &values, attempted, failed)
}

/// Assembles the per-layer metrics: counts and span times per traced round,
/// unit costs as timed.
fn per_layer(
    counts: &BTreeMap<&'static str, f64>,
    self_us: &BTreeMap<String, u64>,
    costs: &UnitCosts,
    rounds: f64,
) -> BTreeMap<&'static str, f64> {
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let per_round = |name: &str| count(name) / rounds;
    let span_ms = |name: &str| self_us.get(name).copied().unwrap_or(0) as f64 / 1e3 / rounds;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("sampling.null_run_ns", costs.null_run_ns);
    v.insert("sampling.hypergeometric_ns", costs.hypergeometric_ns);
    v.insert("sampling.neg_binomial_ns", costs.neg_binomial_ns);
    for name in [
        "batched.transitions",
        "batched.nulls_skipped",
        "batched.fenwick_rebuilds",
        "batched.epochs_opened",
        "batched.batch_draws",
        "interned.interner_growths",
        "exact.silence_checks",
    ] {
        v.insert(name, per_round(name));
    }
    v.insert(
        "batched.truncation_frac",
        ratio(count("batched.truncations"), count("batched.batch_draws")),
    );
    v.insert(
        "batched.ns_per_transition",
        ratio(count("time.ssr_s") * 1e9, count("batched.ssr_transitions")),
    );
    v.insert("batched.epoch_draw_ms", span_ms("epoch.draw"));
    v.insert("batched.epoch_apply_ms", span_ms("epoch.apply"));
    v.insert("interned.intern_hit_ns", costs.intern_hit_ns);
    v.insert(
        "interned.ns_per_transition",
        ratio(count("time.rollcall_s") * 1e9, count("interned.rollcall_transitions")),
    );
    v.insert(
        "exact.ns_per_interaction.optsilent",
        ratio(count("time.optimal_s") * 1e9, count("exact.optimal_interactions")),
    );
    v.insert(
        "exact.ns_per_interaction.sublinear",
        ratio(count("time.sublinear_s") * 1e9, count("exact.sublinear_interactions")),
    );
    v.insert("exact.silence_check_ms", span_ms("silence.check"));
    v.insert("ssle.silent_n_state.transition_ns", costs.ssr_transition_ns);
    v.insert("ssle.optimal_silent.transition_ns", costs.optimal_transition_ns);
    v.insert("ssle.sublinear.transition_ns", costs.sublinear_transition_ns);
    v.insert("ssle.sublinear.clone_ns", costs.sublinear_clone_ns);
    v.insert("ssle.sublinear.hash_ns", costs.sublinear_hash_ns);
    v.insert("ssle.sublinear.is_null_ns", costs.sublinear_is_null_ns);
    v.insert("mcheck.frontier_pops", costs.frontier_pops);
    v.insert("mcheck.gs_sweeps", costs.gs_sweeps);
    v.insert("mcheck.ns_per_frontier_pop", costs.ns_per_frontier_pop);
    v.insert("mcheck.closure_explore_ms", costs.closure_explore_ms);
    v.insert("mcheck.solver_sweep_ms", costs.solver_sweep_ms);
    v.insert("ppsimd.parse_ns", costs.parse_ns);
    v.insert("ppsimd.canonical_ns", costs.canonical_ns);
    v.insert("ppsimd.cache_get_ns", costs.cache_get_ns);
    v.insert("ppsimd.cache_insert_ns", costs.cache_insert_ns);
    v.insert("ppsimd.serialize_ns", costs.serialize_ns);
    v.insert(
        "ppsimd.execute_ms.run",
        ratio(count("ppsimd.execute_run_us") / 1e3, count("ppsimd.execute_run_n")),
    );
    v.insert("ppsimd.execute_ms.expect", costs.execute_expect_ms);
    v.insert(
        "ppsimd.queue_wait_ms",
        ratio(count("ppsimd.queue_us") / 1e3, count("ppsimd.queue_n")),
    );
    v.insert("ppsimd.cache_hit_frac", count("ppsimd.cache_hit_frac"));
    v.insert("ppsimd.overloaded", count("ppsimd.overloaded"));
    v.insert("ppsimd.queue_highwater", count("ppsimd.queue_highwater"));
    v
}

/// `--workload all`: each workload in a fresh child process (so each gets
/// its own peak-memory reading), one after another, then a summary.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--workload" {
            it.next();
        } else {
            rest.push(arg.clone());
        }
    }
    let mut combined = BTreeMap::new();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for name in NAMES {
        let output = Command::new(&exe)
            .arg("--workload")
            .arg(name)
            .args(&rest)
            .stderr(Stdio::inherit())
            .output();
        let line = match output {
            Ok(out) if out.status.success() => {
                String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_owned()
            }
            Ok(out) => {
                eprintln!("error: {name} exited with {}", out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Ok(doc) = perf::parse(&line) else {
            eprintln!("error: {name} printed no result line");
            return ExitCode::FAILURE;
        };
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        correct &= doc.get("correct").and_then(Json::as_bool).unwrap_or(false);
        println!("{name}");
        if let Some(metrics) = doc.get("metrics").and_then(Json::as_object) {
            for (metric, entry) in metrics {
                let value = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {metric:<36} {value:>16.6} {unit}");
                combined.insert(format!("{name}/{metric}"), entry.clone());
            }
        }
    }
    let mut top = BTreeMap::new();
    top.insert("correct".to_owned(), Json::Bool(correct));
    top.insert("attempted".to_owned(), Json::Num(attempted));
    top.insert("failed".to_owned(), Json::Num(failed));
    top.insert("metrics".to_owned(), Json::Obj(combined));
    println!("{}", perf::to_string(&Json::Obj(top)));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (workload, opts) =
            parse_args(&args("--workload ppsimd-mixed --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(workload, "ppsimd-mixed");
        assert_eq!((opts.seed, opts.seconds, opts.trace, opts.tiny), (7, 12.0, true, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload count-engines --trace 2",
            "--workload count-engines --seconds 0",
            "--workload count-engines --seed",
            "--workload count-engines --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
