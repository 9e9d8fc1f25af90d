//! Perf trajectory: exact vs batched engine on `Silent-n-state-SSR`.
//!
//! Measures, for a sweep of population sizes, (a) the exact engine's
//! wall-clock cost per interaction, (b) the batched engine's wall-clock to
//! silence from a uniformly random configuration (with its interaction and
//! applied-transition counts), and (c) the resulting exact-vs-batched
//! to-silence speedup — measured head-to-head where the exact engine can
//! finish in reasonable time, and extrapolated from its measured
//! per-interaction rate (clearly flagged) where it cannot.
//!
//! Writes `BENCH_batched.json` into the current directory so future PRs have
//! a perf baseline to compare against.
//!
//! ```text
//! cargo run --release -p bench --bin bench_batched            # full sweep
//! cargo run --release -p bench --bin bench_batched -- --quick # CI smoke
//! ```

use bench::perf::{write_bench, Json};
use bench::{measure, take_start, Engine, Measurement};
use ppsim::{BatchedSimulation, Configuration, Counter, Simulation};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::{SilentNStateSsr, SilentRank};

fn random_config(n: usize, seed: u64) -> (SilentNStateSsr, Configuration<SilentRank>) {
    let protocol = SilentNStateSsr::new(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5);
    (protocol, protocol.random_configuration(&mut rng))
}

/// Batched engine, to silence.
fn measure_batched(n: usize, trials: usize) -> Measurement {
    measure(
        trials,
        |seed| random_config(n, seed),
        |(protocol, config), seed| {
            let mut sim = BatchedSimulation::new(*protocol, config, seed);
            // Silence from a random configuration costs ~n³/2 interactions
            // (5·10¹⁷ at n = 10⁶), so give the counter almost the full u64 range.
            assert!(sim.run_until_silent(u64::MAX >> 1).is_silent());
            sim
        },
    )
}

/// Exact engine: to silence over `trials` trials (only feasible at
/// moderate n), or, with a `cap`, one capped calibration run measuring
/// ns/interaction.
fn measure_exact(n: usize, trials: usize, cap: Option<u64>) -> Measurement {
    measure(
        trials,
        |seed| random_config(n, seed),
        |(protocol, config), seed| {
            let mut sim = Simulation::new(*protocol, take_start(config), seed);
            match cap {
                Some(budget) => sim.run_for(budget),
                None => assert!(sim.run_until_silent(u64::MAX >> 8).is_silent()),
            }
            sim
        },
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // (n, batched trials, exact runs to silence?). Silence from a random
    // configuration needs ~5·n² interactions (the last duplicate pair has to
    // meet directly), so a direct exact-engine measurement is only feasible
    // at n = 10³ (~10² s); beyond that the exact run would take hours to
    // weeks and its to-silence wall clock is extrapolated from a calibrated
    // per-interaction rate.
    let sweep: &[(usize, usize, bool)] = if quick {
        &[(1_000, 3, true), (10_000, 2, false)]
    } else {
        &[(1_000, 5, true), (10_000, 5, false), (100_000, 3, false), (1_000_000, 2, false)]
    };

    let mut rows = Vec::new();
    for &(n, trials, to_silence) in sweep {
        eprintln!("measuring n = {n} ...");
        let batched = measure_batched(n, trials);
        let exact = if to_silence {
            measure_exact(n, trials.min(2), None)
        } else {
            // Calibrate the per-interaction rate on 20M interactions.
            measure_exact(n, 1, Some(20_000_000))
        };
        // Speedup row: wall-clock to silence, exact vs batched. When the
        // exact engine only ran a capped calibration, extrapolate its
        // to-silence wall clock from its measured per-interaction rate and
        // the batched engine's (exactly distributed) interaction count.
        let exact_to_silence_wall = if to_silence {
            exact.mean_wall_s
        } else {
            batched.mean_interactions * exact.ns_per_interaction() / 1e9
        };
        let speedup = exact_to_silence_wall / batched.mean_wall_s;
        let transitions = batched.mean(Counter::Transitions);
        for (m, engine) in [(&exact, Engine::Exact), (&batched, Engine::Batched)] {
            let mut row = m.row(n, engine);
            row.insert("ns_per_interaction", m.ns_per_interaction());
            row.insert("to_silence", to_silence || engine == Engine::Batched);
            if engine == Engine::Batched {
                row.insert("mean_transitions", transitions);
            }
            rows.push(row);
        }
        rows.push(Json::object([
            ("n", n.into()),
            ("engine", "speedup".into()),
            ("exact_wall_s", exact_to_silence_wall.into()),
            ("batched_wall_s", batched.mean_wall_s.into()),
            ("speedup", speedup.into()),
            ("exact_extrapolated", (!to_silence).into()),
        ]));
        println!(
            "n = {:>8}: exact {:>12.4} s{} | batched {:>9.4} s ({} transitions for {} \
             interactions) | speedup {:>8.1}x",
            n,
            exact_to_silence_wall,
            if to_silence { "  " } else { " *" },
            batched.mean_wall_s,
            transitions as u64,
            batched.mean_interactions as u64,
            speedup
        );
    }
    write_bench(
        "BENCH_batched.json",
        &[
            ("schema", "bench_batched/v1".into()),
            ("protocol", "SilentNStateSsr".into()),
            ("workload", "uniformly random configuration, run to silence".into()),
            ("quick", quick.into()),
        ],
        &rows,
    );
    println!("(* = exact to-silence wall clock extrapolated from a capped calibration run)");
}
