//! Perf trajectory: exact vs batched (interned) engine on the open-state-
//! space workloads that PR 1's enumerated backends could not touch.
//!
//! The headline workload is `Sublinear-Time-SSR` collision **detection** from
//! the merged-collision family at history depth `H = 0`: rosters are already
//! fully exchanged, so every scheduled pair is null except the two agents
//! sharing a name, and the run idles for the `Θ(n²)`-interaction direct-
//! detection wait. The exact engine steps (and compares full rosters) through
//! every one of those null interactions; the interned engine skips the whole
//! wait in a single geometric draw. The same sweep also measures the
//! roll-call process (`R_n`, Lemma 2.9) on both engines — a workload where
//! the exact engine **wins** (its per-interaction cost is a handful of word
//! ORs, while the interned engine pays O(present) bookkeeping per
//! roster-changing transition and almost every pre-completion interaction
//! changes a roster). The losing row is recorded deliberately: the interned
//! backend's value for roll call is *expressiveness* (it runs on the batched
//! engine at all, with cross-engine equivalence tests), and the decision
//! tree in `ARCHITECTURE.md` is only trustworthy if the benches also show
//! where batching does not pay.
//!
//! Writes `BENCH_interned.json` into the current directory so future PRs
//! have a perf baseline to compare against.
//!
//! ```text
//! cargo run --release -p bench --bin bench_interned            # full sweep
//! cargo run --release -p bench --bin bench_interned -- --quick # CI smoke
//! ```

use bench::perf::{write_bench, Json};
use bench::{measure, take_start, Engine, Measurement};
use ppsim::{Configuration, Counter, InternedSimulation, Simulation};
use processes::RollCall;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::params::SublinearParams;
use ssle::{SublinearState, SublinearTimeSsr};

fn merged_collision_setup(
    n: usize,
    seed: u64,
) -> (SublinearTimeSsr, Configuration<SublinearState>) {
    let protocol = SublinearTimeSsr::new(SublinearParams::recommended(n, 0));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11AD);
    let config = protocol.merged_collision_configuration(2, &mut rng);
    (protocol, config)
}

/// Detection latency (first reset trigger) of the merged-collision family at
/// `H = 0`, on the exact engine.
fn detection_exact(n: usize, trials: usize) -> Measurement {
    measure(
        trials,
        |seed| merged_collision_setup(n, seed),
        |(protocol, config), seed| {
            let mut sim = Simulation::new(*protocol, take_start(config), seed);
            let outcome = sim.run_until(SublinearTimeSsr::any_resetting, u64::MAX >> 8);
            assert!(outcome.condition_met());
            sim
        },
    )
}

/// Same detection workload on the interned engine, with a count-based
/// predicate so the measurement is not dominated by materializing per-agent
/// configurations the engine does not otherwise need.
fn detection_interned(n: usize, trials: usize) -> Measurement {
    measure(
        trials,
        |seed| merged_collision_setup(n, seed),
        |(protocol, config), seed| {
            let mut sim = InternedSimulation::new(*protocol, config, seed);
            let outcome = sim.run_until_counts(
                |s| s.state_counts().any(|(state, _)| state.is_resetting()),
                u64::MAX >> 8,
            );
            assert!(outcome.condition_met());
            sim
        },
    )
}

/// Roll-call completion (= silence) on the exact or the interned engine.
fn roll_call_measure(n: usize, trials: usize, engine: Engine) -> Measurement {
    let protocol = RollCall::new(n);
    let start = |_| protocol.initial_configuration();
    match engine {
        Engine::Exact => measure(trials, start, |config, seed| {
            let mut sim = Simulation::new(protocol, take_start(config), seed);
            assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
            sim
        }),
        Engine::Batched | Engine::BatchedCounts => measure(trials, start, |config, seed| {
            let mut sim = InternedSimulation::new(protocol, config, seed)
                .with_sampling_mode(engine.sampling_mode());
            assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
            sim
        }),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let detection_sweep: &[(usize, usize)] =
        if quick { &[(250, 3)] } else { &[(250, 5), (1_000, 5)] };
    let roll_call_sweep: &[(usize, usize)] =
        if quick { &[(250, 3)] } else { &[(250, 5), (1_000, 3)] };

    // (workload, n, exact, interned): the two engines head-to-head.
    let mut pairs: Vec<(&str, usize, Measurement, Measurement)> = Vec::new();
    for &(n, trials) in detection_sweep {
        eprintln!("measuring sublinear merged-collision detection, n = {n} ...");
        // The exact engine pays ~n clone work per skipped-by-nobody null
        // interaction (tens of seconds per trial at n = 10³), so cap its
        // trial count; the detection wait is a bare geometric, so two trials
        // already pin the scale.
        let exact_trials = if n >= 1_000 { trials.min(2) } else { trials };
        pairs.push((
            "sublinear-ssr merged-collision detection (H = 0)",
            n,
            detection_exact(n, exact_trials),
            detection_interned(n, trials),
        ));
    }
    for &(n, trials) in roll_call_sweep {
        eprintln!("measuring roll call, n = {n} ...");
        pairs.push((
            "roll-call completion (R_n)",
            n,
            roll_call_measure(n, trials, Engine::Exact),
            roll_call_measure(n, trials, Engine::Batched),
        ));
    }

    let mut rows = Vec::new();
    for (workload, n, exact, interned) in &pairs {
        let transitions = interned.mean(Counter::Transitions);
        for (m, engine) in [(exact, Engine::Exact), (interned, Engine::Batched)] {
            let mut row = m.row(*n, engine);
            row.insert("workload", *workload);
            if engine == Engine::Batched {
                row.insert("mean_transitions", transitions);
            }
            rows.push(row);
        }
        // The direct wall-clock ratio conflates per-interaction cost with
        // draw luck (the engines draw independent trajectories, and the
        // detection wait is a bare geometric). The normalized speedup
        // corrects for it: what the exact engine would have paid for the
        // interned trials' own (exactly distributed) interaction counts, at
        // its measured per-interaction rate, over the interned wall clock —
        // the same normalization `bench_batched` uses for its extrapolated
        // rows.
        let speedup = exact.mean_wall_s / interned.mean_wall_s;
        let normalized_speedup =
            interned.mean_interactions * exact.ns_per_interaction() / 1e9 / interned.mean_wall_s;
        rows.push(Json::object([
            ("workload", (*workload).into()),
            ("n", (*n).into()),
            ("engine", "speedup".into()),
            ("exact_wall_s", exact.mean_wall_s.into()),
            ("interned_wall_s", interned.mean_wall_s.into()),
            ("speedup", speedup.into()),
            ("exact_ns_per_interaction", exact.ns_per_interaction().into()),
            ("normalized_speedup", normalized_speedup.into()),
        ]));
        println!(
            "{:<48} n = {:>6}: exact {:>10.4} s | interned {:>9.4} s ({} transitions for {} \
             interactions) | speedup {:>7.1}x ({:.1}x normalized)",
            workload,
            n,
            exact.mean_wall_s,
            interned.mean_wall_s,
            transitions as u64,
            interned.mean_interactions as u64,
            speedup,
            normalized_speedup
        );
    }
    let fields = [("schema", Json::from("bench_interned/v1")), ("quick", quick.into())];
    write_bench("BENCH_interned.json", &fields, &rows);
}
