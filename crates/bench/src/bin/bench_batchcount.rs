//! Perf trajectory: per-transition batched sampling vs the batch-count
//! sampler (`SamplingMode::BatchCount`) across the regimes that decide when
//! drawing whole interaction-count tables per epoch pays.
//!
//! The batch-count epoch replaces one Fenwick draw *per transition* with one
//! table draw per epoch, so its win is proportional to the per-cell
//! multiplicity `m` it can collapse: on the few-state processes (epidemic,
//! fratricide, coupon) a single epoch applies thousands of identical
//! transitions in O(cells) work and the amortized cost per applied
//! transition drops **below any constant** as `n` grows. On
//! `Silent-n-state-SSR` — `n` states, counts ≈ 1, multiplicity-1 cells —
//! there is nothing to collapse and the epoch bookkeeping is pure overhead:
//! that row is measured and recorded as an honest **loss** (0.67–0.89× of
//! the per-transition engine), exactly the regime the `ARCHITECTURE.md`
//! decision tree routes away from batch-count. The `n = 10⁷` row runs
//! `Silent-n-state-SSR` to silence from the planted-duplicate near-silent
//! configuration: a single active pair resolved in one applied transition,
//! with ~9·10¹² interactions crossed in geometric jumps by both modes.
//!
//! Every measurement records the epoch count and the clamp-truncation count
//! (slots discarded because the frozen count table went stale mid-epoch) so
//! regressions in batch sizing are visible, not just wall clock.
//!
//! Writes `BENCH_batchcount.json` into the current directory so future PRs
//! have a perf baseline to compare against.
//!
//! ```text
//! cargo run --release -p bench --bin bench_batchcount            # full sweep
//! cargo run --release -p bench --bin bench_batchcount -- --quick # CI smoke
//! ```

use bench::Engine;
use ppsim::prelude::*;
use processes::{Coupon, Epidemic, Fratricide};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::SilentNStateSsr;
use std::fmt::Write as _;
use std::time::Instant;

/// One engine's aggregate measurement of one workload at one size.
struct Measurement {
    engine: Engine,
    trials: usize,
    mean_wall_s: f64,
    mean_interactions: f64,
    mean_transitions: f64,
    /// Batch epochs opened (zero for the per-transition mode).
    mean_epochs: f64,
    /// Interaction slots discarded by the stale-count clamp.
    mean_truncations: f64,
}

/// One workload row: the two sampling modes head-to-head.
struct Row {
    workload: &'static str,
    n: usize,
    per_transition: Measurement,
    batchcount: Measurement,
}

impl Row {
    /// Wall-clock ratio per-transition / batch-count: > 1 means the
    /// batch-count sampler won. The modes draw independent trajectories, so
    /// the ratio conflates per-interaction cost with draw luck; the
    /// transition columns recorded alongside show the trajectories' scale
    /// agrees.
    fn speedup(&self) -> f64 {
        self.per_transition.mean_wall_s / self.batchcount.mean_wall_s
    }
}

/// Runs `trials` to-silence executions of one enumerable workload under the
/// given sampling mode and aggregates the diagnostics.
fn measure<P>(
    engine: Engine,
    trials: usize,
    budget: u64,
    make: impl Fn(u64) -> (P, Configuration<P::State>),
) -> Measurement
where
    P: EnumerableProtocol,
    P::State: Clone,
{
    let mut wall = 0.0;
    let mut interactions = 0.0;
    let mut transitions = 0.0;
    let mut epochs = 0.0;
    let mut truncations = 0.0;
    for trial in 0..trials {
        let (protocol, config) = make(trial as u64);
        let start = Instant::now();
        let mut sim = BatchedSimulation::new(protocol, &config, trial as u64)
            .with_sampling_mode(engine.sampling_mode());
        let outcome = sim.run_until_silent(budget);
        assert!(outcome.is_silent(), "workload must run to silence");
        wall += start.elapsed().as_secs_f64();
        interactions += sim.interactions().count() as f64;
        transitions += sim.transitions() as f64;
        epochs += sim.counters().get(Counter::EpochsOpened) as f64;
        truncations += sim.counters().get(Counter::BatchTruncations) as f64;
    }
    let t = trials as f64;
    Measurement {
        engine,
        trials,
        mean_wall_s: wall / t,
        mean_interactions: interactions / t,
        mean_transitions: transitions / t,
        mean_epochs: epochs / t,
        mean_truncations: truncations / t,
    }
}

fn head_to_head<P>(
    workload: &'static str,
    n: usize,
    trials: usize,
    budget: u64,
    make: impl Fn(u64) -> (P, Configuration<P::State>) + Copy,
) -> Row
where
    P: EnumerableProtocol,
    P::State: Clone,
{
    eprintln!("measuring {workload}, n = {n} ...");
    Row {
        workload,
        n,
        per_transition: measure(Engine::Batched, trials, budget, make),
        batchcount: measure(Engine::BatchedCounts, trials, budget, make),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rows: Vec<Row> = Vec::new();

    // The showcase regime: two-to-three-state processes whose epochs
    // collapse huge multiplicities per cell. Interactions are ~n log n but
    // the per-transition engine still pays one Fenwick draw per transition
    // (Θ(n) of them); batch-count applies whole bundles per epoch.
    // Quick mode measures mid-sweep sizes, not the smallest ones: below
    // ~50 ms of wall-clock the speedup ratio is dominated by timer and
    // scheduler noise, and the nightly `check_bench` gate would flag noise
    // as regressions. Every quick size also appears in the committed full
    // sweep so the gate always has a baseline cell to compare against.
    let epidemic_sweep: &[(usize, usize)] = if quick {
        &[(1_000_000, 3)]
    } else {
        &[(100_000, 3), (1_000_000, 3), (10_000_000, 2), (100_000_000, 1)]
    };
    for &(n, trials) in epidemic_sweep {
        rows.push(head_to_head(
            "epidemic single-source to completion",
            n,
            trials,
            u64::MAX >> 1,
            move |_| {
                let protocol = Epidemic::new(n);
                let config = protocol.single_source_configuration();
                (protocol, config)
            },
        ));
    }

    let fratricide_sweep: &[(usize, usize)] =
        if quick { &[(1_000_000, 3)] } else { &[(100_000, 3), (1_000_000, 3), (10_000_000, 2)] };
    for &(n, trials) in fratricide_sweep {
        rows.push(head_to_head(
            "fratricide from all leaders",
            n,
            trials,
            u64::MAX >> 1,
            move |_| {
                let protocol = Fratricide::new(n);
                let config = protocol.all_leaders_configuration();
                (protocol, config)
            },
        ));
    }

    let coupon_sweep: &[(usize, usize)] =
        if quick { &[(10_000_000, 2)] } else { &[(100_000, 3), (10_000_000, 2)] };
    for &(n, trials) in coupon_sweep {
        rows.push(head_to_head(
            "coupon collector from all fresh",
            n,
            trials,
            u64::MAX >> 1,
            move |_| {
                let protocol = Coupon::new(n);
                let config = protocol.all_fresh_configuration();
                (protocol, config)
            },
        ));
    }

    // The honest-loss regime: Silent-n-state-SSR from a uniformly random
    // configuration has ~n distinct states with counts ≈ 1, so nearly every
    // active cell has multiplicity 1 and an epoch is per-transition work
    // plus table bookkeeping. Recorded as a measured slowdown.
    let loss_sweep: &[(usize, usize)] =
        if quick { &[(10_000, 2)] } else { &[(10_000, 2), (100_000, 3), (1_000_000, 1)] };
    for &(n, trials) in loss_sweep {
        rows.push(head_to_head(
            "silent-n-state random configuration (honest loss)",
            n,
            trials,
            u64::MAX >> 1,
            move |seed| {
                let protocol = SilentNStateSsr::new(n);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5);
                let config = protocol.random_configuration(&mut rng);
                (protocol, config)
            },
        ));
    }

    // The giant-n regime: n = 10⁷ to silence. From the planted-duplicate
    // near-silent configuration the transition count is Θ(n) (the duplicate
    // walks the rank ladder) while the interaction count is Θ(n³) — all of
    // it skipped in geometric / negative-binomial jumps by both modes. The
    // single active pair clamps every epoch to B ≤ 1, so this also pins the
    // fallback's overhead at scale.
    // Quick mode keeps the n = 10⁷ cell, not the 10⁵ one: at 10⁵ both
    // engines finish in under 6 ms and the speedup cell is timer noise,
    // which the nightly gate would flag as a phantom regression. (A
    // baseline workload with no fresh cell at all fails `check_bench`, so
    // the workload must stay in the quick sweep at some size.)
    let giant_sweep: &[(usize, usize)] =
        if quick { &[(10_000_000, 2)] } else { &[(100_000, 2), (10_000_000, 2)] };
    for &(n, trials) in giant_sweep {
        rows.push(head_to_head(
            "silent-n-state planted duplicate (near-silent start)",
            n,
            trials,
            u64::MAX >> 1,
            move |_| {
                let protocol = SilentNStateSsr::new(n);
                let config = protocol.near_silent_wrong_configuration();
                (protocol, config)
            },
        ));
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_batchcount/v1\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        for m in [&row.per_transition, &row.batchcount] {
            let _ = writeln!(
                json,
                "    {{\"workload\": \"{}\", \"n\": {}, \"engine\": \"{}\", \"trials\": {}, \
                 \"mean_wall_s\": {:.6}, \"mean_interactions\": {:.6e}, \
                 \"mean_transitions\": {:.1}, \"mean_epochs\": {:.1}, \
                 \"mean_truncations\": {:.1}}},",
                row.workload,
                row.n,
                m.engine,
                m.trials,
                m.mean_wall_s,
                m.mean_interactions,
                m.mean_transitions,
                m.mean_epochs,
                m.mean_truncations,
            );
        }
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"n\": {}, \"engine\": \"speedup\", \
             \"batched_wall_s\": {:.6}, \"batchcount_wall_s\": {:.6}, \"speedup\": {:.2}}}",
            row.workload,
            row.n,
            row.per_transition.mean_wall_s,
            row.batchcount.mean_wall_s,
            row.speedup()
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
        println!(
            "{:<52} n = {:>9}: batched {:>9.4} s | batchcount {:>9.4} s ({} epochs, {} \
             truncations, {} transitions) | speedup {:>6.2}x",
            row.workload,
            row.n,
            row.per_transition.mean_wall_s,
            row.batchcount.mean_wall_s,
            row.batchcount.mean_epochs as u64,
            row.batchcount.mean_truncations as u64,
            row.batchcount.mean_transitions as u64,
            row.speedup()
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_batchcount.json", &json).expect("write BENCH_batchcount.json");
    eprintln!("wrote BENCH_batchcount.json{}", if quick { " (quick mode)" } else { "" });
}
