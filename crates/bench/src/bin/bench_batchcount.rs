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

use bench::perf::{write_bench, Json};
use bench::{measure, Engine};
use ppsim::prelude::*;
use processes::{Coupon, Epidemic, Fratricide};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::SilentNStateSsr;

/// Runs one enumerable workload to silence under both sampling modes at
/// every `(n, trials)` of `sweep`, prints each comparison and records its
/// three rows: per-transition, batch-count, and their wall-clock ratio
/// per-transition / batch-count (> 1 means the batch-count sampler won).
/// The modes draw independent trajectories, so the ratio conflates
/// per-interaction cost with draw luck; the transition columns recorded
/// alongside show the trajectories' scale agrees. Every row records the
/// epoch and clamp-truncation counts.
fn head_to_head<P>(
    rows: &mut Vec<Json>,
    workload: &str,
    sweep: &[(usize, usize)],
    make: impl Fn(usize, u64) -> (P, Configuration<P::State>),
) where
    P: EnumerableProtocol + Clone,
    P::State: Clone,
{
    for &(n, trials) in sweep {
        eprintln!("measuring {workload}, n = {n} ...");
        let [per_transition, batchcount] = [Engine::Batched, Engine::BatchedCounts].map(|engine| {
            measure(
                trials,
                |seed| make(n, seed),
                |(protocol, config), seed| {
                    let mut sim = BatchedSimulation::new(protocol.clone(), config, seed)
                        .with_sampling_mode(engine.sampling_mode());
                    assert!(
                        sim.run_until_silent(u64::MAX >> 1).is_silent(),
                        "{workload} must silence"
                    );
                    sim
                },
            )
        });
        let speedup = per_transition.mean_wall_s / batchcount.mean_wall_s;
        println!(
            "{:<52} n = {:>9}: batched {:>9.4} s | batchcount {:>9.4} s ({} epochs, {} \
             truncations, {} transitions) | speedup {:>6.2}x",
            workload,
            n,
            per_transition.mean_wall_s,
            batchcount.mean_wall_s,
            batchcount.mean(Counter::EpochsOpened) as u64,
            batchcount.mean(Counter::BatchTruncations) as u64,
            batchcount.mean(Counter::Transitions) as u64,
            speedup
        );
        for (m, engine) in [(per_transition, Engine::Batched), (batchcount, Engine::BatchedCounts)]
        {
            let mut row = m.row(n, engine);
            row.insert("workload", workload);
            row.insert("mean_transitions", m.mean(Counter::Transitions));
            row.insert("mean_epochs", m.mean(Counter::EpochsOpened));
            row.insert("mean_truncations", m.mean(Counter::BatchTruncations));
            rows.push(row);
        }
        rows.push(Json::object([
            ("workload", workload.into()),
            ("n", n.into()),
            ("engine", "speedup".into()),
            ("batched_wall_s", per_transition.mean_wall_s.into()),
            ("batchcount_wall_s", batchcount.mean_wall_s.into()),
            ("speedup", speedup.into()),
        ]));
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rows = Vec::new();

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
    head_to_head(&mut rows, "epidemic single-source to completion", epidemic_sweep, |n, _| {
        let protocol = Epidemic::new(n);
        (protocol, protocol.single_source_configuration())
    });

    let fratricide_sweep: &[(usize, usize)] =
        if quick { &[(1_000_000, 3)] } else { &[(100_000, 3), (1_000_000, 3), (10_000_000, 2)] };
    head_to_head(&mut rows, "fratricide from all leaders", fratricide_sweep, |n, _| {
        let protocol = Fratricide::new(n);
        (protocol, protocol.all_leaders_configuration())
    });

    let coupon_sweep: &[(usize, usize)] =
        if quick { &[(10_000_000, 2)] } else { &[(100_000, 3), (10_000_000, 2)] };
    head_to_head(&mut rows, "coupon collector from all fresh", coupon_sweep, |n, _| {
        let protocol = Coupon::new(n);
        (protocol, protocol.all_fresh_configuration())
    });

    // The honest-loss regime: Silent-n-state-SSR from a uniformly random
    // configuration has ~n distinct states with counts ≈ 1, so nearly every
    // active cell has multiplicity 1 and an epoch is per-transition work
    // plus table bookkeeping. Recorded as a measured slowdown.
    let loss_sweep: &[(usize, usize)] =
        if quick { &[(10_000, 2)] } else { &[(10_000, 2), (100_000, 3), (1_000_000, 1)] };
    head_to_head(
        &mut rows,
        "silent-n-state random configuration (honest loss)",
        loss_sweep,
        |n, seed| {
            let protocol = SilentNStateSsr::new(n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5);
            (protocol, protocol.random_configuration(&mut rng))
        },
    );

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
    head_to_head(
        &mut rows,
        "silent-n-state planted duplicate (near-silent start)",
        giant_sweep,
        |n, _| {
            let protocol = SilentNStateSsr::new(n);
            (protocol, protocol.near_silent_wrong_configuration())
        },
    );

    let fields = [("schema", Json::from("bench_batchcount/v1")), ("quick", quick.into())];
    write_bench("BENCH_batchcount.json", &fields, &rows);
}
