//! `exact-protocols`: Table 1 rows 2–4 on the exact per-agent engine.
//!
//! | phase | operation (per round) | work unit |
//! |---|---|---|
//! | a | Optimal-Silent-SSR, all-same-rank start → silence, n = 1024 (× 2) | interactions |
//! | b | Sublinear-Time-SSR, H = 1: planted-duplicate detection (n = 128) then full stabilization (n = 64) (× 8) | interactions |
//! | c | Sublinear-Time-SSR, H = ⌈log₂ n⌉: full stabilization (n = 16) then detection (n = 64) (× 40) | interactions |
//!
//! Every round draws fresh starts and engine seeds from the run seed. The
//! cost of one Sublinear-Time-SSR trajectory varies several-fold with its
//! seed (its states' history trees grow differently), so a run averages
//! many small trajectories rather than timing a few large ones.
//!
//! Loads `ppsim::execution` and the `ssle` transitions (roster,
//! `HistoryTree`, collision detection, clone); bypasses every count engine,
//! `ppsim::mcheck` and `ppsimd`.

use ppsim::telemetry::Counter;
use ppsim::{Configuration, Recorder, Simulation};
use rand::Rng;
use ssle::params::SublinearParams;
use ssle::{OptimalSilentParams, OptimalSilentSsr, SublinearState, SublinearTimeSsr};

use super::{rng_for, Ctx, Opts, Workload};

/// One Sublinear-Time-SSR run: to the first reset (detection) or to a
/// correct ranking (full stabilization).
struct SublinearRun {
    n: usize,
    /// History depth `H`.
    h: u32,
    full: bool,
}

struct Sizes {
    optimal_n: usize,
    optimal_trials: usize,
    /// Phase b (H = 1): the runs of one operation.
    constant_h: [SublinearRun; 2],
    constant_h_ops: usize,
    /// Phase c (H = ⌈log₂ n⌉): the runs of one operation. They stay small
    /// because every interaction clones two rosters and history trees whose
    /// growth varies from seed to seed: one n = 128 stabilization took 58 s
    /// and 1.6 GB, n = 256 was killed at 16 GB, and at n = 64 one trial's
    /// time ranged from 0.3 s to 10 s over five seeds. At n = 24 and 32
    /// (stabilization) and n = 128 (detection) the peak memory of a run
    /// ranged from 12 to 31 MB with its seeds.
    log_h: [SublinearRun; 2],
    log_h_ops: usize,
}

const fn log2_ceil(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

const FULL: Sizes = Sizes {
    optimal_n: 1024,
    optimal_trials: 2,
    constant_h: [
        SublinearRun { n: 128, h: 1, full: false },
        SublinearRun { n: 64, h: 1, full: true },
    ],
    constant_h_ops: 8,
    log_h: [
        SublinearRun { n: 16, h: log2_ceil(16), full: true },
        SublinearRun { n: 64, h: log2_ceil(64), full: false },
    ],
    log_h_ops: 40,
};

/// The warm-up round's seed. It is fixed, so that `setup_s` times the same
/// work whatever the run seed: one Sublinear-Time-SSR trajectory can cost
/// several times another.
const WARM_SEED: u64 = 0x5E7;

/// The set-up's warm-up round: every path at a few milliseconds.
const WARM: Sizes = Sizes {
    optimal_n: 256,
    optimal_trials: 1,
    constant_h: [
        SublinearRun { n: 32, h: 1, full: false },
        SublinearRun { n: 32, h: 1, full: true },
    ],
    constant_h_ops: 1,
    log_h: [
        SublinearRun { n: 16, h: log2_ceil(16), full: true },
        SublinearRun { n: 32, h: log2_ceil(32), full: false },
    ],
    log_h_ops: 1,
};

const TINY: Sizes = Sizes {
    optimal_n: 32,
    optimal_trials: 1,
    constant_h: [
        SublinearRun { n: 16, h: 1, full: false },
        SublinearRun { n: 16, h: 1, full: true },
    ],
    constant_h_ops: 1,
    log_h: [
        SublinearRun { n: 8, h: log2_ceil(8), full: true },
        SublinearRun { n: 16, h: log2_ceil(16), full: false },
    ],
    log_h_ops: 1,
};

/// The workload's fixed state: its sizes and the run seed.
pub struct ExactProtocols {
    sizes: &'static Sizes,
    seed: u64,
}

impl Workload for ExactProtocols {
    const SINGLE_THREADED: bool = true;

    /// Warms the engine and the protocols' allocation paths once on small
    /// inputs.
    fn setup(opts: &Opts) -> Self {
        let mut scratch = Ctx::scratch();
        let warm = if opts.tiny { &TINY } else { &WARM };
        ExactProtocols { sizes: warm, seed: WARM_SEED }.round(0, &mut scratch);
        ExactProtocols { sizes: if opts.tiny { &TINY } else { &FULL }, seed: opts.seed }
    }

    fn round(&mut self, round: u64, ctx: &mut Ctx) {
        let s = self.sizes;
        for t in 0..s.optimal_trials as u64 {
            self.optimal_trial(rng_for(self.seed, round, 0x0A00 + t).gen(), ctx);
        }
        let phases = [(1, &s.constant_h, s.constant_h_ops), (2, &s.log_h, s.log_h_ops)];
        for (phase, runs, ops) in phases {
            for t in 0..ops as u64 {
                let mut rng = rng_for(self.seed, round, 0x0B00 + 0x100 * phase as u64 + t);
                self.sublinear_op(phase, runs, &mut rng, ctx);
            }
        }
    }
}

impl ExactProtocols {
    /// Phase a: one Optimal-Silent-SSR trial to silence, with its silence
    /// checks. A traced pass samples the agent states 20 parallel time units
    /// into the run for the transition's unit cost.
    fn optimal_trial(&self, seed: u64, ctx: &mut Ctx) {
        let n = self.sizes.optimal_n;
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
        let init = protocol.adversarial_all_same_rank(1);
        let traced = ctx.tracer.enabled();
        let prefix = 20 * n as u64;
        let mut sim = Simulation::new(protocol, init, seed);
        if traced {
            sim.attach_telemetry(Recorder::new());
        }
        ctx.pick_cpu();
        ctx.tracer.begin("exact.optimal_silent.trial");
        let started = std::time::Instant::now();
        sim.run_for(prefix);
        if traced {
            ctx.capture.optimal_pairs(sim.configuration());
        }
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        let secs = started.elapsed().as_secs_f64();
        let within = ctx.tracer.end();
        let ok = outcome.is_silent() && protocol.is_correct(sim.configuration());
        ctx.check(ok, || {
            format!("optimal-silent n={n} seed {seed} did not silence into a ranking")
        });
        let interactions = sim.interactions().count() as f64;
        ctx.record(0, interactions, secs);
        ctx.count("exact.silence_checks", sim.counters().get(Counter::SilenceChecks) as f64);
        ctx.count("exact.optimal_interactions", interactions);
        ctx.count("time.optimal_s", secs);
        if let Some(recorder) = sim.take_telemetry() {
            ctx.import_recorder(&recorder, within);
        }
    }

    /// Phase b or c: the operation's Sublinear-Time-SSR runs back to back,
    /// each from a planted-duplicate start, timed as one operation.
    fn sublinear_op(&self, phase: usize, runs: &[SublinearRun], rng: &mut impl Rng, ctx: &mut Ctx) {
        ctx.pick_cpu();
        ctx.tracer.begin("exact.sublinear.op");
        let started = std::time::Instant::now();
        let mut interactions = 0.0;
        for run in runs {
            let params = SublinearParams::recommended(run.n, run.h);
            let protocol = SublinearTimeSsr::new(params);
            let init = protocol.colliding_configuration(rng);
            let seed = rng.gen();
            interactions += self.sublinear_run(run, params, init, seed, ctx);
        }
        let secs = started.elapsed().as_secs_f64();
        ctx.tracer.end();
        ctx.record(phase, interactions, secs);
        ctx.count("exact.sublinear_interactions", interactions);
        ctx.count("time.sublinear_s", secs);
    }

    /// One Sublinear-Time-SSR run; returns its interactions.
    fn sublinear_run(
        &self,
        run: &SublinearRun,
        params: SublinearParams,
        init: Configuration<SublinearState>,
        seed: u64,
        ctx: &mut Ctx,
    ) -> f64 {
        let protocol = SublinearTimeSsr::new(params);
        let kind = if run.full { "stabilize" } else { "detect" };
        let name = format!("exact.sublinear.h{}.{kind}", run.h);
        let ((reached, sim), _, _) = ctx.timed(&name, || {
            let mut sim = Simulation::new(protocol, init, seed);
            let outcome = if run.full {
                sim.run_until(|c| protocol.is_correct(c), u64::MAX >> 8)
            } else {
                sim.run_until(SublinearTimeSsr::any_resetting, u64::MAX >> 8)
            };
            (outcome.condition_met(), sim)
        });
        ctx.check(reached, || {
            format!("sublinear H={} n={} seed {seed} {kind} not reached", run.h, run.n)
        });
        // Detection stops mid-run: its states time the `ssle.sublinear.*`
        // unit costs.
        if ctx.tracer.enabled() && !run.full {
            ctx.capture.sublinear_states(params, sim.configuration());
        }
        sim.interactions().count() as f64
    }
}
