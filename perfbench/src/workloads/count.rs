//! `count-engines`: Table 1 row 1 and its processes on the count engines.
//!
//! | phase | operation (per round) | work unit |
//! |---|---|---|
//! | a | Silent-n-state-SSR, uniformly random start → silence, `Engine::Batched`, n = 3000 (× 16) | trials |
//! | b | epidemic single-source then fratricide all-leaders, n = 10⁷, `Engine::BatchedCounts` (× 4) | trials |
//! | c | Sublinear-Time-SSR merged-collision detection (H = 0, n = 1000) then roll call (n = 500), interned engine (× 3) | trials |
//!
//! Every round draws fresh starts and engine seeds. Roll call runs at
//! n = 500 rather than 1000 (about 190 ms a trial), so that phase c holds
//! about 80 executions in a 40-second run rather than 50. Loads `ppsim::batched`,
//! `ppsim::interned` and `ppsim::sampling`; bypasses `ppsim::execution`,
//! `ppsim::mcheck` and `ppsimd`.

use ppsim::mcheck::CorrectnessOracle;
use ppsim::telemetry::{Counter, CounterBlock};
use ppsim::LeaderElectionProtocol;
use ppsim::{Configuration, Engine, InternedSimulation, Recorder, RunSpec};
use processes::{Epidemic, Fratricide, RollCall};
use rand::Rng;
use ssle::params::SublinearParams;
use ssle::{SilentNStateSsr, SilentRank, SublinearState, SublinearTimeSsr};

use super::{rng_for, Ctx, Opts, Workload};
use crate::layers::keep;

/// Population sizes and per-round operation counts.
struct Sizes {
    ssr_n: usize,
    ssr_trials: usize,
    epidemic_n: usize,
    fratricide_n: usize,
    batchcount_ops: usize,
    /// Population of the Sublinear-Time-SSR detection.
    interned_n: usize,
    /// Population of the roll call.
    rollcall_n: usize,
    interned_ops: usize,
}

const FULL: Sizes = Sizes {
    ssr_n: 3_000,
    ssr_trials: 16,
    epidemic_n: 10_000_000,
    fratricide_n: 10_000_000,
    batchcount_ops: 4,
    interned_n: 1_000,
    rollcall_n: 500,
    interned_ops: 3,
};

/// The warm-up round's seed. It is fixed, so that `setup_s` times the same
/// work whatever the run seed: one Sublinear-Time-SSR trajectory can cost
/// several times another.
const WARM_SEED: u64 = 0x5E7;

/// The set-up's warm-up round: every path at a few milliseconds.
const WARM: Sizes = Sizes {
    ssr_n: 500,
    ssr_trials: 4,
    epidemic_n: 1_000_000,
    fratricide_n: 1_000_000,
    batchcount_ops: 1,
    interned_n: 200,
    rollcall_n: 200,
    interned_ops: 1,
};

const TINY: Sizes = Sizes {
    ssr_n: 64,
    ssr_trials: 1,
    epidemic_n: 1_000,
    fratricide_n: 1_000,
    batchcount_ops: 1,
    interned_n: 32,
    rollcall_n: 32,
    interned_ops: 1,
};

/// The workload's fixed state: its sizes and the run seed.
pub struct CountEngines {
    sizes: &'static Sizes,
    seed: u64,
}

impl Workload for CountEngines {
    const SINGLE_THREADED: bool = true;

    /// Warms every engine path once on small inputs, so the first timed
    /// trial pays no lazy initialization.
    fn setup(opts: &Opts) -> Self {
        let mut scratch = Ctx::scratch();
        let warm = if opts.tiny { &TINY } else { &WARM };
        CountEngines { sizes: warm, seed: WARM_SEED }.round(0, &mut scratch);
        CountEngines { sizes: if opts.tiny { &TINY } else { &FULL }, seed: opts.seed }
    }

    fn round(&mut self, round: u64, ctx: &mut Ctx) {
        let s = self.sizes;
        let ssr = SilentNStateSsr::new(s.ssr_n);
        for t in 0..s.ssr_trials as u64 {
            let mut rng = rng_for(self.seed, round, 0x55A0 + t);
            let init = ssr.random_configuration(&mut rng);
            self.ssr_trial(init, rng.gen(), ctx);
        }
        for t in 0..s.batchcount_ops as u64 {
            let mut rng = rng_for(self.seed, round, 0xB0C0 + t);
            self.batchcount_op(rng.gen(), rng.gen(), ctx);
        }
        let sublinear = SublinearTimeSsr::new(SublinearParams::recommended(s.interned_n, 0));
        for t in 0..s.interned_ops as u64 {
            let mut rng = rng_for(self.seed, round, 0xD7C0 + t);
            let init = sublinear.merged_collision_configuration(2, &mut rng);
            self.interned_op(&init, rng.gen(), rng.gen(), ctx);
        }
    }
}

/// Adds a batched trial's engine counters to the per-layer counts.
fn batched_counters(ctx: &mut Ctx, counters: &CounterBlock) {
    for (key, counter) in [
        ("batched.transitions", Counter::Transitions),
        ("batched.nulls_skipped", Counter::NullsSkipped),
        ("batched.fenwick_rebuilds", Counter::FenwickRebuilds),
        ("batched.epochs_opened", Counter::EpochsOpened),
        ("batched.batch_draws", Counter::BatchDraws),
        ("batched.truncations", Counter::BatchTruncations),
    ] {
        ctx.count(key, counters.get(counter) as f64);
    }
}

/// Adds an interned trial's engine counters to the per-layer counts.
fn interned_counters(ctx: &mut Ctx, counters: &CounterBlock) {
    ctx.count("interned.transitions", counters.get(Counter::Transitions) as f64);
    ctx.count("interned.interner_growths", counters.get(Counter::InternerGrowths) as f64);
}

impl CountEngines {
    /// Phase a: one Silent-n-state-SSR trial to silence on the
    /// per-transition path.
    fn ssr_trial(&self, init: Configuration<SilentRank>, seed: u64, ctx: &mut Ctx) {
        let n = self.sizes.ssr_n;
        let protocol = SilentNStateSsr::new(n);
        let traced = ctx.tracer.enabled();
        if traced {
            ctx.capture.ssr_pairs(&init);
        }
        let spec =
            RunSpec::new(protocol).engine(Engine::Batched).init(init).seed(seed).probe(traced);
        ctx.pick_cpu();
        let (report, secs, within) = ctx.timed("count.ssr.trial", || spec.run_one());
        let Ok(report) = report else {
            ctx.check(false, || "ssr spec rejected".to_owned());
            return;
        };
        let ok = report.outcome.is_silent() && protocol.is_correct(&report.final_config);
        ctx.check(ok, || format!("ssr n={n} seed {seed} did not silence correctly"));
        ctx.record(0, 1.0, secs);
        batched_counters(ctx, &report.counters);
        ctx.count("batched.ssr_transitions", report.counters.get(Counter::Transitions) as f64);
        ctx.count("time.ssr_s", secs);
        if let Some(recorder) = &report.telemetry {
            ctx.import_recorder(recorder, within);
            ctx.capture.null_runs(recorder, n);
        }
    }

    /// Phase b: one epidemic then one fratricide trial on the batch-count
    /// (epoch) path, timed as one operation.
    fn batchcount_op(&self, epidemic_seed: u64, fratricide_seed: u64, ctx: &mut Ctx) {
        let s = self.sizes;
        let traced = ctx.tracer.enabled();
        ctx.pick_cpu();
        ctx.tracer.begin("count.batchcount.op");
        let started = std::time::Instant::now();

        let epidemic = Epidemic::new(s.epidemic_n);
        let spec = RunSpec::new(epidemic)
            .engine(Engine::BatchedCounts)
            .init(epidemic.single_source_configuration())
            .seed(epidemic_seed)
            .probe(traced);
        let (report, _, within) = ctx.timed("count.epidemic.trial", || spec.run_one());
        match report {
            Ok(report) => {
                let ok = report.outcome.is_silent() && Epidemic::is_complete(&report.final_config);
                ctx.check(ok, || format!("epidemic n={} did not complete", s.epidemic_n));
                batched_counters(ctx, &report.counters);
                if let Some(recorder) = &report.telemetry {
                    ctx.import_recorder(recorder, within);
                    ctx.capture.epochs(recorder);
                }
            }
            Err(e) => ctx.check(false, || format!("epidemic spec rejected: {e}")),
        }

        let fratricide = Fratricide::new(s.fratricide_n);
        let spec = RunSpec::new(fratricide)
            .engine(Engine::BatchedCounts)
            .init(fratricide.all_leaders_configuration())
            .seed(fratricide_seed)
            .probe(traced);
        let (report, _, within) = ctx.timed("count.fratricide.trial", || spec.run_one());
        match report {
            Ok(report) => {
                let ok = report.outcome.is_silent()
                    && fratricide.is_correct(&report.final_config)
                    && fratricide.leader_count(&report.final_config) == 1;
                ctx.check(ok, || format!("fratricide n={} kept >1 leader", s.fratricide_n));
                batched_counters(ctx, &report.counters);
                if let Some(recorder) = &report.telemetry {
                    ctx.import_recorder(recorder, within);
                }
            }
            Err(e) => ctx.check(false, || format!("fratricide spec rejected: {e}")),
        }
        let secs = started.elapsed().as_secs_f64();
        ctx.tracer.end();
        ctx.record(1, 2.0, secs);
    }

    /// Phase c: one detection then one roll call on the interned engine,
    /// timed as one operation. Detection starts from states interned up
    /// front; roll call interns new states throughout.
    fn interned_op(
        &self,
        detection: &Configuration<SublinearState>,
        detection_seed: u64,
        roll_call_seed: u64,
        ctx: &mut Ctx,
    ) {
        let n = self.sizes.interned_n;
        let traced = ctx.tracer.enabled();
        ctx.pick_cpu();
        ctx.tracer.begin("count.interned.op");
        let started = std::time::Instant::now();
        let protocol = SublinearTimeSsr::new(SublinearParams::recommended(n, 0));
        if traced {
            ctx.capture.sublinear_states(*protocol.params(), detection);
            keep(&mut ctx.capture.interned, detection.iter().take(64).cloned());
        }
        let (result, _, within) = ctx.timed("count.sublinear.detect", || {
            let mut sim = InternedSimulation::new(protocol, detection, detection_seed);
            if traced {
                sim.attach_telemetry(Recorder::new());
            }
            let outcome = sim.run_until_counts(
                |s| s.state_counts().any(|(state, _)| state.is_resetting()),
                u64::MAX >> 8,
            );
            (outcome, sim.counters(), sim.take_telemetry())
        });
        let (outcome, counters, recorder) = result;
        ctx.check(outcome.condition_met(), || format!("sublinear detection n={n} missed"));
        interned_counters(ctx, &counters);
        if let Some(recorder) = &recorder {
            ctx.import_recorder(recorder, within);
        }

        let rollcall_n = self.sizes.rollcall_n;
        let roll_call = RollCall::new(rollcall_n);
        let init = roll_call.initial_configuration();
        let (result, secs, within) = ctx.timed("count.rollcall.trial", || {
            let mut sim = InternedSimulation::new(roll_call, &init, roll_call_seed);
            if traced {
                sim.attach_telemetry(Recorder::new());
            }
            let outcome = sim.run_until_silent(u64::MAX >> 8);
            let complete = RollCall::is_complete(&sim.to_configuration());
            (outcome, complete, sim.counters(), sim.take_telemetry())
        });
        let (outcome, complete, counters, recorder) = result;
        ctx.check(outcome.is_silent() && complete, || {
            format!("roll call n={rollcall_n} incomplete")
        });
        interned_counters(ctx, &counters);
        ctx.count("time.rollcall_s", secs);
        ctx.count("interned.rollcall_transitions", counters.get(Counter::Transitions) as f64);
        if let Some(recorder) = &recorder {
            ctx.import_recorder(recorder, within);
        }
        let secs = started.elapsed().as_secs_f64();
        ctx.tracer.end();
        ctx.record(2, 2.0, secs);
    }
}
