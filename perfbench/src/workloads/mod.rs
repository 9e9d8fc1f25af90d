//! The three workloads and the round loop they share.
//!
//! A workload is a list of operations in three phases, `a`, `b` and `c`.
//! One *round* runs every operation of the list once; a run repeats rounds
//! until its measuring time is spent. Round `r` draws its inputs from
//! `(seed, r)`, so the same seed gives the same inputs, and a run averages
//! over as many starts as its rounds hold. Every operation's output is
//! checked, and a failed check counts against the run instead of aborting
//! it.
//!
//! Every phase runs one kind of operation, so that the latencies of its
//! executions form one distribution: where a phase covers several trials
//! (an epidemic and a fratricide, a detection and a full stabilization),
//! one operation runs them back to back.

pub mod count;
pub mod exact;
pub mod service;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::layers::Capture;
use crate::sys::FastCpu;
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["count-engines", "exact-protocols", "ppsimd-mixed"];

/// How a run was invoked.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload seed: every input of the run is generated from it.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Smoke-test sizes: every operation shrunk to milliseconds.
    pub tiny: bool,
    /// Directory for the trace file.
    pub out_dir: PathBuf,
}

/// The deterministic generator for one input stream: `(seed, round, salt)`
/// pick the stream, so the same seed always yields the same inputs.
pub fn rng_for(seed: u64, round: u64, salt: u64) -> ChaCha8Rng {
    let mut mixed = seed ^ 0x9E37_79B9_7F4A_7C15;
    for word in [round, salt] {
        mixed = (mixed ^ word).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        mixed ^= mixed >> 31;
    }
    ChaCha8Rng::seed_from_u64(mixed)
}

/// One timed execution of an operation.
#[derive(Clone, Copy, Debug)]
pub struct Exec {
    /// Work units done (the phase's own unit: trials, interactions,
    /// configurations, requests).
    pub work: f64,
    /// Wall time, s.
    pub seconds: f64,
}

/// Everything one run accumulates while its rounds execute.
pub struct Ctx {
    /// The main thread's span recorder.
    pub tracer: Tracer,
    /// Every untraced execution, by phase.
    pub phases: [Vec<Exec>; 3],
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub failures: Vec<String>,
    /// Per-layer counts summed over traced rounds.
    pub counts: BTreeMap<&'static str, f64>,
    /// Inputs captured from the workload for the unit-cost timings.
    pub capture: Capture,
    /// Picks the CPU for a single-threaded workload's operations; `None`
    /// leaves the scheduler free.
    cpu: Option<FastCpu>,
}

impl Ctx {
    fn new(origin: Instant, cpu: Option<FastCpu>) -> Self {
        Ctx {
            tracer: Tracer::new(origin, 1, false),
            phases: Default::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            counts: BTreeMap::new(),
            capture: Capture::default(),
            cpu,
        }
    }

    /// A context for a set-up's warm-up round: nothing it records is
    /// reported, and it leaves the CPU where the set-up found it.
    pub fn scratch() -> Self {
        Ctx::new(Instant::now(), None)
    }

    /// Moves a single-threaded workload to the fastest CPU before its next
    /// operation (see [`FastCpu`]); call it outside the timed interval.
    pub fn pick_cpu(&mut self) {
        if let Some(cpu) = &mut self.cpu {
            cpu.pick_if_stale();
        }
    }

    /// Records one execution of a phase-`phase` operation (0, 1 or 2).
    /// Traced passes are left out: the end-to-end figures come from untraced
    /// work.
    pub fn record(&mut self, phase: usize, work: f64, seconds: f64) {
        if !self.tracer.enabled() {
            self.phases[phase].push(Exec { work, seconds });
        }
    }

    /// Counts one checked operation; `ok == false` counts a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Adds to a per-layer count (only traced rounds count).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.tracer.enabled() {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// Runs `op` as one timed operation inside a span named `name`,
    /// returning its output and wall time. When the tracer is on, the span's
    /// interval comes back too, for importing the program's own spans.
    pub fn timed<T>(&mut self, name: &str, op: impl FnOnce() -> T) -> (T, f64, Option<(u64, u64)>) {
        self.tracer.begin(name);
        let started = Instant::now();
        let out = op();
        let seconds = started.elapsed().as_secs_f64();
        let within = self.tracer.end();
        (out, seconds, within)
    }

    /// Imports a program [`ppsim::Recorder`]'s spans under `within`; the
    /// recorder's origin is taken as the start of `within`.
    pub fn import_recorder(&mut self, recorder: &ppsim::Recorder, within: Option<(u64, u64)>) {
        if let Some(within) = within {
            let spans = recorder.spans.iter().map(|s| (s.name.to_owned(), s.start_us, s.end_us));
            self.tracer.import(spans, within.0, within);
        }
    }
}

/// What a workload does: build its inputs, then run rounds.
pub trait Workload: Sized {
    /// Whether every operation runs on the calling thread alone, so that the
    /// run may keep that thread on the fastest CPU. A workload that starts
    /// threads says no: they would inherit the pinned thread's CPU.
    const SINGLE_THREADED: bool;

    /// Builds the workload's fixed state (servers, warm caches) and warms
    /// its code paths on small inputs. Timed as `setup_s`.
    fn setup(opts: &Opts) -> Self;

    /// Runs round `round` once, on inputs drawn from the run seed and
    /// `round`, recording every operation into `ctx`. A traced run runs each
    /// round twice on the same inputs; `ctx.tracer.enabled()` says whether
    /// this pass is traced, and a traced pass attaches the program's own
    /// recorders too.
    fn round(&mut self, round: u64, ctx: &mut Ctx);

    /// Final checks after the last round (cache reconciliation).
    fn finish(&mut self, _ctx: &mut Ctx) {}

    /// Extra tracer lanes (client threads) to merge into the trace.
    fn take_lanes(&mut self) -> Vec<Tracer> {
        Vec::new()
    }
}

/// A finished run: the context plus round and set-up timings.
pub struct RunData {
    /// The accumulated context.
    pub ctx: Ctx,
    /// Set-up times of the repeated set-ups, s.
    pub setups_s: Vec<f64>,
    /// Wall time of each untraced round, s.
    pub rounds_s: Vec<f64>,
    /// Wall time of each traced round, s (traced runs only).
    pub traced_rounds_s: Vec<f64>,
    /// Peak resident memory of each untraced round, MiB; empty where the
    /// peak cannot be reset.
    pub round_peaks_mb: Vec<f64>,
    /// Extra tracer lanes from the workload.
    pub lanes: Vec<Tracer>,
}

/// Set-ups per run: at least `SETUPS.0`, and more, up to `SETUPS.1`, while
/// they have taken less than a second in all. `setup_s` is their median, so
/// a set-up of a few milliseconds is timed nine times and one of a second
/// three times.
const SETUPS: (usize, usize) = (3, 9);

/// Runs a workload: its timed set-ups (the last one is kept), then rounds
/// until `opts.seconds` of rounds have run. A traced run runs each round
/// twice, untraced then traced, on the same inputs. A single-threaded
/// workload moves to the fastest CPU before each set-up and each operation.
pub fn drive<W: Workload>(opts: &Opts, origin: Instant) -> RunData {
    let mut cpu = W::SINGLE_THREADED.then(FastCpu::new);
    let mut setups_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setups_s.len() < SETUPS.0
        || (setups_s.len() < SETUPS.1 && setups_s.iter().sum::<f64>() < 1.0)
    {
        if let Some(cpu) = &mut cpu {
            cpu.pick();
        }
        let started = Instant::now();
        let built = W::setup(opts);
        setups_s.push(started.elapsed().as_secs_f64());
        // Drop the previous instance only after timing the next one.
        workload = Some(built);
    }
    let mut workload = workload.expect("at least one set-up");
    let mut ctx = Ctx::new(origin, cpu);
    let mut rounds_s = Vec::new();
    let mut traced_rounds_s = Vec::new();
    let mut round_peaks_mb = Vec::new();
    let started = Instant::now();
    for round in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        let last = rounds_s.last().copied().unwrap_or(0.0)
            + traced_rounds_s.last().copied().unwrap_or(0.0);
        // Start another round while it would mostly fit; always run one.
        if round > 0 && elapsed + 0.5 * last > opts.seconds {
            break;
        }
        ctx.tracer.set_enabled(false);
        let peak_reset = crate::sys::reset_peak_rss();
        let round_started = Instant::now();
        workload.round(round, &mut ctx);
        rounds_s.push(round_started.elapsed().as_secs_f64());
        if let (true, Some(peak)) = (peak_reset, crate::sys::peak_rss_mb()) {
            round_peaks_mb.push(peak);
        }
        if opts.trace {
            ctx.tracer.set_enabled(true);
            let round_started = Instant::now();
            ctx.tracer.begin("round");
            workload.round(round, &mut ctx);
            ctx.tracer.end();
            traced_rounds_s.push(round_started.elapsed().as_secs_f64());
            ctx.tracer.set_enabled(false);
        }
    }
    workload.finish(&mut ctx);
    let lanes = workload.take_lanes();
    RunData { ctx, setups_s, rounds_s, traced_rounds_s, round_peaks_mb, lanes }
}
