//! Unified instrumentation layer: one counter registry, convergence-progress
//! probes, and begin/end span recording shared by every engine, the
//! perturbation driver, the model checker, and (through `TrialReport`) the
//! `ppsimd` daemon.
//!
//! The layer has three costs, and they are paid very differently:
//!
//! * **Counters** are always on. Every engine owns a [`CounterBlock`] — a
//!   flat `u64` array indexed by [`Counter`] — and increments it exactly
//!   where the old ad-hoc fields (`epochs`, `truncations`,
//!   `scheduler_fallbacks`, …) used to live, so the cost of the registry is
//!   the cost of the fields it replaced: an array add per event, no
//!   branches, no allocation, and **no RNG use** (counters never perturb a
//!   trajectory). Deterministic in the seed, merged across trials with
//!   [`CounterBlock::merge`].
//! * **Probes and spans** go through the engine-side [`TelemetrySink`]
//!   slot. Its default [`TelemetrySink::Noop`] arm makes every hook an
//!   inlined no-op — the disabled path is a single enum
//!   discriminant test at probe checkpoints and nothing at all elsewhere,
//!   gated to ≤2% overhead by `exp_profile`'s `telemetry-overhead` row in
//!   `BENCH_obs.json`.
//! * A [`Recorder`] sink collects log-spaced [`Probe`] checkpoints (the
//!   convergence trajectory the paper reasons about: simulated time,
//!   active-pair mass, distinct states, transitions applied) and wall-clock
//!   [`Span`]s around the hot phases, ready for Chrome trace-event JSON via
//!   `bench::perf::chrome_trace`. Enable it per run with
//!   `RunSpec::probe(true)` or per request with the daemon's `trace: true`.
//!
//! ```
//! use ppsim::telemetry::{Counter, CounterBlock};
//! let mut counters = CounterBlock::default();
//! counters.incr(Counter::EpochsOpened);
//! counters.add(Counter::BatchTruncations, 3);
//! assert_eq!(counters.get(Counter::BatchTruncations), 3);
//! assert_eq!(Counter::BatchTruncations.name(), "engine.batch_truncations");
//! ```

use std::time::Instant;

/// Every event class the unified registry counts, across all layers.
///
/// Engine counters are deterministic in the seed; `drivers.*` counters are
/// maintained by the perturbation driver through the
/// [`PerturbationHost`](crate::faults::PerturbationHost) surface; `mcheck.*`
/// counters are filled in by the model checker's reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// Batch epochs opened (both count engines; includes discarded epochs).
    EpochsOpened = 0,
    /// Batch epochs rolled back because the epoch overshot the interaction
    /// budget (their deltas — and truncations — are undone).
    EpochsDiscarded = 1,
    /// Interactions drawn into batch tables before the per-cell clamp.
    BatchDraws = 2,
    /// Drawn interactions dropped by the multiplicity clamp of *committed*
    /// epochs (discarded epochs roll their truncations back too).
    BatchTruncations = 3,
    /// Epochs the batch-count mode delegated to per-transition sampling
    /// because the scheduler's weighted law has no epoch form.
    SchedulerFallbacks = 4,
    /// Rejected draws of the weighted-pair rejection sampler (exact engine).
    SchedulerRejections = 5,
    /// Null interactions skipped in O(1) (geometric null-run sampling plus
    /// the interleaved nulls of committed epochs).
    NullsSkipped = 6,
    /// Non-null transitions applied (state actually changed on the count
    /// engines; pair state changed on the exact engine).
    Transitions = 7,
    /// Silence checks performed by the exact engine's chunked run loop.
    SilenceChecks = 8,
    /// Full Fenwick-row rebuilds (backend construction and count rebuilds).
    FenwickRebuilds = 9,
    /// States interned first-seen at runtime (open-state-space engine).
    InternerGrowths = 10,
    /// Corruption bursts injected by a fault plan.
    FaultBursts = 11,
    /// Agents corrupted across all bursts.
    FaultVictims = 12,
    /// Churn events fired (joins, leaves, replacements).
    ChurnEvents = 13,
    /// Agents that joined across all churn events.
    ChurnJoined = 14,
    /// Agents that departed across all churn events.
    ChurnDeparted = 15,
    /// BFS frontier pops of the model checker's reachable-closure build.
    McheckFrontierPops = 16,
    /// Bytes of successor edges spilled to disk by the model checker.
    McheckSpillBytes = 17,
    /// Gauss–Seidel sweeps of the expected-silence-time solve.
    McheckGsSweeps = 18,
}

impl Counter {
    /// Number of registered counters (the [`CounterBlock`] array length).
    pub const COUNT: usize = 19;

    /// Every counter, indexable by `as usize`.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EpochsOpened,
        Counter::EpochsDiscarded,
        Counter::BatchDraws,
        Counter::BatchTruncations,
        Counter::SchedulerFallbacks,
        Counter::SchedulerRejections,
        Counter::NullsSkipped,
        Counter::Transitions,
        Counter::SilenceChecks,
        Counter::FenwickRebuilds,
        Counter::InternerGrowths,
        Counter::FaultBursts,
        Counter::FaultVictims,
        Counter::ChurnEvents,
        Counter::ChurnJoined,
        Counter::ChurnDeparted,
        Counter::McheckFrontierPops,
        Counter::McheckSpillBytes,
        Counter::McheckGsSweeps,
    ];

    /// The dotted registry name (`<layer>.<event>`), shared verbatim by the
    /// `ppsimd` stats response and metrics exposition.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EpochsOpened => "engine.epochs_opened",
            Counter::EpochsDiscarded => "engine.epochs_discarded",
            Counter::BatchDraws => "engine.batch_draws",
            Counter::BatchTruncations => "engine.batch_truncations",
            Counter::SchedulerFallbacks => "engine.scheduler_fallbacks",
            Counter::SchedulerRejections => "engine.scheduler_rejections",
            Counter::NullsSkipped => "engine.nulls_skipped",
            Counter::Transitions => "engine.transitions",
            Counter::SilenceChecks => "engine.silence_checks",
            Counter::FenwickRebuilds => "engine.fenwick_rebuilds",
            Counter::InternerGrowths => "engine.interner_growths",
            Counter::FaultBursts => "drivers.fault_bursts",
            Counter::FaultVictims => "drivers.fault_victims",
            Counter::ChurnEvents => "drivers.churn_events",
            Counter::ChurnJoined => "drivers.churn_joined",
            Counter::ChurnDeparted => "drivers.churn_departed",
            Counter::McheckFrontierPops => "mcheck.frontier_pops",
            Counter::McheckSpillBytes => "mcheck.spill_bytes",
            Counter::McheckGsSweeps => "mcheck.gs_sweeps",
        }
    }
}

/// The unified counter registry: one `u64` slot per [`Counter`].
///
/// Increments compile to an indexed array add — the same cost as the
/// scattered per-engine fields this registry replaced — so the block is
/// always on and always deterministic in the seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterBlock([u64; Counter::COUNT]);

impl Default for CounterBlock {
    fn default() -> Self {
        CounterBlock([0; Counter::COUNT])
    }
}

impl CounterBlock {
    /// The current value of a counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }

    /// Adds `by` events to a counter.
    #[inline]
    pub fn add(&mut self, counter: Counter, by: u64) {
        self.0[counter as usize] += by;
    }

    /// Counts one event.
    #[inline]
    pub fn incr(&mut self, counter: Counter) {
        self.0[counter as usize] += 1;
    }

    /// Subtracts `by` events (used to roll a discarded epoch's truncations
    /// back out; saturates rather than wrapping on a logic error).
    #[inline]
    pub fn sub(&mut self, counter: Counter, by: u64) {
        let slot = &mut self.0[counter as usize];
        *slot = slot.saturating_sub(by);
    }

    /// Overwrites a counter (used when a snapshot mirrors an engine field
    /// such as the applied-transition count into the registry).
    #[inline]
    pub fn set(&mut self, counter: Counter, value: u64) {
        self.0[counter as usize] = value;
    }

    /// Accumulates another block into this one, slot by slot.
    pub fn merge(&mut self, other: &CounterBlock) {
        for (dst, src) in self.0.iter_mut().zip(other.0.iter()) {
            *dst += src;
        }
    }

    /// Iterates the non-zero counters in registry order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().filter_map(|c| {
            let v = self.get(c);
            (v > 0).then_some((c, v))
        })
    }

    /// Whether every slot is zero.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }
}

/// One convergence-progress checkpoint: where the run was (simulated time)
/// and what the configuration looked like when the probe fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Probe {
    /// Simulated time: interactions elapsed (divide by `population` for
    /// parallel time).
    pub interactions: u64,
    /// Active-pair mass: ordered non-null pairs (rate-weighted under a
    /// weighted scheduler); `0` exactly at silence.
    pub active_pairs: u64,
    /// Distinct states present in the configuration.
    pub distinct_states: u64,
    /// Non-null transitions applied so far.
    pub transitions: u64,
    /// Population size at the probe (changes under churn).
    pub population: u64,
}

/// One completed wall-clock span, microseconds relative to the recorder's
/// origin instant. Spans come off a begin/end stack, so a recorder's span
/// list is properly nested per run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// Static phase name (`"epoch.apply"`, `"silence.check"`, …).
    pub name: &'static str,
    /// Begin, µs since the recorder was created.
    pub start_us: u64,
    /// End, µs since the recorder was created.
    pub end_us: u64,
}

/// Spans kept per recorder before further `span_begin`s only count
/// [`Recorder::dropped_spans`] — bounds trace memory on very long runs.
pub const SPAN_CAP: usize = 1 << 16;

/// Probe spacing: the next probe fires at `interactions * 5/4` (log-spaced
/// checkpoints, ~12 probes per decade of simulated time).
const PROBE_GROWTH_NUM: u64 = 5;
const PROBE_GROWTH_DEN: u64 = 4;

/// The recording sink: log-spaced probes, a span stack, and a counter slot
/// the run's final [`CounterBlock`] is merged into at harvest time.
#[derive(Clone, PartialEq, Debug)]
pub struct Recorder {
    /// The run's final counter registry; filled when the run is harvested
    /// (e.g. by `RunSpec`'s driver), zero while recording.
    pub counters: CounterBlock,
    /// Recorded convergence checkpoints, in time order.
    pub probes: Vec<Probe>,
    /// Completed spans, in completion order, capped at [`SPAN_CAP`].
    pub spans: Vec<Span>,
    /// Spans discarded past the cap.
    pub dropped_spans: u64,
    open: Vec<(&'static str, Instant)>,
    origin: Instant,
    next_probe_at: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; the wall clock for spans starts now.
    pub fn new() -> Self {
        Recorder {
            counters: CounterBlock::default(),
            probes: Vec::new(),
            spans: Vec::new(),
            dropped_spans: 0,
            open: Vec::new(),
            origin: Instant::now(),
            next_probe_at: 0,
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Whether a probe is due at `interactions` elapsed: probes are spaced
    /// log-uniformly in simulated time.
    pub fn probe_due(&self, interactions: u64) -> bool {
        interactions >= self.next_probe_at
    }

    /// Records one convergence checkpoint. A checkpoint at the simulated
    /// time of the last one (a run that stops where the previous run
    /// stopped) replaces it, so a stream's times strictly increase.
    pub fn record_probe(&mut self, probe: Probe) {
        // Log-spaced: the next checkpoint waits for 25% more simulated
        // time, with a +1 floor so early probes still advance.
        self.next_probe_at = (probe.interactions / PROBE_GROWTH_DEN)
            .saturating_mul(PROBE_GROWTH_NUM)
            .max(probe.interactions + 1);
        if self.probes.last().is_some_and(|last| last.interactions == probe.interactions) {
            self.probes.pop();
        }
        self.probes.push(probe);
    }

    /// Opens a span around a hot phase.
    pub fn span_begin(&mut self, name: &'static str) {
        self.open.push((name, Instant::now()));
    }

    /// Closes the innermost open span with this name.
    pub fn span_end(&mut self, name: &'static str) {
        let Some(pos) = self.open.iter().rposition(|(n, _)| *n == name) else {
            return; // unbalanced end: drop rather than panic mid-run
        };
        let (_, started) = self.open.remove(pos);
        if self.spans.len() >= SPAN_CAP {
            self.dropped_spans += 1;
            return;
        }
        let start_us = started.duration_since(self.origin).as_micros().min(u64::MAX as u128) as u64;
        let end_us = self.now_us().max(start_us);
        self.spans.push(Span { name, start_us, end_us });
    }
}

/// The engine-side sink slot: a two-armed enum instead of a trait object,
/// so the `Noop` arm costs one discriminant test at probe checkpoints and
/// nothing elsewhere — no allocation, no vtable, no RNG.
#[derive(Clone, Default, Debug)]
pub enum TelemetrySink {
    /// No recording (the default): every hook is free.
    #[default]
    Noop,
    /// Record probes and spans into the boxed [`Recorder`].
    Recorder(Box<Recorder>),
}

impl TelemetrySink {
    /// Whether a recorder is attached.
    #[inline]
    pub fn is_recording(&self) -> bool {
        matches!(self, TelemetrySink::Recorder(_))
    }

    /// Whether a probe is due at `interactions` elapsed (always `false`
    /// without a recorder — the hot-loop fast path).
    #[inline]
    pub fn probe_due(&self, interactions: u64) -> bool {
        match self {
            TelemetrySink::Noop => false,
            TelemetrySink::Recorder(r) => r.probe_due(interactions),
        }
    }

    /// Records one convergence checkpoint.
    pub fn record_probe(&mut self, probe: Probe) {
        if let TelemetrySink::Recorder(r) = self {
            r.record_probe(probe);
        }
    }

    /// Opens a span (no-op without a recorder).
    #[inline]
    pub fn span_begin(&mut self, name: &'static str) {
        if let TelemetrySink::Recorder(r) = self {
            r.span_begin(name);
        }
    }

    /// Closes a span (no-op without a recorder).
    #[inline]
    pub fn span_end(&mut self, name: &'static str) {
        if let TelemetrySink::Recorder(r) = self {
            r.span_end(name);
        }
    }

    /// Attaches a recorder, replacing whatever sink was installed.
    pub fn attach(&mut self, recorder: Recorder) {
        *self = TelemetrySink::Recorder(Box::new(recorder));
    }

    /// Detaches and returns the recorder, leaving the no-op sink behind.
    pub fn take(&mut self) -> Option<Recorder> {
        match std::mem::take(self) {
            TelemetrySink::Noop => None,
            TelemetrySink::Recorder(r) => Some(*r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT, "duplicate registry name");
        for c in Counter::ALL {
            assert!(c.name().contains('.'), "{} is not layer-dotted", c.name());
            assert_eq!(Counter::ALL[c as usize], c, "ALL order matches discriminants");
        }
    }

    #[test]
    fn counter_block_arithmetic() {
        let mut block = CounterBlock::default();
        assert!(block.is_empty());
        block.incr(Counter::EpochsOpened);
        block.add(Counter::BatchTruncations, 7);
        block.sub(Counter::BatchTruncations, 3);
        block.sub(Counter::EpochsDiscarded, 5); // saturates at zero
        let mut other = CounterBlock::default();
        other.add(Counter::EpochsOpened, 2);
        block.merge(&other);
        assert_eq!(block.get(Counter::EpochsOpened), 3);
        assert_eq!(block.get(Counter::BatchTruncations), 4);
        assert_eq!(block.get(Counter::EpochsDiscarded), 0);
        let nonzero: Vec<(Counter, u64)> = block.iter_nonzero().collect();
        assert_eq!(nonzero, vec![(Counter::EpochsOpened, 3), (Counter::BatchTruncations, 4)]);
    }

    #[test]
    fn recorder_probes_are_log_spaced_and_monotone() {
        let mut r = Recorder::new();
        let mut t = 0u64;
        while t < 10_000 {
            if r.probe_due(t) {
                r.record_probe(Probe {
                    interactions: t,
                    active_pairs: 1,
                    distinct_states: 1,
                    transitions: t,
                    population: 10,
                });
            }
            t += 1;
        }
        assert!(r.probes.len() > 10, "several checkpoints fired");
        // A probe sweep over 10^4 ticks stays logarithmic, not linear.
        assert!(r.probes.len() < 100, "log spacing keeps the series small");
        assert!(r.probes.windows(2).all(|w| w[0].interactions < w[1].interactions));
    }

    #[test]
    fn spans_nest_and_cap() {
        let mut r = Recorder::new();
        r.span_begin("outer");
        r.span_begin("inner");
        r.span_end("inner");
        r.span_end("outer");
        r.span_end("stray"); // unbalanced end is dropped, not a panic
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].name, "inner");
        assert_eq!(r.spans[1].name, "outer");
        assert!(r.spans[1].start_us <= r.spans[0].start_us);
        assert!(r.spans[1].end_us >= r.spans[0].end_us);
    }

    #[test]
    fn sink_noop_arm_is_inert_and_take_round_trips() {
        let mut sink = TelemetrySink::default();
        assert!(!sink.is_recording());
        assert!(!sink.probe_due(0));
        sink.span_begin("x");
        sink.span_end("x");
        assert!(sink.take().is_none());

        sink.attach(Recorder::new());
        assert!(sink.is_recording());
        assert!(sink.probe_due(0), "a fresh recorder wants the first probe");
        sink.span_begin("x");
        sink.span_end("x");
        let recorder = sink.take().expect("recorder detaches");
        assert_eq!(recorder.spans.len(), 1);
        assert!(!sink.is_recording(), "take leaves the noop sink behind");
    }
}
