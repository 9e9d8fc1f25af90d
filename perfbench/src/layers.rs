//! Per-layer unit costs, timed from outside the program on inputs captured
//! from the workload itself.
//!
//! During a traced round each workload drops samples of the inputs its
//! layers saw into a [`Capture`]: convergence probes of its engine runs,
//! agent states of its configurations, the request and response lines of
//! its daemon traffic. After the rounds, every public primitive a layer is
//! built from is timed on those inputs. A layer the workload bypasses
//! leaves no inputs, and its unit costs read 0 like its counts.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use ppsim::mcheck::{expected_silence_time_probed, explore_reachable, MCheckOptions};
use ppsim::sampling::{sample_hypergeometric, sample_negative_binomial};
use ppsim::telemetry::{Counter, TelemetrySink};
use ppsim::{sample_null_run, Configuration, Protocol, Recorder, StateInterner};
use ppsimd::cache::{content_hash, CacheConfig, ResultCache};
use ppsimd::{Request, Response};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use ssle::params::SublinearParams;
use ssle::{
    OptimalSilentParams, OptimalSilentSsr, OptimalSilentState, SilentNStateSsr, SilentRank,
    SublinearState, SublinearTimeSsr,
};

use crate::workloads::rng_for;

/// Samples kept per input kind.
const KEEP: usize = 256;

/// Inputs captured from a workload's traced rounds.
#[derive(Default)]
pub struct Capture {
    /// `(active pairs, ordered pairs)` at the probes of per-transition runs.
    pub null_run: Vec<(u64, u64)>,
    /// `(population, infected)` at the probes of batch-count epidemic runs.
    pub epochs: Vec<(u64, u64)>,
    /// Silent-n-state-SSR agent-state pairs, and their population.
    pub ssr: Vec<(SilentRank, SilentRank)>,
    pub ssr_n: usize,
    /// Optimal-Silent-SSR agent-state pairs taken mid-run, and their
    /// population.
    pub optimal: Vec<(OptimalSilentState, OptimalSilentState)>,
    pub optimal_n: usize,
    /// Sublinear-Time-SSR agent states.
    pub sublinear: Vec<SublinearState>,
    /// States an interned engine run started from (interned up front).
    pub interned: Vec<SublinearState>,
    /// Sublinear-Time-SSR protocol parameters of the captured states.
    pub sublinear_params: Option<SublinearParams>,
    /// `ppsimd` request lines.
    pub requests: Vec<String>,
    /// `ppsimd` response lines.
    pub responses: Vec<String>,
    /// `ppsimd` cold `expect` request lines, for timing execution directly.
    pub expects: Vec<String>,
    /// Starts of the cold `expect` solves (Optimal-Silent-SSR with the
    /// mcheck timers), one per scenario, and their population.
    pub checker_starts: Vec<(&'static str, Configuration<OptimalSilentState>)>,
    pub checker_n: usize,
}

/// Appends items while fewer than [`KEEP`] are held.
pub fn keep<T>(into: &mut Vec<T>, items: impl IntoIterator<Item = T>) {
    let room = KEEP.saturating_sub(into.len());
    into.extend(items.into_iter().take(room));
}

/// `count` random ordered pairs of agent states from a configuration.
fn state_pairs<S: Clone>(
    config: &Configuration<S>,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<(S, S)> {
    let states = config.as_slice();
    (0..count)
        .map(|_| {
            let a = states[rng.gen_range(0..states.len())].clone();
            (a, states[rng.gen_range(0..states.len())].clone())
        })
        .collect()
}

impl Capture {
    /// Silent-n-state-SSR pairs from a workload configuration.
    pub fn ssr_pairs(&mut self, config: &Configuration<SilentRank>) {
        self.ssr_n = config.len();
        if self.ssr.len() < KEEP {
            let pairs = state_pairs(config, 64, &mut rng_for(0, self.ssr.len() as u64, 0x55));
            keep(&mut self.ssr, pairs);
        }
    }

    /// Null-run inputs from a per-transition run's probes on `n` agents.
    pub fn null_runs(&mut self, recorder: &Recorder, n: usize) {
        let total = n as u64 * (n as u64 - 1);
        keep(
            &mut self.null_run,
            recorder.probes.iter().filter(|p| p.active_pairs > 0).map(|p| (p.active_pairs, total)),
        );
    }

    /// Epoch-shaped inputs from a batch-count epidemic run's probes.
    pub fn epochs(&mut self, recorder: &Recorder) {
        keep(
            &mut self.epochs,
            recorder
                .probes
                .iter()
                .map(|p| (p.population, p.transitions + 1))
                .filter(|&(n, infected)| infected < n),
        );
    }

    /// Optimal-Silent-SSR pairs from a configuration taken mid-run.
    pub fn optimal_pairs(&mut self, config: &Configuration<OptimalSilentState>) {
        self.optimal_n = config.len();
        if self.optimal.len() < KEEP {
            let pairs = state_pairs(config, 64, &mut rng_for(0, self.optimal.len() as u64, 0x05));
            keep(&mut self.optimal, pairs);
        }
    }

    /// The start of a cold `expect` solve on `n` agents, once per scenario.
    pub fn checker_start(&mut self, n: usize, scenario: &'static str) {
        if self.checker_starts.iter().any(|(name, _)| *name == scenario) {
            return;
        }
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        let scenarios = OptimalSilentSsr::adversarial_scenarios();
        if let Some(found) = scenarios.iter().find(|s| s.name() == scenario) {
            self.checker_n = n;
            self.checker_starts.push((scenario, found.configuration(&protocol, 0)));
        }
    }

    /// Sublinear-Time-SSR states of one protocol instance.
    pub fn sublinear_states(
        &mut self,
        params: SublinearParams,
        config: &Configuration<SublinearState>,
    ) {
        if self.sublinear_params.is_some_and(|p| p != params) || self.sublinear.len() >= KEEP {
            return;
        }
        self.sublinear_params = Some(params);
        keep(&mut self.sublinear, config.iter().take(64).cloned());
    }
}

/// Nanoseconds per call of `f`, cycling through `inputs`: the median over
/// five batches, each at least `batch_ms` long. 0 without inputs: the
/// workload bypassed the layer.
fn ns_per_call<I>(inputs: &[I], batch_ms: f64, mut f: impl FnMut(&I)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut calls = inputs.len();
    loop {
        let started = Instant::now();
        for i in 0..calls {
            f(&inputs[i % inputs.len()]);
        }
        if started.elapsed().as_secs_f64() * 1e3 >= batch_ms || calls > 1 << 30 {
            break;
        }
        calls *= 2;
    }
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for i in 0..calls {
                f(&inputs[i % inputs.len()]);
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// Unit costs of every layer primitive, in ns (ms where named so).
pub struct UnitCosts {
    pub null_run_ns: f64,
    pub hypergeometric_ns: f64,
    pub neg_binomial_ns: f64,
    pub intern_hit_ns: f64,
    pub ssr_transition_ns: f64,
    pub optimal_transition_ns: f64,
    pub sublinear_transition_ns: f64,
    pub sublinear_clone_ns: f64,
    pub sublinear_hash_ns: f64,
    pub sublinear_is_null_ns: f64,
    pub parse_ns: f64,
    pub canonical_ns: f64,
    pub cache_get_ns: f64,
    pub cache_insert_ns: f64,
    pub serialize_ns: f64,
    pub execute_expect_ms: f64,
    /// Per cold `expect` solve: the checker's frontier pops and
    /// Gauss–Seidel sweeps, and the time of its `closure.explore` and
    /// `solver.sweep` spans, ms.
    pub frontier_pops: f64,
    pub gs_sweeps: f64,
    pub closure_explore_ms: f64,
    pub solver_sweep_ms: f64,
    pub ns_per_frontier_pop: f64,
}

/// Times every unit cost on the captured inputs; a cost without inputs
/// reads 0.
pub fn unit_costs(c: &Capture, seed: u64, batch_ms: f64) -> UnitCosts {
    let mut rng: ChaCha8Rng = rng_for(seed, 0, 0x0C057);

    let null_run_ns = ns_per_call(&c.null_run, batch_ms, |&(a, t)| {
        black_box(sample_null_run(a, t, &mut rng));
    });
    // An epoch over `A = 2·i·(n − i)` active ordered pairs draws
    // `B = min(n/16, A/8)` transitions; each of the two pair cells holds
    // half the weight, and the interleaved nulls are negative binomial in
    // `B` with success probability `A / (n(n − 1))`.
    let epochs: Vec<(u64, u64, u64, f64)> = c
        .epochs
        .iter()
        .map(|&(n, i)| {
            let active = 2 * i * (n - i);
            let draws = (n / 16).min(active / 8).max(1);
            let p = active as f64 / (n as f64 * (n as f64 - 1.0));
            (active, active / 2, draws, p.clamp(f64::MIN_POSITIVE, 1.0))
        })
        .collect();
    let hypergeometric_ns = ns_per_call(&epochs, batch_ms, |&(total, cell, draws, _)| {
        black_box(sample_hypergeometric(total, cell, draws, &mut rng));
    });
    let neg_binomial_ns = ns_per_call(&epochs, batch_ms, |&(_, _, draws, p)| {
        black_box(sample_negative_binomial(draws, p, &mut rng));
    });

    let mut interner = StateInterner::new();
    for state in &c.interned {
        interner.intern(state);
    }
    let intern_hit_ns = ns_per_call(&c.interned, batch_ms, |s| {
        black_box(interner.intern(s));
    });

    let ssr = SilentNStateSsr::new(c.ssr_n.max(2));
    let ssr_transition_ns = ns_per_call(&c.ssr, batch_ms, |(a, b)| {
        black_box(ssr.transition(a, b, &mut rng));
    });
    let optimal = OptimalSilentSsr::new(OptimalSilentParams::recommended(c.optimal_n.max(2)));
    let optimal_transition_ns = ns_per_call(&c.optimal, batch_ms, |(a, b)| {
        black_box(optimal.transition(a, b, &mut rng));
    });

    let params = c.sublinear_params.unwrap_or_else(|| SublinearParams::recommended(2, 0));
    let sublinear = SublinearTimeSsr::new(params);
    let sub_pairs: Vec<(&SublinearState, &SublinearState)> =
        c.sublinear.iter().zip(c.sublinear.iter().rev()).collect();
    let sublinear_transition_ns = ns_per_call(&sub_pairs, batch_ms, |(a, b)| {
        black_box(sublinear.transition(a, b, &mut rng));
    });
    let sublinear_clone_ns = ns_per_call(&c.sublinear, batch_ms, |s| {
        black_box(s.clone());
    });
    let sublinear_hash_ns = ns_per_call(&c.sublinear, batch_ms, |s| {
        let mut hasher = DefaultHasher::new();
        s.hash(&mut hasher);
        black_box(hasher.finish());
    });
    let sublinear_is_null_ns = ns_per_call(&sub_pairs, batch_ms, |(a, b)| {
        black_box(sublinear.is_null(a, b));
    });

    let parse_ns = ns_per_call(&c.requests, batch_ms, |line| {
        black_box(Request::parse_line(line).ok());
    });
    let parsed: Vec<Request> =
        c.requests.iter().filter_map(|l| Request::parse_line(l).ok()).collect();
    let canonical_ns = ns_per_call(&parsed, batch_ms, |request| {
        black_box(content_hash(&request.canonical_text()));
    });
    let keys: Vec<String> = parsed.iter().map(Request::canonical_text).collect();
    let value = c.responses.first().cloned().unwrap_or_default();
    let cache = ResultCache::new(CacheConfig::default());
    for key in &keys {
        cache.insert(key.clone(), value.clone());
    }
    let cache_get_ns = ns_per_call(&keys, batch_ms, |key| {
        black_box(cache.get(key));
    });
    let insert_cache = ResultCache::new(CacheConfig::default());
    let cache_insert_ns = ns_per_call(&keys, batch_ms, |key| {
        insert_cache.insert(key.clone(), value.clone());
    });
    let responses: Vec<Response> =
        c.responses.iter().filter_map(|l| Response::parse_line(l).ok()).collect();
    let serialize_ns = ns_per_call(&responses, batch_ms, |response| {
        black_box(response.to_line());
    });
    let expects: Vec<Request> =
        c.expects.iter().take(2).filter_map(|l| Request::parse_line(l).ok()).collect();
    // Each execution is a full solve (tens of milliseconds): time each once.
    let solves: Vec<f64> = expects
        .iter()
        .map(|request| {
            let started = Instant::now();
            black_box(ppsimd::exec::execute(request));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let execute_expect_ms = crate::stats::median(&solves).unwrap_or(0.0);

    // The cold expects' solves, redone on their captured starts: the
    // closure exploration alone (its frontier pops from
    // `ReachableSpace::counters`), then the whole solve with a recorder.
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(c.checker_n.max(2)));
    let options = MCheckOptions::default();
    let (mut explore_ns, mut explore_pops) = (0.0, 0.0);
    let (mut frontier_pops, mut gs_sweeps, mut closure_explore_us, mut solver_sweep_us) =
        (0.0, 0.0, 0.0, 0.0);
    for (_, start) in &c.checker_starts {
        let started = Instant::now();
        let space = explore_reachable(protocol, std::slice::from_ref(start), &options);
        explore_ns += started.elapsed().as_nanos() as f64;
        explore_pops +=
            space.map_or(0.0, |space| space.counters().get(Counter::McheckFrontierPops) as f64);
        let mut sink = TelemetrySink::default();
        sink.attach(Recorder::new());
        if let Ok(est) = expected_silence_time_probed(protocol, start, &options, &mut sink) {
            frontier_pops += est.counters.get(Counter::McheckFrontierPops) as f64;
            gs_sweeps += est.counters.get(Counter::McheckGsSweeps) as f64;
        }
        for span in sink.take().map(|r| r.spans).unwrap_or_default() {
            let us = span.end_us.saturating_sub(span.start_us) as f64;
            match span.name {
                "closure.explore" => closure_explore_us += us,
                "solver.sweep" => solver_sweep_us += us,
                _ => {}
            }
        }
    }
    let solves = c.checker_starts.len().max(1) as f64;
    let ns_per_frontier_pop = if explore_pops > 0.0 { explore_ns / explore_pops } else { 0.0 };

    UnitCosts {
        null_run_ns,
        hypergeometric_ns,
        neg_binomial_ns,
        intern_hit_ns,
        ssr_transition_ns,
        optimal_transition_ns,
        sublinear_transition_ns,
        sublinear_clone_ns,
        sublinear_hash_ns,
        sublinear_is_null_ns,
        parse_ns,
        canonical_ns,
        cache_get_ns,
        cache_insert_ns,
        serialize_ns,
        execute_expect_ms,
        frontier_pops: frontier_pops / solves,
        gs_sweeps: gs_sweeps / solves,
        closure_explore_ms: closure_explore_us / 1e3 / solves,
        solver_sweep_ms: solver_sweep_us / 1e3 / solves,
        ns_per_frontier_pop,
    }
}

/// Σ counter × unit cost per round, in ns: the part of one round's
/// operation time that the exported counters and the timed unit costs
/// account for. `v` holds the assembled per-layer metrics, `counts` the raw
/// per-run counts over `rounds` traced rounds, `ops` the operations per
/// round of each phase. What stays unexplained names a missing counter.
pub fn explained_ns(
    workload: &str,
    v: &BTreeMap<&'static str, f64>,
    counts: &BTreeMap<&'static str, f64>,
    rounds: f64,
    c: &UnitCosts,
    ops: &[f64],
) -> f64 {
    let per_round = |name: &str| counts.get(name).copied().unwrap_or(0.0) / rounds;
    let ms = 1e6;
    match workload {
        // Per-transition SSR: one null-run draw and one transition per
        // applied transition (the Fenwick search and update have no counter).
        // Batch-count epochs: two hypergeometric cell splits and one
        // negative-binomial null interleave each. Interned runs: one intern
        // per first-seen state, one null-run draw per transition.
        "count-engines" => {
            per_round("batched.ssr_transitions") * (c.ssr_transition_ns + c.null_run_ns)
                + v["batched.epochs_opened"] * (2.0 * c.hypergeometric_ns + c.neg_binomial_ns)
                + v["interned.interner_growths"] * c.intern_hit_ns
                + per_round("interned.transitions") * c.null_run_ns
        }
        // Each exact interaction draws a pair (about one ChaCha8 word),
        // clones both states and applies the transition; silence checks are
        // timed by their own spans. The Sublinear-Time-SSR costs are timed on
        // states at the moment of detection, so they can overstate an
        // average interaction (the engine counts no clones or state sizes).
        "exact-protocols" => {
            let pair = v["calib.chacha8_ns.start"];
            per_round("exact.optimal_interactions") * (c.optimal_transition_ns + pair)
                + per_round("exact.sublinear_interactions")
                    * (c.sublinear_transition_ns + 2.0 * c.sublinear_clone_ns + pair)
                + v["exact.silence_check_ms"] * ms
        }
        // Every request is parsed, keyed and looked up; every miss is
        // inserted and serialized, waits in the queue and executes.
        "ppsimd-mixed" => {
            let (inline, runs, expects) = (ops[0], ops[1], ops[2]);
            (inline + runs + expects) * (c.parse_ns + c.canonical_ns + c.cache_get_ns)
                + (runs + expects) * (c.cache_insert_ns + c.serialize_ns)
                + runs * (v["ppsimd.execute_ms.run"] + v["ppsimd.queue_wait_ms"]) * ms
                + expects * c.execute_expect_ms * ms
        }
        _ => 0.0,
    }
}
