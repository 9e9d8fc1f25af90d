//! `ppsimd-mixed`: the daemon under a closed loop of mixed requests.
//!
//! An in-process `ppsimd::serve` with two workers answers two client
//! connections over loopback, one thread each; every client waits for each
//! reply before sending the next request.
//!
//! | phase | requests per client per round | work unit |
//! |---|---|---|
//! | a | 46 warm `expect` cache hits and 3 replays of this round's cold `expect`s, answered on the connection thread | requests |
//! | b | 5 `run` requests, one per template (batched, batchcount and exact engines; a fault plan; a churn plan), on seeds drawn afresh every round: cache misses, executed by a worker | requests |
//! | c | 3 cold `expect` requests (Optimal-Silent-SSR, mcheck timers, n = 4, all-leader start) on fresh seeds: cache misses, solved by a worker | requests |
//!
//! Each client also sends one `stats` and one `metrics` request per round;
//! they are checked but belong to no phase. A phase's median and tail must
//! not sit on a step between two kinds of request, or they jump between
//! runs: every cold `expect` solves the same chain, and the `run` templates
//! are sized to comparable execution times. Every round shuffles its
//! requests afresh, so a run averages over how the two clients' requests
//! overlap.
//!
//! Loads `ppsimd::{proto, cache, server, exec}`, and through the misses the
//! count engines, the exact engine, the fault and churn drivers and the
//! checker. It is the only workload that runs the fault and churn drivers.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Instant;

use bench::perf::{self, Json};
use ppsimd::{serve, Server, ServerConfig};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use super::{rng_for, Ctx, Opts, Workload};
use crate::layers::keep;
use crate::trace::Tracer;

/// Client connections (and client threads).
pub const CLIENTS: usize = 2;

/// Scenarios of the warm `expect` set.
const SCENARIOS: [&str; 6] =
    ["all-leader", "zero-leader", "all-unsettled", "near-silent-wrong", "mid-reset", "random"];

struct Sizes {
    /// Distinct warm `expect` requests, computed during set-up.
    warm: usize,
    hits: usize,
    runs: usize,
    expects: usize,
    /// Population of the cold `expect` requests.
    expect_n: usize,
    /// Population scale of the `run` requests.
    run_scale: usize,
}

const FULL: Sizes = Sizes { warm: 12, hits: 46, runs: 5, expects: 3, expect_n: 4, run_scale: 1 };
const TINY: Sizes = Sizes { warm: 6, hits: 4, runs: 1, expects: 1, expect_n: 3, run_scale: 0 };

/// One request as the client sees it.
enum Req {
    /// A warm-set request; the reply must equal the cold reply byte for byte.
    Hit {
        line: String,
        expected: String,
    },
    /// A replay of an earlier cold `expect` of the same round.
    Replay {
        index: usize,
    },
    /// A uniquely seeded run; `plan` says which plan checks apply.
    Run {
        line: String,
        trials: usize,
        plan: Plan,
    },
    /// A cold `expect` on a fresh seed, from a deterministic start.
    Expect {
        line: String,
        scenario: &'static str,
    },
    Stats,
    Metrics,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Plan {
    None,
    Faults,
    Churn,
}

/// A seed below 2⁵³, which JSON numbers carry exactly.
fn wire_seed(rng: &mut ChaCha8Rng) -> u64 {
    rng.gen::<u64>() >> 11
}

/// The warm set: mcheck-backed `expect` requests over every scenario.
fn warm_lines(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let scenario = SCENARIOS[i % SCENARIOS.len()];
            let seed = i / SCENARIOS.len();
            format!(
                "{{\"type\":\"expect\",\"protocol\":\"optimal-silent\",\"n\":4,\
                 \"scenario\":\"{scenario}\",\"seed\":{seed},\"params\":\"mcheck\"}}"
            )
        })
        .collect()
}

/// Scenario of the cold `expect`s: a deterministic start, so a fresh seed
/// changes the cache key but not the chain solved, and every cold `expect`
/// solves the same chain.
const COLD_SCENARIO: &str = "all-leader";

/// A cold `expect`: Optimal-Silent-SSR with the mcheck timers on a fresh
/// seed.
fn expect_line(n: usize, scenario: &str, seed: u64) -> String {
    format!(
        "{{\"type\":\"expect\",\"protocol\":\"optimal-silent\",\"n\":{n},\
         \"scenario\":\"{scenario}\",\"seed\":{seed},\"params\":\"mcheck\"}}"
    )
}

/// The `run` templates, cycled through: every engine, plus a fault plan
/// and a churn plan. `scale` 0 shrinks every population for smoke tests.
/// Four templates take 6–11 ms each on a 2-vCPU 2.1 GHz Xeon, so that
/// phase b's latencies overlap instead of forming five steps. The fault
/// plan stays at n = 40 (about 0.5 ms): at n = 100 the daemon reported
/// fewer recovered trials than trials, which the check counts as failures.
fn run_line(
    template: usize,
    scale: usize,
    seed: u64,
    budget: u64,
    trace: bool,
) -> (String, usize, Plan) {
    let big = |full: usize, tiny: usize| if scale == 0 { tiny } else { full };
    let (body, plan) = match template % 5 {
        0 => (
            format!("\"protocol\":\"silent-n-state\",\"n\":{},\"engine\":\"batched\",\"scenario\":\"random\"", big(800, 16)),
            Plan::None,
        ),
        1 => (
            format!("\"protocol\":\"epidemic\",\"n\":{},\"engine\":\"batchcount\",\"scenario\":\"single-source\"", big(1_000_000, 100)),
            Plan::None,
        ),
        2 => (
            format!("\"protocol\":\"fratricide\",\"n\":{},\"engine\":\"exact\",\"scenario\":\"all-leader\"", big(200, 16)),
            Plan::None,
        ),
        3 => (
            format!(
                "\"protocol\":\"silent-n-state\",\"n\":{},\"engine\":\"batched\",\"scenario\":\"random\",\
                 \"faults\":{{\"schedule\":\"periodic\",\"start\":{start},\"period\":{start},\"events\":2,\"k\":4,\"state\":0}}",
                big(40, 12),
                start = big(400_000, 20_000)
            ),
            Plan::Faults,
        ),
        _ => (
            format!(
                "\"protocol\":\"epidemic\",\"n\":{},\"engine\":\"batched\",\"scenario\":\"single-source\",\
                 \"churn\":{{\"schedule\":\"one-shot\",\"at\":3000,\"action\":\"join\",\"count\":20,\"state\":0}}",
                big(20_000, 40)
            ),
            Plan::Churn,
        ),
    };
    let trials = 2;
    let trace = if trace { ",\"trace\":true" } else { "" };
    let line = format!(
        "{{\"type\":\"run\",{body},\"trials\":{trials},\"seed\":{seed},\"budget\":{budget}{trace}}}"
    );
    (line, trials, plan)
}

/// The interaction budget of a `run` request: far beyond any run's need.
const RUN_BUDGET: u64 = 1 << 50;

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// A numeric member of a response's `result`.
fn result_num(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut value = doc.get("result")?;
    for key in path {
        value = value.get(key)?;
    }
    value.as_f64()
}

/// What one client thread measured in one round.
#[derive(Default)]
struct ClientOut {
    /// `(phase, latency s)` per request; `stats` and `metrics` have no
    /// phase.
    ops: Vec<(Option<usize>, f64)>,
    /// `(ok, description)` per checked request.
    checks: Vec<(bool, String)>,
    /// Cacheable requests sent (for the reconciliation with `stats`).
    cacheable: u64,
    execute_us: Vec<u64>,
    queue_us: Vec<u64>,
    requests: Vec<String>,
    responses: Vec<String>,
    expects: Vec<String>,
    /// Scenarios of the cold `expect`s sent.
    scenarios: Vec<&'static str>,
}

/// The workload's fixed state: the server, the client connections, the warm
/// set with its cold replies, and the cache books.
pub struct PpsimdMixed {
    sizes: &'static Sizes,
    seed: u64,
    warm: Vec<(String, String)>,
    conns: Vec<Conn>,
    lanes: Vec<Tracer>,
    /// Cacheable requests sent so far, set-up included.
    cacheable: u64,
    /// Kept alive for the run; dropping it stops the daemon and joins it.
    _server: Server,
}

impl Workload for PpsimdMixed {
    const SINGLE_THREADED: bool = false;

    fn setup(opts: &Opts) -> Self {
        let sizes = if opts.tiny { &TINY } else { &FULL };
        let server = serve(ServerConfig { workers: 2, ..ServerConfig::default() })
            .expect("bind an ephemeral loopback port");
        let addr = server.addr().to_string();
        let conns: Vec<Conn> = (0..CLIENTS)
            .map(|_| Conn::connect(&addr).expect("connect to the in-process server"))
            .collect();
        let mut workload = PpsimdMixed {
            sizes,
            seed: opts.seed,
            warm: Vec::new(),
            conns,
            lanes: Vec::new(),
            cacheable: 0,
            _server: server,
        };
        // Compute the warm set cold, split over both connections.
        let lines = warm_lines(sizes.warm);
        let replies: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workload
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let lines = &lines;
                    scope.spawn(move || {
                        (c..lines.len())
                            .step_by(CLIENTS)
                            .map(|i| (i, conn.roundtrip(&lines[i]).unwrap_or_default()))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("set-up client thread")).collect()
        });
        let mut warm = vec![(String::new(), String::new()); lines.len()];
        for (i, reply) in replies.into_iter().flatten() {
            assert!(is_ok(&reply), "warm request failed: {} -> {reply}", lines[i]);
            warm[i] = (lines[i].clone(), reply);
        }
        workload.cacheable = lines.len() as u64;
        workload.warm = warm;
        workload
    }

    fn round(&mut self, round: u64, ctx: &mut Ctx) {
        let traced = ctx.tracer.enabled();
        if self.lanes.is_empty() {
            self.lanes = (0..CLIENTS).map(|c| ctx.tracer.lane(2 + c as u64)).collect();
        }
        for lane in &mut self.lanes {
            lane.set_enabled(traced);
        }
        let plans: Vec<Vec<Req>> = (0..CLIENTS).map(|c| self.plan(round, c, traced)).collect();
        let outs: Vec<ClientOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.lanes.iter_mut())
                .zip(plans)
                .map(|((conn, lane), plan)| scope.spawn(move || run_client(conn, lane, plan)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for out in outs {
            for (phase, secs) in out.ops {
                if let Some(phase) = phase {
                    ctx.record(phase, 1.0, secs);
                }
            }
            for (ok, what) in out.checks {
                ctx.check(ok, || what);
            }
            self.cacheable += out.cacheable;
            ctx.count("ppsimd.execute_run_us", out.execute_us.iter().sum::<u64>() as f64);
            ctx.count("ppsimd.execute_run_n", out.execute_us.len() as f64);
            ctx.count("ppsimd.queue_us", out.queue_us.iter().sum::<u64>() as f64);
            ctx.count("ppsimd.queue_n", out.queue_us.len() as f64);
            if traced {
                let capture = &mut ctx.capture;
                keep(&mut capture.requests, out.requests);
                keep(&mut capture.responses, out.responses);
                keep(&mut capture.expects, out.expects);
                for scenario in out.scenarios {
                    capture.checker_start(self.sizes.expect_n, scenario);
                }
            }
        }
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        let stats = self.conns[0].roundtrip("{\"type\":\"stats\"}").unwrap_or_default();
        let doc = perf::parse(&stats).unwrap_or(Json::Null);
        let num = |path: &[&str]| result_num(&doc, path).unwrap_or(f64::NAN);
        let (hits, misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
        let sent = self.cacheable as f64;
        ctx.check(hits + misses == sent, || {
            format!("cache books do not reconcile: {hits} hits + {misses} misses != {sent} sent")
        });
        ctx.check(num(&["overloaded"]) == 0.0, || {
            "a closed loop was shed as overloaded".to_owned()
        });
        ctx.counts.insert("ppsimd.cache_hit_frac", hits / (hits + misses));
        ctx.counts.insert("ppsimd.overloaded", num(&["overloaded"]));
        ctx.counts.insert("ppsimd.queue_highwater", num(&["queue", "highwater"]));
    }

    fn take_lanes(&mut self) -> Vec<Tracer> {
        std::mem::take(&mut self.lanes)
    }
}

impl PpsimdMixed {
    /// Client `client`'s requests for one round. Every round draws its
    /// shape (which warm entries, in which order) and fresh `run` seeds,
    /// which a traced pass reuses (a traced `run` bypasses the cache), and
    /// every pass draws fresh `expect` seeds, which change the cache key but
    /// not the chain solved.
    fn plan(&self, round: u64, client: usize, traced: bool) -> Vec<Req> {
        let s = self.sizes;
        let pass = 2 * round + u64::from(traced);
        let mut shape = rng_for(self.seed, round, 0x5E00 + client as u64);
        let mut runs = rng_for(self.seed, round, 0x5E80 + client as u64);
        let mut fresh = rng_for(self.seed, pass, 0x5F00 + client as u64);
        let mut reqs: Vec<Req> = (0..s.hits)
            .map(|_| {
                let (line, expected) = self.warm[shape.gen_range(0..self.warm.len())].clone();
                Req::Hit { line, expected }
            })
            .collect();
        for i in 0..s.runs {
            let template = client + CLIENTS * i;
            let seed = wire_seed(&mut runs);
            let (line, trials, plan) = run_line(template, s.run_scale, seed, RUN_BUDGET, traced);
            reqs.push(Req::Run { line, trials, plan });
        }
        reqs.push(Req::Stats);
        reqs.push(Req::Metrics);
        // Fisher–Yates shuffle.
        for i in (1..reqs.len()).rev() {
            reqs.swap(i, shape.gen_range(0..=i));
        }
        // The cold expects open the list and their replays close it. Their
        // scenarios ignore the seed, so each slot solves the same chain.
        let mut ordered: Vec<Req> = (0..s.expects)
            .map(|_| {
                let line = expect_line(s.expect_n, COLD_SCENARIO, wire_seed(&mut fresh));
                Req::Expect { line, scenario: COLD_SCENARIO }
            })
            .collect();
        ordered.extend(reqs);
        ordered.extend((0..s.expects).map(|index| Req::Replay { index }));
        ordered
    }
}

/// Sends one client's requests in order, checking every reply.
fn run_client(conn: &mut Conn, lane: &mut Tracer, plan: Vec<Req>) -> ClientOut {
    let mut out = ClientOut::default();
    let mut cold: Vec<(String, String)> = Vec::new();
    for req in &plan {
        let (line, phase, cacheable, name) = match req {
            Req::Hit { line, .. } => (line.clone(), Some(0), true, "ppsimd.request.hit"),
            Req::Replay { index } => {
                (cold[*index].0.clone(), Some(0), true, "ppsimd.request.replay")
            }
            Req::Run { line, .. } => {
                (line.clone(), Some(1), !line.contains("\"trace\":true"), "ppsimd.request.run")
            }
            Req::Expect { line, .. } => (line.clone(), Some(2), true, "ppsimd.request.expect"),
            Req::Stats => ("{\"type\":\"stats\"}".to_owned(), None, false, "ppsimd.request.stats"),
            Req::Metrics => {
                ("{\"type\":\"metrics\"}".to_owned(), None, false, "ppsimd.request.metrics")
            }
        };
        lane.begin(name);
        let started = Instant::now();
        let reply = conn.roundtrip(&line);
        let secs = started.elapsed().as_secs_f64();
        let within = lane.end();
        out.ops.push((phase, secs));
        out.cacheable += u64::from(cacheable);
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.checks.push((false, format!("{name}: {e}")));
                continue;
            }
        };
        let check = match req {
            Req::Hit { expected, .. } => reply == *expected,
            Req::Replay { index } => reply == cold[*index].1,
            Req::Run { trials, plan, .. } => {
                check_run(&reply, *trials, *plan, lane, within, &mut out)
            }
            Req::Expect { line, scenario } => {
                let doc = perf::parse(&reply).unwrap_or(Json::Null);
                let expected = result_num(&doc, &["expected-interactions"]).unwrap_or(f64::NAN);
                cold.push((line.clone(), reply.clone()));
                out.expects.push(line.clone());
                out.scenarios.push(scenario);
                // A start that is already silent expects 0 interactions.
                is_ok(&reply) && expected.is_finite() && expected >= 0.0
            }
            Req::Stats => is_ok(&reply) && perf::parse(&reply).is_ok(),
            Req::Metrics => is_ok(&reply) && reply.contains("ppsimd_requests_total"),
        };
        out.checks.push((check, format!("{name}: {line} -> {reply}")));
        // Traced replies carry their trace: not what the daemon serializes
        // for an untraced request.
        if lane.enabled() && !reply.contains("\"telemetry\"") {
            out.requests.push(line);
            out.responses.push(reply);
        }
    }
    out
}

/// Checks a `run` reply: every trial silent, every fault burst recovered
/// from, every churn event re-stabilized. A traced reply's spans are
/// imported under the request's span.
fn check_run(
    reply: &str,
    trials: usize,
    plan: Plan,
    lane: &mut Tracer,
    within: Option<(u64, u64)>,
    out: &mut ClientOut,
) -> bool {
    let Ok(doc) = perf::parse(reply) else { return false };
    let all = |path: &[&str]| result_num(&doc, path) == Some(trials as f64);
    let ok = is_ok(reply)
        && all(&["silent-trials"])
        && match plan {
            Plan::None => true,
            Plan::Faults => all(&["faults", "recovered-trials"]),
            Plan::Churn => all(&["churn", "restabilized-trials"]),
        };
    let trace = doc.get("result").and_then(|r| r.get("telemetry")).and_then(|t| t.get("trace"));
    if let (Some(trace), Some(within)) = (trace, within) {
        for (_, name, start, end) in crate::trace::chrome_spans(trace) {
            match name.as_str() {
                "request.execute" => out.execute_us.push(end - start),
                "request.queue" => out.queue_us.push(end - start),
                _ => {}
            }
        }
        lane.import_chrome(trace, within.0, within, 10 * lane.tid());
    }
    ok
}
