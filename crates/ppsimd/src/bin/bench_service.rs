//! Closed-loop load generator for the `ppsimd` daemon: drives N concurrent
//! client connections through cold-cache, warm-cache, mixed and open-loop
//! phases over the mcheck-backed `expect` workload, measures throughput
//! and p50/p95/p99 latency per phase, asserts the ≥10× warm-vs-cold
//! throughput ratio, and emits `BENCH_service.json` for the `check_bench`
//! perf-regression gate.
//!
//! ```text
//! bench_service [--quick] [--addr HOST:PORT] [--clients N] [--out PATH]
//! ```
//!
//! Without `--addr` an in-process server on an ephemeral port is used, and
//! the run additionally reconciles the daemon's cache counters
//! (hits + misses = cacheable requests sent) and checks that every warm
//! response is byte-identical to its cold counterpart.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Instant;

use bench::perf::{write_bench, Json};
use ppsimd::{serve, ServerConfig};

struct Options {
    quick: bool,
    addr: Option<String>,
    clients: usize,
    out: String,
}

fn main() {
    let mut opts =
        Options { quick: false, addr: None, clients: 8, out: "BENCH_service.json".to_owned() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--addr" => opts.addr = Some(value("a HOST:PORT")),
            "--clients" => {
                opts.clients = value("a count").parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid client count");
                    std::process::exit(2);
                })
            }
            "--out" => opts.out = value("a path"),
            "--help" | "-h" => {
                println!(
                    "usage: bench_service [--quick] [--addr HOST:PORT] [--clients N] [--out PATH]"
                );
                return;
            }
            other => {
                eprintln!("error: unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    assert!(opts.clients >= 1, "need at least one client");

    // Without --addr, host the daemon in-process on an ephemeral port.
    let in_process = opts.addr.is_none();
    let server = if in_process {
        Some(serve(ServerConfig::default()).expect("cannot bind an ephemeral port"))
    } else {
        None
    };
    let addr = match &opts.addr {
        Some(addr) => addr.clone(),
        None => server.as_ref().expect("in-process server").addr().to_string(),
    };
    println!(
        "bench_service: {} clients against {addr} ({}, {})",
        opts.clients,
        if in_process { "in-process server" } else { "external daemon" },
        if opts.quick { "quick grid" } else { "full grid" },
    );

    let grid = expect_grid(opts.quick);
    println!("  expect grid: {} distinct mcheck-backed requests", grid.len());
    let cacheable_sent = AtomicU64::new(0);

    // Phase 1 — cold closed loop: the distinct grid, partitioned round-robin
    // over the clients, each request computed exactly once.
    let cold_started = Instant::now();
    let cold: Vec<(usize, String, f64)> = flatten(run_clients(&addr, opts.clients, |client| {
        let mut conn = Conn::connect(&addr);
        let mut out = Vec::new();
        for (i, line) in grid.iter().enumerate() {
            if i % opts.clients != client {
                continue;
            }
            cacheable_sent.fetch_add(1, Ordering::Relaxed);
            let (response, ms) = conn.roundtrip(line);
            assert_ok(&response, line);
            out.push((i, response, ms));
        }
        out
    }));
    let cold_wall = cold_started.elapsed().as_secs_f64();
    let cold_lat: Vec<f64> = cold.iter().map(|(_, _, ms)| *ms).collect();
    let cold_rps = grid.len() as f64 / cold_wall;
    let mut expected: Vec<String> = vec![String::new(); grid.len()];
    for (i, response, _) in &cold {
        expected[*i] = response.clone();
    }
    report_phase("cold", cold_rps, &cold_lat);

    // Phase 2 — warm closed loop: every client replays the full grid
    // `repeats` times; every response must be a byte-identical cache hit.
    let repeats = if opts.quick { 40 } else { 14 };
    let warm_started = Instant::now();
    let warm: Vec<f64> = flatten(run_clients(&addr, opts.clients, |_client| {
        let mut conn = Conn::connect(&addr);
        let mut out = Vec::new();
        for _ in 0..repeats {
            for (i, line) in grid.iter().enumerate() {
                cacheable_sent.fetch_add(1, Ordering::Relaxed);
                let (response, ms) = conn.roundtrip(line);
                assert_ok(&response, line);
                if in_process {
                    assert_eq!(
                        response, expected[i],
                        "warm response differs from cold response for {line}"
                    );
                }
                out.push(ms);
            }
        }
        out
    }));
    let warm_wall = warm_started.elapsed().as_secs_f64();
    let warm_rps = (opts.clients * repeats * grid.len()) as f64 / warm_wall;
    report_phase("warm", warm_rps, &warm);

    // Phase 3 — mixed closed loop: alternating warm expect hits and fresh
    // (uniquely seeded) run requests that always miss.
    let mixed_iters = if opts.quick { 16 } else { 64 };
    let mixed_started = Instant::now();
    let mixed: Vec<f64> = flatten(run_clients(&addr, opts.clients, |client| {
        let mut conn = Conn::connect(&addr);
        let mut out = Vec::new();
        for iter in 0..mixed_iters {
            let warm_line = &grid[(client + iter) % grid.len()];
            let seed = (client * mixed_iters + iter) as u64 + 1_000_000;
            let fresh_line = format!(
                "{{\"type\":\"run\",\"protocol\":\"epidemic\",\"n\":500,\"engine\":\"batched\",\
                 \"scenario\":\"single-source\",\"trials\":2,\"seed\":{seed}}}"
            );
            for line in [warm_line.as_str(), fresh_line.as_str()] {
                cacheable_sent.fetch_add(1, Ordering::Relaxed);
                let (response, ms) = conn.roundtrip(line);
                assert_ok(&response, line);
                out.push(ms);
            }
        }
        out
    }));
    let mixed_wall = mixed_started.elapsed().as_secs_f64();
    let mixed_rps = (opts.clients * mixed_iters * 2) as f64 / mixed_wall;
    report_phase("mixed", mixed_rps, &mixed);

    // Phase 4 — open-loop burst: every client pipelines a block of warm
    // lines without waiting, then drains the responses.
    let burst = if opts.quick { 64 } else { 256 };
    let burst_started = Instant::now();
    run_clients(&addr, opts.clients, |_client| {
        let mut conn = Conn::connect(&addr);
        for i in 0..burst {
            let line = &grid[i % grid.len()];
            cacheable_sent.fetch_add(1, Ordering::Relaxed);
            conn.writer.write_all(line.as_bytes()).expect("write");
            conn.writer.write_all(b"\n").expect("write");
        }
        conn.writer.flush().expect("flush");
        let mut response = String::new();
        for _ in 0..burst {
            response.clear();
            conn.reader.read_line(&mut response).expect("read");
            assert_ok(response.trim_end(), "burst");
        }
    });
    let burst_wall = burst_started.elapsed().as_secs_f64();
    let burst_rps = (opts.clients * burst) as f64 / burst_wall;
    println!("  burst  {burst_rps:9.0} req/s (open loop, {burst} pipelined per client)");

    // Counter reconciliation against the daemon's own books.
    let mut conn = Conn::connect(&addr);
    let (stats_line, _) = conn.roundtrip("{\"type\":\"stats\"}");
    let stats = bench::perf::parse(&stats_line).expect("stats response parses");
    let counter = |path: &[&str]| -> f64 {
        let mut value = stats.get("result").expect("stats result");
        for key in path {
            value = value.get(key).unwrap_or_else(|| panic!("stats field {key:?}"));
        }
        value.as_f64().unwrap_or_else(|| panic!("stats field {path:?} numeric"))
    };
    let (hits, misses) = (counter(&["cache", "hits"]), counter(&["cache", "misses"]));
    println!(
        "  cache: {hits:.0} hits / {misses:.0} misses ({} entries, {:.1} MiB), \
         queue high-water {:.0}, {:.0} overloads",
        counter(&["cache", "entries"]),
        counter(&["cache", "bytes"]) / (1 << 20) as f64,
        counter(&["queue", "highwater"]),
        counter(&["overloaded"]),
    );
    if in_process {
        let sent = cacheable_sent.load(Ordering::Relaxed) as f64;
        assert_eq!(
            hits + misses,
            sent,
            "cache counters must reconcile: hits + misses = cacheable requests"
        );
        assert_eq!(counter(&["overloaded"]), 0.0, "closed-loop phases must not overload");
    }

    let ratio = warm_rps / cold_rps;
    println!("  warm-vs-cold throughput ratio: {ratio:.1}x");
    assert!(
        ratio >= 10.0,
        "warm cache must be >= 10x cold throughput on the mcheck workload, got {ratio:.1}x"
    );

    let n = opts.clients;
    let rows = [
        phase_row("expect-cold", n, cold_rps, &cold_lat),
        phase_row("expect-warm", n, warm_rps, &warm),
        phase_row("mixed", n, mixed_rps, &mixed),
        Json::object([
            ("workload", "warm-burst".into()),
            ("n", n.into()),
            ("engine", "measure".into()),
            ("rps", burst_rps.into()),
        ]),
        Json::object([
            ("workload", "service-warm-vs-cold".into()),
            ("n", n.into()),
            ("engine", "speedup".into()),
            ("speedup", ratio.into()),
        ]),
    ];
    let fields = [
        ("schema", Json::from("bench_service/v1")),
        ("quick", opts.quick.into()),
        ("clients", n.into()),
        ("grid", grid.len().into()),
    ];
    write_bench(&opts.out, &fields, &rows);
    drop(server);
}

/// The distinct mcheck-backed `expect` grid: optimal-silent with mcheck
/// params at n=4 explores a ~1.5k-configuration reachable closure per cell
/// (tens of milliseconds of real solve work cold, one hash lookup warm).
/// Cells are homogeneous in cost and a multiple of the default client
/// count, so the cold phase packs the workers identically in quick and
/// full mode and the warm-vs-cold ratio stays comparable between them.
fn expect_grid(quick: bool) -> Vec<String> {
    const SCENARIOS: [&str; 6] =
        ["all-leader", "zero-leader", "all-unsettled", "near-silent-wrong", "mid-reset", "random"];
    let mut cells: Vec<(&str, u64)> = Vec::new();
    if quick {
        cells.extend(SCENARIOS.iter().map(|&s| (s, 0)));
        cells.push(("mid-reset", 1));
        cells.push(("random", 1));
    } else {
        for seed in 0..4u64 {
            cells.extend(SCENARIOS.iter().map(move |&s| (s, seed)));
        }
    }
    cells
        .into_iter()
        .map(|(scenario, seed)| {
            format!(
                "{{\"type\":\"expect\",\"protocol\":\"optimal-silent\",\"n\":4,\
                 \"scenario\":\"{scenario}\",\"seed\":{seed},\"params\":\"mcheck\"}}"
            )
        })
        .collect()
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to ppsimd");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { reader, writer: BufWriter::new(stream) }
    }

    fn roundtrip(&mut self, line: &str) -> (String, f64) {
        let started = Instant::now();
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        (response.trim_end().to_owned(), ms)
    }
}

fn assert_ok(response: &str, request: &str) {
    assert!(response.starts_with("{\"ok\":true"), "request failed: {request} -> {response}");
}

/// Runs `clients` copies of `body` in parallel and concatenates their
/// outputs.
fn run_clients<T: Send>(_addr: &str, clients: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let body = &body;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|c| scope.spawn(move || body(c))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

fn flatten<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    parts.into_iter().flatten().collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn percentiles(latencies: &[f64]) -> (f64, f64, f64) {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 50.0), percentile(&sorted, 95.0), percentile(&sorted, 99.0))
}

fn report_phase(name: &str, rps: f64, latencies: &[f64]) {
    let (p50, p95, p99) = percentiles(latencies);
    println!("  {name:6} {rps:9.0} req/s   p50 {p50:8.3} ms   p95 {p95:8.3} ms   p99 {p99:8.3} ms");
}

/// One closed-loop phase's row: throughput and latency percentiles.
fn phase_row(workload: &str, clients: usize, rps: f64, latencies: &[f64]) -> Json {
    let (p50, p95, p99) = percentiles(latencies);
    Json::object([
        ("workload", workload.into()),
        ("n", clients.into()),
        ("engine", "measure".into()),
        ("rps", rps.into()),
        ("p50_ms", p50.into()),
        ("p95_ms", p95.into()),
        ("p99_ms", p99.into()),
    ])
}
