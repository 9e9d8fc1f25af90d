//! Protocol-conformance tests for the `ppsimd` wire protocol.
//!
//! Every malformed input — invalid JSON, unknown request types, bad field
//! shapes, oversized lines, truncated frames, mid-request disconnects —
//! must produce a *typed* error response (never a panic, never a hung
//! connection), and serialize∘parse must be the identity on generated
//! request and response values.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use bench::perf::Json;
use ppsim::batched::Engine;
use ppsimd::proto::{
    ChurnKind, ChurnSpec, ExpectSpec, FaultSpec, ParamsId, ProtocolId, RunSpec, ScheduleSpec,
    SchedulerSpec, VerifySpec, MAX_SWEEP_ITEMS,
};
use ppsimd::{serve, ErrorKind, Request, Response, Server, ServerConfig};
use proptest::prelude::*;

/// Parses a line and returns the typed error kind it must produce.
fn reject(line: &str) -> ErrorKind {
    Request::parse_line(line).expect_err("line should be rejected").kind
}

// ---------------------------------------------------------------------------
// Parse-level typed errors
// ---------------------------------------------------------------------------

#[test]
fn invalid_json_is_a_parse_error() {
    for line in ["", "{nope", "[1, 2", "{\"type\": \"run\"", "tru", "\"unterminated"] {
        assert_eq!(reject(line), ErrorKind::Parse, "line {line:?}");
    }
}

#[test]
fn duplicate_keys_are_a_parse_error() {
    assert_eq!(reject(r#"{"type":"stats","type":"stats"}"#), ErrorKind::Parse);
}

#[test]
fn non_object_json_is_a_bad_request() {
    for line in ["42", "[]", "null", "true", "\"run\""] {
        assert_eq!(reject(line), ErrorKind::BadRequest, "line {line:?}");
    }
}

#[test]
fn missing_or_mistyped_type_field_is_a_bad_request() {
    assert_eq!(reject("{}"), ErrorKind::BadRequest);
    assert_eq!(reject(r#"{"n": 10}"#), ErrorKind::BadRequest);
    assert_eq!(reject(r#"{"type": 7}"#), ErrorKind::BadRequest);
    assert_eq!(reject(r#"{"type": null}"#), ErrorKind::BadRequest);
}

#[test]
fn unknown_request_types_are_typed() {
    for kind in ["frobnicate", "RUN", "run ", "shutdown", ""] {
        let line = format!(r#"{{"type": {:?}}}"#, kind);
        assert_eq!(reject(&line), ErrorKind::UnknownType, "type {kind:?}");
    }
}

#[test]
fn unknown_fields_are_rejected() {
    assert_eq!(reject(r#"{"type":"stats","extra":1}"#), ErrorKind::BadRequest);
    assert_eq!(
        reject(r#"{"type":"run","protocol":"epidemic","n":10,"turbo":true}"#),
        ErrorKind::BadRequest
    );
    assert_eq!(
        reject(r#"{"type":"verify","protocol":"coupon","n":3,"seed":0}"#),
        ErrorKind::BadRequest,
        "verify takes no seed"
    );
}

#[test]
fn run_field_validation_is_typed() {
    let bad = [
        r#"{"type":"run","n":10}"#,                             // missing protocol
        r#"{"type":"run","protocol":"teleport","n":10}"#,       // unknown protocol
        r#"{"type":"run","protocol":"epidemic"}"#,              // missing n
        r#"{"type":"run","protocol":"epidemic","n":1}"#,        // n too small
        r#"{"type":"run","protocol":"epidemic","n":10000001}"#, // n too large
        r#"{"type":"run","protocol":"epidemic","n":2.5}"#,      // non-integer n
        r#"{"type":"run","protocol":"epidemic","n":-4}"#,       // negative n
        r#"{"type":"run","protocol":"epidemic","n":"10"}"#,     // stringly n
        r#"{"type":"run","protocol":"epidemic","n":10,"trials":0}"#, // zero trials
        r#"{"type":"run","protocol":"epidemic","n":10,"trials":10001}"#, // too many trials
        r#"{"type":"run","protocol":"epidemic","n":10,"budget":0}"#, // zero budget
        r#"{"type":"run","protocol":"epidemic","n":10,"engine":"warp"}"#, // unknown engine
        r#"{"type":"run","protocol":"epidemic","n":10,"scheduler":"mesh"}"#, // unknown scheduler
        r#"{"type":"run","protocol":"epidemic","n":10,"scheduler":"random-0-regular"}"#,
        r#"{"type":"run","protocol":"epidemic","n":10,"params":"exotic"}"#, // unknown params
    ];
    for line in bad {
        assert_eq!(reject(line), ErrorKind::BadRequest, "line {line}");
    }
}

#[test]
fn fault_and_churn_plan_validation_is_typed() {
    let base = r#""type":"run","protocol":"epidemic","n":10"#;
    let bad = [
        format!(r#"{{{base},"faults":7}}"#),
        format!(r#"{{{base},"faults":{{"k":2,"state":0}}}}"#), // missing schedule
        format!(r#"{{{base},"faults":{{"schedule":"sometimes","k":2,"state":0}}}}"#),
        format!(r#"{{{base},"faults":{{"schedule":"one-shot","at":5,"k":0,"state":0}}}}"#),
        format!(r#"{{{base},"faults":{{"schedule":"one-shot","at":5,"k":2}}}}"#), // missing state
        format!(
            r#"{{{base},"faults":{{"schedule":"periodic","start":0,"period":0,"events":3,"k":2,"state":0}}}}"#
        ),
        format!(
            r#"{{{base},"faults":{{"schedule":"periodic","start":0,"period":5,"events":0,"k":2,"state":0}}}}"#
        ),
        format!(
            r#"{{{base},"faults":{{"schedule":"poisson","mean-gap":0,"horizon":100,"k":2,"state":0}}}}"#
        ),
        // One-shot plans must not smuggle periodic fields.
        format!(
            r#"{{{base},"faults":{{"schedule":"one-shot","at":5,"period":9,"k":2,"state":0}}}}"#
        ),
        format!(
            r#"{{{base},"churn":{{"schedule":"one-shot","at":5,"action":"emigrate","count":1}}}}"#
        ),
        // join/replace require a state, leave forbids one.
        format!(r#"{{{base},"churn":{{"schedule":"one-shot","at":5,"action":"join","count":1}}}}"#),
        format!(
            r#"{{{base},"churn":{{"schedule":"one-shot","at":5,"action":"replace","count":1}}}}"#
        ),
        format!(
            r#"{{{base},"churn":{{"schedule":"one-shot","at":5,"action":"leave","count":1,"state":0}}}}"#
        ),
        format!(
            r#"{{{base},"churn":{{"schedule":"one-shot","at":5,"action":"leave","count":0}}}}"#
        ),
    ];
    for line in &bad {
        assert_eq!(reject(line), ErrorKind::BadRequest, "line {line}");
    }
}

#[test]
fn sweep_shape_validation_is_typed() {
    let bad = [
        r#"{"type":"sweep"}"#.to_owned(),
        r#"{"type":"sweep","requests":{}}"#.to_owned(),
        r#"{"type":"sweep","requests":[]}"#.to_owned(),
        // No nesting: sweeps and stats may not appear inside a sweep.
        r#"{"type":"sweep","requests":[{"type":"sweep","requests":[]}]}"#.to_owned(),
        r#"{"type":"sweep","requests":[{"type":"stats"}]}"#.to_owned(),
        format!(
            r#"{{"type":"sweep","requests":[{}]}}"#,
            vec![r#"{"type":"stats"}"#; MAX_SWEEP_ITEMS + 1].join(",")
        ),
    ];
    for line in &bad {
        assert_eq!(reject(line), ErrorKind::BadRequest, "line {line:.120}");
    }
}

#[test]
fn seeds_beyond_the_float_safe_range_are_rejected() {
    // 2^53 + 2 is representable as f64 but outside the integer-exact range
    // the wire format guarantees; the parser must refuse it rather than
    // silently round.
    let line = r#"{"type":"expect","protocol":"coupon","n":4,"seed":9007199254740994}"#;
    assert_eq!(reject(line), ErrorKind::BadRequest);
}

// ---------------------------------------------------------------------------
// Fault and churn aggregates of executed `run` requests
// ---------------------------------------------------------------------------

/// Executes one request line in-process and returns its result payload.
fn run_ok(line: &str) -> Json {
    let request = Request::parse_line(line).expect("request parses");
    match ppsimd::exec::execute(&request).0 {
        Response::Ok { result, .. } => result,
        Response::Err(err) => panic!("request should succeed: {err:?}"),
    }
}

#[test]
fn fault_aggregates_count_bursts_in_a_churned_run() {
    // The burst at 2000 and the join at 8000 are far enough apart for
    // fratricide at n = 30 to re-silence after each.
    let result = run_ok(
        r#"{"type":"run","protocol":"fratricide","n":30,"engine":"batched","scenario":"all-leader","trials":3,"seed":4,"faults":{"schedule":"one-shot","at":2000,"k":5,"state":0},"churn":{"schedule":"one-shot","at":8000,"action":"join","count":3,"state":0}}"#,
    );
    let faults = result.get("faults").expect("fault aggregates");
    let finals = faults.get("final-recovery-parallel").and_then(Json::as_array).unwrap();
    assert_eq!(finals.len(), 3, "one final recovery per trial: {faults:?}");
    assert!(finals.iter().all(|t| t.as_f64().is_some_and(|t| t >= 0.0)), "{faults:?}");
    let recovered = faults.get("recovered-trials").and_then(Json::as_f64).unwrap();
    assert!(recovered > 0.0, "re-silenced trials must count as recovered: {faults:?}");
    let churn = result.get("churn").expect("churn aggregates");
    assert_eq!(churn.get("restabilized-trials").and_then(Json::as_f64), Some(3.0));
}

#[test]
fn fault_plans_run_under_graph_schedulers_on_the_exact_engine() {
    let result = run_ok(
        r#"{"type":"run","protocol":"fratricide","n":20,"engine":"exact","scheduler":"ring","scenario":"all-leader","trials":3,"seed":2,"faults":{"schedule":"one-shot","at":3000,"k":4,"state":0}}"#,
    );
    assert_eq!(result.get("silent-trials").and_then(Json::as_f64), Some(3.0), "{result:?}");
    let faults = result.get("faults").expect("fault aggregates");
    let finals = faults.get("final-recovery-parallel").and_then(Json::as_array).unwrap();
    assert_eq!(finals.len(), 3, "{faults:?}");
}

// ---------------------------------------------------------------------------
// Wire-level framing errors against a live server
// ---------------------------------------------------------------------------

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { reader, stream }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
        self.stream.flush().expect("flush");
    }

    fn read_response(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed the connection without responding");
        Response::parse_line(line.trim_end()).expect("response should parse")
    }

    fn roundtrip(&mut self, line: &str) -> Response {
        self.send_raw(format!("{line}\n").as_bytes());
        self.read_response()
    }

    fn read_eof(&mut self) -> bool {
        let mut line = String::new();
        self.reader.read_line(&mut line).map(|n| n == 0).unwrap_or(false)
    }
}

fn error_kind(response: &Response) -> Option<ErrorKind> {
    match response {
        Response::Ok { .. } => None,
        Response::Err(err) => Some(err.kind),
    }
}

fn small_server() -> Server {
    serve(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        max_line_bytes: 256,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral server")
}

#[test]
fn oversized_lines_get_a_typed_error_then_close() {
    let server = small_server();
    let mut client = Client::connect(&server);
    let mut garbage = vec![b'x'; 4096];
    garbage.push(b'\n');
    client.send_raw(&garbage);
    let response = client.read_response();
    assert_eq!(error_kind(&response), Some(ErrorKind::OversizedLine));
    assert!(client.read_eof(), "connection should close after an oversized line");
    server.shutdown();
}

#[test]
fn truncated_frames_get_a_typed_error() {
    let server = small_server();
    let mut client = Client::connect(&server);
    client.send_raw(br#"{"type":"sta"#);
    client.stream.shutdown(Shutdown::Write).expect("half-close");
    let response = client.read_response();
    assert_eq!(error_kind(&response), Some(ErrorKind::TruncatedFrame));
    server.shutdown();
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let server = small_server();
    let mut client = Client::connect(&server);
    assert_eq!(error_kind(&client.roundtrip("{oops")), Some(ErrorKind::Parse));
    assert_eq!(error_kind(&client.roundtrip(r#"{"type":"warp"}"#)), Some(ErrorKind::UnknownType));
    assert_eq!(
        error_kind(&client.roundtrip(r#"{"type":"stats","x":1}"#)),
        Some(ErrorKind::BadRequest)
    );
    // The same connection still serves well-formed requests afterwards.
    let response = client.roundtrip(r#"{"type":"stats"}"#);
    assert_eq!(error_kind(&response), None, "stats should succeed: {response:?}");
    server.shutdown();
}

#[test]
fn blank_lines_are_skipped_not_answered() {
    let server = small_server();
    let mut client = Client::connect(&server);
    client.send_raw(b"\n  \r\n{\"type\":\"stats\"}\n");
    let response = client.read_response();
    assert_eq!(error_kind(&response), None, "first response should answer stats");
    server.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_the_server_responsive() {
    let server = small_server();
    for _ in 0..3 {
        let mut client = Client::connect(&server);
        client.send_raw(br#"{"type":"run","protoc"#);
        drop(client); // vanish mid-request, newline never sent
    }
    let mut client = Client::connect(&server);
    let response = client.roundtrip(r#"{"type":"stats"}"#);
    assert_eq!(error_kind(&response), None, "server should still answer: {response:?}");
    server.shutdown();
}

#[test]
fn checker_capacity_overruns_are_typed_unsupported_with_the_detail() {
    // n = 60 parses fine (the wire guard admits it) but the verify lattice
    // C(119, 59) is astronomically over the checker's configuration guard:
    // the response must be the typed `unsupported` error carrying the
    // capacity detail — never `internal`, never a hang or a panic.
    let server = small_server();
    let mut client = Client::connect(&server);
    let response = client.roundtrip(r#"{"type":"verify","protocol":"silent-n-state","n":60}"#);
    match &response {
        Response::Err(err) => {
            assert_eq!(err.kind, ErrorKind::Unsupported, "capacity is unsupported: {err:?}");
            assert!(
                err.message.contains("configurations") && err.message.contains("guard"),
                "message must carry the capacity detail: {:?}",
                err.message
            );
        }
        Response::Ok { .. } => panic!("a 10^34-configuration verify cannot succeed"),
    }
    // The same connection still serves supportable requests afterwards.
    let response = client.roundtrip(r#"{"type":"verify","protocol":"fratricide","n":16}"#);
    assert_eq!(error_kind(&response), None, "in-capacity verify should succeed: {response:?}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Round-trip properties: serialize ∘ parse = identity
// ---------------------------------------------------------------------------

const SCENARIOS: [&str; 4] = ["random", "all-leader", "zero-leader", "wörst \"case\"\n\t"];

fn schedule_from(selector: usize, at: u64, period: u64, events: u64) -> ScheduleSpec {
    match selector % 3 {
        0 => ScheduleSpec::OneShot { at },
        1 => ScheduleSpec::Periodic { start: at, period, events: events as u32 },
        _ => ScheduleSpec::Poisson { mean_gap: period, horizon: at },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_requests_round_trip(
        proto in 0usize..5,
        n in 2usize..1_000_000,
        engine in 0usize..3,
        scenario in 0usize..4,
        trials in 1usize..64,
        seed in 0u64..=(1u64 << 53),
        budget in 1u64..=(1u64 << 53),
        scheduler in 0usize..6,
        degree in 1usize..16,
        plan in 0usize..4,
        sched_sel in (0usize..3, 0usize..3),
        at in 0u64..1_000_000,
        period in 1u64..100_000,
        events in 1u64..1_000,
        k in 1usize..32,
        state in 0usize..8,
        action in 0usize..3,
        count in 1usize..16,
        mcheck_params in any::<bool>(),
    ) {
        let action = [ChurnKind::Join, ChurnKind::Leave, ChurnKind::Replace][action];
        let spec = RunSpec {
            protocol: ProtocolId::ALL[proto],
            n,
            engine: [Engine::Exact, Engine::Batched, Engine::BatchedCounts][engine],
            scenario: SCENARIOS[scenario].to_owned(),
            trials,
            seed,
            budget,
            scheduler: match scheduler {
                0 | 1 => SchedulerSpec::Uniform,
                2 => SchedulerSpec::Ring,
                3 => SchedulerSpec::Star,
                _ => SchedulerSpec::RandomRegular(degree),
            },
            faults: (plan & 1 != 0).then(|| FaultSpec {
                schedule: schedule_from(sched_sel.0, at, period, events),
                k,
                state,
            }),
            churn: (plan & 2 != 0).then(|| ChurnSpec {
                schedule: schedule_from(sched_sel.1, at, period, events),
                action,
                count,
                state: match action {
                    ChurnKind::Leave => None,
                    ChurnKind::Join | ChurnKind::Replace => Some(state),
                },
            }),
            params: if mcheck_params { ParamsId::MCheck } else { ParamsId::Paper },
            trace: plan & 3 == 3,
        };
        let request = Request::Run(spec);
        let reparsed = Request::parse_line(&request.canonical_text());
        prop_assert_eq!(reparsed, Ok(request));
    }

    #[test]
    fn expect_and_verify_requests_round_trip(
        proto in 0usize..5,
        n in 2usize..1_000_000,
        scenario in 0usize..4,
        seed in 0u64..=(1u64 << 53),
        mcheck_params in any::<bool>(),
    ) {
        let params = if mcheck_params { ParamsId::MCheck } else { ParamsId::Paper };
        let expect = Request::Expect(ExpectSpec {
            protocol: ProtocolId::ALL[proto],
            n,
            scenario: SCENARIOS[scenario].to_owned(),
            seed,
            params,
        });
        let verify = Request::Verify(VerifySpec { protocol: ProtocolId::ALL[proto], n, params });
        for request in [expect, verify, Request::Stats] {
            let reparsed = Request::parse_line(&request.canonical_text());
            prop_assert_eq!(reparsed, Ok(request));
        }
    }

    #[test]
    fn sweep_requests_round_trip(
        protos in proptest::collection::vec(0usize..5, 1..6),
        n in 2usize..10_000,
        seed in 0u64..=(1u64 << 53),
    ) {
        let items: Vec<Request> = protos
            .iter()
            .map(|&p| {
                Request::Expect(ExpectSpec {
                    protocol: ProtocolId::ALL[p],
                    n,
                    scenario: "random".to_owned(),
                    seed,
                    params: ParamsId::MCheck,
                })
            })
            .collect();
        let request = Request::Sweep(items);
        let reparsed = Request::parse_line(&request.canonical_text());
        prop_assert_eq!(reparsed, Ok(request));
    }

    #[test]
    fn canonical_text_is_a_fixed_point(
        proto in 0usize..5,
        n in 2usize..1_000_000,
        seed in 0u64..=(1u64 << 53),
    ) {
        let request = Request::Expect(ExpectSpec {
            protocol: ProtocolId::ALL[proto],
            n,
            scenario: "random".to_owned(),
            seed,
            params: ParamsId::MCheck,
        });
        let canonical = request.canonical_text();
        let reparsed = Request::parse_line(&canonical).expect("canonical text parses");
        prop_assert_eq!(reparsed.canonical_text(), canonical);
    }

    #[test]
    fn ok_responses_round_trip(
        kind in 0usize..5,
        num in 0i64..1_000_000_000,
        flag in any::<bool>(),
        text in 0usize..4,
        elems in proptest::collection::vec(0u32..1_000, 0..5),
    ) {
        let mut inner = BTreeMap::new();
        inner.insert("num".to_owned(), Json::Num(num as f64));
        inner.insert("flag".to_owned(), Json::Bool(flag));
        inner.insert("text".to_owned(), Json::Str(SCENARIOS[text].to_owned()));
        inner.insert("none".to_owned(), Json::Null);
        inner.insert(
            "elems".to_owned(),
            Json::Arr(elems.iter().map(|&e| Json::Num(e as f64)).collect()),
        );
        let kind = ["run", "expect", "verify", "sweep", "stats"][kind];
        let response = Response::ok(kind, Json::Obj(inner));
        let reparsed = Response::parse_line(&response.to_line());
        prop_assert_eq!(reparsed, Ok(response));
    }

    #[test]
    fn error_responses_round_trip(kind in 0usize..8, message in 0usize..4) {
        let kind = [
            ErrorKind::Parse,
            ErrorKind::BadRequest,
            ErrorKind::UnknownType,
            ErrorKind::OversizedLine,
            ErrorKind::TruncatedFrame,
            ErrorKind::Overloaded,
            ErrorKind::Unsupported,
            ErrorKind::Internal,
        ][kind];
        let response = Response::error(kind, SCENARIOS[message]);
        let reparsed = Response::parse_line(&response.to_line());
        prop_assert_eq!(reparsed, Ok(response));
    }
}
