//! A tiny-size run of every workload, untraced and traced, through the
//! built binary: each must exit 0, check every operation without a failure,
//! print exactly its declared metrics as the last line, and (traced) write a
//! Chrome trace that `bench::perf::validate_chrome_trace` accepts.

use std::path::{Path, PathBuf};
use std::process::Command;

use bench::perf::{self, Json};

const WORKLOADS: [&str; 3] = ["count-engines", "exact-protocols", "ppsimd-mixed"];

fn declared(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = perf::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric name").to_owned())
        .collect()
}

fn run(workload: &str, trace: bool, out_dir: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: exit {}\n{stderr}", output.status);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    let doc = perf::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true), "{workload}: {stderr}");
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(doc.get("attempted").and_then(Json::as_f64).is_some_and(|a| a >= 1.0));
    doc
}

fn metric_names(doc: &Json) -> Vec<String> {
    let metrics = doc.get("metrics").and_then(Json::as_object).expect("metrics object");
    metrics.keys().cloned().collect()
}

fn sorted(mut names: Vec<String>) -> Vec<String> {
    names.sort();
    names
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create the test output directory");
    dir
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected = sorted(declared("end_to_end"));
    let dir = out_dir("smoke-e2e");
    for workload in WORKLOADS {
        let doc = run(workload, false, &dir);
        assert_eq!(metric_names(&doc), expected, "{workload}");
        for (name, entry) in doc.get("metrics").and_then(Json::as_object).unwrap() {
            let value = entry.get("value").and_then(Json::as_f64).expect("numeric value");
            assert!(value.is_finite() && value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn every_traced_run_reports_every_layer_and_a_valid_trace() {
    let expected = sorted(declared("per_layer"));
    let dir = out_dir("smoke-trace");
    for workload in WORKLOADS {
        let doc = run(workload, true, &dir);
        assert_eq!(metric_names(&doc), expected, "{workload}");
        for (name, entry) in doc.get("metrics").and_then(Json::as_object).unwrap() {
            let value = entry.get("value").and_then(Json::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        let path = dir.join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&path).expect("the traced run writes its trace");
        let trace = perf::parse(&text).expect("the trace is JSON");
        let events = perf::validate_chrome_trace(&trace).expect("the trace validates");
        assert!(events > 0, "{workload}: empty trace");
    }
}
