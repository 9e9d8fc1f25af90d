//! The metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units
//! and directions; a test keeps the two in step.

use std::collections::BTreeMap;

use bench::perf::{self, Json};

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger is better (throughput, hit fraction).
    Higher,
    /// Smaller is better (latency, cost, memory).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as in `ms`, `1/s` or `count`.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off and reported by every
/// workload. Each workload runs three phases, `a`, `b` and `c`; the phase
/// metrics mean what that workload's phase table in `README.md` says.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("wall_s", "s", Lower),
    m("peak_rss_mb", "MiB", Lower),
    m("ops_per_s", "1/s", Higher),
    m("phase_a_per_s", "1/s", Higher),
    m("phase_b_per_s", "1/s", Higher),
    m("phase_c_per_s", "1/s", Higher),
    m("phase_a_p50_ms", "ms", Lower),
    m("phase_b_p50_ms", "ms", Lower),
    m("phase_c_p50_ms", "ms", Lower),
    m("phase_a_tail_ms", "ms", Lower),
    m("phase_b_tail_ms", "ms", Lower),
    m("phase_c_tail_ms", "ms", Lower),
];

/// Per-layer metrics, reported by every workload's traced run. Counts and
/// span times are per traced round; a layer the workload bypasses reads 0,
/// its unit costs included.
pub const PER_LAYER: &[Metric] = &[
    m("sampling.null_run_ns", "ns", Lower),
    m("sampling.hypergeometric_ns", "ns", Lower),
    m("sampling.neg_binomial_ns", "ns", Lower),
    m("batched.transitions", "count", Lower),
    m("batched.nulls_skipped", "count", Higher),
    m("batched.fenwick_rebuilds", "count", Lower),
    m("batched.epochs_opened", "count", Lower),
    m("batched.batch_draws", "count", Lower),
    m("batched.truncation_frac", "ratio", Lower),
    m("batched.ns_per_transition", "ns", Lower),
    m("batched.epoch_draw_ms", "ms", Lower),
    m("batched.epoch_apply_ms", "ms", Lower),
    m("interned.intern_hit_ns", "ns", Lower),
    m("interned.interner_growths", "count", Lower),
    m("interned.ns_per_transition", "ns", Lower),
    m("exact.ns_per_interaction.optsilent", "ns", Lower),
    m("exact.ns_per_interaction.sublinear", "ns", Lower),
    m("exact.silence_checks", "count", Lower),
    m("exact.silence_check_ms", "ms", Lower),
    m("ssle.silent_n_state.transition_ns", "ns", Lower),
    m("ssle.optimal_silent.transition_ns", "ns", Lower),
    m("ssle.sublinear.transition_ns", "ns", Lower),
    m("ssle.sublinear.clone_ns", "ns", Lower),
    m("ssle.sublinear.hash_ns", "ns", Lower),
    m("ssle.sublinear.is_null_ns", "ns", Lower),
    m("mcheck.frontier_pops", "count", Lower),
    m("mcheck.gs_sweeps", "count", Lower),
    m("mcheck.ns_per_frontier_pop", "ns", Lower),
    m("mcheck.closure_explore_ms", "ms", Lower),
    m("mcheck.solver_sweep_ms", "ms", Lower),
    m("ppsimd.parse_ns", "ns", Lower),
    m("ppsimd.canonical_ns", "ns", Lower),
    m("ppsimd.cache_get_ns", "ns", Lower),
    m("ppsimd.cache_insert_ns", "ns", Lower),
    m("ppsimd.serialize_ns", "ns", Lower),
    m("ppsimd.execute_ms.run", "ms", Lower),
    m("ppsimd.execute_ms.expect", "ms", Lower),
    m("ppsimd.queue_wait_ms", "ms", Lower),
    m("ppsimd.cache_hit_frac", "ratio", Higher),
    m("ppsimd.overloaded", "count", Lower),
    m("ppsimd.queue_highwater", "count", Lower),
    m("ledger.explained_frac", "ratio", Higher),
    m("trace.overhead_frac", "ratio", Lower),
    m("calib.chacha8_ns.start", "ns", Lower),
    m("calib.chacha8_ns.end", "ns", Lower),
];

/// The final line of a run: `{"correct", "attempted", "failed", "metrics"}`
/// with each metric as `{"value", "unit"}`.
///
/// # Panics
///
/// Panics when `values` misses a declared metric or carries an undeclared
/// one: a result line always covers exactly its metric set.
pub fn result_line(
    declared: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
) -> String {
    let mut metrics = BTreeMap::new();
    for metric in declared {
        let value = *values
            .get(metric.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
        let mut entry = BTreeMap::new();
        entry.insert("value".to_owned(), Json::Num(value));
        entry.insert("unit".to_owned(), Json::Str(metric.unit.to_owned()));
        metrics.insert(metric.name.to_owned(), Json::Obj(entry));
    }
    assert_eq!(metrics.len(), values.len(), "undeclared metric in {:?}", values.keys());
    let mut top = BTreeMap::new();
    top.insert("correct".to_owned(), Json::Bool(failed == 0));
    top.insert("attempted".to_owned(), Json::Num(attempted as f64));
    top.insert("failed".to_owned(), Json::Num(failed as f64));
    top.insert("metrics".to_owned(), Json::Obj(metrics));
    perf::to_string(&Json::Obj(top))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad metric name {:?}", metric.name);
            assert!(seen.insert(metric.name), "duplicate metric name {:?}", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                metric.unit
            );
        }
    }

    /// The registry and `BENCHMARK.json` declare the same metrics, in the
    /// same order, with the same units and directions.
    #[test]
    fn registry_agrees_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = perf::parse(&text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Json::as_array).expect("metric list");
            let names: Vec<&str> =
                declared.iter().map(|d| d.get("name").and_then(Json::as_str).unwrap()).collect();
            let expected: Vec<&str> = registry.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{key} names");
            for (entry, metric) in declared.iter().zip(registry) {
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(metric.better.label()));
            }
        }
        let setup = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .and_then(|e| {
                e.iter().find(|d| d.get("name").and_then(Json::as_str) == Some("setup_s"))
            })
            .expect("setup_s is declared");
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|d| d.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        let setup_bound = setup.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25 && b <= setup_bound));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: BTreeMap<&str, f64> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(END_TO_END, &values, 7, 0);
        let doc = perf::parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
