//! Smoke test: each workload runs once, untraced and traced, at tiny
//! seed-generated sizes, and must print every metric `BENCHMARK.json` names
//! with its unit and report no failed operation.

use qcm_obs::json::Json;
use std::path::Path;
use std::process::Command;

fn benchmark_spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// Runs the benchmark binary the way the benchmark command does, at tiny
/// scale, and returns its last stdout line parsed.
fn run(workload: &str, trace: bool) -> Json {
    let data_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_qcm-perf"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--data-dir")
        .arg(&data_dir)
        .output()
        .expect("running qcm-perf");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!data_dir.exists(), "the data directory is removed");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

fn check_workload(workload: &str) {
    let spec = benchmark_spec();
    let listed = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads array")
        .iter()
        .any(|w| w.get("name").and_then(Json::as_str) == Some(workload));
    assert!(listed, "{workload} is listed in BENCHMARK.json");
    for (trace, table) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                >= 1.0
        );
        let metrics = result.get("metrics").expect("metrics object");
        let Json::Object(printed) = metrics else {
            panic!("metrics is not an object");
        };
        let expected = spec
            .get(table)
            .and_then(Json::as_array)
            .expect("metric table");
        assert_eq!(
            printed.len(),
            expected.len(),
            "{workload} {table}: exactly the listed metrics"
        );
        for entry in expected {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .expect("metric name");
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric unit");
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(unit),
                "{name}"
            );
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}: {name} has no numeric value"));
            if !trace {
                assert!(
                    value > 0.0,
                    "{workload}: end-to-end metric {name} is {value}"
                );
            }
        }
        if trace {
            let failed_frac = metrics.get("failed_frac").and_then(|m| m.get("value"));
            assert_eq!(failed_frac.and_then(Json::as_f64), Some(0.0));
            let dropped = metrics
                .get("obs.spans_dropped")
                .and_then(|m| m.get("value"));
            assert_eq!(dropped.and_then(Json::as_f64), Some(0.0));
        }
    }
}

#[test]
fn mine_hardcore_prints_every_metric_without_failures() {
    check_workload("mine_hardcore");
}

#[test]
fn mine_sparse_prints_every_metric_without_failures() {
    check_workload("mine_sparse");
}

#[test]
fn serve_mixed_prints_every_metric_without_failures() {
    check_workload("serve_mixed");
}
