//! Drives the built binary: the smoke-sized suite end to end (daemon over
//! TCP, checker, shadow replay, trace files) and the names `list` prints
//! against `BENCHMARK.json`. Structure and `failed == 0` only — never timings.

use serde::Value;
use std::path::Path;
use std::process::Command;

fn bench_e2e(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(args)
        .output()
        .expect("the bench_e2e binary runs");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_map()
        .and_then(|m| serde::map_get(m, key))
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

/// `(first word, rest)` of the `list` lines that start with `section`.
fn listed(list: &str, section: &str) -> Vec<(String, String)> {
    list.lines()
        .filter_map(|line| line.strip_prefix(section)?.strip_prefix(' '))
        .map(|rest| {
            let (name, tail) = rest.split_once(' ').expect("name, then unit or why");
            (name.to_string(), tail.to_string())
        })
        .collect()
}

fn declared_pairs(doc: &Value, section: &str, second: &str) -> Vec<(String, String)> {
    get(doc, section)
        .as_seq()
        .expect("an array")
        .iter()
        .map(|row| {
            let text = |key| get(row, key).as_str().expect("a string").to_string();
            (text("name"), text(second))
        })
        .collect()
}

#[test]
fn list_equals_benchmark_json() {
    let (ok, list) = bench_e2e(&["list"]);
    assert!(ok);
    let doc = declared();
    assert_eq!(
        listed(&list, "workload"),
        declared_pairs(&doc, "workloads", "why")
    );
    assert_eq!(
        listed(&list, "end_to_end"),
        declared_pairs(&doc, "end_to_end", "unit")
    );
    assert_eq!(
        listed(&list, "per_layer"),
        declared_pairs(&doc, "per_layer", "unit")
    );
}

#[test]
fn smoke_suite_runs_clean() {
    let (ok, out) = bench_e2e(&["run", "--smoke", "--trace", "--seed", "7"]);
    assert!(ok, "a smoke workload failed its checker:\n{out}");
    let document: Value =
        serde_json::from_str(out.lines().last().expect("output")).expect("a JSON document last");
    for key in ["commit", "rustc", "nproc", "pool_workers", "seed"] {
        get(&document, key);
    }
    let doc = declared();
    let workloads = get(&document, "workloads").as_map().expect("a map");
    assert_eq!(
        workloads
            .iter()
            .map(|(name, _)| name.clone())
            .collect::<Vec<_>>(),
        declared_pairs(&doc, "workloads", "why")
            .into_iter()
            .map(|(name, _)| name)
            .collect::<Vec<_>>()
    );
    for (name, report) in workloads {
        assert_eq!(get(report, "failed"), &Value::UInt(0), "{name}");
        assert!(
            get(report, "validated_schedules") != &Value::UInt(0),
            "{name}"
        );
        for section in ["end_to_end", "per_layer"] {
            let mut got: Vec<String> = get(report, section)
                .as_map()
                .expect("a map")
                .iter()
                .map(|(metric, entry)| {
                    assert!(get(entry, "n") != &Value::UInt(0), "{name} {metric}");
                    metric.clone()
                })
                .collect();
            let mut want: Vec<String> = declared_pairs(&doc, section, "unit")
                .into_iter()
                .map(|(metric, _)| metric)
                .collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{name} {section}");
        }
        // One span per line, each with the five fields the layer table needs.
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/{name}.smoke.trace.jsonl"));
        let trace = std::fs::read_to_string(&trace).expect("the traced pass wrote its spans");
        assert!(trace.lines().count() > 10, "{name}");
        for line in trace.lines() {
            let span: Value = serde_json::from_str(line).expect("a JSON span");
            for key in ["name", "start_us", "end_us", "parent", "request"] {
                get(&span, key);
            }
        }
    }
}
