//! Smoke test of the benchmark at tiny scale: every workload, untraced
//! and traced, must finish, answer correctly, and report exactly the
//! metrics `BENCHMARK.json` declares for its mode.

use std::path::Path;
use std::process::Command;

fn declared(section: &str) -> Vec<String> {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// Metric names of a result line: every `"<name>":{"value":` key.
fn reported(line: &str) -> Vec<String> {
    line.match_indices(":{\"value\":")
        .map(|(i, _)| {
            let head = &line[..i - 1];
            head[head.rfind('"').expect("opening quote") + 1..].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run vbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("result line").to_string()
}

fn check(workload: &str) {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for trace in [false, true] {
        let line = run(workload, trace);
        assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
        assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
        // Every workload reports every declared metric of the mode, and
        // nothing else.
        let mut names = reported(&line);
        let mut want = if trace { layers.clone() } else { e2e.clone() };
        names.sort();
        want.sort();
        assert_eq!(names, want, "{workload} trace={trace}: {line}");
    }
}

#[test]
fn serve_knn() {
    check("serve-knn");
}

#[test]
fn ingest_mixed() {
    check("ingest-mixed");
}

#[test]
fn cluster_hybrid() {
    check("cluster-hybrid");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_vbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run vbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
