//! Smoke test of the benchmark on the quick-profile trace (the smallest
//! the workload generator makes): every workload, untraced and traced,
//! must emit every metric `BENCHMARK.json` names with no failed
//! operation, every per-layer metric must say what it should move, and a
//! corrupted reference report must count as a failed operation.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use certchain_obs::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn load(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name` of every entry of `BENCHMARK.json`'s list `key`.
fn names(benchmark: &JsonValue, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The target directory this test was built into.
fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_perfbench"))
        .parent()
        .and_then(Path::parent)
        .expect("<target>/<profile>/perfbench")
        .to_path_buf()
}

/// Build the release `certchain` binary into the same target directory.
fn certchain() -> PathBuf {
    let target = target_dir();
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .args(["-p", "certchain-cli", "--bin", "certchain"])
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("running cargo");
    assert!(status.success(), "building certchain failed");
    target.join("release").join("certchain")
}

/// Run one smoke workload; returns the parsed last line of its output.
fn run(certchain: &Path, workload: &str, trace: bool, extra: &[&str]) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--certchain")
        .arg(certchain)
        .arg("--build-dir")
        .arg(target_dir().join("perfbench-smoke"))
        .args(extra)
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

fn count(result: &JsonValue, key: &str) -> u64 {
    result.get(key).and_then(JsonValue::as_u64).expect(key)
}

#[test]
fn every_workload_emits_every_metric_and_corruption_fails() {
    let root = repo_root();
    let benchmark = load(&root.join("BENCHMARK.json"));
    let layer_map = load(&root.join("perfbench").join("metrics.json"));
    let per_layer = names(&benchmark, "per_layer");
    for name in &per_layer {
        assert!(
            layer_map
                .get("per_layer")
                .and_then(|m| m.get(name))
                .is_some(),
            "perfbench/metrics.json does not say what {name} should move"
        );
    }
    for name in names(&benchmark, "end_to_end") {
        assert!(
            layer_map
                .get("end_to_end")
                .and_then(|m| m.get(&name))
                .is_some(),
            "perfbench/metrics.json does not define {name}"
        );
    }

    let certchain = certchain();
    for workload in names(&benchmark, "workloads") {
        for (trace, wanted) in [
            (false, names(&benchmark, "end_to_end")),
            (true, per_layer.clone()),
        ] {
            let result = run(&certchain, &workload, trace, &[]);
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{workload} (trace {trace}) was not correct"
            );
            assert!(count(&result, "attempted") >= 1);
            assert_eq!(count(&result, "failed"), 0, "{workload} (trace {trace})");
            let metrics = result.get("metrics").expect("metrics");
            for name in &wanted {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} (trace {trace}) did not emit {name}"));
                assert!(metric.get("value").and_then(JsonValue::as_f64).is_some());
                assert!(metric.get("unit").and_then(JsonValue::as_str).is_some());
            }
        }
        let corrupted = run(&certchain, &workload, false, &["--corrupt-reference"]);
        assert_eq!(
            corrupted.get("correct"),
            Some(&JsonValue::Bool(false)),
            "{workload}: a corrupted reference went unnoticed"
        );
        assert!(count(&corrupted, "failed") >= 1);
    }
}
