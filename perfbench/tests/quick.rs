//! Quick mode: every workload, both trace settings, a short run each.
//! Checks that the result line is correct and names every metric that
//! `BENCHMARK.json` lists for that setting, with the listed unit.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every object in the `key` array of `BENCHMARK.json`.
/// The file is ours and flat, so a string-level reader suffices (the
/// repository's JSON parser takes integers only).
fn listed(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec.find(&format!("\"{key}\"")).expect("key present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> String {
        let tag = format!("\"{f}\": \"");
        let at = obj.find(&tag).unwrap_or_else(|| panic!("{f} in {obj}")) + tag.len();
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn listed_names(spec: &str, key: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{key}\"")).expect("key present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("string closes")].to_string())
        .collect()
}

#[test]
fn quick_mode_prints_every_metric_with_its_unit() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let mut names = listed_names(&spec, "workloads");
    assert_eq!(names, ["banking", "orders"]);
    // `mixed` is left out of BENCHMARK.json (see README.md) but stays
    // runnable by hand.
    names.push("mixed".into());
    for workload in &names {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "5", "--trace", trace])
                .current_dir(repo_root())
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace {trace}:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
            let expected = listed(&spec, key);
            assert!(!expected.is_empty());
            for (name, unit) in &expected {
                let tag = format!("\"{name}\": {{\"value\": ");
                let at = last.find(&tag).unwrap_or_else(|| panic!("{name} missing: {last}"));
                let rest = &last[at + tag.len()..];
                let (value, rest) = rest.split_once(", ").expect("value then unit");
                let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name}: {value}"));
                assert!(value.is_finite(), "{name}");
                assert!(rest.starts_with(&format!("\"unit\": \"{unit}\"}}")), "{name}: {rest}");
            }
            assert_eq!(last.matches("\"value\": ").count(), expected.len(), "{last}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [&["--workload", "tpcc", "--seed", "1", "--seconds", "1"][..], &["--seed", "1"][..]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(repo_root())
            .output()
            .expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
