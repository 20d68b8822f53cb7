//! The whole benchmark at smoke size: every workload, traced and untraced,
//! in process and through the command line.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use swallow_benchmark::catalog::Catalog;
use swallow_benchmark::run::{run, RunOpts, RunResult};
use swallow_benchmark::workloads::{out_dir, Size};

fn smoke(workload: &str, seed: u64, traced: bool) -> RunResult {
    let opts = RunOpts {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        traced,
        size: Size::Smoke,
        trace_out: None,
    };
    let result = run(&opts).expect("the workload sets up and runs");
    assert!(
        result.correct,
        "{workload} came out wrong: {:?}",
        result.problems
    );
    result
}

/// Names under `metrics` of a result line.
fn printed_names(line: &Value) -> Vec<String> {
    let metrics = line["metrics"].as_object().expect("metrics is an object");
    metrics.keys().cloned().collect()
}

fn listed_names(traced: bool) -> Vec<String> {
    let mut names: Vec<String> = Catalog::get()
        .printed(traced)
        .iter()
        .map(|m| m.name.clone())
        .collect();
    names.sort();
    names
}

#[test]
fn every_workload_prints_every_listed_metric_once_and_reproduces() {
    for workload in &Catalog::get().workloads {
        let plain = smoke(workload, 7, false);
        let again = smoke(workload, 7, false);
        let traced = smoke(workload, 7, true);
        let other_seed = smoke(workload, 8, false);

        // An object holds a name once, so equal lists mean once each.
        assert_eq!(printed_names(&plain.contract_json()), listed_names(false));
        assert_eq!(printed_names(&traced.contract_json()), listed_names(true));
        assert_eq!(printed_names(&traced.detail_json()), listed_names(true));

        assert_eq!(plain.failed, 0, "{workload}");
        assert_eq!(traced.stats["bench.failed_share"].median, 0.0, "{workload}");
        assert_eq!(plain.checksum, again.checksum, "{workload}: two runs");
        assert_eq!(plain.checksum, traced.checksum, "{workload}: traced run");
        assert_ne!(plain.checksum, other_seed.checksum, "{workload}: seed");

        // An end-to-end metric that could read 0 cannot carry a relative
        // bound.
        for (name, v) in plain.contract_json()["metrics"].as_object().unwrap() {
            assert!(v["value"].as_f64().unwrap() > 0.0, "{workload}: {name}");
        }
    }
}

#[test]
fn names_are_well_formed_and_unique() {
    let catalog = Catalog::get();
    let names: Vec<&String> = catalog
        .workloads
        .iter()
        .chain(catalog.end_to_end.iter().map(|m| &m.name))
        .chain(catalog.per_layer.iter().map(|m| &m.name))
        .collect();
    for name in &names {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }
    let unique: BTreeSet<&&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert_eq!(catalog.workloads.len(), 5);
    assert!(catalog
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
}

#[test]
fn a_layer_that_does_no_work_reports_zero_calls() {
    let shuffle = smoke("shuffle-pushpull", 7, true);
    let line = shuffle.contract_json();
    for name in [
        "sched.allocate_calls",
        "fabric.reschedules",
        "core.submit_calls",
    ] {
        assert_eq!(line["metrics"][name]["value"].as_f64(), Some(0.0), "{name}");
    }
    assert!(
        line["metrics"]["core.push_calls"]["value"]
            .as_f64()
            .unwrap()
            > 0.0
    );

    let idle = smoke("fabric-idle", 7, true).contract_json();
    assert!(
        idle["metrics"]["sched.allocate_calls"]["value"]
            .as_f64()
            .unwrap()
            > 0.0
    );
    assert_eq!(
        idle["metrics"]["core.push_calls"]["value"].as_f64(),
        Some(0.0)
    );
}

#[test]
fn an_unknown_workload_is_an_error_not_a_result() {
    let opts = RunOpts {
        workload: "no-such-workload".to_string(),
        seed: 1,
        seconds: 0.0,
        traced: false,
        size: Size::Smoke,
        trace_out: None,
    };
    assert!(run(&opts).unwrap_err().contains("unknown workload"));
}

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swallow-benchmark"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("smoke-test-{}-{name}", std::process::id()))
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let out = binary()
        .args(["--workload", "fabric-idle", "--seed", "3", "--seconds", "0"])
        .args(["--trace", "0", "--smoke"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line["correct"].as_bool(), Some(true));
    assert!(line["attempted"].as_u64().unwrap() >= 1);
    assert_eq!(line["failed"].as_u64(), Some(0));
    assert_eq!(printed_names(&line), listed_names(false));

    let bad = binary().args(["--workload", "nope"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}

#[test]
fn the_suite_writes_a_result_file_that_agrees_with_itself() {
    let (a, b) = (scratch("a.json"), scratch("b.json"));
    for path in [&a, &b] {
        let out = binary()
            .args(["--smoke", "--traced", "--seed", "5", "--out"])
            .arg(path)
            .env("SWALLOW_THREADS", "3")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("trace_overhead_share"));
    }
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert!(doc["claim"].is_null());
    let env = &doc["env"];
    assert!(env["commit"].as_str().is_some());
    assert!(env["nproc"].as_u64().unwrap() >= 1);
    assert_eq!(env["seed"].as_u64(), Some(5));
    assert_eq!(env["smoke"].as_bool(), Some(true));
    assert!(env["serde_is_stub"].as_bool().is_some());
    assert_eq!(
        env["cleared_env_was_set"][0].as_str(),
        Some("SWALLOW_THREADS")
    );
    for workload in &Catalog::get().workloads {
        let w = &doc["workloads"][workload];
        assert!(!w["untraced"]["params"].is_null(), "{workload}");
        assert_eq!(
            w["untraced"]["result_checksum"], w["traced"]["result_checksum"],
            "{workload}"
        );
        assert!(w["trace_overhead_share"].as_f64().is_some(), "{workload}");
    }

    // Host times of a smoke run are far too short to hold a bound, so the
    // comparison of A with B may disagree; A with itself may not.
    let same = binary().arg("--compare").arg(&a).arg(&a).output().unwrap();
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("AGREE"));

    // A copy of A with another output hash disagrees with A, and so does one
    // whose simulated metric moved although the seed did not, however far
    // inside its bound; the timings in both are A's own.
    let text = std::fs::read_to_string(&a).unwrap();
    let hash = doc["workloads"]["fabric-idle"]["untraced"]["result_checksum"]
        .as_str()
        .unwrap();
    let ratio = &doc["workloads"]["shuffle-pushpull"]["untraced"]["metrics"]["wire_ratio"];
    let printed = ratio["value"].to_string();
    let nudged = (ratio["value"].as_f64().unwrap() * 1.001).to_string();
    for changed in [
        text.replace(hash, "0000000000000000"),
        text.replace(&printed, &nudged),
    ] {
        assert_ne!(changed, text);
        std::fs::write(&b, changed).unwrap();
        let differ = binary().arg("--compare").arg(&a).arg(&b).output().unwrap();
        assert_eq!(differ.status.code(), Some(1));
        assert!(String::from_utf8_lossy(&differ.stdout).contains("DISAGREE"));
    }

    for path in [a, b] {
        std::fs::remove_file(path).unwrap();
    }
}
