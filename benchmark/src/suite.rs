//! The whole benchmark in one command: every workload in a process of its
//! own (so `peak_rss_mb` is that workload's alone), untraced and — with
//! `--traced` — traced as well, printed by name and written to one result
//! file keyed by the commit.

use crate::catalog::Catalog;
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Schema tag of the result file.
pub const SCHEMA: &str = "swallow-benchmark/v1";

/// Environment variables that change how the crates under test run. The
/// binary clears them at start-up and records whether they were set.
pub const CLEARED_ENV: [&str; 2] = ["SWALLOW_THREADS", "SWALLOW_JOBS"];

/// What the suite runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOpts {
    /// Seed of every generator.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Also make the traced, per-layer run.
    pub traced: bool,
    /// Tiny inputs.
    pub smoke: bool,
    /// Result file; default `results/<commit>.json` beside this package.
    pub out: Option<PathBuf>,
    /// Which of the cleared variables were set when the binary started.
    pub env_was_set: Vec<&'static str>,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

/// Run this binary once on one workload: pass its metric table on, and
/// parse its last output line.
fn child(opts: &SuiteOpts, workload: &str, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--detail"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if traced {
        let spans = crate::workloads::out_dir().join(format!("trace-{workload}.json"));
        cmd.arg("--trace-out").arg(spans);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: could not start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (table, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    println!("{table}");
    let doc: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({}): {e}", out.status))?;
    if !out.status.success() {
        eprintln!("{workload}: exited with {}", out.status);
    }
    Ok(doc)
}

/// Run every workload, print every metric, write the result file. Returns
/// whether every run was correct.
pub fn run_suite(opts: &SuiteOpts) -> Result<bool, String> {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"], manifest_dir)
        .unwrap_or_else(|| "unknown".to_string());
    let mut all_correct = true;
    let mut workloads = Map::new();
    for name in &Catalog::get().workloads {
        let untraced = child(opts, name, false)?;
        all_correct &= untraced["correct"].as_bool() == Some(true);
        let mut entry = Map::new();
        if opts.traced {
            let traced = child(opts, name, true)?;
            all_correct &= traced["correct"].as_bool() == Some(true);
            let plain = untraced["metrics"]["wall_s"]["value"].as_f64();
            let with = traced["metrics"]["bench.traced_wall_s"]["value"].as_f64();
            if let (Some(plain), Some(with)) = (plain, with) {
                let share = (with - plain) / plain;
                println!("  {:<32} {share:>16.6}", "trace_overhead_share");
                entry.insert("trace_overhead_share".into(), json!(share));
            }
            if traced["result_checksum"] != untraced["result_checksum"] {
                all_correct = false;
                eprintln!("{name}: traced and untraced runs disagree on result_checksum");
            }
            entry.insert("traced".into(), traced);
        }
        entry.insert("untraced".into(), untraced);
        workloads.insert(name.clone(), Value::Object(entry));
    }

    let doc = json!({
        "schema": SCHEMA,
        "claim": null,
        "env": {
            "commit": commit,
            "rustc": command_line("rustc", &["--version"], manifest_dir),
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "seed": opts.seed,
            "seconds": opts.seconds,
            "smoke": opts.smoke,
            "debug_build": cfg!(debug_assertions),
            "serde_is_stub": swallow_metrics::serde_is_stub(),
            "malloc_trim_threshold": std::env::var("MALLOC_TRIM_THRESHOLD_").ok(),
            "rustflags": option_env!("RUSTFLAGS"),
            "cleared_env": CLEARED_ENV.to_vec(),
            "cleared_env_was_set": opts.env_was_set,
        },
        "workloads": workloads,
    });
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| manifest_dir.join("results").join(format!("{commit}.json")));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{doc:#}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
