//! `paper replay <trace> [--policy P] [--bg F] [--seed N] [--ports N]
//! [--modes M] [--wrap] [--out PATH]` — replay a public coflow-benchmark
//! trace through the scheduling policies.
//!
//! The trace is NEVER materialized: an ingest scan first streams the file
//! once to validate every record and count coflows/flows/bytes (reporting
//! the scan's peak-RSS watermark, which stays flat as traces grow), then
//! each policy × engine-mode leg re-streams it through
//! [`Engine::from_arrivals`] with a fresh online [`InvariantChecker`]
//! attached. Per policy, both engine modes must agree bit-for-bit on flow
//! records, coflow records and makespan; `--bg F` reserves a fraction of
//! every port for background traffic (CoflowSim's `bandwidth *= 1 -
//! background_flow`).
//!
//! The per-policy CCT/compression table is printed and a deterministic
//! `REPLAY_report.json` is written — same trace + same flags ⇒ identical
//! bytes (wall-clock and RSS stay out of the report) — and the process
//! exits non-zero on any invariant violation or cross-mode mismatch.

use std::sync::Arc;

use crate::rss;
use crate::scenario::{self, DEFAULT_SLICE};
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{units, Coflow, CpuModel, Engine, EngineMode, Fabric, SimConfig, SimResult};
use swallow_metrics::Table;
use swallow_oracle::InvariantChecker;
use swallow_sched::Algorithm;
use swallow_workload::{TraceFile, WorkloadSource};

/// Port bandwidth for replayed traces: the coflow-benchmark convention of
/// 1 Gbps per machine port.
const REPLAY_BANDWIDTH_GBPS: f64 = 1.0;

/// The default policy panel (the Fig. 6(a) comparison set).
const DEFAULT_POLICIES: [Algorithm; 4] = [
    Algorithm::Fvdf,
    Algorithm::Srtf,
    Algorithm::Fifo,
    Algorithm::Pff,
];

/// Engine modes every replay leg must agree across, with their CLI names.
const MODES: [(EngineMode, &str); 2] = [
    (EngineMode::SkipAhead, "skip"),
    (EngineMode::NaiveSlice, "naive"),
];

/// Parsed flags for one `paper replay` invocation.
pub struct ReplayOpts {
    /// Path to the trace file (Facebook format unless `.json`/`.csv`).
    pub trace: String,
    /// Restrict the panel to one policy (lowercase `{alg:?}` key).
    pub policy: Option<String>,
    /// Background-traffic fraction in `[0, 1)`.
    pub bg: f64,
    /// Recorded in the report; replay itself is deterministic.
    pub seed: u64,
    /// Explicit fabric size (otherwise the trace header decides).
    pub ports: Option<usize>,
    /// Fold out-of-range machine slots onto ports modulo the fabric.
    pub wrap: bool,
    /// Engine modes to run and bit-compare (`skip,naive`).
    pub modes: Vec<String>,
    /// Report path.
    pub out: String,
}

impl Default for ReplayOpts {
    fn default() -> Self {
        Self {
            trace: String::new(),
            policy: None,
            bg: 0.0,
            seed: 7,
            ports: None,
            wrap: false,
            modes: MODES.iter().map(|(_, n)| n.to_string()).collect(),
            out: "REPLAY_report.json".to_string(),
        }
    }
}

/// One policy's verdict across all requested engine modes.
#[derive(serde::Serialize)]
struct PolicyRow {
    policy: String,
    avg_cct: f64,
    avg_fct: f64,
    makespan: f64,
    traffic_reduction: f64,
    boundaries: u64,
    violations: u64,
    mismatches: Vec<String>,
}

/// The artifact written to `REPLAY_report.json`. Deliberately excludes
/// wall-clock and RSS so identical inputs produce identical bytes (the CI
/// replay-smoke job `cmp`s two runs).
#[derive(serde::Serialize)]
struct ReplayReport {
    trace: String,
    seed: u64,
    background_traffic: f64,
    num_nodes: usize,
    coflows: u64,
    flows: u64,
    total_bytes: f64,
    modes: Vec<String>,
    policies: Vec<PolicyRow>,
    ok: bool,
}

fn policy_key(alg: Algorithm) -> String {
    format!("{alg:?}").to_lowercase()
}

fn die(why: &str) -> ! {
    eprintln!("paper replay: {why}");
    std::process::exit(2);
}

fn resolve_policy(name: &str) -> Algorithm {
    let key = name.to_lowercase();
    Algorithm::ALL
        .into_iter()
        .find(|a| policy_key(*a) == key)
        .unwrap_or_else(|| {
            let known: Vec<String> = Algorithm::ALL.into_iter().map(policy_key).collect();
            die(&format!("unknown policy {name:?} (known: {known:?})"))
        })
}

fn resolve_mode(name: &str) -> EngineMode {
    MODES
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(m, _)| *m)
        .unwrap_or_else(|| {
            let known: Vec<&str> = MODES.iter().map(|(_, n)| *n).collect();
            die(&format!("unknown engine mode {name:?} (known: {known:?})"))
        })
}

fn open(opts: &ReplayOpts) -> TraceFile {
    let mut tf = TraceFile::open(&opts.trace);
    if let Some(ports) = opts.ports {
        tf = tf.with_ports(ports);
    }
    if opts.wrap {
        tf = tf.with_wrap();
    }
    tf
}

/// Stream the whole file once: validate every record, count
/// coflows/flows/bytes. Constant memory regardless of trace length.
fn ingest_scan(tf: &TraceFile) -> (u64, u64, f64) {
    let stream = tf
        .stream()
        .unwrap_or_else(|e| die(&format!("cannot open trace: {e}")));
    let (mut coflows, mut flows, mut bytes) = (0u64, 0u64, 0.0f64);
    for item in stream {
        let c = item.unwrap_or_else(|e| die(&e.to_string()));
        coflows += 1;
        flows += c.num_flows() as u64;
        bytes += c.total_bytes();
    }
    (coflows, flows, bytes)
}

/// A validated stream for a replay leg (the scan already rejected bad
/// records, so errors here are unreachable).
fn arrival_stream(tf: &TraceFile) -> Box<dyn Iterator<Item = Coflow> + Send> {
    let stream = tf
        .stream()
        .unwrap_or_else(|e| die(&format!("cannot re-open trace: {e}")));
    Box::new(stream.map(|item| item.expect("trace validated by the ingest scan")))
}

/// Run one policy × mode leg with a fresh invariant checker.
fn run_leg(
    tf: &TraceFile,
    fabric: &Fabric,
    base: &SimConfig,
    mode: EngineMode,
    alg: Algorithm,
) -> (SimResult, u64, u64) {
    let checker = Arc::new(InvariantChecker::new());
    let config = base.clone().with_mode(mode).with_check(checker.clone());
    let mut policy = alg.make();
    let result =
        Engine::from_arrivals(fabric.clone(), arrival_stream(tf), config).run(policy.as_mut());
    (result, checker.boundaries(), checker.total_violations())
}

/// Differences between two legs' results, named for the report.
fn diff_legs(reference: &str, other: &str, a: &SimResult, b: &SimResult) -> Vec<String> {
    let mut out = Vec::new();
    if a.flows != b.flows {
        out.push(format!("{reference} vs {other}: flow records differ"));
    }
    if a.coflows != b.coflows {
        out.push(format!("{reference} vs {other}: coflow records differ"));
    }
    if a.makespan.to_bits() != b.makespan.to_bits() {
        out.push(format!(
            "{reference} vs {other}: makespan {} != {}",
            a.makespan, b.makespan
        ));
    }
    out
}

/// Run the replay; exits non-zero on violations or cross-mode mismatch.
pub fn run(opts: &ReplayOpts) {
    let tf = open(opts);
    let num_nodes = tf
        .num_nodes()
        .unwrap_or_else(|e| die(&format!("cannot size the fabric: {e}")));

    rss::reset_peak();
    let scan_started = std::time::Instant::now();
    let (coflows, flows, total_bytes) = ingest_scan(&tf);
    let scan_wall = scan_started.elapsed();
    let scan_rss = rss::peak_bytes();
    if coflows == 0 {
        die("trace has no coflows");
    }
    crate::report!(
        "replay {}: {coflows} coflows / {flows} flows / {} over {num_nodes} ports \
         (scan {:.2?}, peak RSS {})",
        opts.trace,
        units::human_bytes(total_bytes),
        scan_wall,
        scan_rss
            .map(|b| units::human_bytes(b as f64))
            .unwrap_or_else(|| "n/a".to_string()),
    );

    let policies: Vec<Algorithm> = match &opts.policy {
        Some(name) => vec![resolve_policy(name)],
        None => DEFAULT_POLICIES.to_vec(),
    };
    let modes: Vec<(EngineMode, String)> = opts
        .modes
        .iter()
        .map(|n| (resolve_mode(n), n.clone()))
        .collect();
    if modes.is_empty() {
        die("--modes needs at least one of skip,naive");
    }

    let fabric = Fabric::uniform(num_nodes, units::gbps(REPLAY_BANDWIDTH_GBPS));
    let base = SimConfig::default()
        .with_slice(DEFAULT_SLICE)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(scenario::lz4())
        .with_cpu(CpuModel::unconstrained(num_nodes, 1024))
        .with_background_traffic(opts.bg);

    let mut rows = Vec::new();
    for alg in &policies {
        let mut boundaries = 0u64;
        let mut violations = 0u64;
        let mut mismatches = Vec::new();
        let mut reference: Option<(String, SimResult)> = None;
        for (mode, mode_name) in &modes {
            let (result, b, v) = run_leg(&tf, &fabric, &base, *mode, *alg);
            assert!(
                result.all_complete(),
                "{} left coflows unfinished under mode {mode_name}",
                alg.name()
            );
            boundaries += b;
            violations += v;
            match &reference {
                None => reference = Some((mode_name.clone(), result)),
                Some((ref_name, ref_result)) => {
                    mismatches.extend(diff_legs(ref_name, mode_name, ref_result, &result));
                }
            }
        }
        let (_, result) = reference.expect("at least one mode ran");
        rows.push(PolicyRow {
            policy: policy_key(*alg),
            avg_cct: result.avg_cct(),
            avg_fct: result.avg_fct(),
            makespan: result.makespan,
            traffic_reduction: result.traffic_reduction(),
            boundaries,
            violations,
            mismatches,
        });
    }

    let mut t = Table::new(
        format!(
            "trace replay ({}, bg {:.2}, {} modes)",
            opts.trace,
            opts.bg,
            modes.len()
        ),
        &[
            "policy",
            "avg CCT",
            "makespan",
            "reduction",
            "boundaries",
            "violations",
            "modes",
        ],
    );
    let mut failures = 0usize;
    for row in &rows {
        let modes_ok = row.mismatches.is_empty();
        if row.violations > 0 || !modes_ok {
            failures += 1;
        }
        t.row(&[
            row.policy.clone(),
            units::human_secs(row.avg_cct),
            units::human_secs(row.makespan),
            format!("{:.1}%", row.traffic_reduction * 100.0),
            row.boundaries.to_string(),
            row.violations.to_string(),
            if modes_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    crate::report!("{t}");
    for row in &rows {
        for m in &row.mismatches {
            crate::warn!("{}: {m}", row.policy);
        }
    }

    let ok = failures == 0;
    let report = ReplayReport {
        trace: opts.trace.clone(),
        seed: opts.seed,
        background_traffic: opts.bg,
        num_nodes,
        coflows,
        flows,
        total_bytes,
        modes: modes.iter().map(|(_, n)| n.clone()).collect(),
        policies: rows,
        ok,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    crate::report::write_report(&opts.out, format!("{json}\n"));
    crate::report!("  wrote {}", opts.out);

    if !ok {
        crate::warn!(
            "paper replay: {failures} polic{} failed (invariant violation or mode mismatch)",
            if failures == 1 { "y" } else { "ies" }
        );
        std::process::exit(1);
    }
    crate::report!("  all policies: modes bit-identical, zero invariant violations");
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_workload::FbGen;

    fn write_small_trace(path: &std::path::Path) {
        let gen = FbGen {
            num_coflows: 12,
            num_machines: 8,
            mean_gap_ms: 50.0,
            max_mappers: 3,
            max_reducers: 3,
            max_mb: 20,
            seed: 0x5EED,
        };
        let mut file = std::fs::File::create(path).expect("create trace");
        gen.write_to(&mut file).expect("write trace");
    }

    #[test]
    fn replay_legs_agree_across_modes_with_background_traffic() {
        let dir = std::env::temp_dir().join("swallow-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.fb");
        write_small_trace(&path);

        let tf = TraceFile::open(path.to_str().unwrap());
        let num_nodes = tf.num_nodes().expect("header names the fabric");
        let fabric = Fabric::uniform(num_nodes, units::gbps(1.0));
        let base = SimConfig::default()
            .with_slice(DEFAULT_SLICE)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(scenario::lz4())
            .with_cpu(CpuModel::unconstrained(num_nodes, 1024))
            .with_background_traffic(0.25);

        let mut reference: Option<SimResult> = None;
        for (mode, name) in MODES {
            let (result, boundaries, violations) =
                run_leg(&tf, &fabric, &base, mode, Algorithm::Fvdf);
            assert!(result.all_complete(), "{name}: incomplete");
            assert!(boundaries > 0, "{name}: checker never ran");
            assert_eq!(violations, 0, "{name}: invariant violations");
            if let Some(r) = &reference {
                assert!(diff_legs("ref", name, r, &result).is_empty());
            } else {
                reference = Some(result);
            }
        }
    }
}
