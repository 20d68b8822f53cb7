//! `paper bench-engine` — the engine-mode scale sweep and the committed
//! perf record `BENCH_engine.json`.
//!
//! Each sweep cell replays a seeded [`swallow_workload::gen::scale`] trace
//! (FVDF + LZ4, δ = 1 ms, `EventsOnly`) once per engine mode — the naive
//! slice loop and quiescent skip-ahead — reporting wall-clock, reschedules,
//! heap allocations per replay and the skip-ahead hit ratio, and asserting
//! that both modes' `SimResult`s are bit-identical.
//! Results are *appended* to `BENCH_engine.json` under a stable schema
//! ([`SCHEMA`]), so the committed file records the perf trajectory across
//! PRs; when skip-ahead's speedup over the naive loop falls below
//! [`GATE_RATIO`] of the last committed speedup for the same tier, the
//! command exits non-zero. Speedup ratios (not raw seconds) are gated
//! because both legs of a ratio ran on the same machine.
//!
//! The naive slice loop is only replayed up to [`NAIVE_MAX_COFLOWS`]
//! coflows — beyond that it takes minutes by design; that gap is the point
//! of skip-ahead — and skipped cells are reported explicitly rather
//! than silently capped.

use std::sync::Arc;
use std::time::Instant;

use crate::alloc_track;
use crate::rss;
use crate::scenario;
use serde_json::{json, Map, Value};
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{units, Coflow, Engine, EngineMode, Fabric, SimConfig, SimResult};
use swallow_metrics::Telemetry;
use swallow_sched::Algorithm;
use swallow_trace::{RingSink, Tracer};
use swallow_workload::gen::scale;
use swallow_workload::CoflowGen;

/// Stable schema tag; bump only with a migration note in DESIGN.md.
/// v3 adds per-mode `peak_rss_bytes` and `mean_port_util` — a pure superset
/// of v2, so v2 records remain loadable (see [`COMPAT_SCHEMAS`]).
pub const SCHEMA: &str = "swallow-bench-engine/v3";

/// Earlier schemas whose entries are append-compatible with [`SCHEMA`].
pub const COMPAT_SCHEMAS: &[&str] = &["swallow-bench-engine/v2"];

/// Telemetry stride for the instrumented (untimed) pass that measures mean
/// port utilization.
const TELEMETRY_STRIDE: u64 = 64;

/// Slice length for the scale tiers. Much finer than the harness default:
/// the tiers measure how well skip-ahead avoids visiting quiescent
/// boundaries, so the naive loop must have many boundaries to walk.
pub const BENCH_SLICE: f64 = 0.001;

/// Largest tier the naive slice loop is still asked to replay.
pub const NAIVE_MAX_COFLOWS: usize = 100_000;

/// Skip-ahead must keep at least this fraction of the committed speedup.
pub const GATE_RATIO: f64 = 0.75;

/// Repetitions per cell on the smaller tiers; best wall-clock is recorded.
const REPS: usize = 3;

/// One sweep cell: a coflow count × port count pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier {
    /// Number of coflows in the generated trace.
    pub coflows: usize,
    /// Number of fabric ports (nodes).
    pub ports: usize,
}

impl Tier {
    /// Human label used in reports and as the record key ("100k/1k").
    pub fn label(&self) -> String {
        format!("{}/{}", human(self.coflows), human(self.ports))
    }
}

fn human(n: usize) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}M", n / 1_000_000)
    } else if n >= 1000 && n.is_multiple_of(1000) {
        format!("{}k", n / 1000)
    } else {
        n.to_string()
    }
}

/// The default sweep: the rising diagonal of the
/// {1k, 10k, 100k, 1M} × {100, 1k, 10k} grid. Off-diagonal cells add little
/// information per unit wall-clock (port count only matters once the coflow
/// count saturates it) but stay reachable via `--tiers`.
pub fn default_tiers() -> Vec<Tier> {
    vec![
        Tier {
            coflows: 1000,
            ports: 100,
        },
        Tier {
            coflows: 10_000,
            ports: 1000,
        },
        Tier {
            coflows: 100_000,
            ports: 1000,
        },
        Tier {
            coflows: 1_000_000,
            ports: 10_000,
        },
    ]
}

/// The `--quick` sweep (CI bench-smoke): the 10k-coflow tier only.
pub fn quick_tiers() -> Vec<Tier> {
    vec![Tier {
        coflows: 10_000,
        ports: 1000,
    }]
}

fn parse_count(s: &str) -> Option<usize> {
    let t = s.trim();
    let (num, mult) = match t.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&t[..i], 1000usize),
        (i, 'm') | (i, 'M') => (&t[..i], 1_000_000),
        _ => (t, 1),
    };
    num.parse::<usize>()
        .ok()
        .map(|n| n * mult)
        .filter(|&n| n > 0)
}

/// Parse the `--tiers` syntax: comma-separated `COFLOWSxPORTS` cells with
/// optional `k`/`M` suffixes, e.g. `10kx1k,1Mx10k`.
pub fn parse_tiers(s: &str) -> Result<Vec<Tier>, String> {
    let mut tiers = Vec::new();
    for cell in s.split(',') {
        let (c, p) = cell
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("tier {cell:?} is not COFLOWSxPORTS (e.g. 10kx1k)"))?;
        let coflows = parse_count(c).ok_or_else(|| format!("bad coflow count in {cell:?}"))?;
        let ports = parse_count(p).ok_or_else(|| format!("bad port count in {cell:?}"))?;
        tiers.push(Tier { coflows, ports });
    }
    if tiers.is_empty() {
        return Err("empty tier list".into());
    }
    Ok(tiers)
}

/// What to sweep and whether to enforce the regression gate.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Sweep cells, in run order.
    pub tiers: Vec<Tier>,
    /// Exit non-zero when skip-ahead regresses vs the committed baseline.
    pub gate: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            tiers: default_tiers(),
            gate: true,
        }
    }
}

/// Every engine mode the sweep compares, in report order.
const MODES: [(EngineMode, &str); 2] = [
    (EngineMode::NaiveSlice, "naive"),
    (EngineMode::SkipAhead, "skip_ahead"),
];

/// Run the default sweep (the plain `paper bench-engine` spelling).
pub fn run() {
    run_with(&BenchOpts::default());
}

/// Run the sweep, append to `BENCH_engine.json`, enforce the gate.
pub fn run_with(opts: &BenchOpts) {
    let path = "BENCH_engine.json";
    let committed = load_entries(path);
    let mut entries = committed.clone();
    let mut fresh = Vec::new();
    for tier in &opts.tiers {
        let entry = bench_tier(*tier);
        fresh.push(entry.clone());
        entries.push(entry);
    }
    let doc = json!({ "schema": SCHEMA, "entries": entries });
    std::fs::write(path, format!("{doc:#}\n")).expect("write BENCH_engine.json");
    crate::report!(
        "wrote {path} ({} committed + {} new entries)",
        committed.len(),
        fresh.len()
    );
    // The record is written *before* the gate verdict so a failing run
    // still leaves the numbers on disk for inspection.
    let failures = gate_failures(&committed, &fresh);
    for f in &failures {
        crate::warn!("bench-engine gate: {f}");
    }
    if opts.gate && !failures.is_empty() {
        std::process::exit(1);
    }
}

/// One full replay of `coflows` under `mode`. The optional tracer is for
/// the *instrumented* (untimed) pass only — the tracer itself allocates,
/// so it must never ride along on a timed rep.
fn replay(
    fabric: &Fabric,
    coflows: Vec<Coflow>,
    mode: EngineMode,
    tracer: Option<Tracer>,
    telemetry: Option<Arc<Telemetry>>,
) -> SimResult {
    let mut config = SimConfig::default()
        .with_slice(BENCH_SLICE)
        .with_reschedule(Reschedule::EventsOnly)
        .with_mode(mode)
        .with_compression(scenario::lz4());
    if let Some(t) = tracer {
        config = config.with_tracer(t);
    }
    if let Some(t) = telemetry {
        config = config.with_telemetry(t);
    }
    let mut policy = Algorithm::Fvdf.make();
    Engine::new(fabric.clone(), coflows, config).run(policy.as_mut())
}

fn bench_tier(tier: Tier) -> Value {
    let cfg = scale(tier.coflows, tier.ports);
    let coflows = CoflowGen::new(cfg.clone()).generate();
    let fabric = Fabric::uniform(cfg.num_nodes, units::gbps(1.0));
    crate::report!(
        "tier {} — {} coflows over {} ports, FVDF+LZ4, δ={} s, EventsOnly",
        tier.label(),
        tier.coflows,
        cfg.num_nodes,
        BENCH_SLICE
    );

    let mut modes_json = Map::new();
    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    let mut results: Vec<(&'static str, SimResult)> = Vec::new();
    for (mode, name) in MODES {
        if mode == EngineMode::NaiveSlice && tier.coflows > NAIVE_MAX_COFLOWS {
            crate::report!(
                "  {name:<12}: skipped (the naive loop is only replayed up to {} coflows)",
                human(NAIVE_MAX_COFLOWS)
            );
            continue;
        }
        let reps = if tier.coflows >= 100_000 { 1 } else { REPS };
        if tier.coflows <= 10_000 {
            // Warm up caches/allocator on the small tiers, where a cold
            // first rep would dominate the best-of statistics.
            let _ = replay(&fabric, coflows.clone(), mode, None, None);
        }
        // Peak RSS brackets the timed reps only: reset after the warmup,
        // read before the instrumented pass (which allocates on purpose).
        rss::reset_peak();
        let mut best = f64::INFINITY;
        let mut allocs = 0u64;
        let mut out = None;
        for _ in 0..reps {
            let trace_copy = coflows.clone(); // cloned outside the timed region
            let start = Instant::now();
            let (a, res) =
                alloc_track::allocations_during(|| replay(&fabric, trace_copy, mode, None, None));
            best = best.min(start.elapsed().as_secs_f64());
            allocs = a;
            out = Some(res);
        }
        let peak_rss = rss::peak_bytes();
        let res = out.expect("reps >= 1");
        // The skip-ahead hit ratio and mean port utilization come from a
        // separate instrumented pass: both are properties of the
        // (deterministic) trajectory, not of the timing, so an untimed run
        // with the tracer and telemetry attached reports them faithfully.
        let (hit, mean_port_util) = if mode == EngineMode::NaiveSlice {
            (None, None)
        } else {
            let tracer = Tracer::new(RingSink::new(64));
            let telemetry = Arc::new(Telemetry::with_stride(TELEMETRY_STRIDE));
            let _ = replay(
                &fabric,
                coflows.clone(),
                mode,
                Some(tracer.clone()),
                Some(telemetry.clone()),
            );
            let samples = telemetry.samples();
            let util = (!samples.is_empty()).then(|| {
                samples.iter().map(|s| s.mean_port_util).sum::<f64>() / samples.len() as f64
            });
            (tracer.summary().map(|s| s.skip_ahead_hit_ratio), util)
        };
        let rss_col = peak_rss
            .map(|b| format!("{:.0} MB", b as f64 / (1 << 20) as f64))
            .unwrap_or_else(|| "n/a".into());
        match (hit, mean_port_util) {
            (Some(h), Some(u)) => crate::report!(
                "  {name:<12}: {best:>10.4} s  (best of {reps}, {} reschedules, {allocs} allocs/run, peak RSS {rss_col}, mean port util {u:.4}, skip hit {h:.4})",
                res.reschedules
            ),
            _ => crate::report!(
                "  {name:<12}: {best:>10.4} s  (best of {reps}, {} reschedules, {allocs} allocs/run, peak RSS {rss_col})",
                res.reschedules
            ),
        }
        modes_json.insert(
            name.to_string(),
            json!({
                "secs": best,
                "reps": reps,
                "reschedules": res.reschedules,
                "allocs_per_run": allocs,
                "skip_hit_ratio": hit,
                "peak_rss_bytes": peak_rss,
                "mean_port_util": mean_port_util,
            }),
        );
        timings.push((name, best));
        results.push((name, res));
    }

    // Bit-identity across the modes that ran, against the first.
    let mut identical = true;
    if let Some((ref_name, ref_res)) = results.first() {
        for (name, res) in &results[1..] {
            let same = res.flows == ref_res.flows
                && res.coflows == ref_res.coflows
                && res.makespan.to_bits() == ref_res.makespan.to_bits()
                && res.reschedules == ref_res.reschedules;
            if !same {
                identical = false;
                crate::warn!(
                    "bench-engine: {name} diverged from {ref_name} on tier {}",
                    tier.label()
                );
            }
        }
    }
    assert!(identical, "engine modes diverged — see stderr");

    let mut speedups = Map::new();
    if let Some(&(_, naive_secs)) = timings.iter().find(|(n, _)| *n == "naive") {
        for &(name, secs) in timings.iter().filter(|(n, _)| *n != "naive") {
            let x = naive_secs / secs;
            crate::report!("  speedup vs naive: {name} {x:.2}x");
            speedups.insert(name.to_string(), json!(x));
        }
    }
    let makespan = results.first().map(|(_, r)| r.makespan).unwrap_or_default();
    crate::report!("  outputs identical: {identical} (simulated makespan {makespan:.3} s)");

    json!({
        "label": tier.label(),
        "n_coflows": tier.coflows,
        "n_ports": cfg.num_nodes,
        "seed": cfg.seed,
        "policy": "FVDF",
        "compression": "lz4",
        "slice_secs": BENCH_SLICE,
        "modes": Value::Object(modes_json),
        "speedup_vs_naive": Value::Object(speedups),
        "identical": identical,
        "makespan_secs": makespan,
    })
}

/// Entries of an existing `BENCH_engine.json`, or empty when the file is
/// missing, unparseable, or from a pre-v2 schema (those are not
/// append-compatible; the record restarts). v2 entries load under v3 —
/// the new per-mode fields are additive and the gate ignores them.
fn load_entries(path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    let schema = doc.get("schema").and_then(Value::as_str);
    if schema != Some(SCHEMA) && !schema.is_some_and(|s| COMPAT_SCHEMAS.contains(&s)) {
        return Vec::new();
    }
    doc.get("entries")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default()
}

/// Regression-gate verdicts: every fresh entry with a recorded
/// speedup-vs-naive is compared against the *last* committed entry for the
/// same tier label; a mode whose speedup fell below [`GATE_RATIO`] of the
/// committed figure produces one failure line.
pub fn gate_failures(committed: &[Value], fresh: &[Value]) -> Vec<String> {
    let mut out = Vec::new();
    for e in fresh {
        let label = e["label"].as_str().unwrap_or_default();
        let Some(new_sp) = e.get("speedup_vs_naive").and_then(Value::as_object) else {
            continue;
        };
        let baseline = committed.iter().rev().find(|c| {
            c["label"] == e["label"]
                && c.get("speedup_vs_naive")
                    .and_then(Value::as_object)
                    .is_some_and(|m| !m.is_empty())
        });
        let Some(base) = baseline else { continue };
        let base_sp = base["speedup_vs_naive"].as_object().expect("checked above");
        for (mode, v) in new_sp {
            let (Some(new_x), Some(base_x)) =
                (v.as_f64(), base_sp.get(mode).and_then(Value::as_f64))
            else {
                continue;
            };
            if new_x < GATE_RATIO * base_x {
                out.push(format!(
                    "tier {label}, mode {mode}: speedup {new_x:.2}x is below \
                     {GATE_RATIO} × committed baseline {base_x:.2}x"
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_algorithm_mode;

    #[test]
    fn fast_and_naive_replays_agree_on_a_small_trace() {
        let bw = units::mbps(400.0);
        let trace = scenario::fig6_trace(bw, 12, 3.0, 0x6A);
        let fabric = Fabric::uniform(trace.num_nodes, bw);
        let run = |mode| {
            run_algorithm_mode(
                Algorithm::Fvdf,
                &fabric,
                &trace.coflows,
                Some(scenario::lz4()),
                scenario::DEFAULT_SLICE,
                mode,
            )
        };
        let fast = run(EngineMode::SkipAhead);
        let naive = run(EngineMode::NaiveSlice);
        assert!(fast.all_complete());
        assert_eq!(fast.flows, naive.flows);
        assert_eq!(fast.coflows, naive.coflows);
        assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
        assert!(
            fast.reschedules <= naive.reschedules,
            "skip-ahead should never reschedule more often"
        );
    }

    #[test]
    fn scale_tier_modes_agree_end_to_end() {
        // A miniature cell of the sweep, through the same `replay` path.
        let cfg = scale(60, 16);
        let coflows = CoflowGen::new(cfg.clone()).generate();
        let fabric = Fabric::uniform(cfg.num_nodes, units::gbps(1.0));
        let fast = replay(&fabric, coflows.clone(), EngineMode::SkipAhead, None, None);
        let naive = replay(&fabric, coflows, EngineMode::NaiveSlice, None, None);
        assert!(fast.all_complete(), "scale tier must complete");
        assert_eq!(fast.flows, naive.flows);
        assert_eq!(fast.coflows, naive.coflows);
        assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
        assert_eq!(fast.reschedules, naive.reschedules);
    }

    #[test]
    fn tier_labels_and_parsing_round_trip() {
        let big = Tier {
            coflows: 100_000,
            ports: 1000,
        };
        assert_eq!(big.label(), "100k/1k");
        let huge = Tier {
            coflows: 1_000_000,
            ports: 10_000,
        };
        assert_eq!(huge.label(), "1M/10k");
        let tiers = parse_tiers("1kx100,1Mx10k").unwrap();
        assert_eq!(
            tiers,
            vec![
                Tier {
                    coflows: 1000,
                    ports: 100
                },
                Tier {
                    coflows: 1_000_000,
                    ports: 10_000
                }
            ]
        );
        assert!(parse_tiers("12;34").is_err());
        assert!(parse_tiers("0x10").is_err());
        assert!(parse_tiers("").is_err());
    }

    #[test]
    fn gate_fires_only_below_threshold() {
        let old = vec![json!({
            "label": "10k/1k",
            "speedup_vs_naive": { "skip_ahead": 10.0 },
        })];
        let ok = vec![json!({
            "label": "10k/1k",
            "speedup_vs_naive": { "skip_ahead": 8.0 },
        })];
        assert!(gate_failures(&old, &ok).is_empty());
        let bad = vec![json!({
            "label": "10k/1k",
            "speedup_vs_naive": { "skip_ahead": 7.0 },
        })];
        assert_eq!(gate_failures(&old, &bad).len(), 1);
        // Unknown tiers and an empty baseline never fire.
        let other = vec![json!({
            "label": "1k/100",
            "speedup_vs_naive": { "skip_ahead": 0.1 },
        })];
        assert!(gate_failures(&old, &other).is_empty());
        assert!(gate_failures(&[], &bad).is_empty());
        // Neither does a committed mode the fresh run no longer sweeps.
        let retired = vec![json!({
            "label": "10k/1k",
            "speedup_vs_naive": { "skip_ahead": 10.0, "retired_mode": 99.0 },
        })];
        assert!(gate_failures(&retired, &ok).is_empty());
    }

    #[test]
    fn gate_tolerates_v3_only_fields() {
        // v2 baseline entries have no peak_rss_bytes / mean_port_util; the
        // gate compares speedups only, so mixed records never fire on the
        // new columns.
        let old = vec![json!({
            "label": "10k/1k",
            "speedup_vs_naive": { "skip_ahead": 12.0 },
        })];
        let fresh = vec![json!({
            "label": "10k/1k",
            "speedup_vs_naive": { "skip_ahead": 11.0 },
            "modes": { "skip_ahead": { "peak_rss_bytes": 123456, "mean_port_util": 0.2 } },
        })];
        assert!(gate_failures(&old, &fresh).is_empty());
    }

    #[test]
    fn load_entries_accepts_v2_and_v3() {
        let dir = std::env::temp_dir().join("swallow_bench_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, doc: &Value| {
            let p = dir.join(name);
            std::fs::write(&p, format!("{doc:#}\n")).unwrap();
            p.to_str().unwrap().to_string()
        };
        let entry = json!({ "label": "1k/100" });
        let v2 = write(
            "v2.json",
            &json!({ "schema": "swallow-bench-engine/v2", "entries": [entry.clone()] }),
        );
        let v3 = write(
            "v3.json",
            &json!({ "schema": SCHEMA, "entries": [entry.clone()] }),
        );
        let v1 = write(
            "v1.json",
            &json!({ "schema": "swallow-bench-engine/v1", "entries": [entry] }),
        );
        assert_eq!(load_entries(&v2).len(), 1);
        assert_eq!(load_entries(&v3).len(), 1);
        assert!(load_entries(&v1).is_empty(), "pre-v2 records restart");
        std::fs::remove_dir_all(&dir).ok();
    }
}
