//! `paper dash <experiment> [--seed N] [--stride K]` — replay a fig6-class
//! workload with the telemetry collector attached and render the
//! observability artifacts.
//!
//! Four files are written next to the other paper artifacts:
//!
//! * `DASH_report.json` — the deterministic telemetry snapshot (strided
//!   sample series only, wall-clock phase histograms stripped). Every field
//!   is a pure function of the seeded run, so two invocations with the same
//!   seed and stride produce byte-identical files — the property the CI
//!   `dash-smoke` job and `tests/dash_determinism.rs` pin.
//! * `DASH_report.html` — a self-contained dashboard: inline SVG sparklines
//!   for utilization/occupancy/byte ledgers, the port-utilization decile
//!   distribution, and the per-phase latency CDFs. No external assets, no
//!   scripts; open it from a CI artifact without a network.
//! * `DASH_report.prom` — Prometheus text exposition of the final sample's
//!   gauges plus the cumulative phase histograms.
//! * `DASH_report.jsonl` — the sample series, one JSON object per line,
//!   for ad-hoc plotting.

use std::sync::Arc;

use crate::scenario::{self, DEFAULT_SLICE};
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{units, Engine, Fabric, SimConfig};
use swallow_metrics::{export, Table, Telemetry, TelemetrySnapshot};
use swallow_sched::Algorithm;

/// Experiments the dash command can replay.
pub const EXPERIMENTS: &[&str] = &["fig6a", "small"];

/// Replay `experiment` with telemetry attached and return the snapshot.
/// Public so the determinism test can compare two collections directly.
pub fn collect(experiment: &str, seed: u64, stride: u64) -> TelemetrySnapshot {
    let num_coflows = match experiment {
        // The canonical Fig. 6(a) trace (`scenario::fig6_trace`).
        "fig6a" | "fig6" => 80,
        // A seconds-scale smoke variant of the same shape (CI uses this).
        "small" => 12,
        other => {
            eprintln!("paper dash: unknown experiment {other:?} (try: {EXPERIMENTS:?})");
            std::process::exit(2);
        }
    };
    let bw = units::mbps(400.0);
    let trace = scenario::fig6_trace(bw, num_coflows, 4.0, seed);
    let fabric = Fabric::uniform(trace.num_nodes, bw);
    let telemetry = Arc::new(Telemetry::with_stride(stride));
    let config = SimConfig::default()
        .with_slice(DEFAULT_SLICE)
        .with_reschedule(Reschedule::EventsOnly)
        .with_compression(scenario::lz4())
        .with_telemetry(telemetry.clone());
    let mut policy = Algorithm::Fvdf.make();
    let res = Engine::new(fabric, trace.coflows.clone(), config).run(policy.as_mut());
    assert!(res.all_complete(), "dash replay left work unfinished");
    telemetry.snapshot()
}

/// Run the dash command: collect, write the four artifacts, print a recap.
pub fn run(experiment: &str, seed: u64, stride: u64) {
    let snap = collect(experiment, seed, stride);
    let det = snap.deterministic();

    let json = serde_json::to_string_pretty(&det).expect("snapshot serializes");
    std::fs::write("DASH_report.json", format!("{json}\n")).expect("write DASH_report.json");
    let title = format!("swallow dash — {experiment} (seed {seed}, stride {stride})");
    std::fs::write("DASH_report.html", export::html_dashboard(&title, &snap))
        .expect("write DASH_report.html");
    std::fs::write("DASH_report.prom", export::prometheus(&snap)).expect("write DASH_report.prom");
    std::fs::write("DASH_report.jsonl", export::jsonl(&det)).expect("write DASH_report.jsonl");

    let mut t = Table::new(
        format!("telemetry ({experiment}, seed {seed}, stride {stride})"),
        &["metric", "value"],
    );
    t.row(&["samples_retained".into(), snap.samples.len().to_string()]);
    t.row(&["samples_seen".into(), snap.samples_seen.to_string()]);
    t.row(&["samples_dropped".into(), snap.samples_dropped.to_string()]);
    if let Some(last) = snap.samples.last() {
        t.row(&["sim_time_s".into(), format!("{:.3}", last.time)]);
        t.row(&["reschedules".into(), last.reschedules.to_string()]);
        t.row(&[
            "bytes_saved_frac".into(),
            format!(
                "{:.4}",
                last.bytes_saved / (last.bytes_on_wire + last.bytes_saved).max(f64::MIN_POSITIVE)
            ),
        ]);
        let peak_net = snap
            .samples
            .iter()
            .map(|s| s.net_util)
            .fold(0.0f64, f64::max);
        t.row(&["peak_net_util".into(), format!("{peak_net:.4}")]);
    }
    for (name, h) in &snap.phases {
        if !h.is_empty() {
            t.row(&[
                format!("phase_{name}_p50_us"),
                h.quantile_us(0.5).to_string(),
            ]);
        }
    }
    crate::report!("{t}");
    crate::report!(
        "  wrote DASH_report.json (deterministic), DASH_report.html, \
         DASH_report.prom, DASH_report.jsonl"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sample series is a pure function of (seed, stride): two
    /// collections serialize byte-identically in their deterministic view.
    #[test]
    fn same_seed_collections_are_byte_identical() {
        let a = collect("small", 7, 4).deterministic();
        let b = collect("small", 7, 4).deterministic();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert!(!a.samples.is_empty());
    }

    /// Stride thins the series without changing the sampled values: every
    /// stride-4 sample appears, unchanged, in the stride-1 series.
    #[test]
    fn stride_subsamples_the_full_series() {
        let full = collect("small", 7, 1);
        let thin = collect("small", 7, 4);
        assert!(thin.samples.len() < full.samples.len());
        for s in &thin.samples {
            assert!(
                full.samples.iter().any(|f| f == s),
                "stride-4 sample at slice {} missing from stride-1 series",
                s.slice_idx
            );
        }
    }

    /// Telemetry collection rides along without perturbing results: the
    /// engine produces identical samples and the phases fill in.
    #[test]
    fn phases_are_populated() {
        let snap = collect("small", 7, 1);
        assert!(snap.phases["schedule"].count > 0, "schedule phase empty");
        assert!(snap.phases["water_fill"].count > 0, "water_fill empty");
        assert!(snap.phases["materialize"].count > 0, "materialize empty");
        // Cumulative counters are monotone along the series.
        let series = &snap.samples;
        for w in series.windows(2) {
            assert!(w[1].reschedules >= w[0].reschedules);
            assert!(w[1].bytes_on_wire >= w[0].bytes_on_wire - 1e-9);
        }
    }
}
