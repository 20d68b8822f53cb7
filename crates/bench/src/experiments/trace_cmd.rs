//! `paper trace <experiment> [--out <path>]` — replay an experiment with the
//! structured tracer attached and export the event stream.
//!
//! The output format follows the file extension: `.jsonl` streams one JSON
//! object per event, anything else (conventionally `.json`) writes a Chrome
//! `trace_event` document loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. A [`TraceSummary`] — event counts, skip-ahead
//! hit ratio and the reschedule-latency histogram — is printed as tables and
//! written to `TRACE_summary.json`.

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use crate::scenario::{self, DEFAULT_SLICE};
use swallow_fabric::{units, Engine, Fabric, SimConfig, SimResult};
use swallow_metrics::Table;
use swallow_sched::Algorithm;
use swallow_trace::{ChromeTraceSink, JsonlSink, Sink, TraceSummary, Tracer};

/// Experiments the trace command can replay.
pub const EXPERIMENTS: &[&str] = &["fig6", "small"];

/// Replay `experiment` with tracing enabled, exporting events to `out`.
pub fn run(experiment: &str, out: &str) {
    let file = BufWriter::new(File::create(out).unwrap_or_else(|e| {
        eprintln!("paper trace: cannot create {out}: {e}");
        std::process::exit(2);
    }));
    let sink: Arc<dyn Sink> = if out.ends_with(".jsonl") {
        Arc::new(JsonlSink::new(file))
    } else {
        Arc::new(ChromeTraceSink::new(file))
    };
    let tracer = Tracer::with_sink(sink);

    let res = match experiment {
        // The canonical Fig. 6(a) trace (`scenario::fig6_trace`).
        "fig6" => replay_fig6(&tracer, 80),
        // A seconds-scale smoke variant of the same shape (CI uses this).
        "small" => replay_fig6(&tracer, 12),
        other => {
            eprintln!("paper trace: unknown experiment {other:?} (try: {EXPERIMENTS:?})");
            std::process::exit(2);
        }
    };
    tracer.flush();
    assert!(res.all_complete(), "traced replay left work unfinished");

    let summary = tracer.summary().expect("tracer is enabled");
    print_summary(&summary);

    let path = "TRACE_summary.json";
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    std::fs::write(path, format!("{json}\n")).expect("write TRACE_summary.json");
    crate::report!("  wrote {out} and {path}");
}

fn replay_fig6(tracer: &Tracer, num_coflows: usize) -> SimResult {
    let bw = units::mbps(400.0);
    let trace = scenario::fig6_trace(bw, num_coflows, 4.0, 0x6A);
    let fabric = Fabric::uniform(trace.num_nodes, bw);
    let config = SimConfig::default()
        .with_slice(DEFAULT_SLICE)
        .with_reschedule(swallow_fabric::engine::Reschedule::EventsOnly)
        .with_compression(scenario::lz4())
        .with_tracer(tracer.clone());
    let mut policy = Algorithm::Fvdf.make();
    Engine::new(fabric, trace.coflows.clone(), config).run(policy.as_mut())
}

/// Render the summary through the same aligned tables the paper artifacts
/// use.
fn print_summary(summary: &TraceSummary) {
    let mut t = Table::new("Trace summary", &["metric", "value"]);
    t.row(&["events_total".into(), summary.events_total.to_string()]);
    t.row(&[
        "slices_processed".into(),
        summary.slices_processed.to_string(),
    ]);
    t.row(&["slices_skipped".into(), summary.slices_skipped.to_string()]);
    t.row(&["skip_jumps".into(), summary.skip_jumps.to_string()]);
    t.row(&[
        "skip_ahead_hit_ratio".into(),
        format!("{:.4}", summary.skip_ahead_hit_ratio),
    ]);
    t.row(&["reschedules".into(), summary.reschedules.to_string()]);
    t.row(&[
        "latency_mean_us".into(),
        format!("{:.1}", summary.latency_mean_us),
    ]);
    t.row(&["latency_max_us".into(), summary.latency_max_us.to_string()]);
    crate::report!("{t}");

    let mut kinds = Table::new("Events by kind", &["kind", "count"]);
    for (kind, count) in &summary.events_by_kind {
        kinds.row(&[kind.clone(), count.to_string()]);
    }
    crate::report!("{kinds}");

    let mut hist = Table::new("Reschedule latency histogram", &["le_us", "count"]);
    for b in &summary.reschedule_latency {
        hist.row(&[b.le_us.to_string(), b.count.to_string()]);
    }
    crate::report!("{hist}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_trace::CollectSink;

    #[test]
    fn traced_small_replay_yields_events_and_summary() {
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::with_sink(sink.clone());
        let res = replay_fig6(&tracer, 6);
        assert!(res.all_complete());
        let recs = sink.snapshot();
        assert!(!recs.is_empty());
        // Engine and sched layers both contributed.
        assert!(recs.iter().any(|r| r.event.category() == "engine"));
        assert!(recs.iter().any(|r| r.event.category() == "sched"));
        let summary = tracer.summary().unwrap();
        assert_eq!(summary.events_total, recs.len() as u64);
        assert!(summary.reschedules > 0);
        assert!(summary.skip_ahead_hit_ratio > 0.0, "fig6 has idle gaps");
    }
}
