//! Flight recorder: a post-mortem dump written when something goes wrong.
//!
//! When the oracle trips an invariant or a fault window fires, the bench
//! layer freezes the last N telemetry samples and the tail of the trace
//! ring into a [`FlightRecord`] and writes it next to `ORACLE_report.json`.
//! Trace events arrive as already-serialized JSON values so this crate
//! stays independent of `swallow-trace`.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::telemetry::{TelemetrySample, TelemetrySnapshot};

/// Default number of trailing samples/events a flight record retains.
pub const DEFAULT_FLIGHT_DEPTH: usize = 256;

/// One post-mortem capture: why it fired and what the engine looked like
/// in the moments leading up to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What triggered the dump (invariant name, fault kind, drift note).
    pub reason: String,
    /// Scenario/experiment label.
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Trailing telemetry samples, oldest first.
    pub samples: Vec<TelemetrySample>,
    /// Trailing trace events (JSONL-schema values), oldest first.
    pub trace_events: Vec<serde_json::Value>,
}

impl FlightRecord {
    /// Schema tag written into every record.
    pub const SCHEMA: &'static str = "swallow-flight/v1";

    /// Assemble a record from the tail of a telemetry snapshot plus
    /// pre-serialized trace events, keeping at most `depth` of each.
    pub fn capture(
        reason: impl Into<String>,
        scenario: impl Into<String>,
        seed: u64,
        telemetry: &TelemetrySnapshot,
        trace_events: Vec<serde_json::Value>,
        depth: usize,
    ) -> Self {
        let keep = |len: usize| len.saturating_sub(depth);
        let samples = telemetry.samples[keep(telemetry.samples.len())..].to_vec();
        let events = trace_events[keep(trace_events.len())..].to_vec();
        Self {
            schema: Self::SCHEMA.to_string(),
            reason: reason.into(),
            scenario: scenario.into(),
            seed,
            samples,
            trace_events: events,
        }
    }

    /// Write the record as pretty JSON to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("flight record serializes");
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;
    use crate::telemetry::PORT_UTIL_BUCKETS;

    fn sample(idx: u64) -> TelemetrySample {
        TelemetrySample {
            time: idx as f64,
            slice_idx: idx,
            active_coflows: 0,
            pending_coflows: 0,
            transmitting_flows: 0,
            compressing_flows: 0,
            tx_rate: 0.0,
            net_util: 0.0,
            mean_port_util: 0.0,
            max_port_util: 0.0,
            busy_ports: 0,
            port_util_hist: [0; PORT_UTIL_BUCKETS],
            cpu_occupancy: 0.0,
            bytes_on_wire: 0.0,
            bytes_saved: 0.0,
            reschedules: 0,
            est_tracked_coflows: 0,
            est_mean_abs_rel_err: 0.0,
        }
    }

    #[test]
    fn capture_keeps_tail() {
        let t = Telemetry::with_stride(1);
        for i in 0..10 {
            t.record_sample(sample(i));
        }
        let events: Vec<serde_json::Value> = (0..10)
            .map(|i| serde_json::json!({"type": "slice", "idx": i}))
            .collect();
        let rec = FlightRecord::capture("port_capacity", "fig6a", 7, &t.snapshot(), events, 4);
        assert_eq!(rec.schema, FlightRecord::SCHEMA);
        assert_eq!(rec.samples.len(), 4);
        assert_eq!(rec.samples[0].slice_idx, 6);
        assert_eq!(rec.trace_events.len(), 4);
        assert_eq!(rec.trace_events[0]["idx"], 6);
        // Round-trips through JSON for the artifact writer.
        crate::skip_if_stub!();
        let back: FlightRecord =
            serde_json::from_str(&serde_json::to_string(&rec).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn capture_shorter_than_depth() {
        let t = Telemetry::with_stride(1);
        t.record_sample(sample(0));
        let rec = FlightRecord::capture("fault_window", "small", 1, &t.snapshot(), Vec::new(), 256);
        assert_eq!(rec.samples.len(), 1);
        assert!(rec.trace_events.is_empty());
    }

    #[test]
    fn write_and_read_back() {
        let dir = std::env::temp_dir().join("swallow_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FLIGHT_test.json");
        let t = Telemetry::with_stride(1);
        t.record_sample(sample(3));
        let rec = FlightRecord::capture("drift", "small", 7, &t.snapshot(), Vec::new(), 8);
        rec.write(&path).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(!written.is_empty());
        crate::skip_if_stub!();
        let back: FlightRecord = serde_json::from_str(&written).unwrap();
        assert_eq!(back, rec);
    }
}
