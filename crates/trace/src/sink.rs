//! Pluggable trace sinks: ring buffer, in-memory collector, JSONL and Chrome
//! `trace_event` exporters, and a condvar-backed waiter for tests.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::event::{TraceEvent, TraceRecord};

/// Destination for trace records. Implementations take `&self` so one sink
/// can be shared across threads (worker daemons, test waiters).
pub trait Sink: Send + Sync {
    /// Store or write one event observed at `time` (seconds).
    fn record(&self, time: f64, event: &TraceEvent);

    /// Finalize buffered output. Called once when a run ends; the default is
    /// a no-op for unbuffered sinks.
    fn flush(&self) {}
}

/// Fixed-capacity ring buffer keeping the most recent records. The default
/// in-process sink: bounded memory however long the run.
pub struct RingSink {
    buf: Mutex<VecDeque<TraceRecord>>,
    capacity: usize,
}

impl RingSink {
    /// Ring holding at most `capacity` records (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.buf.lock().unwrap().iter().cloned().collect()
    }
}

impl Sink for RingSink {
    fn record(&self, time: f64, event: &TraceEvent) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(TraceRecord {
            t: time,
            event: event.clone(),
        });
    }
}

/// Unbounded in-memory collector, for tests and small scenarios.
#[derive(Default)]
pub struct CollectSink {
    records: Mutex<Vec<TraceRecord>>,
}

impl CollectSink {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// All records so far, in emission order.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Drain and return the records collected so far.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records.lock().unwrap())
    }
}

impl Sink for CollectSink {
    fn record(&self, time: f64, event: &TraceEvent) {
        self.records.lock().unwrap().push(TraceRecord {
            t: time,
            event: event.clone(),
        });
    }
}

/// Streams one JSON object per line: `{"t":0.01,"type":"rescheduled",...}`.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Write JSONL records to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&self, time: f64, event: &TraceEvent) {
        let rec = TraceRecord {
            t: time,
            event: event.clone(),
        };
        let mut out = self.out.lock().unwrap();
        // Serialization of this schema cannot fail; I/O errors surface at
        // flush time via the writer.
        let line = serde_json::to_string(&rec).expect("trace record serializes");
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

/// Collects records and writes a Chrome `trace_event` JSON document on flush
/// (open in `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// Every record becomes an instant event (`ph: "i"`) on a per-layer track:
/// simulated seconds map to trace microseconds.
pub struct ChromeTraceSink<W: Write + Send> {
    records: Mutex<Vec<TraceRecord>>,
    out: Mutex<Option<W>>,
}

impl<W: Write + Send> ChromeTraceSink<W> {
    /// Buffer events and emit the trace document to `out` on [`Sink::flush`].
    pub fn new(out: W) -> Self {
        Self {
            records: Mutex::new(Vec::new()),
            out: Mutex::new(Some(out)),
        }
    }

    fn track_of(category: &str) -> u64 {
        match category {
            "engine" => 1,
            "sched" => 2,
            "core" => 3,
            _ => 4,
        }
    }
}

impl<W: Write + Send> Sink for ChromeTraceSink<W> {
    fn record(&self, time: f64, event: &TraceEvent) {
        self.records.lock().unwrap().push(TraceRecord {
            t: time,
            event: event.clone(),
        });
    }

    fn flush(&self) {
        let Some(mut out) = self.out.lock().unwrap().take() else {
            return; // already flushed
        };
        let records = std::mem::take(&mut *self.records.lock().unwrap());
        let mut events = Vec::with_capacity(records.len() + 4);
        for cat in ["engine", "sched", "core", "cluster"] {
            events.push(serde_json::json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": Self::track_of(cat),
                "args": {"name": cat},
            }));
        }
        for rec in records {
            events.push(serde_json::json!({
                "name": rec.event.kind(),
                "cat": rec.event.category(),
                "ph": "i",
                "s": "t",
                "ts": rec.t * 1e6,
                "pid": 1,
                "tid": Self::track_of(rec.event.category()),
                "args": rec.event,
            }));
        }
        let doc = serde_json::json!({ "traceEvents": events });
        let _ = out.write_all(doc.to_string().as_bytes());
        let _ = out.flush();
    }
}

/// Test sink: records events and wakes waiters, so tests can block on an
/// *observed* condition instead of sleeping a hopeful number of milliseconds.
#[derive(Default)]
pub struct EventWaiter {
    records: Mutex<Vec<TraceRecord>>,
    cond: Condvar,
}

impl EventWaiter {
    /// Empty waiter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Block until `pred` holds over all records seen so far, or `timeout`
    /// elapses. Returns whether the predicate was satisfied.
    pub fn wait_until(&self, timeout: Duration, pred: impl Fn(&[TraceRecord]) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut records = self.records.lock().unwrap();
        loop {
            if pred(&records) {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return pred(&records);
            };
            let (guard, _) = self.cond.wait_timeout(records, left).unwrap();
            records = guard;
        }
    }

    /// Convenience: wait for at least one event matching `pred`.
    pub fn wait_for_event(&self, timeout: Duration, pred: impl Fn(&TraceEvent) -> bool) -> bool {
        self.wait_until(timeout, |recs| recs.iter().any(|r| pred(&r.event)))
    }

    /// Snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }
}

impl Sink for EventWaiter {
    fn record(&self, time: f64, event: &TraceEvent) {
        self.records.lock().unwrap().push(TraceRecord {
            t: time,
            event: event.clone(),
        });
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(flow: u64) -> TraceEvent {
        TraceEvent::FlowCompleted { flow, coflow: 0 }
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = RingSink::new(2);
        for i in 0..5 {
            ring.record(i as f64, &ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].event, ev(3));
        assert_eq!(snap[1].event, ev(4));
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(0.5, &ev(1));
        sink.record(1.0, &ev(2));
        let out = sink.out.into_inner().unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        swallow_metrics::skip_if_stub!();
        let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v["type"], "flow_completed");
        assert_eq!(v["t"], 0.5);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = ChromeTraceSink::new(Shared(buf.clone()));
        sink.record(0.01, &ev(7));
        sink.flush();
        sink.flush(); // idempotent
        let bytes = buf.lock().unwrap().clone();
        assert!(!bytes.is_empty(), "flush wrote the document");
        swallow_metrics::skip_if_stub!();
        let doc: serde_json::Value = serde_json::from_slice(&bytes).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // 4 thread-name metadata records + 1 instant event.
        assert_eq!(events.len(), 5);
        let inst = &events[4];
        assert_eq!(inst["ph"], "i");
        assert_eq!(inst["ts"], 0.01 * 1e6);
        assert_eq!(inst["args"]["flow"], 7);
    }

    #[test]
    fn waiter_sees_events_from_other_threads() {
        let waiter = std::sync::Arc::new(EventWaiter::new());
        let w = waiter.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            w.record(0.0, &ev(42));
        });
        let hit = waiter.wait_for_event(Duration::from_secs(5), |e| {
            matches!(e, TraceEvent::FlowCompleted { flow: 42, .. })
        });
        assert!(hit);
        handle.join().unwrap();
        assert!(!waiter.wait_for_event(Duration::from_millis(5), |e| {
            matches!(e, TraceEvent::HorizonReached)
        }));
    }
}
