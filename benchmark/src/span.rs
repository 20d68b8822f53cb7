//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it. Coarse
//! boundaries (set-up, each rep, build, run, a parse scan, a shuffle round)
//! get one span each through [`Recorder::span`]. Per-call boundaries are
//! timed by a [`CallLog`], which folds every call into a [`Hist`] and keeps
//! only the first [`KEEP_CALLS`] as spans, so a million-coflow rep does not
//! hold millions of them. Spans stay in memory and are written once, when
//! the run ends ([`Recorder::to_json`]).

use crate::hist::Hist;
use serde_json::{json, Value};
use std::time::Instant;

/// How many calls of one kind are kept as spans per [`CallLog`].
pub const KEEP_CALLS: usize = 10_000;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name, e.g. `fabric.run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Span store of one workload run. Disabled (the untraced run) it records
/// nothing and [`Recorder::span`] only calls its closure.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `on` is whether this is the traced run.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Run `f` inside a span named `name`; the spans `f` records become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Move the calls a [`CallLog`] kept since it was last adopted in as
    /// children of the innermost open span (the log timed them while that
    /// span was running).
    pub fn adopt(&mut self, log: &mut CallLog) {
        let parent = self.open.last().copied();
        let name = log.name;
        self.spans
            .extend(log.kept.drain(..).map(|(start_ns, end_ns)| Span {
                name,
                start_ns,
                end_ns,
                parent,
            }));
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover. Children of one span never overlap here (one thread
    /// opens them in sequence), so the cover is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Every span as JSON, tagged with the workload that ran.
    pub fn to_json(&self, workload: &str) -> Value {
        let own = self.self_ns();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": own[id],
                    "parent": s.parent,
                    "workload": workload,
                })
            })
            .collect();
        json!({ "workload": workload, "spans": spans })
    }
}

/// Timer of one per-call boundary: every call goes into the histogram, the
/// first [`KEEP_CALLS`] are also kept as `(start, end)` for the span file.
#[derive(Debug, Clone)]
pub struct CallLog {
    name: &'static str,
    epoch: Instant,
    /// Every call's duration.
    pub hist: Hist,
    kept: Vec<(u64, u64)>,
}

impl CallLog {
    /// A log for the boundary `name`, on `rec`'s clock.
    pub fn new(name: &'static str, rec: &Recorder) -> Self {
        Self {
            name,
            epoch: rec.epoch(),
            hist: Hist::default(),
            kept: Vec::new(),
        }
    }

    /// Time one call of `f`.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.hist.record_ns((end - start).as_nanos() as u64);
        if self.hist.count() <= KEEP_CALLS as u64 {
            self.kept.push((
                (start - self.epoch).as_nanos() as u64,
                (end - self.epoch).as_nanos() as u64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            let mut log = CallLog::new("call", rec);
            for _ in 0..3 {
                log.time(|| std::hint::black_box(1 + 1));
            }
            rec.adopt(&mut log);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let outer = spans[0].end_ns - spans[0].start_ns;
        assert!(rec.self_ns()[0] <= outer - 5_000_000);
        let doc = rec.to_json("w");
        assert_eq!(doc["spans"].as_array().unwrap().len(), 5);
        assert_eq!(doc["spans"][1]["name"].as_str(), Some("inner"));
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn call_log_keeps_a_bounded_prefix() {
        let rec = Recorder::new(true);
        let mut log = CallLog::new("call", &rec);
        for _ in 0..KEEP_CALLS + 10 {
            log.time(|| ());
        }
        assert_eq!(log.hist.count() as usize, KEEP_CALLS + 10);
        assert_eq!(log.kept.len(), KEEP_CALLS);
    }
}
