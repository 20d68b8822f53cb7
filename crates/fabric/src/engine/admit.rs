//! Admission: what has arrived by this boundary enters the fabric.
//!
//! Reads `pending` (topped up from the arrival stream) and the fault plan.
//! Writes the live-flow table (ordered append), one [`FlowRecord`] per flow,
//! `coflow_meta` or a finished [`CoflowRecord`], `next_fault`, the slice
//! index (only to fast-forward over an idle gap), and raises
//! `needs_schedule` with cause `Arrival` or `Fault`.
//! Emits `CoflowArrived`, then per flow `FlowStarted` or (zero-sized)
//! `FlowCompleted`, then `CoflowCompleted` for a coflow with nothing to
//! send — each before its policy hook — and `FaultInjected` /
//! `FaultCleared` stamped with the fault boundary's own time.

use super::segment::ActiveFlow;
use super::{reached, upgrade_cause, CoflowMeta, CoflowRecord, Engine, FlowRecord};
use crate::alloc::FlowCommand;
use crate::coflow::Coflow;
use crate::flow::FlowProgress;
use crate::ids::FlowId;
use crate::policy::Policy;
use swallow_trace::{RescheduleCause, TraceEvent};

/// Panic if two neighbours of an id-sorted sequence share an id.
pub(super) fn assert_distinct(sorted: impl Iterator<Item = FlowId>) {
    let mut prev = None;
    for id in sorted {
        assert!(prev != Some(id), "duplicate flow id {id}");
        prev = Some(id);
    }
}

impl Engine {
    /// Top up the one-coflow lookahead from the arrival stream. Invariant:
    /// outside this call, `pending` is empty with `arrivals` attached only
    /// if the stream is exhausted — every site that pops `pending` refills
    /// immediately, so the loop's `pending.last()` / `pending.is_empty()`
    /// reads (idle fast-forward, the skip target, the stall net) keep
    /// their materialized-trace meaning.
    pub(super) fn refill(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        if let Some(stream) = self.arrivals.as_mut() {
            match stream.next() {
                Some(c) => {
                    assert!(
                        c.arrival >= self.stream_floor,
                        "arrival stream must be time-sorted: coflow {} arrives at {} \
                         after the stream reached {}",
                        c.id,
                        c.arrival,
                        self.stream_floor
                    );
                    self.stream_floor = c.arrival;
                    for f in &c.flows {
                        assert!(
                            self.fabric.contains(f.src) && self.fabric.contains(f.dst),
                            "flow {} references a node outside the fabric",
                            f.id
                        );
                    }
                    self.pending.push(c);
                }
                None => self.arrivals = None,
            }
        }
    }

    /// Fast-forward to the next arrival if nothing is live, then admit the
    /// coflows and observe the fault boundaries this boundary has reached.
    /// Returns whether a coflow was admitted.
    #[inline]
    pub(super) fn admit(&mut self, policy: &mut dyn Policy) -> bool {
        if self.active.is_empty() {
            self.fast_forward();
        }
        let (idx, delta) = (self.idx, self.config.slice);
        let now = idx as f64 * delta;
        let mut admitted = false;
        let mut out_of_order = false;
        while self
            .pending
            .last()
            .is_some_and(|c| reached(c.arrival, idx, delta))
        {
            let c = self.pending.pop().unwrap();
            // Keep the lookahead full so this loop's condition (and the
            // skip target downstream) see the next arrival.
            self.refill();
            admitted = true;
            out_of_order |= self.admit_coflow(&c, now, policy);
        }
        if out_of_order {
            // Stable, so the already ascending runs merge in one pass. An
            // id at or below the table's last may be a live flow's twin;
            // sorted, the two are neighbours.
            self.active.sort_by_key(|af| af.p.spec.id);
            assert_distinct(self.active.iter().map(|af| af.p.spec.id));
        }
        if admitted {
            upgrade_cause(&mut self.pending_cause, RescheduleCause::Arrival);
        }
        self.needs_schedule |= admitted;
        self.observe_faults();
        admitted
    }

    /// Fast-forward over an idle gap: jump to the slice boundary at or after
    /// the next arrival. The quotient can round down onto a boundary the
    /// admission test still finds too early (a fraction of an ulp short,
    /// once an ulp of `now` exceeds its tolerance); landing there would
    /// admit nothing and come back here for ever, so the landing is
    /// verified against that test.
    #[inline]
    fn fast_forward(&mut self) {
        let delta = self.config.slice;
        let now = self.idx as f64 * delta;
        let next = self.pending.last().map(|c| c.arrival).unwrap_or(now);
        if next > now {
            self.idx = (next / delta).ceil() as u64;
            while !reached(next, self.idx, delta) {
                // A step or two; only an arrival past the last boundary a
                // `u64` can index keeps failing the test.
                self.idx = self
                    .idx
                    .checked_add(1)
                    .expect("arrival lies beyond the slice grid");
            }
        }
    }

    /// Append `c`'s flows to the live table and file their records. Returns
    /// whether some id landed at or below the table's last.
    #[inline]
    fn admit_coflow(&mut self, c: &Coflow, now: f64, policy: &mut dyn Policy) -> bool {
        let tracer = &self.config.tracer;
        tracer.emit(now, || TraceEvent::CoflowArrived {
            coflow: c.id.0,
            flows: c.flows.len(),
        });
        policy.on_arrival(c, now);
        let mut out_of_order = false;
        let mut live = 0usize;
        for spec in &c.flows {
            let progress = FlowProgress::new(spec.clone(), c.id, c.arrival);
            // Zero-sized flows finish the moment they arrive.
            let done = progress.is_complete();
            let rec = self.records.len();
            self.ascending &= self.records.last().map(|r| r.id) < Some(spec.id);
            self.records.push(FlowRecord {
                id: spec.id,
                coflow: c.id,
                src: spec.src,
                dst: spec.dst,
                size: spec.size,
                arrival: c.arrival,
                completed_at: done.then_some(c.arrival),
                wire_bytes: 0.0,
                compressed_input: 0.0,
            });
            if done {
                tracer.emit(now, || TraceEvent::FlowCompleted {
                    flow: spec.id.0,
                    coflow: c.id.0,
                });
                policy.on_flow_complete(spec.id, c.id, spec.size, c.arrival);
            } else {
                tracer.emit(now, || TraceEvent::FlowStarted {
                    flow: spec.id.0,
                    coflow: c.id.0,
                });
                let ratio = self.config.compression.ratio(progress.spec.size);
                let mut af = ActiveFlow {
                    p: progress,
                    seg: self.idx,
                    base_raw: 0.0,
                    base_compressed: 0.0,
                    base_wire: 0.0,
                    base_cinput: 0.0,
                    cmd: FlowCommand::IDLE,
                    ratio,
                    rec,
                };
                af.reset_segment(self.idx, FlowCommand::IDLE);
                out_of_order |= self.active.last().is_some_and(|l| l.p.spec.id >= spec.id);
                self.active.push(af);
                live += 1;
            }
        }
        let record = CoflowRecord {
            id: c.id,
            arrival: c.arrival,
            // Coflow with no (non-empty) flows completes on arrival.
            completed_at: (live == 0).then_some(c.arrival),
            total_bytes: c.total_bytes(),
            num_flows: c.flows.len(),
        };
        if live == 0 {
            self.coflow_records.push(record);
            tracer.emit(now, || TraceEvent::CoflowCompleted { coflow: c.id.0 });
            policy.on_completion(c.id, now);
            self.makespan = self.makespan.max(c.arrival);
        } else {
            let meta = CoflowMeta {
                record,
                remaining: live,
                last_completion: 0.0,
            };
            self.coflow_meta.insert(c.id, meta);
        }
        out_of_order
    }

    /// Observe every fault-plan boundary reached by this slice: emit the
    /// window transitions and force a reschedule so the changed capacities
    /// (downed workers, degraded links, revoked cores) take effect. Events
    /// are stamped with the boundary time, which both the naive and
    /// skip-ahead paths observe at the same slice.
    #[inline]
    fn observe_faults(&mut self) {
        let tracer = &self.config.tracer;
        while let Some(boundary) = self.next_fault {
            if !reached(boundary, self.idx, self.config.slice) {
                break;
            }
            if tracer.is_enabled() {
                for tr in self.config.faults.transitions_at(boundary) {
                    let (kind, node) = (tr.kind.to_string(), tr.node);
                    tracer.emit(boundary, || {
                        if tr.begins {
                            TraceEvent::FaultInjected { kind, node }
                        } else {
                            TraceEvent::FaultCleared { kind, node }
                        }
                    });
                }
            }
            self.needs_schedule = true;
            upgrade_cause(&mut self.pending_cause, RescheduleCause::Fault);
            self.next_fault = self.config.faults.next_change_after(boundary);
        }
    }
}
