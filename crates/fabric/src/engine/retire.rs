//! Retirement: the flows that finished inside the slice leave the table, the
//! loop steps to the next boundary, and the run ends when nothing is left or
//! nothing can move.
//!
//! Reads `completed_scratch`. Writes each retired flow's [`super::FlowRecord`] in
//! place, the retired-byte ledgers, `coflow_meta` and a [`super::CoflowRecord`] when
//! a coflow's last flow goes, the makespan, the slice index, the stall
//! counter, and raises `needs_schedule` with cause `Completion` or
//! `RawExhausted`.
//! Emits `FlowCompleted` and `CoflowCompleted` stamped with the interpolated
//! completion time, in flow-id order, each before its policy hook;
//! `HorizonReached` when a safety net ends the run.

use super::admit::assert_distinct;
use super::{upgrade_cause, Engine, SimResult};
use crate::policy::Policy;
use swallow_trace::{RescheduleCause, TraceEvent};

impl Engine {
    /// Retire completed flows and coflows in flow-id order: the list was
    /// gathered along the table, so one compaction pass from the first
    /// completed entry meets each where it stands and writes every survivor
    /// behind it once, into its final slot. Then step to the next boundary.
    #[inline]
    pub(super) fn retire(&mut self, policy: &mut dyn Policy, raw_exhausted: bool) {
        let (idx, delta, speed) = (self.idx, self.config.slice, self.speed);
        let tracer = &self.config.tracer;
        let start = self
            .completed_scratch
            .first()
            .map_or(self.active.len(), |&(first, _)| {
                self.active
                    .binary_search_by_key(&first, |af| af.p.spec.id)
                    .expect("completed flow is active")
            });
        let (mut kept, mut due) = (start, 0);
        for at in start..self.active.len() {
            let id = self.active[at].p.spec.id;
            let t = match self.completed_scratch.get(due) {
                Some(&(done, t)) if done == id => t,
                _ => {
                    // `kept < at`: the pass starts on a completed entry.
                    self.active[kept] = self.active[at].clone();
                    kept += 1;
                    continue;
                }
            };
            due += 1;
            let af = &mut self.active[at];
            af.materialize(idx - af.seg + 1, speed, delta);
            let (p, ratio) = (&af.p, af.ratio);
            // Receiver-side decompression happens off the network path;
            // when modelled, it delays the flow's completion by the
            // compressed bytes over the decompressor's speed.
            let t = if self.config.model_decompression && p.compressed_input > 0.0 {
                let compressed_bytes = p.compressed_input * ratio;
                t + compressed_bytes / self.config.compression.decompress_speed()
            } else {
                t
            };
            let rec = &mut self.records[af.rec];
            rec.completed_at = Some(t);
            rec.wire_bytes = p.wire_bytes;
            rec.compressed_input = p.compressed_input;
            // Retired-flow byte ledger for boundary snapshots: bytes that
            // crossed the wire, and bytes compression kept off it.
            self.retired_wire += p.wire_bytes;
            self.retired_saved += p.compressed_input * (1.0 - ratio);
            self.makespan = self.makespan.max(t);
            tracer.emit(t, || TraceEvent::FlowCompleted {
                flow: id.0,
                coflow: p.coflow.0,
            });
            policy.on_flow_complete(id, p.coflow, p.spec.size, t);
            let meta = self
                .coflow_meta
                .get_mut(&p.coflow)
                .expect("coflow meta exists");
            meta.remaining -= 1;
            meta.last_completion = meta.last_completion.max(t);
            if meta.remaining == 0 {
                let done = meta.last_completion;
                let mut meta = self.coflow_meta.remove(&p.coflow).expect("just found");
                meta.record.completed_at = Some(done);
                self.coflow_records.push(meta.record);
                tracer.emit(done, || TraceEvent::CoflowCompleted { coflow: p.coflow.0 });
                policy.on_completion(p.coflow, done);
            }
            self.needs_schedule = true;
            upgrade_cause(&mut self.pending_cause, RescheduleCause::Completion);
        }
        self.active.truncate(kept);
        if raw_exhausted {
            self.needs_schedule = true;
            upgrade_cause(&mut self.pending_cause, RescheduleCause::RawExhausted);
        }
        self.idx += 1;
    }

    /// Stall and horizon safety nets: whether the run ends at the boundary
    /// just stepped to. A pending fault boundary keeps the stall net
    /// disarmed: flows idled by a crash window are expected to sit still
    /// until the restart boundary re-enables them.
    #[inline]
    pub(super) fn must_stop(&mut self, progressed: bool, admitted: bool) -> bool {
        let now = self.idx as f64 * self.config.slice;
        if progressed || admitted {
            self.stall_slices = 0;
        } else {
            self.stall_slices += 1;
        }
        let blocked_forever =
            self.stall_slices > 3 && self.pending.is_empty() && self.next_fault.is_none();
        let over = blocked_forever || now > self.config.max_time;
        if over {
            self.config.tracer.emit(now, || TraceEvent::HorizonReached);
        }
        over
    }

    /// Assemble the result; what an abort left open keeps partial records.
    pub(super) fn finish(mut self, policy: &dyn Policy) -> SimResult {
        // Flows still active at abort keep partial accounting.
        self.materialize_all();
        for af in &self.active {
            let rec = &mut self.records[af.rec];
            rec.wire_bytes = af.p.wire_bytes;
            rec.compressed_input = af.p.compressed_input;
        }
        // Records come back in flow-id order. They are in it already unless
        // some id arrived at or below its predecessor; only such a trace can
        // hold a retired flow's twin, which the sort puts beside it.
        if !self.ascending {
            self.records.sort_by_key(|r| r.id);
            assert_distinct(self.records.iter().map(|r| r.id));
        }
        // Coflows still open at abort get recorded as incomplete.
        let mut coflows = self.coflow_records;
        coflows.extend(self.coflow_meta.into_values().map(|m| m.record));
        coflows.sort_by(|a, b| {
            a.completed_at
                .unwrap_or(f64::INFINITY)
                .total_cmp(&b.completed_at.unwrap_or(f64::INFINITY))
        });

        SimResult {
            policy: policy.name().to_string(),
            flows: self.records,
            coflows,
            makespan: self.makespan,
            reschedules: self.reschedules,
        }
    }
}
