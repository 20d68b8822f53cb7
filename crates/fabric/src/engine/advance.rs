//! Time-advance: show the boundary to whoever watches, then jump to the next
//! boundary where something happens, or walk one slice.
//!
//! Reads the live-flow table through the closed forms, `pending`,
//! `next_fault` and the horizon. Writes the slice index and the jump memo on
//! a jump, and `completed_scratch`: the flows that finish inside this slice,
//! in table order, for retirement.
//! Emits `SkipAhead` at the boundary it leaves and `RawExhausted` stamped
//! `now + δ`, the end of the slice that ate the last raw byte; counts walked
//! and skipped slices. `Phase::Hooks` is timed only on a sampled boundary
//! with a checker installed.

use super::segment::first_slice_satisfying;
use super::{reached, Engine, EngineMode, Reschedule, BOUNDARY_SLACK};
use crate::observe::{BoundarySnapshot, FlowSnapshot};
use crate::VOLUME_EPS;
use std::time::Instant;
use swallow_metrics::telemetry::{Phase, Telemetry};
use swallow_trace::TraceEvent;

impl Engine {
    /// The one place state leaves the loop: build the id-ordered snapshot of
    /// this boundary via the non-mutating closed forms — once, and only if
    /// someone reads it — for the checker and, on a boundary the telemetry
    /// stride selected, the `sampler`. Commands and the closed-form state
    /// only change at visited boundaries, so the checker sees every distinct
    /// (state, command) configuration whether or not skip-ahead jumps the
    /// quiescent stretches in between; the sample is the same cut.
    #[inline]
    pub(super) fn observe_boundary(&mut self, sampler: Option<&Telemetry>) {
        let check = self.config.check.as_deref();
        if check.is_none() && sampler.is_none() {
            return;
        }
        // Timed only when a checker is actually installed — profiling the
        // one-branch disabled path would drown the histogram in zeros.
        let hooks_started = (sampler.is_some() && check.is_some()).then(Instant::now);
        let (idx, delta, speed) = (self.idx, self.config.slice, self.speed);
        self.snapshot_scratch.clear();
        self.snapshot_scratch.extend(self.active.iter().map(|af| {
            let (raw, compressed, wire_bytes, compressed_input) =
                af.state_at(idx - af.seg, speed, delta);
            FlowSnapshot {
                id: af.p.spec.id,
                coflow: af.p.coflow,
                src: af.p.spec.src,
                dst: af.p.spec.dst,
                original_size: af.p.spec.size,
                raw,
                compressed,
                wire_bytes,
                compressed_input,
                compressible: af.p.spec.compressible,
                cmd: af.cmd,
                ratio: af.ratio,
            }
        }));
        let snapshot = BoundarySnapshot {
            now: idx as f64 * delta,
            slice: delta,
            slice_idx: idx,
            fabric: &self.fabric,
            cpu: &self.cpu,
            faults: &self.config.faults,
            flows: &self.snapshot_scratch,
            compression_speed: speed,
            active_coflows: self.coflow_meta.len(),
            pending_coflows: self.pending.len(),
            reschedules: self.reschedules,
            retired_wire: self.retired_wire,
            retired_saved: self.retired_saved,
        };
        if let Some(check) = check {
            check.at_boundary(&snapshot);
        }
        if let Some(t) = sampler {
            let mut sample = snapshot.telemetry_sample();
            // Estimation gauges are owned by the policy (a sampling wrapper
            // publishes them during allocate); fold in the latest values.
            (sample.est_tracked_coflows, sample.est_mean_abs_rel_err) = t.estimation();
            t.record_sample(sample);
            if let Some(s) = hooks_started {
                t.record_phase(Phase::Hooks, s.elapsed());
            }
        }
    }

    /// Materialize every active flow's state at this boundary.
    #[inline]
    pub(super) fn materialize_all(&mut self) {
        let (idx, delta, speed) = (self.idx, self.config.slice, self.speed);
        for af in &mut self.active {
            af.materialize(idx - af.seg, speed, delta);
        }
    }

    /// Quiescent skip-ahead (EventsOnly only; under EverySlice the policy
    /// must run at every boundary). Returns whether the loop moved. On the
    /// boundary the last jump aimed at, `skip_target` would rebuild the
    /// candidates that chose it and answer "here", so it is not asked.
    #[inline]
    pub(super) fn jump(&mut self) -> bool {
        let idx = self.idx;
        if self.config.mode != EngineMode::SkipAhead
            || self.config.reschedule != Reschedule::EventsOnly
            || self.landed == Some(idx)
        {
            return false;
        }
        let target = self.skip_target();
        if target <= idx {
            return false;
        }
        let tracer = &self.config.tracer;
        tracer.emit(idx as f64 * self.config.slice, || TraceEvent::SkipAhead {
            from_slice: idx,
            to_slice: target,
        });
        tracer.skipped(target - idx);
        self.idx = target;
        self.landed = Some(target);
        self.stall_slices = 0;
        true
    }

    /// The first slice index ≥ `idx` whose processing (or whose boundary)
    /// does something observable: a flow completion, a raw exhaustion, a
    /// coflow arrival, a fault-plan boundary, or the horizon check.
    /// Returning `idx` means "don't skip".
    #[inline]
    fn skip_target(&self) -> u64 {
        let (idx, delta, speed) = (self.idx, self.config.slice, self.speed);
        let mut target = u64::MAX;
        let mut any_progress = false;
        for af in &self.active {
            let n0 = idx - af.seg;
            if af.cmd.compress {
                if speed <= 0.0 || af.raw_at(n0, speed, delta) <= VOLUME_EPS {
                    continue;
                }
                any_progress = true;
                let est = (af.base_raw - VOLUME_EPS) / (speed * delta);
                let exhausted = |n| af.raw_at(n, speed, delta) <= VOLUME_EPS;
                let Some(n) = first_slice_satisfying(est, n0, exhausted) else {
                    return idx;
                };
                target = target.min(af.seg + n - 1);
            } else if af.cmd.rate > 0.0 {
                if af.volume_at(n0, speed, delta) <= VOLUME_EPS {
                    // Already complete (can only arise through an exotic
                    // command sequence); the naive path retires it this
                    // slice, so don't jump over that.
                    return idx;
                }
                any_progress = true;
                let est = (af.base_raw + af.base_compressed - VOLUME_EPS) / (af.cmd.rate * delta);
                let drained = |n| af.volume_at(n, speed, delta) <= VOLUME_EPS;
                let Some(n) = first_slice_satisfying(est, n0, drained) else {
                    return idx;
                };
                target = target.min(af.seg + n - 1);
            }
        }
        if !any_progress && self.pending.is_empty() {
            // The stall counter must tick slice-by-slice towards termination.
            return idx;
        }
        // Next admission boundary.
        if let Some(c) = self.pending.last() {
            let arr = c.arrival;
            let est = (arr - BOUNDARY_SLACK) / delta;
            match first_slice_satisfying(est, idx, |b| reached(arr, b, delta)) {
                Some(b) => target = target.min(b),
                None => return idx,
            }
        }
        // Next fault-plan boundary: the slice observing it reschedules with
        // changed capacities, so it must run through the full loop. This is
        // what keeps faulted runs bit-identical between the fast and naive
        // paths — a jump never crosses a capacity change.
        if let Some(b) = self.next_fault {
            if reached(b, idx, delta) {
                return idx;
            }
            match first_slice_satisfying(b / delta, idx, |j| reached(b, j, delta)) {
                Some(j) => target = target.min(j),
                None => return idx,
            }
        }
        // Horizon: the loop breaks after processing slice j when
        // (j+1)·δ > max_time; that slice must be processed naively.
        let mt = self.config.max_time;
        if (idx + 1) as f64 * delta > mt {
            return idx;
        }
        match first_slice_satisfying(mt / delta, idx, |j| (j + 1) as f64 * delta > mt) {
            Some(j) => target = target.min(j),
            None => return idx,
        }
        if target == u64::MAX {
            idx
        } else {
            target.max(idx)
        }
    }

    /// Advance one slice of volume disposal via the closed forms. Returns
    /// whether any byte moved and whether some flow ran out of raw bytes.
    #[inline]
    pub(super) fn detect(&mut self) -> (bool, bool) {
        let (idx, delta, speed) = (self.idx, self.config.slice, self.speed);
        let now = idx as f64 * delta;
        let tracer = &self.config.tracer;
        tracer.slices(1);
        let mut progressed = false;
        let mut raw_exhausted = false;
        self.completed_scratch.clear();
        for af in &self.active {
            let n0 = idx - af.seg;
            let n1 = n0 + 1;
            if af.cmd.compress {
                let raw0 = af.raw_at(n0, speed, delta);
                let consumed =
                    af.compress_consumed(n1, speed, delta) - af.compress_consumed(n0, speed, delta);
                if consumed > 0.0 {
                    progressed = true;
                }
                if raw0 > VOLUME_EPS && af.raw_at(n1, speed, delta) <= VOLUME_EPS {
                    tracer.emit(now + delta, || TraceEvent::RawExhausted {
                        flow: af.p.spec.id.0,
                    });
                    raw_exhausted = true;
                }
            } else if af.cmd.rate > 0.0 {
                let vol0 = af.volume_at(n0, speed, delta);
                let (fc0, fr0) = af.tx_parts(n0, delta);
                let (fc1, fr1) = af.tx_parts(n1, delta);
                if (fc1 + fr1) - (fc0 + fr0) > 0.0 {
                    progressed = true;
                }
                if af.volume_at(n1, speed, delta) <= VOLUME_EPS {
                    let eta = vol0 / af.cmd.rate;
                    self.completed_scratch
                        .push((af.p.spec.id, now + eta.min(delta)));
                }
            }
        }
        (progressed, raw_exhausted)
    }
}
