//! The decision: `VolumeDisposal`, then β and the rates it chose cut down to
//! what the fabric, the fault plan and the CPUs can give. [`Engine::decide`]
//! is the seam: after `policy.allocate` there, everything is this fabric's.
//!
//! Reads the live-flow table (materialized here), the fabric, the CPU model,
//! the fault plan and the allocation in force. Writes every flow's segment
//! when the decision differs from that allocation, the allocation,
//! `reschedules`, and clears `needs_schedule`, the cause and the jump memo.
//! Emits `CompressionGranted` / `Denied` in flow-id order, then
//! `Rescheduled`, then `FlowPreempted` per flow the new order stopped. Reads
//! the wall clock only under a tracer or a sampled boundary
//! (`Phase::Materialize`, `Phase::Schedule`).

use super::segment::ActiveFlow;
use super::Engine;
use crate::alloc::{seek, Allocation, FlowCommand, TouchedCounters};
use crate::cpu::CpuModel;
use crate::policy::Policy;
use crate::view::{FabricView, FlowView};
use crate::VOLUME_EPS;
use std::time::Instant;
use swallow_faults::Injector;
use swallow_metrics::telemetry::{Phase, Telemetry};
use swallow_trace::{DenialReason, RescheduleCause, TraceEvent, Tracer};

impl Engine {
    /// Invoke the policy at this boundary and put its decision in force.
    #[inline]
    pub(super) fn reschedule(&mut self, policy: &mut dyn Policy, sampler: Option<&Telemetry>) {
        let idx = self.idx;
        let now = idx as f64 * self.config.slice;
        // Wall-clock cost of the decision (policy + feasibility clamps);
        // read only when tracing or profiling so the disabled path stays
        // free of syscalls.
        let started = (self.config.tracer.is_enabled() || sampler.is_some()).then(Instant::now);
        self.materialize_all();
        if let (Some(t), Some(s)) = (sampler, started) {
            // Materialization runs first, so its phase shares the
            // decision's start instant (one syscall, not two).
            t.record_phase(Phase::Materialize, s.elapsed());
        }
        let (decided, outstanding) = self.decide(policy, now);
        let tracer = &self.config.tracer;
        if let Some(started) = started {
            let elapsed = started.elapsed();
            tracer.reschedule_latency(elapsed.as_secs_f64());
            if let Some(t) = sampler {
                // The full decision: materialize + policy + clamps + CPU
                // admission.
                t.record_phase(Phase::Schedule, elapsed);
            }
        }
        let cause = if self.reschedules == 0 {
            RescheduleCause::Initial
        } else {
            self.pending_cause.unwrap_or(RescheduleCause::Periodic)
        };
        self.pending_cause = None;
        self.reschedules += 1;
        self.landed = None;
        tracer.emit(now, || TraceEvent::Rescheduled {
            cause,
            flows: outstanding,
        });
        self.needs_schedule = false;
        // Segments continue through a reschedule that re-applies the
        // identical allocation (this is what lets EventsOnly and a quiescent
        // EverySlice run share one trajectory); any change re-bases every
        // flow at this boundary.
        if !self.applied || self.alloc != decided {
            let mut at = 0;
            for af in &mut self.active {
                let cmd = decided.seek(&mut at, af.p.spec.id);
                // A flow that was transmitting and now gets neither rate nor
                // a core was preempted by the new order.
                if af.cmd.rate > 0.0 && cmd.rate <= 0.0 && !cmd.compress {
                    tracer.emit(now, || TraceEvent::FlowPreempted {
                        flow: af.p.spec.id.0,
                    });
                }
                af.reset_segment(idx, cmd);
            }
            self.alloc = decided;
            self.applied = true;
        }
    }

    /// Ask the policy, then cut its answer down to what is there to give.
    /// Returns the allocation and how many flows the policy was shown.
    #[inline]
    fn decide(&mut self, policy: &mut dyn Policy, now: f64) -> (Allocation, usize) {
        // The table is ascending in flow id, so the view is too. Its flow
        // list is a scratch buffer, taken here and put back (empty) below.
        let mut flows = std::mem::take(&mut self.view_scratch);
        let live = self.active.iter().filter(|af| !af.p.is_complete());
        flows.extend(live.map(|af| FlowView::from_progress(&af.p)));
        let view = FabricView {
            now,
            slice: self.config.slice,
            fabric: &self.fabric,
            cpu: &self.cpu,
            compression: self.config.compression.as_ref(),
            flows,
        };
        let outstanding = view.flows.len();
        let mut decided = policy.allocate(&view);
        decided.clamp_with_scratch(&view, &mut self.port_scratch);
        apply_fault_limits(&self.config.faults, &self.active, &mut decided, now);
        let kept_rate = enforce_cpu(
            &self.cpu,
            &self.config.faults,
            &self.active,
            &mut self.core_scratch,
            &mut decided,
            now,
            &self.config.tracer,
        );
        if kept_rate {
            // Compression denials fell back to their transmit rates, which
            // the first clamp never saw; re-clamp so the fallback cannot
            // oversubscribe a port.
            decided.clamp_with_scratch(&view, &mut self.port_scratch);
        }
        let FabricView { mut flows, .. } = view;
        flows.clear();
        self.view_scratch = flows;
        (decided, outstanding)
    }
}

/// Apply fault-plan capacity limits to a freshly clamped allocation:
/// flows touching a crashed worker are idled (their bytes cannot move
/// until the restart boundary reschedules them back in), and rates
/// crossing a degraded port are scaled by the active factor. Scaling
/// down never oversubscribes, so no re-clamp is needed; running before
/// CPU admission means an idled flow no longer requests a core.
#[inline]
fn apply_fault_limits(faults: &Injector, active: &[ActiveFlow], alloc: &mut Allocation, now: f64) {
    if faults.is_empty() {
        return;
    }
    let mut at = 0;
    for (id, cmd) in alloc.iter_mut() {
        let Some(af) = seek(active, &mut at, id, |af| af.p.spec.id) else {
            continue;
        };
        let spec = &af.p.spec;
        if faults.is_worker_down(spec.src.0, now) || faults.is_worker_down(spec.dst.0, now) {
            *cmd = FlowCommand::IDLE;
            continue;
        }
        let factor = faults
            .link_factor(spec.src.0, now)
            .min(faults.link_factor(spec.dst.0, now));
        if factor < 1.0 && cmd.rate > 0.0 {
            cmd.rate *= factor;
        }
    }
}

/// Limit compression commands per sender to the node's free cores; the
/// paper's compression strategy requires "CPU resources are enough"
/// (Pseudocode 1, line 4). Flows whose raw part is already exhausted
/// cannot usefully compress either, and a fault plan can revoke cores
/// the CPU model would otherwise grant. A flow denied compression falls
/// back to *transmitting at its policy-assigned rate* rather than
/// idling — idling would discard bandwidth the policy already reserved
/// for it; this is also the graceful-degradation path for mid-run core
/// revocation. Returns true when any fallback kept a positive rate (the
/// caller re-clamps, since compressing flows are invisible to port
/// loads).
#[inline]
fn enforce_cpu(
    cpu: &CpuModel,
    faults: &Injector,
    active: &[ActiveFlow],
    cpu_used: &mut TouchedCounters,
    alloc: &mut Allocation,
    now: f64,
    tracer: &Tracer,
) -> bool {
    cpu_used.reset(cpu.num_nodes());
    let mut kept_rate = false;
    // Allocation iterates in ascending flow id, so core grants keep the
    // deterministic first-come-first-served-by-id order.
    let mut at = 0;
    for (id, cmd) in alloc.iter_mut() {
        if !cmd.compress {
            continue;
        }
        let Some(af) = seek(active, &mut at, id, |af| af.p.spec.id) else {
            *cmd = FlowCommand::IDLE;
            continue;
        };
        let p = &af.p;
        let denial = if !p.spec.compressible {
            Some(DenialReason::Incompressible)
        } else if p.raw <= VOLUME_EPS {
            Some(DenialReason::RawExhausted)
        } else {
            let used = cpu_used.get(p.spec.src.index());
            let free = cpu.free_cores(p.spec.src, now);
            let granted = free.saturating_sub(faults.revoked_cores(p.spec.src.0, now));
            if used < granted {
                None
            } else if used < free {
                Some(DenialReason::CoreRevoked)
            } else {
                Some(DenialReason::NoFreeCore)
            }
        };
        match denial {
            Some(reason) => {
                tracer.emit(now, || TraceEvent::CompressionDenied {
                    flow: id.0,
                    node: p.spec.src.0,
                    reason,
                });
                *cmd = FlowCommand::transmit(cmd.rate);
                kept_rate |= cmd.rate > 0.0;
            }
            None => {
                tracer.emit(now, || TraceEvent::CompressionGranted {
                    flow: id.0,
                    node: p.spec.src.0,
                });
                cpu_used.inc(p.spec.src.index());
            }
        }
    }
    kept_rate
}
