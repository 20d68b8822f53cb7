//! The scheduling interface and a reference fair-share policy.
//!
//! Real schedulers (FVDF, SEBF, …) live in `swallow-sched`; the fabric crate
//! only fixes the contract and ships [`FairSharePolicy`] so the engine can be
//! tested and documented without a circular dependency.

use crate::alloc::{water_fill_with, Allocation, FlowCommand, WaterFillScratch};
use crate::coflow::Coflow;
use crate::ids::CoflowId;
use crate::view::FabricView;

/// A coflow scheduling policy.
///
/// The engine calls [`Policy::allocate`] at every rescheduling point (see
/// [`crate::engine::Reschedule`]) with a fresh [`FabricView`]; the returned
/// [`Allocation`] stays in force until the next call. Flows omitted from the
/// allocation idle.
pub trait Policy {
    /// Human-readable name used in reports ("FVDF", "SEBF", …).
    fn name(&self) -> &str;

    /// Produce per-flow rates and compression decisions for the next period.
    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation;

    /// Notification that `coflow` was admitted at `now`. Stateful policies
    /// (e.g. priority aging) hook this; the default is a no-op.
    fn on_arrival(&mut self, coflow: &Coflow, now: f64) {
        let _ = (coflow, now);
    }

    /// Notification that `coflow` finished at `now`.
    fn on_completion(&mut self, coflow: CoflowId, now: f64) {
        let _ = (coflow, now);
    }

    /// Notification that flow `flow` of `coflow` drained its last byte at
    /// `now`; `size` is the flow's true original size. Non-clairvoyant
    /// policies use this to replace an estimate with the revealed ground
    /// truth. The engine fires the hook in ascending flow-id order within a
    /// retire batch, and flow completions are events every engine mode
    /// visits, so the call sequence is identical across modes. Default is a
    /// no-op.
    fn on_flow_complete(
        &mut self,
        flow: crate::ids::FlowId,
        coflow: CoflowId,
        size: f64,
        now: f64,
    ) {
        let _ = (flow, coflow, size, now);
    }

    /// Hand the policy the engine's tracer so it can emit scheduling events
    /// (chosen order, disposal estimates, water-fill rounds). Called once at
    /// the start of [`crate::Engine::run`]; the default discards it, so
    /// stateless policies need no change.
    fn set_tracer(&mut self, tracer: swallow_trace::Tracer) {
        let _ = tracer;
    }

    /// Hand the policy the engine's telemetry collector (see
    /// [`swallow_metrics::Telemetry`]) so scheduler-internal phases — the
    /// water-fill scan above all — can feed the phase profiler. Called once
    /// at the start of [`crate::Engine::run`]; `None` (the default
    /// configuration) means telemetry is disabled and the policy must not
    /// time anything. The default implementation discards the handle, so
    /// stateless policies need no change.
    fn set_telemetry(&mut self, telemetry: Option<std::sync::Arc<swallow_metrics::Telemetry>>) {
        let _ = telemetry;
    }
}

/// Per-flow max-min fair sharing with no compression — the network-layer
/// default the paper calls PFF when discussed per flow. Kept here as the
/// engine's reference policy. Holds a [`WaterFillScratch`] so repeated
/// allocations reuse buffers.
#[derive(Debug, Default, Clone)]
pub struct FairSharePolicy {
    fill: WaterFillScratch,
}

impl Policy for FairSharePolicy {
    fn name(&self) -> &str {
        "fair-share"
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let demands: Vec<_> = view.flows.iter().map(|f| (f.id, f.src, f.dst)).collect();
        let rates = water_fill_with(view.fabric, &demands, &mut self.fill);
        let mut alloc = Allocation::new();
        for (flow, rate) in rates {
            if rate > 0.0 {
                alloc.set(flow, FlowCommand::transmit(rate));
            }
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;
    use crate::ids::{FlowId, NodeId};
    use crate::port::Fabric;
    use crate::view::{ConstCompression, FlowView};

    #[test]
    fn fair_share_allocates_all_flows() {
        let fabric = Fabric::uniform(3, 12.0);
        let cpu = CpuModel::unconstrained(3, 4);
        let comp = ConstCompression::disabled();
        let flows = vec![
            FlowView {
                id: FlowId(1),
                coflow: CoflowId(1),
                src: NodeId(0),
                dst: NodeId(1),
                original_size: 10.0,
                raw: 10.0,
                compressed: 0.0,
                arrival: 0.0,
                compressible: true,
            },
            FlowView {
                id: FlowId(2),
                coflow: CoflowId(2),
                src: NodeId(0),
                dst: NodeId(2),
                original_size: 4.0,
                raw: 4.0,
                compressed: 0.0,
                arrival: 0.0,
                compressible: true,
            },
        ];
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows,
        };
        let mut p = FairSharePolicy::default();
        let alloc = p.allocate(&view);
        assert_eq!(alloc.len(), 2);
        assert!((alloc.get(FlowId(1)).rate - 6.0).abs() < 1e-9);
        assert!((alloc.get(FlowId(2)).rate - 6.0).abs() < 1e-9);
        assert!(alloc.check_feasible(&view).is_ok());
    }
}
