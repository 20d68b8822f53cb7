//! Traces, a policy and an assertion that more than one module uses.

use swallow_fabric::engine::SimResult;
use swallow_fabric::{Allocation, Coflow, FabricView, FlowCommand, FlowSpec, Policy, VOLUME_EPS};

pub fn single_flow_trace(size: f64) -> Vec<Coflow> {
    vec![Coflow::builder(0)
        .arrival(0.0)
        .flow(FlowSpec::new(0, 0, 1, size))
        .build()]
}

/// β=1 while raw remains, then full-rate transmit (the feasibility clamp
/// shares a port several flows ask for in full).
pub struct CompressThenSend;
impl Policy for CompressThenSend {
    fn name(&self) -> &str {
        "compress-then-send"
    }
    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let mut a = Allocation::new();
        for f in &view.flows {
            if f.raw > VOLUME_EPS {
                a.set(f.id, FlowCommand::compressing());
            } else {
                a.set(f.id, FlowCommand::transmit(view.min_port_cap(f)));
            }
        }
        a
    }
}

pub fn staggered_trace() -> Vec<Coflow> {
    vec![
        Coflow::builder(0)
            .arrival(0.0)
            .flow(FlowSpec::new(0, 0, 1, 1000.0))
            .flow(FlowSpec::new(1, 0, 2, 400.0))
            .build(),
        Coflow::builder(1)
            .arrival(3.137)
            .flow(FlowSpec::new(2, 1, 2, 700.0))
            .build(),
        Coflow::builder(2)
            .arrival(20.0)
            .flow(FlowSpec::new(3, 2, 0, 100.0))
            .build(),
    ]
}

pub fn assert_bit_identical(fast: &SimResult, naive: &SimResult) {
    assert_eq!(fast.flows, naive.flows);
    assert_eq!(fast.coflows, naive.coflows);
    assert_eq!(fast.makespan.to_bits(), naive.makespan.to_bits());
    assert_eq!(fast.reschedules, naive.reschedules);
}
