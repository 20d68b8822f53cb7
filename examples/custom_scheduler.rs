//! Implementing a custom coflow scheduler against the `Policy` trait.
//!
//! The example builds "Deadline-Lite": coflows are served earliest-virtual-
//! deadline-first, where a coflow's deadline is `arrival + 2 × bottleneck
//! time`, and leftover capacity is max-min backfilled. It is then compared
//! with FVDF and SEBF on one trace.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use std::collections::BTreeMap;
use swallow_repro::fabric::alloc::water_fill;
use swallow_repro::fabric::view::{CoflowGroups, FabricView};
use swallow_repro::fabric::{Allocation, FlowCommand, NodeId};
use swallow_repro::prelude::*;

/// Earliest-virtual-deadline-first coflow scheduler.
#[derive(Default)]
struct DeadlineLite {
    /// The view's flows grouped by coflow; kept so its buffers are reused.
    groups: CoflowGroups,
}

impl Policy for DeadlineLite {
    fn name(&self) -> &str {
        "deadline-lite"
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        // Group the view by coflow once; every per-coflow pass below walks
        // one span instead of filtering all active flows.
        self.groups.rebuild(&view.flows);
        let groups = &self.groups;

        // Virtual deadline per coflow: arrival + 2 × isolation bottleneck.
        let mut deadlines: Vec<_> = groups
            .spans()
            .iter()
            .map(|span| {
                let mut egress: BTreeMap<NodeId, f64> = BTreeMap::new();
                let mut ingress: BTreeMap<NodeId, f64> = BTreeMap::new();
                let mut arrival = f64::INFINITY;
                for (_, f) in groups.flows(span, &view.flows) {
                    *egress.entry(f.src).or_default() += f.volume();
                    *ingress.entry(f.dst).or_default() += f.volume();
                    arrival = arrival.min(f.arrival);
                }
                let bottleneck = egress
                    .iter()
                    .map(|(n, v)| v / view.fabric.egress_cap(*n))
                    .chain(ingress.iter().map(|(n, v)| v / view.fabric.ingress_cap(*n)))
                    .fold(0.0, f64::max);
                (arrival + 2.0 * bottleneck, span)
            })
            .collect();
        deadlines.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.coflow.cmp(&b.1.coflow)));

        // Greedy full-rate service in deadline order, then fair backfill.
        let mut alloc = Allocation::new();
        let mut egress_left: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut ingress_left: BTreeMap<NodeId, f64> = BTreeMap::new();
        for f in &view.flows {
            egress_left
                .entry(f.src)
                .or_insert_with(|| view.fabric.egress_cap(f.src));
            ingress_left
                .entry(f.dst)
                .or_insert_with(|| view.fabric.ingress_cap(f.dst));
        }
        for (_, span) in &deadlines {
            for (_, f) in groups.flows(span, &view.flows) {
                let rate = egress_left[&f.src].min(ingress_left[&f.dst]);
                if rate > 0.0 {
                    *egress_left.get_mut(&f.src).unwrap() -= rate;
                    *ingress_left.get_mut(&f.dst).unwrap() -= rate;
                    alloc.set(f.id, FlowCommand::transmit(rate));
                }
            }
        }
        // Flows that got nothing fall back to their max-min fair share of
        // whatever their ports have left (cheap work conservation).
        let unserved: Vec<_> = view
            .flows
            .iter()
            .filter(|f| alloc.get(f.id).rate == 0.0)
            .map(|f| (f.id, f.src, f.dst))
            .collect();
        for (id, rate) in water_fill(view.fabric, &unserved) {
            let f = view.flow(id).expect("flow is active");
            let cap = egress_left[&f.src].min(ingress_left[&f.dst]);
            let granted = rate.min(cap);
            if granted > 0.0 {
                alloc.set(id, FlowCommand::transmit(granted));
            }
        }
        alloc
    }
}

fn main() {
    let bandwidth = units::mbps(100.0);
    let fabric = Fabric::uniform(12, bandwidth);
    let trace = CoflowGen::new(GenConfig {
        num_coflows: 25,
        num_nodes: 12,
        ..GenConfig::default()
    })
    .generate();
    // Scale sizes down so the default Fig. 1 distribution finishes quickly.
    let trace: Vec<Coflow> = trace
        .into_iter()
        .map(|mut c| {
            for f in &mut c.flows {
                f.size *= 1e-3;
            }
            c
        })
        .collect();

    let mut t = Table::new(
        "Custom policy vs built-ins",
        &["policy", "avg FCT", "avg CCT"],
    );
    let mut run = |policy: &mut dyn Policy| {
        let res = Engine::new(
            fabric.clone(),
            trace.clone(),
            SimConfig::default().with_slice(0.01),
        )
        .run(policy);
        assert!(res.all_complete(), "{} stalled", policy.name());
        t.row(&[
            policy.name().to_string(),
            units::human_secs(res.avg_fct()),
            units::human_secs(res.avg_cct()),
        ]);
    };
    run(&mut DeadlineLite::default());
    run(&mut FvdfPolicy::without_compression());
    run(&mut OrderedPolicy::sebf());
    println!("{t}");
}
