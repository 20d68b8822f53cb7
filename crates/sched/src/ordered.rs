//! Ordering-based coflow schedulers: SEBF (Varys), FIFO, SCF, NCF, LCF.
//!
//! All of them share the same machinery — sort the active coflows by a key,
//! give each coflow in order its MADD rates on the *residual* capacity
//! (the minimum rates that finish all of its flows simultaneously at its
//! residual bottleneck), then backfill leftovers — and differ only in the
//! ordering key, exactly as in the Varys evaluation:
//!
//! * **SEBF** — smallest effective bottleneck (Γ on full port capacity);
//! * **FIFO** — earliest arrival;
//! * **SCF** — smallest remaining total bytes;
//! * **NCF** — narrowest (fewest distinct ports);
//! * **LCF** — least coflow length (smallest largest-flow);
//! * **EDF/DCoflow** — earliest absolute deadline first (DCoflow's ordering
//!   rule; deadline-less coflows sort last, after every deadline coflow).

use crate::util::{madd_gamma, OrderedScratch};
use std::collections::BTreeMap;
use swallow_fabric::alloc::PortScratch;
use swallow_fabric::view::{CoflowGroups, CoflowSpan};
use swallow_fabric::{Allocation, Coflow, CoflowId, FabricView, FlowCommand, NodeId, Policy};
use swallow_trace::{TraceEvent, Tracer};

/// How a scheduled coflow's flows receive bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDiscipline {
    /// Varys MADD: the minimum rates finishing every flow of the coflow
    /// simultaneously at its residual bottleneck.
    Madd,
    /// Greedy: each flow (shortest first) takes the full residual path rate.
    /// This is the discipline visible in the paper's Fig. 4 Gantt charts.
    Greedy,
}

/// Ordering keys for [`OrderedPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoflowOrder {
    /// Smallest-Effective-Bottleneck-First (Varys).
    Sebf,
    /// First-In-First-Out by coflow arrival time.
    Fifo,
    /// Smallest-Coflow-First by remaining bytes.
    Scf,
    /// Narrowest-Coflow-First by width (distinct ports).
    Ncf,
    /// Least-Coflow-length-First by largest remaining flow.
    Lcf,
    /// Earliest-Deadline-First (the DCoflow ordering rule). Coflows without
    /// a deadline sort after every deadline-bearing coflow, in id order.
    Edf,
}

impl CoflowOrder {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            CoflowOrder::Sebf => "SEBF",
            CoflowOrder::Fifo => "FIFO",
            CoflowOrder::Scf => "SCF",
            CoflowOrder::Ncf => "NCF",
            CoflowOrder::Lcf => "LCF",
            CoflowOrder::Edf => "DCoflow",
        }
    }
}

/// A priority-ordered coflow scheduler with configurable rate discipline
/// and Varys-style priority-ordered backfill.
#[derive(Debug, Clone)]
pub struct OrderedPolicy {
    order: CoflowOrder,
    discipline: RateDiscipline,
    /// Exclusive service: only the highest-priority coflow receives
    /// bandwidth, later ones wait even on idle ports. This is FIFO's
    /// head-of-line blocking as drawn in Fig. 4(c).
    exclusive: bool,
    // Scratch buffers reused across reschedules; ordering keys are computed
    // once per coflow per allocation rather than inside the sort comparator.
    scratch: OrderedScratch,
    /// `(key, index into the grouping's spans)`; span index order is coflow
    /// id order.
    keyed: Vec<(f64, u32)>,
    /// One coflow's `(position in view.flows, src, dst, volume)`.
    flows_scratch: Vec<(u32, NodeId, NodeId, f64)>,
    ports: PortScratch,
    tracer: Tracer,
    /// Absolute deadlines learned in `on_arrival` — the views the engine
    /// hands `allocate` carry no deadline, so EDF keeps its own map.
    deadlines: BTreeMap<CoflowId, f64>,
}

impl OrderedPolicy {
    /// Scheduler with the given ordering key (MADD, work-conserving).
    pub fn new(order: CoflowOrder) -> Self {
        Self {
            order,
            discipline: RateDiscipline::Madd,
            exclusive: false,
            scratch: OrderedScratch::default(),
            keyed: Vec::new(),
            flows_scratch: Vec::new(),
            ports: PortScratch::default(),
            tracer: Tracer::disabled(),
            deadlines: BTreeMap::new(),
        }
    }

    /// SEBF as configured in Varys (MADD + ordered backfill).
    pub fn sebf() -> Self {
        Self::new(CoflowOrder::Sebf)
    }

    /// The DCoflow-style deadline baseline: earliest-deadline-first order
    /// with MADD rates and work-conserving backfill. Pair it with
    /// [`crate::admission::AdmissionController`] for the full
    /// order-and-reject DCoflow pipeline.
    pub fn dcoflow() -> Self {
        Self::new(CoflowOrder::Edf)
    }

    /// FIFO baseline with head-of-line blocking: coflows run one at a time
    /// in arrival order.
    pub fn fifo() -> Self {
        Self {
            exclusive: true,
            ..Self::new(CoflowOrder::Fifo).with_discipline(RateDiscipline::Greedy)
        }
    }

    /// Work-conserving FIFO variant (arrival order, backfilled) — used in
    /// ablations.
    pub fn fifo_work_conserving() -> Self {
        Self::new(CoflowOrder::Fifo)
    }

    /// Select the rate discipline.
    pub fn with_discipline(mut self, discipline: RateDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    fn key(&mut self, view: &FabricView<'_>, groups: &CoflowGroups, span: &CoflowSpan) -> f64 {
        let flows = || groups.flows(span, &view.flows).map(|(_, f)| f);
        match self.order {
            CoflowOrder::Sebf => {
                // Effective bottleneck on the *full* port capacity, using
                // remaining volumes (Varys recomputes Γ as flows progress).
                // Every loaded port is an endpoint of one of the flows.
                self.ports.reset(view.fabric.num_nodes());
                for f in flows() {
                    self.ports.add(f.src.index(), f.dst.index(), f.volume());
                }
                let mut bottleneck = 0.0f64;
                for f in flows() {
                    let e = self.ports.egress_at(f.src.index());
                    if e > 0.0 {
                        bottleneck = bottleneck.max(e / view.fabric.egress_cap(f.src));
                    }
                    let i = self.ports.ingress_at(f.dst.index());
                    if i > 0.0 {
                        bottleneck = bottleneck.max(i / view.fabric.ingress_cap(f.dst));
                    }
                }
                bottleneck
            }
            CoflowOrder::Fifo => flows().map(|f| f.arrival).fold(f64::INFINITY, f64::min),
            CoflowOrder::Scf => flows().map(|f| f.volume()).sum(),
            CoflowOrder::Ncf => {
                // Distinct senders and receivers: a flow counts when it is
                // the first to load its port.
                self.ports.reset(view.fabric.num_nodes());
                let (mut srcs, mut dsts) = (0usize, 0usize);
                for f in flows() {
                    srcs += (self.ports.egress_at(f.src.index()) == 0.0) as usize;
                    dsts += (self.ports.ingress_at(f.dst.index()) == 0.0) as usize;
                    self.ports.add(f.src.index(), f.dst.index(), 1.0);
                }
                srcs.max(dsts) as f64
            }
            CoflowOrder::Lcf => flows().map(|f| f.volume()).fold(0.0, f64::max),
            CoflowOrder::Edf => self
                .deadlines
                .get(&span.coflow)
                .copied()
                .unwrap_or(f64::INFINITY),
        }
    }
}

impl Policy for OrderedPolicy {
    fn name(&self) -> &str {
        self.order.name()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn on_arrival(&mut self, coflow: &Coflow, _now: f64) {
        if let Some(d) = coflow.deadline {
            self.deadlines.insert(coflow.id, d);
        }
    }

    fn on_completion(&mut self, coflow: CoflowId, _now: f64) {
        self.deadlines.remove(&coflow);
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        // Compute each coflow's ordering key exactly once (the sort used to
        // re-derive it inside the comparator, an O(k log k) blow-up with a
        // full per-call map build for SEBF), then sort the cached pairs.
        // Ties are broken by coflow id for determinism.
        let mut s = std::mem::take(&mut self.scratch);
        let mut keyed = std::mem::take(&mut self.keyed);
        s.begin(view);
        keyed.clear();
        for (i, span) in s.groups.spans().iter().enumerate() {
            let k = self.key(view, &s.groups, span);
            keyed.push((k, i as u32));
        }
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let spans = s.groups.spans();
        self.tracer.emit(view.now, || TraceEvent::ScheduleOrder {
            policy: self.order.name().to_string(),
            order: keyed
                .iter()
                .map(|&(_, i)| spans[i as usize].coflow.0)
                .collect(),
        });

        // Flows in coflow-priority order, shortest first within a coflow —
        // the order used for both greedy allocation and backfill. Positions
        // ascend with flow id, so they break volume ties the way ids would.
        let mut flows = std::mem::take(&mut self.flows_scratch);
        for &(_, i) in &keyed {
            flows.clear();
            flows.extend(
                s.groups
                    .flows(&spans[i as usize], &view.flows)
                    .map(|(pos, f)| (pos as u32, f.src, f.dst, f.volume())),
            );
            flows.sort_unstable_by(|a, b| a.3.total_cmp(&b.3).then(a.0.cmp(&b.0)));
            s.flow_order.extend(flows.iter().map(|f| f.0));
            match self.discipline {
                RateDiscipline::Madd => {
                    let gamma = madd_gamma(&s.residual, &flows, &mut self.ports);
                    if !gamma.is_finite() {
                        continue; // blocked behind higher-priority coflows
                    }
                    // Γ = 0 only when every volume is 0: nothing to grant.
                    if gamma > 0.0 {
                        for &(pos, src, dst, volume) in &flows {
                            let granted = s.residual.take(src, dst, volume / gamma);
                            if granted > 0.0 {
                                s.cmds.set(pos as usize, FlowCommand::transmit(granted));
                            }
                        }
                    }
                }
                RateDiscipline::Greedy => {
                    for &(pos, src, dst, _) in &flows {
                        let granted = s.residual.take(src, dst, f64::INFINITY);
                        if granted > 0.0 {
                            s.cmds.set(pos as usize, FlowCommand::transmit(granted));
                        }
                    }
                }
            }
            if self.exclusive {
                break; // head-of-line blocking: later coflows wait
            }
        }
        if !self.exclusive {
            s.backfill(view);
        }
        let alloc = s.cmds.to_allocation(&view.flows);
        self.scratch = s;
        self.keyed = keyed;
        self.flows_scratch = flows;
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swallow_fabric::view::ConstCompression;
    use swallow_fabric::{Coflow, Engine, Fabric, FlowSpec, SimConfig};

    /// Two coflows competing for one egress port: a small one (10 bytes)
    /// arriving second and a big one (100 bytes) arriving first.
    fn contended_trace() -> Vec<Coflow> {
        vec![
            Coflow::builder(0)
                .arrival(0.0)
                .flow(FlowSpec::new(0, 0, 1, 100.0))
                .build(),
            Coflow::builder(1)
                .arrival(0.0)
                .flow(FlowSpec::new(1, 0, 2, 10.0))
                .build(),
        ]
    }

    fn run(policy: &mut dyn Policy, coflows: Vec<Coflow>) -> swallow_fabric::SimResult {
        let fabric = Fabric::uniform(3, 10.0);
        Engine::new(
            fabric,
            coflows,
            SimConfig::default()
                .with_slice(0.01)
                .with_compression(Arc::new(ConstCompression::disabled())),
        )
        .run(policy)
    }

    #[test]
    fn sebf_serves_small_coflow_first() {
        let res = run(&mut OrderedPolicy::sebf(), contended_trace());
        assert!(res.all_complete());
        // Small coflow: 10 bytes at 10 B/s = 1 s; big waits then finishes at
        // 11 s. Average CCT = 6 s (vs 10.5 with fair sharing).
        let c1 = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        let c0 = res.coflows.iter().find(|c| c.id == CoflowId(0)).unwrap();
        assert!((c1.cct().unwrap() - 1.0).abs() < 0.05, "{:?}", c1.cct());
        assert!((c0.cct().unwrap() - 11.0).abs() < 0.05, "{:?}", c0.cct());
    }

    #[test]
    fn fifo_serves_arrival_order() {
        let mut trace = contended_trace();
        trace[1].arrival = 0.5; // small coflow arrives strictly later
        let res = run(&mut OrderedPolicy::fifo(), trace);
        assert!(res.all_complete());
        let c0 = res.coflows.iter().find(|c| c.id == CoflowId(0)).unwrap();
        let c1 = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        // FIFO: big first (10 s), small waits → head-of-line blocking.
        assert!((c0.cct().unwrap() - 10.0).abs() < 0.05);
        assert!(
            c1.cct().unwrap() > 9.0,
            "small should be blocked: {:?}",
            c1.cct()
        );
    }

    #[test]
    fn scf_orders_by_total_bytes() {
        // SCF must pick the 10-byte coflow first even if it arrived later.
        let mut trace = contended_trace();
        trace[1].arrival = 0.0;
        let res = run(&mut OrderedPolicy::new(CoflowOrder::Scf), trace);
        let c1 = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        assert!((c1.cct().unwrap() - 1.0).abs() < 0.05);
    }

    #[test]
    fn ncf_prefers_narrow_coflow() {
        // Wide coflow: 3 flows from node 0; narrow: 1 flow from node 0.
        let coflows = vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 30.0))
                .flow(FlowSpec::new(1, 0, 2, 30.0))
                .flow(FlowSpec::new(2, 0, 3, 30.0))
                .build(),
            Coflow::builder(1)
                .flow(FlowSpec::new(3, 0, 4, 30.0))
                .build(),
        ];
        let fabric = Fabric::uniform(5, 10.0);
        let res = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.01))
            .run(&mut OrderedPolicy::new(CoflowOrder::Ncf));
        let narrow = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        // Narrow (width 1) goes first: 30 bytes at 10 B/s = 3 s.
        assert!(
            (narrow.cct().unwrap() - 3.0).abs() < 0.05,
            "{:?}",
            narrow.cct()
        );
    }

    #[test]
    fn lcf_orders_by_longest_flow() {
        // Coflow 0 length 50; coflow 1 length 20 (but larger total). LCF
        // picks coflow 1 first.
        let coflows = vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 50.0))
                .build(),
            Coflow::builder(1)
                .flow(FlowSpec::new(1, 0, 2, 20.0))
                .flow(FlowSpec::new(2, 0, 3, 20.0))
                .flow(FlowSpec::new(3, 0, 4, 20.0))
                .build(),
        ];
        let fabric = Fabric::uniform(5, 10.0);
        let res = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.01))
            .run(&mut OrderedPolicy::new(CoflowOrder::Lcf));
        let c1 = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        // Coflow 1: 60 bytes through egress 0 at 10 B/s = 6 s.
        assert!((c1.cct().unwrap() - 6.0).abs() < 0.1, "{:?}", c1.cct());
    }

    #[test]
    fn edf_serves_earliest_deadline_first() {
        // Big coflow has the tighter deadline; EDF must serve it first even
        // though SEBF/SCF would pick the small one.
        let coflows = vec![
            Coflow::builder(0)
                .arrival(0.0)
                .deadline(10.5)
                .flow(FlowSpec::new(0, 0, 1, 100.0))
                .build(),
            Coflow::builder(1)
                .arrival(0.0)
                .deadline(20.0)
                .flow(FlowSpec::new(1, 0, 2, 10.0))
                .build(),
        ];
        let res = run(&mut OrderedPolicy::dcoflow(), coflows);
        assert!(res.all_complete());
        let c0 = res.coflows.iter().find(|c| c.id == CoflowId(0)).unwrap();
        assert!((c0.cct().unwrap() - 10.0).abs() < 0.05, "{:?}", c0.cct());
    }

    #[test]
    fn edf_sorts_deadline_less_coflows_last() {
        let coflows = vec![
            Coflow::builder(0)
                .arrival(0.0)
                .flow(FlowSpec::new(0, 0, 1, 100.0))
                .build(),
            Coflow::builder(1)
                .arrival(0.0)
                .deadline(2.0)
                .flow(FlowSpec::new(1, 0, 2, 10.0))
                .build(),
        ];
        let res = run(&mut OrderedPolicy::dcoflow(), coflows);
        assert!(res.all_complete());
        let c1 = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        // Deadline coflow runs first: 10 bytes at 10 B/s = 1 s, inside its
        // 2 s deadline; the deadline-less one waits.
        assert!((c1.cct().unwrap() - 1.0).abs() < 0.05, "{:?}", c1.cct());
    }

    #[test]
    fn work_conservation_backfills_idle_ports() {
        // One active coflow on 0→1; port 2→3 idle. A second coflow on 2→3
        // must run concurrently even though it sorts later.
        let coflows = vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 100.0))
                .build(),
            Coflow::builder(1)
                .flow(FlowSpec::new(1, 2, 3, 100.0))
                .build(),
        ];
        let fabric = Fabric::uniform(4, 10.0);
        let res = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.01))
            .run(&mut OrderedPolicy::sebf());
        assert!(res.all_complete());
        for c in &res.coflows {
            assert!((c.cct().unwrap() - 10.0).abs() < 0.05, "{:?}", c.cct());
        }
    }

    #[test]
    fn sebf_uses_bottleneck_not_total_size() {
        // Coflow A: 2 parallel flows of 30 from different senders (Γ = 3).
        // Coflow B: 1 flow of 40 (Γ = 4), total smaller than A's 60.
        // SEBF must schedule A first; SCF would pick B.
        let coflows = vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 2, 30.0))
                .flow(FlowSpec::new(1, 1, 3, 30.0))
                .build(),
            Coflow::builder(1)
                .flow(FlowSpec::new(2, 0, 2, 40.0))
                .build(),
        ];
        let fabric = Fabric::uniform(4, 10.0);
        let res = Engine::new(
            fabric.clone(),
            coflows.clone(),
            SimConfig::default().with_slice(0.01),
        )
        .run(&mut OrderedPolicy::sebf());
        let a = res.coflows.iter().find(|c| c.id == CoflowId(0)).unwrap();
        assert!((a.cct().unwrap() - 3.0).abs() < 0.05, "SEBF: {:?}", a.cct());
        let res = Engine::new(fabric, coflows, SimConfig::default().with_slice(0.01))
            .run(&mut OrderedPolicy::new(CoflowOrder::Scf));
        let b = res.coflows.iter().find(|c| c.id == CoflowId(1)).unwrap();
        assert!((b.cct().unwrap() - 4.0).abs() < 0.05, "SCF: {:?}", b.cct());
    }
}
