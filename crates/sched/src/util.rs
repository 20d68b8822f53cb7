//! Shared building blocks: residual capacity tracking, weighted max-min
//! water-filling, and the work-conserving backfill pass.

use std::collections::BTreeMap;
use swallow_fabric::alloc::{CommandSlots, PortScratch};
use swallow_fabric::view::CoflowGroups;
use swallow_fabric::{Allocation, FabricView, FlowCommand, FlowId, NodeId};

/// Residual egress/ingress capacity during an allocation pass.
///
/// Reserved ports are recorded in a touched list so [`Residual::reset`] can
/// restore only the entries a pass actually drained — `O(ports used)`
/// instead of `O(fabric size)`, which is what keeps per-reschedule cost flat
/// on 10k-port fabrics. The lazy restore assumes consecutive resets see the
/// same fabric whenever the node count is unchanged (true for every in-tree
/// caller: a policy holds one `Residual` and an engine run has one fabric);
/// a changed node count forces a full rebuild.
#[derive(Debug, Clone, Default)]
pub struct Residual {
    egress: Vec<f64>,
    ingress: Vec<f64>,
    touched: Vec<u32>,
}

impl Residual {
    /// Start from the full port capacities of the fabric in `view`.
    pub fn new(view: &FabricView<'_>) -> Self {
        let mut r = Self::default();
        r.reset(view);
        r
    }

    /// Refill from the full port capacities of the fabric in `view`. When
    /// the buffers already cover the fabric, only the ports touched since
    /// the last reset are restored (see the struct docs); the values written
    /// are the same capacities a full rebuild would write, so the two paths
    /// are bit-identical.
    pub fn reset(&mut self, view: &FabricView<'_>) {
        let n = view.fabric.num_nodes();
        if self.egress.len() == n && self.touched.len() < n {
            for &i in &self.touched {
                let node = NodeId(i);
                self.egress[i as usize] = view.fabric.egress_cap(node);
                self.ingress[i as usize] = view.fabric.ingress_cap(node);
            }
            self.touched.clear();
            return;
        }
        self.egress.clear();
        self.ingress.clear();
        self.egress
            .extend((0..n).map(|i| view.fabric.egress_cap(NodeId(i as u32))));
        self.ingress
            .extend((0..n).map(|i| view.fabric.ingress_cap(NodeId(i as u32))));
        self.touched.clear();
    }

    /// Number of ports tracked.
    pub fn num_nodes(&self) -> usize {
        self.egress.len()
    }

    /// Record port index `i` as dirtied, so the next lazy reset restores it.
    #[inline]
    fn touch(&mut self, i: usize) {
        self.touched.push(i as u32);
    }

    /// Bandwidth still available on the `src → dst` path.
    pub fn available(&self, src: NodeId, dst: NodeId) -> f64 {
        self.egress[src.index()].min(self.ingress[dst.index()])
    }

    /// Reserve up to `rate` on the path; returns what was actually granted.
    pub fn take(&mut self, src: NodeId, dst: NodeId, rate: f64) -> f64 {
        let granted = rate.min(self.available(src, dst)).max(0.0);
        if granted > 0.0 {
            self.egress[src.index()] -= granted;
            self.ingress[dst.index()] -= granted;
            self.touch(src.index());
            self.touch(dst.index());
        }
        granted
    }

    /// Residual egress at a node.
    pub fn egress(&self, node: NodeId) -> f64 {
        self.egress[node.index()]
    }

    /// Residual ingress at a node.
    pub fn ingress(&self, node: NodeId) -> f64 {
        self.ingress[node.index()]
    }
}

/// Weighted max-min water-filling over explicit residual capacities.
///
/// Each demand is `(flow, src, dst, weight)`; rates grow proportionally to
/// weights until a port saturates, flows through saturated ports freeze, and
/// filling continues — the classic progressive-filling algorithm. Weights of
/// 1 give ordinary max-min fairness (PFF); weights proportional to flow size
/// give Orchestra's Weighted Shuffle Scheduling.
pub fn water_fill_weighted(
    residual: &mut Residual,
    demands: &[(FlowId, NodeId, NodeId, f64)],
) -> BTreeMap<FlowId, f64> {
    water_fill_weighted_rounds(residual, demands).0
}

/// [`water_fill_weighted`] that also reports how many progressive-filling
/// rounds actually distributed bandwidth, for tracing convergence behaviour.
pub fn water_fill_weighted_rounds(
    residual: &mut Residual,
    demands: &[(FlowId, NodeId, NodeId, f64)],
) -> (BTreeMap<FlowId, f64>, usize) {
    // Dense per-demand and per-port state; the progressive-filling rounds
    // below used to rebuild BTreeMaps each iteration, which dominated the
    // profile on wide traces.
    let num_nodes = residual.num_nodes();
    let mut rounds = 0usize;
    let mut rates: Vec<f64> = vec![0.0; demands.len()];
    // Ignore non-positive weights entirely.
    let mut frozen: Vec<bool> = demands.iter().map(|&(_, _, _, w)| w <= 0.0).collect();
    let mut e_w: Vec<f64> = vec![0.0; num_nodes];
    let mut i_w: Vec<f64> = vec![0.0; num_nodes];
    // Deduplicated list of ports the positive-weight demands touch. The
    // rounds iterate it instead of every port in the fabric (the min over
    // non-NaN shares is order-independent, so this is bit-identical to the
    // dense scan), and the residual's lazy reset needs the same marks for
    // the direct capacity subtractions below.
    let mut seen = vec![false; num_nodes];
    let mut ports: Vec<u32> = Vec::new();
    for &(_, s, d, w) in demands {
        if w <= 0.0 {
            continue;
        }
        for p in [s.index(), d.index()] {
            if !seen[p] {
                seen[p] = true;
                ports.push(p as u32);
                residual.touch(p);
            }
        }
    }

    for _round in 0..demands.len() + 1 {
        // Sum of unfrozen weights per port.
        for &p in &ports {
            e_w[p as usize] = 0.0;
            i_w[p as usize] = 0.0;
        }
        let mut any_unfrozen = false;
        for (i, &(_, s, d, w)) in demands.iter().enumerate() {
            if !frozen[i] {
                any_unfrozen = true;
                e_w[s.index()] += w;
                i_w[d.index()] += w;
            }
        }
        if !any_unfrozen {
            break;
        }
        // Largest per-unit-weight increment before some port saturates.
        let mut inc = f64::INFINITY;
        for &p in &ports {
            let p = p as usize;
            if e_w[p] > 0.0 {
                inc = inc.min(residual.egress[p] / e_w[p]);
            }
            if i_w[p] > 0.0 {
                inc = inc.min(residual.ingress[p] / i_w[p]);
            }
        }
        if !inc.is_finite() || inc <= 0.0 {
            break;
        }
        rounds += 1;
        for (i, &(_, s, d, w)) in demands.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let add = inc * w;
            rates[i] += add;
            residual.egress[s.index()] -= add;
            residual.ingress[d.index()] -= add;
        }
        // Freeze flows touching saturated ports.
        let mut any = false;
        let mut all_frozen = true;
        for (i, &(_, s, d, _)) in demands.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            const EPS: f64 = 1e-9;
            if residual.egress(s) <= EPS || residual.ingress(d) <= EPS {
                frozen[i] = true;
                any = true;
            } else {
                all_frozen = false;
            }
        }
        if !any || all_frozen {
            break;
        }
    }
    let mut out: BTreeMap<FlowId, f64> = BTreeMap::new();
    for (i, &(f, ..)) in demands.iter().enumerate() {
        *out.entry(f).or_default() += rates[i];
    }
    (out, rounds)
}

/// What a coflow-ordering policy (FVDF, the `OrderedPolicy` family, Aalo)
/// keeps between `allocate` calls: the view grouped by coflow, the commands
/// it is building by position in `view.flows`, the positions of the flows in
/// the order it served them, and the residual capacity ledger.
#[derive(Debug, Clone, Default)]
pub struct OrderedScratch {
    /// The view's flows grouped by coflow.
    pub groups: CoflowGroups,
    /// Commands so far, by position in `view.flows`.
    pub cmds: CommandSlots,
    /// Positions of the non-compressing flows, in service order.
    pub flow_order: Vec<u32>,
    /// Capacity the commands so far leave on every port.
    pub residual: Residual,
}

impl OrderedScratch {
    /// Start an `allocate` on `view`: group it, forget the last call's
    /// commands and service order, and restore full port capacities.
    pub fn begin(&mut self, view: &FabricView<'_>) {
        self.groups.rebuild(&view.flows);
        self.cmds.reset(view.flows.len());
        self.flow_order.clear();
        self.residual.reset(view);
    }

    /// Priority-ordered backfill: walk `flow_order` and grant each
    /// non-compressing flow the full remaining capacity of its path. This is
    /// the Varys backfilling rule — leftover bandwidth goes to the *next
    /// coflow in the priority order*, not to an arbitrary fair share. The
    /// residual is rebuilt first, charged with the primary rates in
    /// ascending flow id.
    pub fn backfill(&mut self, view: &FabricView<'_>) {
        self.residual.reset(view);
        for (pos, f) in view.flows.iter().enumerate() {
            let cmd = self.cmds.get(pos);
            if !cmd.compress && cmd.rate > 0.0 {
                self.residual.take(f.src, f.dst, cmd.rate);
            }
        }
        for &pos in &self.flow_order {
            let pos = pos as usize;
            let cmd = self.cmds.get(pos);
            if cmd.compress {
                continue;
            }
            let f = &view.flows[pos];
            let extra = self.residual.take(f.src, f.dst, f64::INFINITY);
            if extra > 0.0 {
                self.cmds.set(pos, FlowCommand::transmit(cmd.rate + extra));
            }
        }
    }
}

/// Work-conserving backfill: distribute the bandwidth left over after the
/// primary allocation max-min fairly among all flows that are transmitting
/// (or idle) — never to flows spending the slice compressing.
pub fn backfill(view: &FabricView<'_>, alloc: &mut Allocation) {
    let mut residual = Residual::new(view);
    for (id, cmd) in alloc.iter() {
        if !cmd.compress && cmd.rate > 0.0 {
            if let Some(f) = view.flow(id) {
                residual.take(f.src, f.dst, cmd.rate);
            }
        }
    }
    let demands: Vec<(FlowId, NodeId, NodeId, f64)> = view
        .flows
        .iter()
        .filter(|f| !alloc.get(f.id).compress)
        .map(|f| (f.id, f.src, f.dst, 1.0))
        .collect();
    let extra = water_fill_weighted(&mut residual, &demands);
    for (id, add) in extra {
        if add <= 0.0 {
            continue;
        }
        let cur = alloc.get(id);
        alloc.set(id, FlowCommand::transmit(cur.rate + add));
    }
}

/// The residual bottleneck time Γ of one coflow: the largest, over the ports
/// it uses, of its remaining volume there over the residual capacity. Its
/// MADD rates — the smallest per-flow rates that finish every flow together
/// at Γ — are `volume / Γ`. Γ is `f64::INFINITY` when some needed port has
/// no residual capacity, and 0 when there is nothing left to send.
///
/// `flows` are `(tag, src, dst, volume)`; per-port volumes are summed in
/// slice order into `ports`, which only has to outlive the call.
pub fn madd_gamma<T>(
    residual: &Residual,
    flows: &[(T, NodeId, NodeId, f64)],
    ports: &mut PortScratch,
) -> f64 {
    ports.reset(residual.num_nodes());
    for &(_, s, d, v) in flows {
        ports.add(s.index(), d.index(), v);
    }
    // Every loaded port is some flow's endpoint, so folding over the flows
    // covers them all (a repeated port repeats its term, which a maximum
    // does not see).
    let over = |load: f64, cap: f64| if cap > 0.0 { load / cap } else { f64::INFINITY };
    flows.iter().fold(0.0f64, |gamma, &(_, s, d, _)| {
        gamma
            .max(over(ports.egress_at(s.index()), residual.egress(s)))
            .max(over(ports.ingress_at(d.index()), residual.ingress(d)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_fabric::cpu::CpuModel;
    use swallow_fabric::view::{ConstCompression, FlowView};
    use swallow_fabric::{CoflowId, Fabric};

    fn fv(id: u64, coflow: u64, src: u32, dst: u32, size: f64) -> FlowView {
        FlowView {
            id: FlowId(id),
            coflow: CoflowId(coflow),
            src: NodeId(src),
            dst: NodeId(dst),
            original_size: size,
            raw: size,
            compressed: 0.0,
            arrival: 0.0,
            compressible: true,
        }
    }

    struct Fixture {
        fabric: Fabric,
        cpu: CpuModel,
        comp: ConstCompression,
    }

    impl Fixture {
        fn new(n: usize, cap: f64) -> Self {
            Self {
                fabric: Fabric::uniform(n, cap),
                cpu: CpuModel::unconstrained(n, 8),
                comp: ConstCompression::disabled(),
            }
        }
        fn view(&self, flows: Vec<FlowView>) -> FabricView<'_> {
            FabricView {
                now: 0.0,
                slice: 0.01,
                fabric: &self.fabric,
                cpu: &self.cpu,
                compression: &self.comp,
                flows,
            }
        }
    }

    #[test]
    fn residual_take_caps_at_path_minimum() {
        let fx = Fixture::new(3, 10.0);
        let view = fx.view(vec![]);
        let mut r = Residual::new(&view);
        assert_eq!(r.take(NodeId(0), NodeId(1), 4.0), 4.0);
        assert_eq!(r.available(NodeId(0), NodeId(2)), 6.0);
        assert_eq!(r.take(NodeId(0), NodeId(2), 100.0), 6.0);
        assert_eq!(r.egress(NodeId(0)), 0.0);
        assert_eq!(r.ingress(NodeId(1)), 6.0);
        // Nothing left on the path.
        assert_eq!(r.take(NodeId(0), NodeId(1), 1.0), 0.0);
    }

    #[test]
    fn lazy_reset_restores_full_capacity() {
        let fx = Fixture::new(4, 10.0);
        let view = fx.view(vec![]);
        let mut r = Residual::new(&view);
        // Drain some ports via take() and via the weighted fill's direct
        // subtractions, then reset; every port must be back at capacity.
        r.take(NodeId(0), NodeId(1), 4.0);
        let _ = water_fill_weighted(&mut r, &[(FlowId(1), NodeId(2), NodeId(3), 1.0)]);
        r.reset(&view);
        for i in 0..4u32 {
            assert_eq!(r.egress(NodeId(i)), 10.0, "egress {i}");
            assert_eq!(r.ingress(NodeId(i)), 10.0, "ingress {i}");
        }
        // A second reset (nothing touched) is a no-op.
        r.reset(&view);
        assert_eq!(r.available(NodeId(0), NodeId(1)), 10.0);
    }

    #[test]
    fn weighted_water_fill_splits_by_weight() {
        let fx = Fixture::new(3, 12.0);
        let view = fx.view(vec![]);
        let mut r = Residual::new(&view);
        // Two flows out of node 0, weights 1 and 2 → rates 4 and 8.
        let rates = water_fill_weighted(
            &mut r,
            &[
                (FlowId(1), NodeId(0), NodeId(1), 1.0),
                (FlowId(2), NodeId(0), NodeId(2), 2.0),
            ],
        );
        assert!((rates[&FlowId(1)] - 4.0).abs() < 1e-9);
        assert!((rates[&FlowId(2)] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_round_count_matches_freeze_steps() {
        // Single saturation event → exactly one distributing round.
        let fx = Fixture::new(3, 12.0);
        let view = fx.view(vec![]);
        let mut r = Residual::new(&view);
        let (_, rounds) = water_fill_weighted_rounds(
            &mut r,
            &[
                (FlowId(1), NodeId(0), NodeId(1), 1.0),
                (FlowId(2), NodeId(0), NodeId(2), 1.0),
            ],
        );
        assert_eq!(rounds, 1);
        // No demands → nothing distributed.
        let mut r = Residual::new(&view);
        let (rates, rounds) = water_fill_weighted_rounds(&mut r, &[]);
        assert!(rates.is_empty());
        assert_eq!(rounds, 0);
    }

    #[test]
    fn weighted_water_fill_continues_after_freeze() {
        // f2 is limited by receiver 2 (cap 2); f1 should then take the rest
        // of egress 0.
        let fabric = Fabric::new(vec![10.0, 10.0, 10.0], vec![10.0, 10.0, 2.0]);
        let cpu = CpuModel::unconstrained(3, 8);
        let comp = ConstCompression::disabled();
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows: vec![],
        };
        let mut r = Residual::new(&view);
        let rates = water_fill_weighted(
            &mut r,
            &[
                (FlowId(1), NodeId(0), NodeId(1), 1.0),
                (FlowId(2), NodeId(0), NodeId(2), 1.0),
            ],
        );
        assert!((rates[&FlowId(2)] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[&FlowId(1)] - 8.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn zero_weight_flows_get_nothing() {
        let fx = Fixture::new(2, 10.0);
        let view = fx.view(vec![]);
        let mut r = Residual::new(&view);
        let rates = water_fill_weighted(
            &mut r,
            &[
                (FlowId(1), NodeId(0), NodeId(1), 0.0),
                (FlowId(2), NodeId(0), NodeId(1), 1.0),
            ],
        );
        assert_eq!(rates[&FlowId(1)], 0.0);
        assert!((rates[&FlowId(2)] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn madd_gamma_is_the_residual_bottleneck() {
        let fx = Fixture::new(3, 10.0);
        let view = fx.view(vec![]);
        let r = Residual::new(&view);
        let mut ports = PortScratch::default();
        // Coflow: 40 bytes 0→1, 20 bytes 0→2. Egress 0 carries 60 bytes at
        // cap 10 → Γ = 6 s.
        let flows = [
            (FlowId(1), NodeId(0), NodeId(1), 40.0),
            (FlowId(2), NodeId(0), NodeId(2), 20.0),
        ];
        assert!((madd_gamma(&r, &flows, &mut ports) - 6.0).abs() < 1e-9);
        // The scratch is reset per call: a second coflow sees none of it.
        let gamma = madd_gamma(&r, &[(FlowId(3), NodeId(0), NodeId(1), 5.0)], &mut ports);
        assert!((gamma - 0.5).abs() < 1e-9);
        // Nothing to send → Γ = 0.
        assert_eq!(madd_gamma::<FlowId>(&r, &[], &mut ports), 0.0);
    }

    #[test]
    fn madd_infinite_when_port_exhausted() {
        let fx = Fixture::new(2, 10.0);
        let view = fx.view(vec![]);
        let mut r = Residual::new(&view);
        r.take(NodeId(0), NodeId(1), 10.0);
        let mut ports = PortScratch::default();
        let gamma = madd_gamma(&r, &[(FlowId(1), NodeId(0), NodeId(1), 5.0)], &mut ports);
        assert!(gamma.is_infinite());
    }

    #[test]
    fn ordered_backfill_grants_leftover_in_the_given_order() {
        let fx = Fixture::new(3, 10.0);
        // Both flows leave node 0; the primary pass gave flow 2 a rate of 4.
        let view = fx.view(vec![fv(1, 1, 0, 1, 100.0), fv(2, 2, 0, 2, 50.0)]);
        let mut s = OrderedScratch::default();
        s.begin(&view);
        assert_eq!(s.groups.spans().len(), 2);
        s.cmds.set(1, FlowCommand::transmit(4.0));
        // Flow 2 (position 1) is first in the order, so it takes the 6 left.
        s.flow_order.extend([1, 0]);
        s.backfill(&view);
        let alloc = s.cmds.to_allocation(&view.flows);
        assert_eq!(alloc.get(FlowId(2)).rate, 10.0);
        assert_eq!(alloc.len(), 1, "flow 1 got nothing and stays unset");
    }

    #[test]
    fn backfill_fills_leftover() {
        let fx = Fixture::new(3, 10.0);
        let view = fx.view(vec![fv(1, 1, 0, 1, 100.0), fv(2, 2, 2, 1, 50.0)]);
        let mut alloc = Allocation::new();
        // Primary gave f1 only 2 of the 10 available; f2 nothing.
        alloc.set(FlowId(1), FlowCommand::transmit(2.0));
        backfill(&view, &mut alloc);
        // Ingress of node 1 (cap 10) is shared: f1 had 2; leftover 8 split
        // max-min → +4 each.
        assert!((alloc.get(FlowId(1)).rate - 6.0).abs() < 1e-9);
        assert!((alloc.get(FlowId(2)).rate - 4.0).abs() < 1e-9);
        assert!(alloc.check_feasible(&view).is_ok());
    }

    #[test]
    fn backfill_skips_compressing_flows() {
        let fx = Fixture::new(3, 10.0);
        let view = fx.view(vec![fv(1, 1, 0, 1, 100.0), fv(2, 1, 0, 2, 50.0)]);
        let mut alloc = Allocation::new();
        alloc.set(FlowId(1), FlowCommand::compressing());
        backfill(&view, &mut alloc);
        assert!(alloc.get(FlowId(1)).compress);
        assert_eq!(alloc.get(FlowId(1)).rate, 0.0);
        // f2 takes the whole egress.
        assert!((alloc.get(FlowId(2)).rate - 10.0).abs() < 1e-9);
    }
}
