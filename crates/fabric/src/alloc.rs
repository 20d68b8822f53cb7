//! Rate allocations produced by scheduling policies, plus the shared
//! feasibility and water-filling helpers every policy uses.

use crate::ids::{FlowId, NodeId};
use crate::port::Fabric;
use crate::view::{FabricView, FlowView};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-flow command for the next slice: a transmission rate (bytes/s) and a
/// compression decision (the paper's β).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowCommand {
    /// Transmission rate in bytes/s. Ignored while `compress` is true (the
    /// volume-disposal loop in Pseudocode 2 either compresses *or* transmits
    /// a flow within one slice).
    pub rate: f64,
    /// β = 1: spend this slice compressing the flow's raw part.
    pub compress: bool,
}

impl FlowCommand {
    /// An idle command: no rate, no compression.
    pub const IDLE: FlowCommand = FlowCommand {
        rate: 0.0,
        compress: false,
    };

    /// Pure transmission at `rate`.
    pub fn transmit(rate: f64) -> Self {
        Self {
            rate,
            compress: false,
        }
    }

    /// Pure compression.
    pub fn compressing() -> Self {
        Self {
            rate: 0.0,
            compress: true,
        }
    }
}

/// The full scheduling decision for one slice.
///
/// Flows absent from the list are idle. Commands are kept in a vector sorted
/// by flow id: lookups are binary searches, iteration is deterministic (which
/// makes simulations reproducible byte-for-byte), and — unlike the `BTreeMap`
/// this used to be — building one allocation per reschedule costs a single
/// allocation instead of one node per flow. Comparing two allocations for the
/// quiescence test in the engine is a cheap `Vec` equality.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    commands: Vec<(FlowId, FlowCommand)>,
}

impl Allocation {
    /// An empty (all-idle) allocation.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, flow: FlowId) -> Result<usize, usize> {
        self.commands.binary_search_by_key(&flow, |(id, _)| *id)
    }

    /// Set the command for a flow, replacing any previous one.
    ///
    /// Ascending flow ids append in amortized O(1); anything else is a
    /// sorted insert that shifts every later command. Policies that walk the
    /// id-sorted view emit in order; ordering policies emit coflow by coflow
    /// in priority order, which is not id order — those build their commands
    /// in a [`CommandSlots`] and convert once.
    pub fn set(&mut self, flow: FlowId, cmd: FlowCommand) {
        let append = match self.commands.last() {
            Some((last, _)) => *last < flow,
            None => true,
        };
        if append {
            self.commands.push((flow, cmd));
            return;
        }
        match self.position(flow) {
            Ok(i) => self.commands[i].1 = cmd,
            Err(i) => self.commands.insert(i, (flow, cmd)),
        }
    }

    /// Command for `flow` (idle when unset).
    pub fn get(&self, flow: FlowId) -> FlowCommand {
        match self.position(flow) {
            Ok(i) => self.commands[i].1,
            Err(_) => FlowCommand::IDLE,
        }
    }

    /// [`Self::get`] for a caller that asks for ascending ids (see [`seek`]).
    #[inline]
    pub(crate) fn seek(&self, at: &mut usize, flow: FlowId) -> FlowCommand {
        seek(&self.commands, at, flow, |(id, _)| *id).map_or(FlowCommand::IDLE, |(_, cmd)| *cmd)
    }

    /// Iterate over explicitly commanded flows in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, FlowCommand)> + '_ {
        self.commands.iter().copied()
    }

    /// Mutable iteration in ascending id order (engine-internal: the CPU
    /// admission pass rewrites denied commands in place).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut FlowCommand)> + '_ {
        self.commands.iter_mut().map(|(id, cmd)| (*id, cmd))
    }

    /// Number of explicitly commanded flows.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// True when no flow is commanded.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Aggregate commanded rate at each sender egress and receiver ingress.
    pub fn port_loads(
        &self,
        view: &FabricView<'_>,
    ) -> (BTreeMap<NodeId, f64>, BTreeMap<NodeId, f64>) {
        let mut egress: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut ingress: BTreeMap<NodeId, f64> = BTreeMap::new();
        for (id, cmd) in self.iter() {
            if cmd.compress || cmd.rate <= 0.0 {
                continue;
            }
            if let Some(f) = view.flow(id) {
                *egress.entry(f.src).or_default() += cmd.rate;
                *ingress.entry(f.dst).or_default() += cmd.rate;
            }
        }
        (egress, ingress)
    }

    /// Verify no port is oversubscribed (within a relative tolerance).
    /// Returns the first violation as `(node, demanded, capacity)`.
    pub fn check_feasible(&self, view: &FabricView<'_>) -> Result<(), (NodeId, f64, f64)> {
        let (egress, ingress) = self.port_loads(view);
        const TOL: f64 = 1.0 + 1e-6;
        for (node, load) in &egress {
            let cap = view.fabric.egress_cap(*node);
            if *load > cap * TOL {
                return Err((*node, *load, cap));
            }
        }
        for (node, load) in &ingress {
            let cap = view.fabric.ingress_cap(*node);
            if *load > cap * TOL {
                return Err((*node, *load, cap));
            }
        }
        Ok(())
    }

    /// Proportionally scale down rates at any oversubscribed port so the
    /// allocation becomes feasible. The engine applies this defensively so a
    /// buggy policy degrades instead of creating bandwidth out of thin air.
    /// The port buffers are the caller's, so the engine's reschedule path
    /// performs no per-call allocation once they have grown to the fabric
    /// size.
    pub fn clamp_with_scratch(&mut self, view: &FabricView<'_>, scratch: &mut PortScratch) {
        // Commands and view are both ascending in flow id, so each pass finds
        // a command's endpoints by walking the two in step. Commands for
        // flows the view does not hold are left alone.
        let n = view.fabric.num_nodes();
        for _ in 0..4 {
            scratch.reset(n);
            let mut at = 0;
            for (id, cmd) in self.commands.iter() {
                if cmd.compress || cmd.rate <= 0.0 {
                    continue;
                }
                let Some(f) = seek(&view.flows, &mut at, *id, |f| f.id) else {
                    continue;
                };
                scratch.add(f.src.index(), f.dst.index(), cmd.rate);
            }
            // All scale factors are derived from the same load snapshot, then
            // applied together — a second pass over the (unchanged) loads.
            let mut any = false;
            let mut at = 0;
            for (id, cmd) in self.commands.iter_mut() {
                if cmd.compress || cmd.rate <= 0.0 {
                    continue;
                }
                let Some(f) = seek(&view.flows, &mut at, *id, |f| f.id) else {
                    continue;
                };
                let e_over = scratch.egress_at(f.src.index()) / view.fabric.egress_cap(f.src);
                let i_over = scratch.ingress_at(f.dst.index()) / view.fabric.ingress_cap(f.dst);
                let over = e_over.max(i_over);
                if over > 1.0 {
                    cmd.rate *= 1.0 / over;
                    any = true;
                }
            }
            if !any {
                return;
            }
        }
    }
}

/// The entry of `items` (ascending in `key`) whose key is `id`, for a caller
/// that asks for ascending ids: `at` is the cursor it keeps between calls,
/// and only moves forward, so a whole sequence of lookups is one walk.
#[inline]
pub(crate) fn seek<'a, T>(
    items: &'a [T],
    at: &mut usize,
    id: FlowId,
    key: impl Fn(&T) -> FlowId,
) -> Option<&'a T> {
    while *at < items.len() && key(&items[*at]) < id {
        *at += 1;
    }
    items.get(*at).filter(|item| key(item) == id)
}

/// Commands under construction, one slot per flow of an id-sorted view.
///
/// Ordering policies decide flows in priority order and revisit them when
/// backfilling. By position in `view.flows` every write and read-back is an
/// array access, and [`CommandSlots::to_allocation`] emits the id-sorted
/// [`Allocation`] in one pass; [`Allocation::set`] would shift the tail per
/// out-of-order command and [`Allocation::get`] would search.
#[derive(Debug, Clone, Default)]
pub struct CommandSlots {
    slots: Vec<Option<FlowCommand>>,
}

impl CommandSlots {
    /// Forget every command and cover `n` flows.
    pub fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, None);
    }

    /// Set the command of the flow at `pos`, replacing any previous one.
    #[inline]
    pub fn set(&mut self, pos: usize, cmd: FlowCommand) {
        self.slots[pos] = Some(cmd);
    }

    /// Command of the flow at `pos` (idle when unset).
    #[inline]
    pub fn get(&self, pos: usize) -> FlowCommand {
        self.slots[pos].unwrap_or(FlowCommand::IDLE)
    }

    /// The allocation holding exactly the commands that were set; `flows` is
    /// the id-sorted view the positions refer to.
    pub fn to_allocation(&self, flows: &[FlowView]) -> Allocation {
        // Sized to what was set: most flows of a loaded view stay idle.
        let mut commands = Vec::with_capacity(self.slots.iter().flatten().count());
        commands.extend(
            flows
                .iter()
                .zip(&self.slots)
                .filter_map(|(f, slot)| slot.map(|cmd| (f.id, cmd))),
        );
        Allocation { commands }
    }
}

/// Reusable dense per-port accumulators (indexed by [`NodeId::index`]).
///
/// Accumulation goes through [`PortScratch::add`], which records the port
/// indices it dirties; [`PortScratch::reset`] then zeroes only those,
/// making the reset `O(ports actually loaded)` instead of `O(fabric size)`
/// — the difference between microseconds and nothing at 10k ports × millions
/// of reschedules. The invariant is that every entry outside the touched
/// list is exactly `0.0`, which holds because `add` is the only mutator.
#[derive(Debug, Clone, Default)]
pub struct PortScratch {
    egress: Vec<f64>,
    ingress: Vec<f64>,
    touched: Vec<u32>,
}

impl PortScratch {
    /// Zero every touched entry and make sure the buffers cover `n` nodes.
    pub fn reset(&mut self, n: usize) {
        if self.egress.len() < n {
            self.egress.resize(n, 0.0);
            self.ingress.resize(n, 0.0);
        }
        for &i in &self.touched {
            self.egress[i as usize] = 0.0;
            self.ingress[i as usize] = 0.0;
        }
        self.touched.clear();
    }

    /// Add `rate` to the egress load of port `src` and the ingress load of
    /// port `dst`, recording both as touched.
    #[inline]
    pub fn add(&mut self, src: usize, dst: usize, rate: f64) {
        if self.egress[src] == 0.0 && self.ingress[src] == 0.0 {
            self.touched.push(src as u32);
        }
        self.egress[src] += rate;
        if self.egress[dst] == 0.0 && self.ingress[dst] == 0.0 {
            self.touched.push(dst as u32);
        }
        self.ingress[dst] += rate;
    }

    /// Accumulated egress load at port index `i`.
    #[inline]
    pub fn egress_at(&self, i: usize) -> f64 {
        self.egress[i]
    }

    /// Accumulated ingress load at port index `i`.
    #[inline]
    pub fn ingress_at(&self, i: usize) -> f64 {
        self.ingress[i]
    }
}

/// Reusable dense per-node counters with the same touched-list reset trick
/// as [`PortScratch`]: [`TouchedCounters::inc`] records which slots became
/// non-zero, so [`TouchedCounters::reset`] is `O(slots incremented)` rather
/// than `O(fabric size)`. Used for the per-sender compression-core
/// accounting in the engine's CPU admission pass and in FVDF's β decisions.
#[derive(Debug, Clone, Default)]
pub struct TouchedCounters {
    vals: Vec<u32>,
    touched: Vec<u32>,
}

impl TouchedCounters {
    /// Zero every touched counter and make sure the buffer covers `n` slots.
    pub fn reset(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize(n, 0);
        }
        for &i in &self.touched {
            self.vals[i as usize] = 0;
        }
        self.touched.clear();
    }

    /// Current count at slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.vals[i]
    }

    /// Increment slot `i`, recording it as touched on the 0 → 1 transition.
    #[inline]
    pub fn inc(&mut self, i: usize) {
        if self.vals[i] == 0 {
            self.touched.push(i as u32);
        }
        self.vals[i] += 1;
    }
}

/// Caller-owned buffers for [`water_fill_with`], so repeated fills perform
/// no per-call allocation once the buffers have grown to the fabric size.
///
/// The rounds iterate a deduplicated list of the ports the demands actually
/// touch instead of every port in the fabric, which turns each round from
/// `O(fabric size)` into `O(demand ports)`. The binding-port minimum is the
/// `f64::min` over that list; min over non-NaN values is order-independent,
/// so iterating the touched list is bit-identical to the dense scan.
#[derive(Debug, Default, Clone)]
pub struct WaterFillScratch {
    rates: Vec<f64>,
    frozen: Vec<bool>,
    egress_left: Vec<f64>,
    ingress_left: Vec<f64>,
    e_cnt: Vec<usize>,
    i_cnt: Vec<usize>,
    ports: Vec<u32>,
    seen: Vec<bool>,
}

/// Max-min fair water-filling over the big switch: every demand gets the
/// largest rate such that no sender egress or receiver ingress exceeds its
/// capacity and rates are max-min fair.
///
/// `demands` are `(flow, src, dst)` triples; the return maps each flow to its
/// fair rate. This is the core of PFF/FAIR and of work-conserving backfill.
/// Convenience wrapper over [`water_fill_with`] with throwaway buffers.
pub fn water_fill(fabric: &Fabric, demands: &[(FlowId, NodeId, NodeId)]) -> BTreeMap<FlowId, f64> {
    let mut scratch = WaterFillScratch::default();
    water_fill_with(fabric, demands, &mut scratch)
}

/// [`water_fill`] with caller-owned buffers (see [`WaterFillScratch`]);
/// only the returned map is allocated.
pub fn water_fill_with(
    fabric: &Fabric,
    demands: &[(FlowId, NodeId, NodeId)],
    scratch: &mut WaterFillScratch,
) -> BTreeMap<FlowId, f64> {
    let n = fabric.num_nodes();
    let s = scratch;
    s.rates.clear();
    s.rates.resize(demands.len(), 0.0);
    s.frozen.clear();
    s.frozen.resize(demands.len(), false);
    if s.egress_left.len() < n {
        s.egress_left.resize(n, 0.0);
        s.ingress_left.resize(n, 0.0);
        s.e_cnt.resize(n, 0);
        s.i_cnt.resize(n, 0);
        s.seen.resize(n, false);
    }
    // Deduplicated list of the ports these demands touch; `seen` markers are
    // unwound at the end so the buffer is clean for the next call. Remaining
    // capacity is (re)initialized here for every listed port, so stale values
    // from a previous fill are never read.
    s.ports.clear();
    for (_, src, dst) in demands {
        for node in [*src, *dst] {
            let p = node.index();
            if !s.seen[p] {
                s.seen[p] = true;
                s.ports.push(p as u32);
                s.egress_left[p] = fabric.egress_cap(node);
                s.ingress_left[p] = fabric.ingress_cap(node);
            }
        }
    }

    loop {
        // Count unfrozen flows at each port.
        for &p in &s.ports {
            s.e_cnt[p as usize] = 0;
            s.i_cnt[p as usize] = 0;
        }
        let mut live = 0usize;
        for (k, (_, src, dst)) in demands.iter().enumerate() {
            if !s.frozen[k] {
                s.e_cnt[src.index()] += 1;
                s.i_cnt[dst.index()] += 1;
                live += 1;
            }
        }
        if live == 0 {
            break;
        }
        // The binding port is the one with the smallest fair share. Ports
        // with no unfrozen flow contribute nothing, so scanning the touched
        // list covers the full candidate set.
        let mut min_share = f64::INFINITY;
        for &p in &s.ports {
            let p = p as usize;
            if s.e_cnt[p] > 0 {
                min_share = min_share.min(s.egress_left[p] / s.e_cnt[p] as f64);
            }
            if s.i_cnt[p] > 0 {
                min_share = min_share.min(s.ingress_left[p] / s.i_cnt[p] as f64);
            }
        }
        if !min_share.is_finite() || min_share <= 0.0 {
            break;
        }
        // Raise every unfrozen flow by the share; freeze flows at saturated
        // ports.
        for (k, (_, src, dst)) in demands.iter().enumerate() {
            if s.frozen[k] {
                continue;
            }
            s.rates[k] += min_share;
            s.egress_left[src.index()] -= min_share;
            s.ingress_left[dst.index()] -= min_share;
        }
        const EPS: f64 = 1e-9;
        let mut any = false;
        let mut all_frozen = true;
        for (k, (_, src, dst)) in demands.iter().enumerate() {
            if s.frozen[k] {
                continue;
            }
            let e_sat = s.e_cnt[src.index()] > 0
                && s.egress_left[src.index()] <= EPS * fabric.egress_cap(*src);
            let i_sat = s.i_cnt[dst.index()] > 0
                && s.ingress_left[dst.index()] <= EPS * fabric.ingress_cap(*dst);
            if e_sat || i_sat {
                s.frozen[k] = true;
                any = true;
            } else {
                all_frozen = false;
            }
        }
        if !any {
            // All ports strictly below capacity would mean min_share was not
            // binding; guard against infinite loops on pathological input.
            break;
        }
        if all_frozen {
            break;
        }
    }
    for &p in &s.ports {
        s.seen[p as usize] = false;
    }
    demands
        .iter()
        .zip(&s.rates)
        .map(|((f, _, _), r)| (*f, *r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_fill_single_port_shares_equally() {
        let fabric = Fabric::uniform(3, 10.0);
        // Two flows out of node 0 to distinct receivers: egress is binding.
        let demands = vec![
            (FlowId(1), NodeId(0), NodeId(1)),
            (FlowId(2), NodeId(0), NodeId(2)),
        ];
        let rates = water_fill(&fabric, &demands);
        assert!((rates[&FlowId(1)] - 5.0).abs() < 1e-9);
        assert!((rates[&FlowId(2)] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_max_min_not_just_equal() {
        // Node 0 egress 10 shared by f1,f2; f2 also limited by receiver 2
        // whose ingress is 2. Max-min: f2 = 2, f1 = 8.
        let fabric = Fabric::new(vec![10.0, 10.0, 10.0], vec![10.0, 10.0, 2.0]);
        let demands = vec![
            (FlowId(1), NodeId(0), NodeId(1)),
            (FlowId(2), NodeId(0), NodeId(2)),
        ];
        let rates = water_fill(&fabric, &demands);
        assert!((rates[&FlowId(2)] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[&FlowId(1)] - 8.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn water_fill_disjoint_flows_get_full_capacity() {
        let fabric = Fabric::uniform(4, 7.0);
        let demands = vec![
            (FlowId(1), NodeId(0), NodeId(1)),
            (FlowId(2), NodeId(2), NodeId(3)),
        ];
        let rates = water_fill(&fabric, &demands);
        assert!((rates[&FlowId(1)] - 7.0).abs() < 1e-9);
        assert!((rates[&FlowId(2)] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_empty() {
        let fabric = Fabric::uniform(2, 1.0);
        assert!(water_fill(&fabric, &[]).is_empty());
    }

    #[test]
    fn water_fill_reused_scratch_is_bit_identical_to_fresh() {
        // A congested many-port instance with uneven caps so several rounds
        // run and the binding port moves around.
        let n = 64usize;
        let caps: Vec<f64> = (0..n).map(|i| 4.0 + (i % 7) as f64).collect();
        let fabric = Fabric::new(caps.clone(), caps);
        let mut demands = Vec::new();
        for i in 0..200u64 {
            let s = (i * 13 % n as u64) as u32;
            let d = (i * 29 % n as u64) as u32;
            if s != d {
                demands.push((FlowId(i), NodeId(s), NodeId(d)));
            }
        }
        let fresh = water_fill(&fabric, &demands);
        let mut scratch = WaterFillScratch::default();
        // Dirty the scratch with a different instance first.
        water_fill_with(&fabric, &demands[..demands.len() / 2], &mut scratch);
        let reused = water_fill_with(&fabric, &demands, &mut scratch);
        assert_eq!(fresh.len(), reused.len());
        for (f, r) in &fresh {
            assert_eq!(r.to_bits(), reused[f].to_bits(), "flow {f:?} diverged");
        }
    }

    #[test]
    fn commands() {
        let c = FlowCommand::transmit(5.0);
        assert!(!c.compress);
        assert_eq!(c.rate, 5.0);
        let c = FlowCommand::compressing();
        assert!(c.compress);
        let mut a = Allocation::new();
        assert!(a.is_empty());
        a.set(FlowId(1), c);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(FlowId(1)), c);
        assert_eq!(a.get(FlowId(9)), FlowCommand::IDLE);
    }

    #[test]
    fn out_of_order_sets_stay_sorted() {
        let mut a = Allocation::new();
        a.set(FlowId(5), FlowCommand::transmit(5.0));
        a.set(FlowId(1), FlowCommand::transmit(1.0));
        a.set(FlowId(3), FlowCommand::transmit(3.0));
        a.set(FlowId(1), FlowCommand::transmit(10.0)); // overwrite
        let ids: Vec<u64> = a.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(a.get(FlowId(1)).rate, 10.0);
        assert_eq!(a.len(), 3);
    }
}

#[cfg(test)]
mod clamp_tests {
    use super::*;
    use crate::cpu::CpuModel;
    use crate::ids::CoflowId;
    use crate::view::{ConstCompression, FabricView, FlowView};

    fn fixture(flows: Vec<FlowView>) -> (Fabric, CpuModel, ConstCompression, Vec<FlowView>) {
        (
            Fabric::uniform(3, 10.0),
            CpuModel::unconstrained(3, 4),
            ConstCompression::disabled(),
            flows,
        )
    }

    fn fv(id: u64, src: u32, dst: u32) -> FlowView {
        FlowView {
            id: FlowId(id),
            coflow: CoflowId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            original_size: 100.0,
            raw: 100.0,
            compressed: 0.0,
            arrival: 0.0,
            compressible: true,
        }
    }

    #[test]
    fn clamp_scales_down_oversubscribed_ports() {
        let (fabric, cpu, comp, flows) = fixture(vec![fv(1, 0, 1), fv(2, 0, 2)]);
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows,
        };
        let mut alloc = Allocation::new();
        alloc.set(FlowId(1), FlowCommand::transmit(8.0));
        alloc.set(FlowId(2), FlowCommand::transmit(8.0)); // egress 0: 16 > 10
        assert!(alloc.check_feasible(&view).is_err());
        alloc.clamp_with_scratch(&view, &mut PortScratch::default());
        assert!(alloc.check_feasible(&view).is_ok());
        // Proportional scale: both flows shrink by the same 10/16 factor.
        let r1 = alloc.get(FlowId(1)).rate;
        let r2 = alloc.get(FlowId(2)).rate;
        assert!((r1 - r2).abs() < 1e-9);
        assert!(r1 + r2 <= 10.0 + 1e-6);
    }

    #[test]
    fn clamp_leaves_feasible_allocations_alone() {
        let (fabric, cpu, comp, flows) = fixture(vec![fv(1, 0, 1)]);
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows,
        };
        let mut alloc = Allocation::new();
        alloc.set(FlowId(1), FlowCommand::transmit(5.0));
        alloc.clamp_with_scratch(&view, &mut PortScratch::default());
        assert_eq!(alloc.get(FlowId(1)).rate, 5.0);
    }

    #[test]
    fn clamp_walks_past_commands_for_flows_outside_the_view() {
        // Commands for flows 0, 2 and 9 are not in the view {1, 3}; they
        // load no port and keep their rates, between and around the two
        // that are clamped.
        let (fabric, cpu, comp, flows) = fixture(vec![fv(1, 0, 1), fv(3, 0, 2)]);
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows,
        };
        let mut alloc = Allocation::new();
        for id in [0, 1, 2, 3, 9] {
            alloc.set(FlowId(id), FlowCommand::transmit(8.0));
        }
        alloc.clamp_with_scratch(&view, &mut PortScratch::default());
        for id in [0, 2, 9] {
            assert_eq!(alloc.get(FlowId(id)).rate, 8.0);
        }
        assert_eq!(alloc.get(FlowId(1)).rate, 8.0 * (1.0 / 1.6));
        assert_eq!(alloc.get(FlowId(3)).rate, 8.0 * (1.0 / 1.6));
    }

    #[test]
    fn command_slots_emit_what_was_set_in_id_order() {
        let flows = vec![fv(2, 0, 1), fv(4, 0, 2), fv(7, 1, 2)];
        let mut slots = CommandSlots::default();
        slots.reset(3);
        // Out of id order, one overwrite, one flow never set.
        slots.set(2, FlowCommand::compressing());
        slots.set(0, FlowCommand::transmit(1.0));
        slots.set(0, FlowCommand::transmit(3.0));
        assert_eq!(slots.get(0).rate, 3.0);
        assert_eq!(slots.get(1), FlowCommand::IDLE);
        let alloc = slots.to_allocation(&flows);
        let got: Vec<_> = alloc.iter().collect();
        assert_eq!(
            got,
            vec![
                (FlowId(2), FlowCommand::transmit(3.0)),
                (FlowId(7), FlowCommand::compressing()),
            ]
        );
        // A reset forgets everything, whatever the new size.
        slots.reset(2);
        assert!(slots.to_allocation(&flows[..2]).is_empty());
    }

    #[test]
    fn seek_answers_ascending_lookups_in_one_walk() {
        let items = [FlowId(1), FlowId(4), FlowId(6)];
        let mut at = 0;
        let got: Vec<Option<u64>> = [0, 1, 3, 4, 5, 6, 8]
            .iter()
            .map(|&id| seek(&items, &mut at, FlowId(id), |&i| i).map(|i| i.0))
            .collect();
        assert_eq!(got, vec![None, Some(1), None, Some(4), None, Some(6), None]);
    }

    #[test]
    fn port_loads_ignore_compressing_flows() {
        let (fabric, cpu, comp, flows) = fixture(vec![fv(1, 0, 1), fv(2, 0, 2)]);
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows,
        };
        let mut alloc = Allocation::new();
        alloc.set(FlowId(1), FlowCommand::compressing());
        alloc.set(FlowId(2), FlowCommand::transmit(4.0));
        let (egress, ingress) = alloc.port_loads(&view);
        assert_eq!(egress[&NodeId(0)], 4.0);
        assert!(!ingress.contains_key(&NodeId(1)));
        assert_eq!(ingress[&NodeId(2)], 4.0);
    }
}
