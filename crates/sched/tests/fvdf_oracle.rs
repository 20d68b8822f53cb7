//! `FvdfPolicy` against the implementation it replaced.
//!
//! [`EagerFvdf`] is the policy as it stood before the per-coflow table: the
//! priority classes and the deadlines in two maps, a list of starved coflow
//! ids that `Upgrade` walks at every arrival and completion, and a
//! comparator that reads the deadline map for every pair it is shown. It is
//! kept here, and only here, as the reference: the table, the counted
//! upgrades and the resolved sort keys must reproduce its `priority_of` and
//! its `Allocation`s to the bit, and its service order exactly.
//!
//! Coflow ids are unique over a run, as they are in every trace the engine
//! accepts: an id that arrives again while live, or after it completed,
//! starts over in the table, where the maps would have let it inherit the
//! old entry's place on the starved list.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use swallow_fabric::cpu::CpuModel;
use swallow_fabric::view::{ConstCompression, FabricView, FlowView};
use swallow_fabric::{
    Allocation, Coflow, CoflowId, Fabric, FlowCommand, FlowId, NodeId, Policy, TouchedCounters,
    VOLUME_EPS,
};
use swallow_sched::util::OrderedScratch;
use swallow_sched::{FvdfConfig, FvdfPolicy};
use swallow_trace::{CollectSink, TraceEvent, Tracer};

/// FVDF with eager aging and a map-reading comparator (per-flow gate only;
/// the gate is not what changed).
struct EagerFvdf {
    config: FvdfConfig,
    priority: BTreeMap<CoflowId, f64>,
    deadlines: BTreeMap<CoflowId, f64>,
    starved: Vec<CoflowId>,
    /// Coflows in the order the latest `allocate` served them.
    order: Vec<u64>,
}

impl EagerFvdf {
    fn new(config: FvdfConfig) -> Self {
        Self {
            config,
            priority: BTreeMap::new(),
            deadlines: BTreeMap::new(),
            starved: Vec::new(),
            order: Vec::new(),
        }
    }

    fn priority_of(&self, coflow: CoflowId) -> f64 {
        self.priority.get(&coflow).copied().unwrap_or(1.0)
    }

    fn upgrade(&mut self) {
        for cid in &self.starved {
            if let Some(p) = self.priority.get_mut(cid) {
                *p *= self.config.logbase;
            }
        }
    }
}

impl Policy for EagerFvdf {
    fn name(&self) -> &str {
        "FVDF (eager)"
    }

    fn on_arrival(&mut self, coflow: &Coflow, _now: f64) {
        self.upgrade();
        self.priority.insert(coflow.id, 1.0);
        if let Some(d) = coflow.deadline {
            self.deadlines.insert(coflow.id, d);
        }
    }

    fn on_completion(&mut self, coflow: CoflowId, _now: f64) {
        self.priority.remove(&coflow);
        self.deadlines.remove(&coflow);
        self.upgrade();
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let delta = view.slice;
        let r_speed = view.compression.speed();
        let mut s = OrderedScratch::default();
        let mut cores_used = TouchedCounters::default();
        cores_used.reset(view.fabric.num_nodes());
        // (position, src, dst, volume, β) per flow, coflow by coflow.
        let mut plan_flows: Vec<(usize, NodeId, NodeId, f64, bool)> = Vec::new();
        let mut plan_index: Vec<(CoflowId, f64, usize, usize)> = Vec::new();
        s.begin(view);
        for span in s.groups.spans() {
            let mut gamma_c = 0.0f64;
            let start = plan_flows.len();
            for (pos, f) in s.groups.flows(span, &view.flows) {
                let b = view.min_port_cap(f);
                let xi = view.compression.ratio(f.original_size);
                let cpu_ok = cores_used.get(f.src.index()) < view.free_cores(f.src);
                let gate_open = r_speed * (1.0 - xi) > b;
                let beta = self.config.compression
                    && f.compressible
                    && f.raw > VOLUME_EPS
                    && cpu_ok
                    && gate_open;
                if beta {
                    cores_used.inc(f.src.index());
                }
                let v = f.volume();
                let delta_c = (r_speed * delta).min(f.raw) * (1.0 - xi);
                let delta_t = b * delta;
                let disposal = if beta { delta_c } else { delta_t };
                gamma_c = gamma_c.max(delta + (v - disposal).max(0.0) / b);
                plan_flows.push((pos, f.src, f.dst, v, beta));
            }
            let adjusted = if self.config.online {
                gamma_c / self.priority_of(span.coflow)
            } else {
                gamma_c
            };
            plan_index.push((span.coflow, adjusted, start, plan_flows.len()));
        }

        if self.config.deadline_aware {
            let deadlines = &self.deadlines;
            plan_index.sort_unstable_by(|a, b| match (deadlines.get(&a.0), deadlines.get(&b.0)) {
                (Some(da), Some(db)) => da.total_cmp(db).then(a.0.cmp(&b.0)),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)),
            });
        } else {
            plan_index.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        }
        self.order = plan_index.iter().map(|&(cid, ..)| cid.0).collect();

        self.starved.clear();
        for &(cid, adjusted_gamma, start, end) in &plan_index {
            let gamma = adjusted_gamma.max(delta);
            let mut served = false;
            for &(pos, src, dst, volume, beta) in &plan_flows[start..end] {
                if beta {
                    s.cmds.set(pos, FlowCommand::compressing());
                    served = true;
                } else {
                    s.flow_order.push(pos as u32);
                    let granted = s.residual.take(src, dst, volume / gamma);
                    if granted > 0.0 {
                        s.cmds.set(pos, FlowCommand::transmit(granted));
                        served = true;
                    }
                }
            }
            if !served {
                self.starved.push(cid);
            }
        }
        if self.config.backfill {
            s.backfill(view);
        }
        s.cmds.to_allocation(&view.flows)
    }
}

const NODES: usize = 4;
const CAP: f64 = 100.0;
/// Ids a run may announce, in the order it announces them: a fixed
/// permutation of `0..FRESH`, so the table sees ids below its last.
const FRESH: u64 = 61;
/// Coflows the views may show that no `on_arrival` ever announces.
const UNTRACKED: [u64; 2] = [29 + FRESH, 7 + FRESH];

fn fresh_id(n: u64) -> u64 {
    (n * 37 + 11) % FRESH
}

/// The flows coflow `c` shows in a view: one to three of them between the
/// four ports, so most coflows queue behind a few. `scale` moves every
/// volume together, which keeps Γ ties between coflows of one shape.
fn flows_of(c: u64, scale: f64) -> impl Iterator<Item = FlowView> {
    (0..1 + c % 3).map(move |k| {
        let src = ((c + k) % NODES as u64) as u32;
        let raw = (1 + (c + k) % 4) as f64 * 25.0 * scale;
        // Every fifth flow has compressed all it had: no raw bytes left.
        let (raw, compressed) = if (c + k).is_multiple_of(5) {
            (0.0, raw)
        } else {
            (raw, 0.0)
        };
        FlowView {
            id: FlowId(c * 4 + k),
            coflow: CoflowId(c),
            src: NodeId(src),
            dst: NodeId((src + 1 + (c % 2) as u32) % NODES as u32),
            original_size: 400.0,
            raw,
            compressed,
            arrival: 0.0,
            compressible: !(c + k).is_multiple_of(3),
        }
    })
}

fn with_view<R>(coflows: &[u64], scale: f64, f: impl FnOnce(&FabricView<'_>) -> R) -> R {
    let fabric = Fabric::uniform(NODES, CAP);
    // One core a node, so the β decisions contend for it.
    let cpu = CpuModel::unconstrained(NODES, 1);
    let comp = ConstCompression::new("lz4-like", 785.0 * CAP, 0.62);
    let mut flows: Vec<FlowView> = coflows.iter().flat_map(|&c| flows_of(c, scale)).collect();
    flows.sort_by_key(|f| f.id);
    f(&FabricView {
        now: 0.0,
        slice: 0.01,
        fabric: &fabric,
        cpu: &cpu,
        compression: &comp,
        flows,
    })
}

fn bits(alloc: &Allocation) -> Vec<(FlowId, u64, bool)> {
    alloc
        .iter()
        .map(|(id, cmd)| (id, cmd.rate.to_bits(), cmd.compress))
        .collect()
}

/// The two implementations side by side, fed the same calls.
struct Pair {
    lazy: FvdfPolicy,
    eager: EagerFvdf,
    orders: Arc<CollectSink>,
    live: Vec<u64>,
    announced: u64,
}

impl Pair {
    fn new(config: FvdfConfig) -> Self {
        let orders = Arc::new(CollectSink::new());
        let mut lazy = FvdfPolicy::with_config(config.clone());
        lazy.set_tracer(Tracer::with_sink(orders.clone()));
        Self {
            lazy,
            eager: EagerFvdf::new(config),
            orders,
            live: Vec::new(),
            announced: 0,
        }
    }

    fn arrive(&mut self, coflow: &Coflow) {
        self.lazy.on_arrival(coflow, coflow.arrival);
        self.eager.on_arrival(coflow, coflow.arrival);
    }

    fn complete(&mut self, coflow: u64) {
        self.lazy.on_completion(CoflowId(coflow), 0.0);
        self.eager.on_completion(CoflowId(coflow), 0.0);
    }

    /// One `allocate` each on the same view; `Err` names what differed.
    fn allocate(&mut self, coflows: &[u64], scale: f64) -> Result<(), String> {
        let (got, want) = with_view(coflows, scale, |view| {
            (self.lazy.allocate(view), self.eager.allocate(view))
        });
        if bits(&got) != bits(&want) {
            return Err(format!("allocations differ: {got:?} vs {want:?}"));
        }
        let order = self
            .orders
            .take()
            .into_iter()
            .find_map(|r| match r.event {
                TraceEvent::ScheduleOrder { order, .. } => Some(order),
                _ => None,
            })
            .expect("allocate traces its order");
        if order != self.eager.order {
            return Err(format!("service order {order:?} vs {:?}", self.eager.order));
        }
        Ok(())
    }

    /// `priority_of` agrees, to the bit, for every id a run can mention.
    fn same_priorities(&self) -> Result<(), String> {
        for c in (0..FRESH).chain(UNTRACKED) {
            let (got, want) = (
                self.lazy.priority_of(CoflowId(c)),
                self.eager.priority_of(CoflowId(c)),
            );
            if got.to_bits() != want.to_bits() {
                return Err(format!("P of coflow {c}: {got:e} vs {want:e}"));
            }
        }
        Ok(())
    }

    /// Apply one generated step: `kind` picks the call, `pick` its subject,
    /// `x` its one real parameter.
    fn step(&mut self, kind: u8, pick: u64, x: f64) -> Result<(), String> {
        match kind {
            // Arrival of the next unused id; one in three carries a
            // deadline, rounded so that deadlines tie.
            0 | 1 if self.announced < FRESH => {
                let id = fresh_id(self.announced);
                self.announced += 1;
                let mut b = Coflow::builder(id);
                if pick.is_multiple_of(3) {
                    b = b.deadline((x * 4.0).round());
                }
                self.arrive(&b.build());
                self.live.push(id);
            }
            // Completion of any live coflow, starved or not.
            2 if !self.live.is_empty() => {
                let id = self.live.swap_remove(pick as usize % self.live.len());
                self.complete(id);
            }
            // `allocate` over the live coflows, with or without the ones
            // nobody announced.
            _ => {
                let mut shown = self.live.clone();
                if pick.is_multiple_of(2) {
                    shown.extend(UNTRACKED);
                }
                if !shown.is_empty() {
                    self.allocate(&shown, 0.25 + x)?;
                }
            }
        }
        self.same_priorities()
    }
}

fn configs() -> [FvdfConfig; 2] {
    [
        FvdfConfig::default(),
        FvdfConfig {
            deadline_aware: true,
            ..FvdfConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of the three calls: ids arrive out of order,
    /// starved coflows complete, views show coflows nobody announced.
    #[test]
    fn lazy_aging_matches_the_eager_walk(
        steps in proptest::collection::vec((0u8..6, 0u64..1000, 0.0f64..2.0), 1..160)
    ) {
        for config in configs() {
            let mut pair = Pair::new(config);
            for (n, &(kind, pick, x)) in steps.iter().enumerate() {
                let outcome = pair.step(kind, pick, x);
                prop_assert!(outcome.is_ok(), "step {} {:?}: {:?}", n, (kind, pick, x), outcome);
            }
        }
    }
}

/// Scheduling only: no flow is served by a compression slot, so a coflow
/// behind two others on one port pair is starved, and coflows of one shape
/// have one Γ.
fn without_compression(deadline_aware: bool) -> FvdfConfig {
    FvdfConfig {
        compression: false,
        deadline_aware,
        ..FvdfConfig::default()
    }
}

/// More upgrades than `1.2ⁿ` has finite values for: `P` climbs through the
/// same roundings — to infinity, when one coflow takes them all — whether
/// the 4 000 events are settled in one `allocate` or a few at a time.
#[test]
fn priority_saturates_like_the_eager_walk() {
    // One flow each from port 0 to port 1: the first in line takes the
    // port, the second what is left, the third nothing.
    const QUEUE: [u64; 3] = [24, 0, 12];
    for settle_every in [usize::MAX, 7, 500] {
        let mut pair = Pair::new(without_compression(false));
        for id in QUEUE {
            pair.arrive(&Coflow::builder(id).build());
        }
        pair.allocate(&QUEUE, 1.0).unwrap();
        for n in 0..2_000usize {
            let passer = Coflow::builder(100 + n as u64).build();
            pair.arrive(&passer);
            pair.complete(passer.id.0);
            if n % settle_every == settle_every - 1 {
                pair.allocate(&QUEUE, 1.0).unwrap();
            }
            if n % 97 == 0 {
                pair.same_priorities().unwrap();
            }
        }
        pair.same_priorities().unwrap();
        let aged = QUEUE.map(|c| pair.lazy.priority_of(CoflowId(c)));
        if settle_every == usize::MAX {
            // Nothing re-plans, so the third in line takes all 4 000.
            assert!(
                aged.contains(&f64::INFINITY) && aged.contains(&1.0),
                "one coflow starves throughout and one is always served: {aged:?}"
            );
        } else {
            // Each re-plan puts the most aged coflow first: they take turns.
            assert!(aged.iter().all(|&p| p > 1e100), "{aged:?}");
        }
        pair.allocate(&QUEUE, 1.0).unwrap();
        pair.same_priorities().unwrap();
    }
}

/// FVDF-D on a view built to tie: coflows 2, 3, 14 and 26 have equal Γ,
/// three deadlines tie at 3 across coflows of different Γ, and deadline-less
/// coflows sit between them in id. The resolved keys give the order the
/// map-reading comparator gives — and with the deadlines ignored, plain
/// FVDF's.
#[test]
fn deadline_tiers_and_ties_keep_the_comparator_order() {
    let deadlines = [
        (2, None),
        (14, Some(3.0)),
        (26, None),
        (3, Some(3.0)),
        (9, Some(1.5)),
        (20, Some(3.0)),
        (21, None),
    ];
    for deadline_aware in [false, true] {
        let mut pair = Pair::new(without_compression(deadline_aware));
        for (id, deadline) in deadlines {
            let mut b = Coflow::builder(id);
            if let Some(d) = deadline {
                b = b.deadline(d);
            }
            pair.arrive(&b.build());
        }
        let mut shown: Vec<u64> = deadlines.iter().map(|&(id, _)| id).collect();
        shown.extend(UNTRACKED);
        pair.allocate(&shown, 1.0).unwrap();
        let first = pair.eager.order.clone();
        // Again after two events, so the order is decided on aged classes.
        pair.complete(21);
        pair.arrive(&Coflow::builder(40).deadline(3.0).build());
        pair.same_priorities().unwrap();
        shown.retain(|&c| c != 21);
        shown.push(40);
        pair.allocate(&shown, 1.0).unwrap();

        let has_deadline = |c: &u64| deadlines.iter().any(|&(id, d)| id == *c && d.is_some());
        if deadline_aware {
            // Earliest deadline first, ties by id, then everyone else.
            assert_eq!(first[..4], [9, 3, 14, 20], "{first:?}");
            assert!(!first[4..].iter().any(has_deadline), "{first:?}");
        } else {
            // Shortest Γ first: 9 and 21, then 20 and the two untracked.
            assert_eq!(
                first[..5],
                [9, 21, 20, UNTRACKED[1], UNTRACKED[0]],
                "{first:?}"
            );
        }
        // Equal Γ falls to the id in both modes.
        let pos = |c: u64| first.iter().position(|&x| x == c).unwrap();
        assert!(pos(2) < pos(26), "{first:?}");
    }
}
