//! Property-based tests of the scheduling building blocks: every allocation
//! any policy produces must be port-feasible, and the water-filling and MADD
//! primitives must satisfy their defining properties.

use proptest::prelude::*;
use swallow_fabric::alloc::PortScratch;
use swallow_fabric::cpu::CpuModel;
use swallow_fabric::view::{ConstCompression, FabricView, FlowView};
use swallow_fabric::{Coflow, CoflowId, Fabric, FlowId, FlowSpec, NodeId, Policy};
use swallow_sched::util::{madd_gamma, water_fill_weighted, Residual};
use swallow_sched::{AaloPolicy, Algorithm, SampledPolicy, SamplingConfig};

const NODES: usize = 5;
const CAP: f64 = 100.0;

/// Random set of active flows grouped into coflows.
fn arb_flows() -> impl Strategy<Value = Vec<FlowView>> {
    proptest::collection::vec(
        (
            0u64..4, // coflow id
            0u32..NODES as u32,
            0u32..NODES as u32,
            1.0f64..5_000.0, // remaining volume
            0.0f64..100.0,   // already-compressed part
            any::<bool>(),
        ),
        1..20,
    )
    .prop_map(|rows| {
        let mut flows: Vec<FlowView> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (c, src, dst, raw, compressed, compressible))| {
                let dst = if dst == src {
                    (dst + 1) % NODES as u32
                } else {
                    dst
                };
                FlowView {
                    id: FlowId(i as u64),
                    coflow: CoflowId(c),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    original_size: raw + compressed,
                    raw,
                    compressed,
                    arrival: 0.0,
                    compressible,
                }
            })
            .collect();
        flows.sort_by_key(|f| f.id);
        flows
    })
}

fn with_view<R>(flows: Vec<FlowView>, f: impl FnOnce(&FabricView<'_>) -> R) -> R {
    with_view_on(NODES, flows, f)
}

fn with_view_on<R>(nodes: usize, flows: Vec<FlowView>, f: impl FnOnce(&FabricView<'_>) -> R) -> R {
    let fabric = Fabric::uniform(nodes, CAP);
    let cpu = CpuModel::unconstrained(nodes, 4);
    let comp = ConstCompression::new("lz4-like", 785.0 * CAP, 0.62);
    let view = FabricView {
        now: 0.0,
        slice: 0.01,
        fabric: &fabric,
        cpu: &cpu,
        compression: &comp,
        flows,
    };
    f(&view)
}

/// Ports per coflow in [`arb_port_disjoint_flows`].
const BLOCK: u32 = 3;
/// Coflows in [`arb_port_disjoint_flows`].
const COFLOWS: u64 = 4;

/// Flows whose ids interleave across coflows with sparse ids, each coflow
/// confined to its own block of ports. Flows contend inside a coflow only,
/// so every port's sums run over one coflow's flows — in ascending flow id
/// however the flows are numbered across coflows.
fn arb_port_disjoint_flows() -> impl Strategy<Value = Vec<FlowView>> {
    proptest::collection::vec(
        (
            0u64..COFLOWS,
            0u32..BLOCK,
            1u32..BLOCK,
            1.0f64..5_000.0,
            0.0f64..100.0,
            any::<bool>(),
        ),
        1..24,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(
                |(i, (c, src, hop, raw, compressed, compressible))| FlowView {
                    id: FlowId(3 * i as u64 + 1),
                    coflow: CoflowId(7 * c + 2),
                    src: NodeId(c as u32 * BLOCK + src),
                    dst: NodeId(c as u32 * BLOCK + (src + hop) % BLOCK),
                    original_size: raw + compressed,
                    raw,
                    compressed,
                    arrival: c as f64,
                    compressible,
                },
            )
            .collect()
    })
}

/// The same flows renumbered coflow by coflow (keeping the id order inside
/// each coflow), id-sorted, plus each flow's old id.
fn contiguous(flows: &[FlowView]) -> (Vec<FlowView>, Vec<FlowId>) {
    let mut by_coflow: Vec<&FlowView> = flows.iter().collect();
    by_coflow.sort_by_key(|f| (f.coflow, f.id));
    let old = by_coflow.iter().map(|f| f.id).collect();
    let new = by_coflow
        .iter()
        .enumerate()
        .map(|(i, f)| FlowView {
            id: FlowId(i as u64),
            ..**f
        })
        .collect();
    (new, old)
}

/// Every policy with a coflow-level pass, told about the coflows of `flows`
/// the way the engine would on arrival.
fn policies_for(flows: &[FlowView]) -> Vec<(String, Box<dyn Policy>)> {
    let mut policies: Vec<(String, Box<dyn Policy>)> = Algorithm::ALL
        .iter()
        .map(|a| (a.name().to_string(), a.make()))
        .collect();
    policies.push(("Aalo".into(), Box::new(AaloPolicy::new(1e-4))));
    policies.push((
        "Sampled-FVDF".into(),
        Box::new(SampledPolicy::fvdf(SamplingConfig::with_pilot_fraction(
            0.3,
        ))),
    ));
    for c in 0..COFLOWS {
        let cid = CoflowId(7 * c + 2);
        let mut b = Coflow::builder(cid.0).arrival(c as f64);
        for f in flows.iter().filter(|f| f.coflow == cid) {
            b = b.flow(FlowSpec::new(f.id.0, f.src.0, f.dst.0, f.original_size));
        }
        let coflow = b.build();
        if !coflow.flows.is_empty() {
            for (_, p) in &mut policies {
                p.on_arrival(&coflow, coflow.arrival);
            }
        }
    }
    policies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grouping's two paths agree: a view whose flow ids interleave
    /// across coflows (positions sorted by coflow) and the same flows
    /// renumbered coflow by coflow (already grouped, no sort) get the same
    /// commands, to the bit, from every policy.
    #[test]
    fn interleaved_and_contiguous_views_allocate_alike(flows in arb_port_disjoint_flows()) {
        let nodes = (COFLOWS as u32 * BLOCK) as usize;
        let (renumbered, old_ids) = contiguous(&flows);
        let mut shuffled = policies_for(&flows);
        let mut grouped = policies_for(&renumbered);
        // Two rounds, so reused scratch is covered as well.
        for round in 0..2 {
            for ((name, a), (_, b)) in shuffled.iter_mut().zip(grouped.iter_mut()) {
                let got = with_view_on(nodes, flows.clone(), |view| a.allocate(view));
                let want = with_view_on(nodes, renumbered.clone(), |view| b.allocate(view));
                let mut got: Vec<_> = got
                    .iter()
                    .map(|(id, cmd)| (id, cmd.rate.to_bits(), cmd.compress))
                    .collect();
                let mut want: Vec<_> = want
                    .iter()
                    .map(|(id, cmd)| (old_ids[id.0 as usize], cmd.rate.to_bits(), cmd.compress))
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "{} diverged in round {}", name, round);
            }
        }
    }

    /// Every policy's allocation is port-feasible and only compresses
    /// compressible flows with raw bytes left.
    #[test]
    fn allocations_are_feasible(flows in arb_flows()) {
        with_view(flows, |view| {
            for alg in Algorithm::ALL {
                let mut policy = alg.make();
                let alloc = policy.allocate(view);
                prop_assert!(
                    alloc.check_feasible(view).is_ok(),
                    "{} oversubscribed: {:?}",
                    alg.name(),
                    alloc.check_feasible(view)
                );
                for (id, cmd) in alloc.iter() {
                    if cmd.compress {
                        let f = view.flow(id).expect("commanded flow exists");
                        prop_assert!(f.compressible, "{} compresses an incompressible flow", alg.name());
                        prop_assert!(f.raw > 0.0, "{} compresses an exhausted flow", alg.name());
                    } else {
                        prop_assert!(cmd.rate >= 0.0);
                    }
                }
            }
            Ok(())
        })?;
    }

    /// Work conservation: whenever some flow is transmitting at less than
    /// its path residual under FVDF/SEBF, both of its ports are saturated
    /// or the flow could not use more (the backfill property).
    #[test]
    fn ordered_policies_are_work_conserving(flows in arb_flows()) {
        with_view(flows, |view| {
            for alg in [Algorithm::Sebf, Algorithm::FvdfNoCompression] {
                let mut policy = alg.make();
                let alloc = policy.allocate(view);
                // Aggregate per-port usage.
                let mut egress = [0.0; NODES];
                let mut ingress = [0.0; NODES];
                for (id, cmd) in alloc.iter() {
                    if cmd.compress { continue; }
                    let f = view.flow(id).expect("flow");
                    egress[f.src.index()] += cmd.rate;
                    ingress[f.dst.index()] += cmd.rate;
                }
                for f in &view.flows {
                    let cmd = alloc.get(f.id);
                    if cmd.compress { continue; }
                    let e_left = CAP - egress[f.src.index()];
                    let i_left = CAP - ingress[f.dst.index()];
                    let slack = e_left.min(i_left);
                    // If there's real slack, the flow must already be
                    // rate-limited by its remaining volume per slice.
                    if slack > CAP * 1e-6 {
                        let vol_cap = f.volume() / view.slice;
                        prop_assert!(
                            cmd.rate + 1e-6 >= vol_cap.min(CAP)
                                || cmd.rate > 0.0 && f.volume() < 1.0,
                            "{}: flow {} idles with {slack} slack (rate {})",
                            alg.name(), f.id, cmd.rate
                        );
                    }
                }
            }
            Ok(())
        })?;
    }

    /// Weighted water-filling never oversubscribes and gives zero exactly to
    /// zero-weight demands.
    #[test]
    fn water_fill_feasible(
        demands in proptest::collection::vec(
            (0u32..NODES as u32, 0u32..NODES as u32, 0.0f64..3.0), 1..16)
    ) {
        let fabric = Fabric::uniform(NODES, CAP);
        let cpu = CpuModel::unconstrained(NODES, 4);
        let comp = ConstCompression::disabled();
        let view = FabricView {
            now: 0.0, slice: 0.01, fabric: &fabric, cpu: &cpu,
            compression: &comp, flows: vec![],
        };
        let mut residual = Residual::new(&view);
        let ds: Vec<(FlowId, NodeId, NodeId, f64)> = demands
            .iter()
            .enumerate()
            .map(|(i, &(s, d, w))| {
                let d = if d == s { (d + 1) % NODES as u32 } else { d };
                (FlowId(i as u64), NodeId(s), NodeId(d), w)
            })
            .collect();
        let rates = water_fill_weighted(&mut residual, &ds);
        let mut egress = [0.0; NODES];
        let mut ingress = [0.0; NODES];
        for (id, s, d, w) in &ds {
            let r = rates[id];
            prop_assert!(r >= 0.0);
            if *w <= 0.0 {
                prop_assert_eq!(r, 0.0);
            }
            egress[s.index()] += r;
            ingress[d.index()] += r;
        }
        for v in egress.iter().chain(ingress.iter()) {
            prop_assert!(*v <= CAP * (1.0 + 1e-9), "port oversubscribed: {v}");
        }
    }

    /// MADD rates are proportional to volumes and finish simultaneously.
    #[test]
    fn madd_finishes_flows_together(
        vols in proptest::collection::vec(1.0f64..1000.0, 1..8)
    ) {
        let fabric = Fabric::uniform(NODES, CAP);
        let cpu = CpuModel::unconstrained(NODES, 4);
        let comp = ConstCompression::disabled();
        let view = FabricView {
            now: 0.0, slice: 0.01, fabric: &fabric, cpu: &cpu,
            compression: &comp, flows: vec![],
        };
        let residual = Residual::new(&view);
        // All flows share sender 0 so the bottleneck is unambiguous.
        let flows: Vec<(FlowId, NodeId, NodeId, f64)> = vols
            .iter()
            .enumerate()
            .map(|(i, &v)| (FlowId(i as u64), NodeId(0), NodeId(1 + (i % (NODES - 1)) as u32), v))
            .collect();
        let gamma = madd_gamma(&residual, &flows, &mut PortScratch::default());
        prop_assert!(gamma.is_finite() && gamma > 0.0);
        // Sender 0 carries every byte, so it is the bottleneck.
        let total: f64 = vols.iter().sum();
        prop_assert!((gamma - total / CAP).abs() < gamma * 1e-9);
        for (_, _, _, v) in &flows {
            // At rate volume / Γ every flow finishes at Γ.
            prop_assert!((v / (v / gamma) - gamma).abs() < gamma * 1e-9 + 1e-12);
        }
    }
}
