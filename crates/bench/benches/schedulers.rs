//! Criterion benches of policy allocation cost — the paper's "calculation
//! pressure incurred by frequent rescheduling" (§IV-B1).
//!
//! `policy_allocate` times every kind of policy on small views.
//! `policy_allocate_active_sweep` is the scaling record: the coflow-ordering
//! policies on views of 16 to 5 400 active flows at 4 flows a coflow on 100
//! ports (the shape of the repo benchmark's `fabric-loaded` workload), with
//! the view's flow count as criterion's throughput — ns per active flow is
//! 10⁹ over the elements/s it prints, and it should stay flat as the view
//! grows. A per-coflow scan of the whole view shows as a line that climbs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use swallow_fabric::cpu::CpuModel;
use swallow_fabric::view::{ConstCompression, FabricView, FlowView};
use swallow_fabric::{Coflow, Fabric, Policy};
use swallow_sched::{AaloPolicy, Algorithm, SampledPolicy, SamplingConfig};
use swallow_workload::gen::{CoflowGen, GenConfig, Sizing};
use swallow_workload::SizeDist;

fn make_coflows(num_coflows: usize, width: usize, nodes: usize) -> Vec<Coflow> {
    CoflowGen::new(GenConfig {
        num_coflows,
        num_nodes: nodes,
        interarrival: SizeDist::Constant(0.0),
        width: SizeDist::Constant(width as f64),
        flow_size: SizeDist::Uniform { lo: 1e6, hi: 1e9 },
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 1.0,
        deadline: None,
        seed: 0xBE7,
    })
    .generate()
}

fn make_flows(num_coflows: usize, width: usize, nodes: usize) -> Vec<FlowView> {
    flow_views(&make_coflows(num_coflows, width, nodes))
}

fn flow_views(coflows: &[Coflow]) -> Vec<FlowView> {
    let mut flows: Vec<FlowView> = coflows
        .iter()
        .flat_map(|c| {
            c.flows.iter().map(move |f| FlowView {
                id: f.id,
                coflow: c.id,
                src: f.src,
                dst: f.dst,
                original_size: f.size,
                raw: f.size,
                compressed: 0.0,
                arrival: c.arrival,
                compressible: true,
            })
        })
        .collect();
    flows.sort_by_key(|f| f.id);
    flows
}

fn bench_allocate(c: &mut Criterion) {
    let nodes = 50;
    let fabric = Fabric::uniform(nodes, 125e6);
    let cpu = CpuModel::unconstrained(nodes, 8);
    let comp = ConstCompression::new("lz4", 785e6, 0.6215);
    let mut group = c.benchmark_group("policy_allocate");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &active in &[50usize, 200, 800] {
        let flows = make_flows(active / 4, 4, nodes);
        let view = FabricView {
            now: 0.0,
            slice: 0.01,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows,
        };
        for alg in [
            Algorithm::Fvdf,
            Algorithm::Sebf,
            Algorithm::Srtf,
            Algorithm::Pff,
            Algorithm::Wss,
        ] {
            group.bench_with_input(BenchmarkId::new(alg.name(), active), &view, |b, view| {
                let mut policy = alg.make();
                b.iter(|| policy.allocate(std::hint::black_box(view)))
            });
        }
    }
    group.finish();
}

/// One warm policy per iteration batch, told of every coflow the way the
/// engine would on arrival (the sampling wrapper sizes its beliefs there).
fn warmed(mut policy: Box<dyn Policy>, coflows: &[Coflow]) -> Box<dyn Policy> {
    for c in coflows {
        policy.on_arrival(c, c.arrival);
    }
    policy
}

fn bench_active_sweep(c: &mut Criterion) {
    let nodes = 100;
    let fabric = Fabric::uniform(nodes, 125e6);
    let cpu = CpuModel::unconstrained(nodes, 8);
    let comp = ConstCompression::new("lz4", 785e6, 0.6215);
    type Make = fn() -> Box<dyn Policy>;
    let policies: [(&str, Make); 4] = [
        ("FVDF", || Algorithm::Fvdf.make()),
        ("SEBF", || Algorithm::Sebf.make()),
        ("Aalo", || Box::new(AaloPolicy::default())),
        ("Sampled-FVDF", || {
            Box::new(SampledPolicy::fvdf(SamplingConfig::default()))
        }),
    ];
    let mut group = c.benchmark_group("policy_allocate_active_sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &active in &[16usize, 600, 2_400, 5_400] {
        let coflows = make_coflows(active / 4, 4, nodes);
        let view = FabricView {
            now: 0.0,
            slice: 0.001,
            fabric: &fabric,
            cpu: &cpu,
            compression: &comp,
            flows: flow_views(&coflows),
        };
        group.throughput(Throughput::Elements(view.flows.len() as u64));
        for (name, make) in policies {
            group.bench_with_input(BenchmarkId::new(name, active), &view, |b, view| {
                let mut policy = warmed(make(), &coflows);
                b.iter(|| policy.allocate(std::hint::black_box(view)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_allocate, bench_active_sweep);
criterion_main!(benches);
