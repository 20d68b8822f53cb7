//! Criterion benches of full simulation runs: end-to-end engine throughput
//! per scheduling algorithm and per slice length (the Fig. 7(c) cost axis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swallow_bench::scenario::{lz4, run_algorithm, std_fabric, std_trace, StdScale};
use swallow_fabric::units;
use swallow_sched::Algorithm;

fn bench_algorithms(c: &mut Criterion) {
    let bw = units::mbps(200.0);
    let fabric = std_fabric(StdScale::Small, bw);
    let trace = std_trace(StdScale::Small, bw, 0xE11);
    let mut group = c.benchmark_group("engine_full_run");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for alg in [
        Algorithm::Fvdf,
        Algorithm::Sebf,
        Algorithm::Srtf,
        Algorithm::Pff,
        Algorithm::Fifo,
    ] {
        group.bench_function(BenchmarkId::new("algorithm", alg.name()), |b| {
            b.iter(|| {
                let res = run_algorithm(alg, &fabric, &trace, Some(lz4()), 0.01);
                assert!(res.all_complete());
                res.avg_cct()
            })
        });
    }
    group.finish();
}

fn bench_slice_length(c: &mut Criterion) {
    let bw = units::mbps(200.0);
    let fabric = std_fabric(StdScale::Small, bw);
    let trace = std_trace(StdScale::Small, bw, 0xE12);
    let mut group = c.benchmark_group("engine_slice_length");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &slice in &[0.005, 0.01, 0.1, 1.0] {
        group.bench_function(BenchmarkId::new("slice", format!("{slice}s")), |b| {
            b.iter(|| run_algorithm(Algorithm::Fvdf, &fabric, &trace, Some(lz4()), slice).avg_cct())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_slice_length);
criterion_main!(benches);
