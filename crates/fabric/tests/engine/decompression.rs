//! Receiver-side decompression, charged only when modelled.

use crate::helpers::CompressThenSend;
use std::sync::Arc;
use swallow_fabric::engine::{Engine, SimConfig, SimResult};
use swallow_fabric::view::{CompressionSpec, ConstCompression};
use swallow_fabric::{Coflow, Fabric, FlowSpec};

/// A spec with an explicit (finite) decompression speed.
struct SlowDecomp;
impl CompressionSpec for SlowDecomp {
    fn speed(&self) -> f64 {
        1000.0
    }
    fn ratio(&self, _size: f64) -> f64 {
        0.5
    }
    fn decompress_speed(&self) -> f64 {
        50.0 // compressed bytes per second — pathologically slow
    }
}

fn run(model: bool) -> SimResult {
    let fabric = Fabric::uniform(2, 100.0);
    let coflows = vec![Coflow::builder(0)
        .flow(FlowSpec::new(0, 0, 1, 1000.0))
        .build()];
    let mut config = SimConfig::default()
        .with_slice(0.01)
        .with_compression(Arc::new(SlowDecomp));
    if model {
        config = config.with_decompression_model();
    }
    Engine::new(fabric, coflows, config).run(&mut CompressThenSend)
}

#[test]
fn decompression_penalty_is_charged_when_modelled() {
    let without = run(false);
    let with = run(true);
    assert!(without.all_complete() && with.all_complete());
    // 1000 raw compress to 500; decompressing 500 at 50 B/s adds 10 s.
    let delta = with.avg_fct() - without.avg_fct();
    assert!((delta - 10.0).abs() < 0.2, "delta={delta}");
}

#[test]
fn infinite_decompression_speed_is_free() {
    // The default ConstCompression keeps the paper's omission: modelling
    // costs nothing when decompress_speed is infinite.
    let fabric = Fabric::uniform(2, 100.0);
    let coflows = vec![Coflow::builder(0)
        .flow(FlowSpec::new(0, 0, 1, 1000.0))
        .build()];
    let spec = Arc::new(ConstCompression::new("fast", 1000.0, 0.5));
    let base = Engine::new(
        fabric.clone(),
        coflows.clone(),
        SimConfig::default()
            .with_slice(0.01)
            .with_compression(spec.clone()),
    )
    .run(&mut CompressThenSend);
    let modelled = Engine::new(
        fabric,
        coflows,
        SimConfig::default()
            .with_slice(0.01)
            .with_compression(spec)
            .with_decompression_model(),
    )
    .run(&mut CompressThenSend);
    assert!((base.avg_fct() - modelled.avg_fct()).abs() < 1e-9);
}
