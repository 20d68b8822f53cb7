//! `fabric-loaded` and `fabric-idle`: one call path — a materialised
//! `CoflowGen` trace replayed with `Engine::new` under FVDF with LZ4
//! compression and events-only rescheduling — under two opposite loads.

use super::replay::{replay, Shape};
use super::{Metrics, RepOut, Size, Workload};
use crate::span::Recorder;
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;
use swallow_compress::Table2;
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{units, Coflow, Engine, Fabric, SimConfig};
use swallow_sched::{Algorithm, ProfiledCompression};
use swallow_workload::gen::scale;
use swallow_workload::{CoflowGen, GenConfig, SizeDist, Sizing};

/// Slice length δ of both workloads, seconds (the engine benchmark's).
const SLICE: f64 = 0.001;

/// `fabric-loaded`: offered raw-byte load as a share of fabric capacity.
/// Far above 1 on purpose: the coflows arrive as one burst, far faster than
/// the fabric drains them, so the backlog a rep works through is the whole
/// trace whatever the seed (see the README on calibration).
const LOADED_OFFERED: f64 = 20.0;
/// `fabric-loaded`: ports, at 1 Gbps each.
const LOADED_PORTS: usize = 100;
/// `fabric-loaded`: coflows, calibrated so one rep takes 4–6 s.
const LOADED_COFLOWS: usize = 1400;
/// `fabric-loaded`: largest over smallest coflow size (12.5–60 MB). The
/// narrowest cut of the Fig. 1 body in the benchmark: a rep's work grows
/// with the square of the backlog, so the size tail is what the seed moves
/// it by (see the README on calibration).
const LOADED_SIZE_RANGE: f64 = 4.8;

/// `fabric-idle`: the incumbent headline cell of `BENCH_engine.json`.
const IDLE_COFLOWS: usize = 1_000_000;
const IDLE_PORTS: usize = 10_000;

/// Regime guard: `fabric-loaded` must keep at least this port utilisation
/// and this many coflows in the fabric; `fabric-idle` at most these.
const LOADED_MIN_UTIL: f64 = 0.4;
const LOADED_MIN_ACTIVE: f64 = 200.0;
const IDLE_MAX_UTIL: f64 = 0.01;
const IDLE_MAX_ACTIVE: f64 = 2.0;

/// Capacity of every port, bytes/s.
fn port_cap() -> f64 {
    units::gbps(1.0)
}

struct FabricReplay {
    gen: GenConfig,
    /// `Some` on `fabric-loaded`, `None` on `fabric-idle`.
    offered_load: Option<f64>,
    trace: Vec<Coflow>,
}

fn build(gen: GenConfig, offered_load: Option<f64>) -> (Box<dyn Workload>, Metrics) {
    let t = Instant::now();
    let trace = CoflowGen::new(gen.clone()).generate();
    let mut setup = Metrics::new();
    setup.insert("workload.gen_s", t.elapsed().as_secs_f64());
    let w = FabricReplay {
        gen,
        offered_load,
        trace,
    };
    (Box::new(w), setup)
}

/// Set `fabric-loaded` up: coflows with heavy-tailed sizes arriving fast
/// enough to offer [`LOADED_OFFERED`] of the fabric's capacity.
pub fn build_loaded(seed: u64, size: Size) -> (Box<dyn Workload>, Metrics) {
    let cap = port_cap();
    let coflows = size.pick(LOADED_COFLOWS, 80);
    let ports = size.pick(LOADED_PORTS, 40);
    let (sizes, mean_size) = super::fig1_body(cap, LOADED_SIZE_RANGE);
    let gap = mean_size / (LOADED_OFFERED * ports as f64 * cap);
    let gen = GenConfig {
        num_coflows: coflows,
        num_nodes: ports,
        interarrival: SizeDist::Exp { mean: gap },
        width: SizeDist::Uniform { lo: 2.0, hi: 6.0 },
        flow_size: sizes,
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 0.9,
        deadline: None,
        seed,
    };
    build(gen, Some(LOADED_OFFERED))
}

/// Set `fabric-idle` up: `gen::scale`, whose narrow coflows arrive one a
/// second on a fabric that could carry thousands.
pub fn build_idle(seed: u64, size: Size) -> (Box<dyn Workload>, Metrics) {
    let coflows = size.pick(IDLE_COFLOWS, 1000);
    let ports = size.pick(IDLE_PORTS, 500);
    let gen = GenConfig {
        seed,
        ..scale(coflows, ports)
    };
    build(gen, None)
}

impl Workload for FabricReplay {
    fn params(&self) -> Value {
        json!({
            "coflows": self.gen.num_coflows,
            "ports": self.gen.num_nodes,
            "port_gbps": 1.0,
            "offered_load": self.offered_load,
            "policy": "FVDF",
            "compression": "LZ4",
            "slice_s": SLICE,
            "reschedule": "events-only",
            "generator": format!("{:?}", self.gen),
        })
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepOut {
        let coflows = self.trace.clone(); // outside the timed region
        let shape = Shape {
            ports: self.gen.num_nodes,
            cap: port_cap(),
            coflows: coflows.len(),
        };
        let config = SimConfig::default()
            .with_slice(SLICE)
            .with_reschedule(Reschedule::EventsOnly)
            .with_compression(Arc::new(ProfiledCompression::constant(Table2::Lz4)));
        let fabric = Fabric::uniform(shape.ports, shape.cap);
        replay(rec, Algorithm::Fvdf, shape, None, move || {
            Engine::new(fabric, coflows, config)
        })
    }

    fn regime_problems(&self, medians: &Metrics) -> Vec<String> {
        let util = medians["fabric.mean_port_util"];
        let active = medians["fabric.mean_active_coflows"];
        let mut problems = Vec::new();
        if self.offered_load.is_some() {
            if util < LOADED_MIN_UTIL {
                problems.push(format!(
                    "fabric-loaded: mean port utilisation {util:.3} is below {LOADED_MIN_UTIL}"
                ));
            }
            if active < LOADED_MIN_ACTIVE {
                problems.push(format!(
                    "fabric-loaded: {active:.1} coflows active on average, below {LOADED_MIN_ACTIVE}"
                ));
            }
        } else {
            if util > IDLE_MAX_UTIL {
                problems.push(format!(
                    "fabric-idle: mean port utilisation {util:.4} is above {IDLE_MAX_UTIL}"
                ));
            }
            if active > IDLE_MAX_ACTIVE {
                problems.push(format!(
                    "fabric-idle: {active:.2} coflows active on average, above {IDLE_MAX_ACTIVE}"
                ));
            }
        }
        problems
    }
}
