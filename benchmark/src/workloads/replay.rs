//! One batch replay, measured from outside: the part the three batch
//! coflow workloads share. The caller supplies the engine construction
//! (`Engine::new` over a materialised trace, or `Engine::from_arrivals`
//! over a stream); this module times construction, the run and the output
//! check, and in the traced run reads the wrappers back into metrics.

use super::{digest, summarize, Metrics, RepOut};
use crate::alloc;
use crate::span::{CallLog, Recorder};
use crate::timed::TimedPolicy;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use swallow_fabric::{Engine, Policy};
use swallow_sched::Algorithm;

/// The fabric a replay runs on.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Number of ports.
    pub ports: usize,
    /// Capacity of each port, bytes/s.
    pub cap: f64,
    /// Coflows in the trace.
    pub coflows: usize,
}

/// Replay once under `algorithm`. `stream` is the log of a
/// [`crate::timed::TimedStream`] inside the engine `build` returns, if any.
pub fn replay(
    rec: &mut Recorder,
    algorithm: Algorithm,
    shape: Shape,
    stream: Option<Arc<Mutex<CallLog>>>,
    build: impl FnOnce() -> Engine,
) -> RepOut {
    let mut plain = algorithm.make();
    let mut timed = rec.on().then(|| TimedPolicy::new(algorithm.make(), rec));
    let allocs_before = alloc::allocations();

    let t0 = Instant::now();
    let engine = rec.span("fabric.build", |_| build());
    let t1 = Instant::now();
    let result = rec.span("fabric.run", |rec| {
        let policy: &mut dyn Policy = match timed.as_mut() {
            Some(p) => p,
            None => plain.as_mut(),
        };
        let result = engine.run(policy);
        if let Some(p) = timed.as_mut() {
            rec.adopt(&mut p.allocate);
            rec.adopt(&mut p.water_fill);
        }
        if let Some(log) = &stream {
            rec.adopt(&mut log.lock().expect("stream log is not poisoned"));
        }
        result
    });
    let t2 = Instant::now();
    let (checksum, incomplete) = rec.span("check", |_| digest(&result));
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = alloc::allocations() - allocs_before;

    let n = shape.coflows as f64;
    let sim = summarize(&result, shape.ports, shape.cap);
    let mut m = Metrics::new();
    m.insert("wall_s", wall_s);
    m.insert("sim_avg_cct_s", sim.avg_cct_s);
    m.insert("wire_ratio", sim.wire_ratio);
    m.insert("fabric.mean_port_util", sim.mean_port_util);
    m.insert("fabric.mean_active_coflows", sim.mean_active_coflows);

    if let Some(p) = &timed {
        let build_s = (t1 - t0).as_secs_f64();
        let run_s = (t2 - t1).as_secs_f64();
        let reschedules = result.reschedules as f64;
        let calls = p.allocate.hist.count() as f64;
        let allocate_s = p.allocate.hist.sum_s();
        let hooks_s = p.hooks.as_secs_f64();
        let probe_s = p.water_fill.hist.sum_s();
        let next_s = stream.map_or(0.0, |log| {
            log.lock().expect("stream log is not poisoned").hist.sum_s()
        });
        let self_s = (run_s - allocate_s - hooks_s - probe_s - next_s).max(0.0);
        m.insert("sched.allocate_calls", calls);
        m.insert("sched.allocate_s", allocate_s);
        m.insert("sched.allocate_share", allocate_s / wall_s);
        m.insert(
            "sched.allocate_p50_us",
            p.allocate.hist.quantile_ns(0.5) / 1e3,
        );
        m.insert(
            "sched.allocate_p99_us",
            p.allocate.hist.quantile_ns(0.99) / 1e3,
        );
        m.insert(
            "sched.active_flows_mean",
            p.flows_sum as f64 / calls.max(1.0),
        );
        m.insert("sched.active_flows_max", p.flows_max as f64);
        m.insert(
            "sched.ns_per_active_flow",
            allocate_s * 1e9 / (p.flows_sum as f64).max(1.0),
        );
        m.insert("sched.hooks_s", hooks_s);
        m.insert("fabric.build_s", build_s);
        m.insert("fabric.run_s", run_s);
        m.insert("fabric.engine_self_s", self_s);
        m.insert("fabric.engine_self_share", self_s / wall_s);
        m.insert("fabric.reschedules", reschedules);
        m.insert("fabric.reschedules_per_coflow", reschedules / n);
        m.insert(
            "fabric.us_per_reschedule",
            wall_s * 1e6 / reschedules.max(1.0),
        );
        m.insert(
            "fabric.water_fill_us",
            p.water_fill.hist.quantile_ns(0.5) / 1e3,
        );
        m.insert("fabric.allocs_per_coflow", allocs as f64 / n);
        m.insert("workload.stream_next_s", next_s);
    }

    RepOut {
        metrics: m,
        checksum,
        attempted: shape.coflows as u64,
        failed: incomplete,
    }
}
