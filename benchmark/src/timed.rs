//! Wrappers that time a layer from outside: a [`Policy`] and an arrival
//! stream are handed to the engine wrapped, so every call the engine makes
//! into them is measured without touching either crate.

use crate::span::{CallLog, Recorder};
use std::time::{Duration, Instant};
use swallow_fabric::alloc::{water_fill_with, WaterFillScratch};
use swallow_fabric::{Allocation, Coflow, CoflowId, FabricView, FlowId, NodeId, Policy};

/// Every how many `allocate` calls the water-fill probe runs.
const WATER_FILL_STRIDE: u64 = 64;

/// A policy that forwards to `inner` and times each call.
///
/// Only `name`, `allocate` and the three lifecycle hooks are forwarded; the
/// engine's optional hand-overs (tracer, worker budget, telemetry) keep
/// their default no-op, which every policy must tolerate.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    /// Every `allocate` call.
    pub allocate: CallLog,
    /// Time inside `on_arrival`, `on_completion` and `on_flow_complete`.
    pub hooks: Duration,
    /// Sum over `allocate` calls of the flows in the view.
    pub flows_sum: u64,
    /// Largest view any `allocate` call saw.
    pub flows_max: u64,
    /// The water-fill probe's calls (one per [`WATER_FILL_STRIDE`]).
    pub water_fill: CallLog,
    demands: Vec<(FlowId, NodeId, NodeId)>,
    scratch: WaterFillScratch,
}

impl TimedPolicy {
    /// Wrap `inner`, timing on `rec`'s clock.
    pub fn new(inner: Box<dyn Policy>, rec: &Recorder) -> Self {
        Self {
            inner,
            allocate: CallLog::new("sched.allocate", rec),
            hooks: Duration::ZERO,
            flows_sum: 0,
            flows_max: 0,
            water_fill: CallLog::new("fabric.water_fill", rec),
            demands: Vec::new(),
            scratch: WaterFillScratch::default(),
        }
    }

    /// Max-min water-fill over every flow of `view`: the inner loop the
    /// policies share, timed alone on the view the engine just built.
    fn probe_water_fill(&mut self, view: &FabricView<'_>) {
        self.demands.clear();
        self.demands
            .extend(view.flows.iter().map(|f| (f.id, f.src, f.dst)));
        let (demands, scratch) = (&self.demands, &mut self.scratch);
        self.water_fill.time(|| {
            std::hint::black_box(water_fill_with(view.fabric, demands, scratch));
        });
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        let flows = view.flows.len() as u64;
        self.flows_sum += flows;
        self.flows_max = self.flows_max.max(flows);
        let inner = &mut self.inner;
        let out = self.allocate.time(|| inner.allocate(view));
        if self.allocate.hist.count().is_multiple_of(WATER_FILL_STRIDE) {
            self.probe_water_fill(view);
        }
        out
    }

    fn on_arrival(&mut self, coflow: &Coflow, now: f64) {
        let t = Instant::now();
        self.inner.on_arrival(coflow, now);
        self.hooks += t.elapsed();
    }

    fn on_completion(&mut self, coflow: CoflowId, now: f64) {
        let t = Instant::now();
        self.inner.on_completion(coflow, now);
        self.hooks += t.elapsed();
    }

    fn on_flow_complete(&mut self, flow: FlowId, coflow: CoflowId, size: f64, now: f64) {
        let t = Instant::now();
        self.inner.on_flow_complete(flow, coflow, size, now);
        self.hooks += t.elapsed();
    }
}

/// An iterator that times every `next` of `inner`.
pub struct TimedStream<I> {
    inner: I,
    log: std::sync::Arc<std::sync::Mutex<CallLog>>,
}

impl<I> TimedStream<I> {
    /// Wrap `inner`. The log is shared because the engine takes the stream
    /// by value and drops it inside `run`.
    pub fn new(inner: I, log: std::sync::Arc<std::sync::Mutex<CallLog>>) -> Self {
        Self { inner, log }
    }
}

impl<I: Iterator> Iterator for TimedStream<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let inner = &mut self.inner;
        self.log
            .lock()
            .expect("no thread panics while timing the stream")
            .time(|| inner.next())
    }
}
