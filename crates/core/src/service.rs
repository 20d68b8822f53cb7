//! Service mode: a long-running scheduler loop fed by streaming arrivals.
//!
//! Batch mode hands the engine a complete trace up front; service mode
//! inverts that. [`CoflowService`] owns a background scheduler thread
//! running [`swallow_fabric::Engine::from_arrivals`] over a bounded arrival
//! queue, and the caller streams coflows in with [`CoflowService::submit`]
//! while the simulation advances concurrently. The builder mirrors
//! [`crate::SwallowContext::builder`]: misconfiguration is a fatal
//! [`SwallowError::InvalidConfig`] at build time, and runtime submissions
//! split retryable ([`SwallowError::Overloaded`] — the queue is full, back
//! off) from fatal ([`SwallowError::ChannelClosed`] — the loop is gone).
//!
//! Every submission passes deadline admission control
//! ([`swallow_sched::AdmissionController`]) *before* it is queued: a coflow
//! whose isolation bound overshoots its deadline is rejected on the calling
//! thread, traced as `coflow_rejected`, and never touches the fabric.
//!
//! ```no_run
//! use swallow_core::service::CoflowService;
//! use swallow_fabric::{Coflow, Fabric, FlowSpec};
//!
//! let mut svc = CoflowService::builder()
//!     .fabric(Fabric::uniform(4, 10.0))
//!     .build()
//!     .expect("valid configuration");
//! let verdict = svc
//!     .submit(
//!         Coflow::builder(0)
//!             .flow(FlowSpec::new(0, 0, 1, 100.0))
//!             .build(),
//!     )
//!     .expect("queue accepts");
//! assert!(verdict.admitted);
//! let report = svc.finish().expect("clean shutdown");
//! assert_eq!(report.completed, 1);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::error::SwallowError;
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{Coflow, Engine, Fabric, FlowSpec, SimConfig, SimResult};
use swallow_sched::{AdmissionController, AdmissionVerdict, Algorithm};
use swallow_trace::Tracer;

/// A bounded MPSC hand-off between the submitting thread and the scheduler
/// loop. Submission is non-blocking (a full queue is the caller's signal to
/// back off); the consumer side parks until an arrival lands or the queue
/// is closed.
struct ArrivalQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    buf: VecDeque<Coflow>,
    closed: bool,
}

impl ArrivalQueue {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(QueueState {
                buf: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Non-blocking enqueue: `Err(true)` when full, `Err(false)` when
    /// closed.
    fn try_push(&self, coflow: Coflow, capacity: usize) -> Result<(), bool> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err(false);
        }
        if st.buf.len() >= capacity {
            return Err(true);
        }
        st.buf.push_back(coflow);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking dequeue; `None` once closed and drained.
    fn pop(&self) -> Option<Coflow> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(c) = st.buf.pop_front() {
                return Some(c);
            }
            if st.closed {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }
}

/// Bridge from the arrival queue into the engine's pull-based arrival
/// stream: `next` parks until a coflow arrives or the queue is closed.
/// Dropping it closes the queue, so a scheduler loop that went away (it
/// finished, or panicked) turns later submissions into the fatal
/// [`SwallowError::ChannelClosed`] instead of an `Overloaded` nobody drains.
struct ChannelArrivals(Arc<ArrivalQueue>);

impl Drop for ChannelArrivals {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Iterator for ChannelArrivals {
    type Item = Coflow;

    fn next(&mut self) -> Option<Coflow> {
        self.0.pop()
    }
}

/// Configures and spawns a [`CoflowService`].
#[derive(Debug, Clone)]
pub struct CoflowServiceBuilder {
    fabric: Option<Fabric>,
    algorithm: Algorithm,
    queue_capacity: usize,
    slice: f64,
    xi: f64,
    guard: Option<f64>,
    tracer: Tracer,
}

impl Default for CoflowServiceBuilder {
    fn default() -> Self {
        Self {
            fabric: None,
            algorithm: Algorithm::Fvdf,
            queue_capacity: 1024,
            slice: 0.01,
            xi: 1.0,
            guard: None,
            tracer: Tracer::disabled(),
        }
    }
}

impl CoflowServiceBuilder {
    /// The fabric to schedule on (required).
    pub fn fabric(mut self, fabric: Fabric) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Scheduling algorithm (default [`Algorithm::Fvdf`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Bound on queued-but-unscheduled arrivals; a full queue makes
    /// [`CoflowService::submit`] fail with the retryable
    /// [`SwallowError::Overloaded`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Simulation slice width in seconds (default 0.01).
    pub fn slice(mut self, slice: f64) -> Self {
        self.slice = slice;
        self
    }

    /// Best-case compression ratio `ξ ∈ (0, 1]` credited to the admission
    /// bound (default 1: no credit, the conservative test).
    pub fn admission_ratio(mut self, xi: f64) -> Self {
        self.xi = xi;
        self
    }

    /// Headroom in seconds added to the admission feasibility test: admit
    /// only when `arrival + guard + bound ≤ deadline`. Defaults to one
    /// slice — the engine picks arrivals up on the slice grid, so a
    /// deadline window tighter than that is unmeetable and must be
    /// rejected, not missed. Raise it to also reserve headroom for
    /// expected queueing delay under load.
    pub fn admission_guard(mut self, guard: f64) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Tracer receiving `coflow_rejected` events (and threaded into the
    /// engine).
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Validate and spawn the scheduler loop.
    pub fn build(self) -> Result<CoflowService, SwallowError> {
        let fabric = self
            .fabric
            .ok_or_else(|| SwallowError::InvalidConfig("service needs a fabric".into()))?;
        if fabric.num_nodes() == 0 {
            return Err(SwallowError::InvalidConfig(
                "service fabric has no nodes".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(SwallowError::InvalidConfig(
                "queue capacity must be at least 1".into(),
            ));
        }
        // An infinite slice would reach `set_guard` below as the guard and
        // trip its assertion; the engine refuses it too.
        if !(self.slice.is_finite() && self.slice > 0.0) {
            return Err(SwallowError::InvalidConfig(format!(
                "slice must be positive and finite, got {}",
                self.slice
            )));
        }
        if !(self.xi > 0.0 && self.xi <= 1.0) {
            return Err(SwallowError::InvalidConfig(format!(
                "admission ratio must be in (0, 1], got {}",
                self.xi
            )));
        }
        let guard = self.guard.unwrap_or(self.slice);
        if !(guard.is_finite() && guard >= 0.0) {
            return Err(SwallowError::InvalidConfig(format!(
                "admission guard must be finite and non-negative, got {guard}"
            )));
        }
        let mut admission = AdmissionController::with_ratio(fabric.clone(), self.xi);
        // The engine picks arrivals up on the slice grid, so a coflow can
        // start up to one slice after it arrives. Guard the feasibility
        // test by at least that much: a deadline window tighter than the
        // slice is unmeetable and must be rejected, not missed.
        admission.set_guard(guard.max(self.slice));
        admission.set_tracer(self.tracer.clone());
        let num_nodes = fabric.num_nodes();
        let queue = ArrivalQueue::new();
        let rx = queue.clone();
        // Events-only rescheduling lets the engine's skip-ahead jump
        // boundary-to-boundary; results are bit-identical to every-slice.
        let config = SimConfig::default()
            .with_slice(self.slice)
            .with_reschedule(Reschedule::EventsOnly)
            .with_tracer(self.tracer);
        let algorithm = self.algorithm;
        let handle = std::thread::Builder::new()
            .name("swallow-service".into())
            .spawn(move || {
                let mut policy = algorithm.make();
                Engine::from_arrivals(fabric, Box::new(ChannelArrivals(rx)), config)
                    .run(policy.as_mut())
            })
            .map_err(|e| SwallowError::InvalidConfig(format!("spawn failed: {e}")))?;
        Ok(CoflowService {
            queue,
            open: true,
            handle: Some(handle),
            admission,
            num_nodes,
            capacity: self.queue_capacity,
            last_arrival: f64::NEG_INFINITY,
            deadlines: BTreeMap::new(),
        })
    }
}

/// Outcome of a completed service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Coflows that passed admission and entered the fabric.
    pub admitted: u64,
    /// Coflows rejected by deadline admission control.
    pub rejected: u64,
    /// Admitted coflows that completed before shutdown.
    pub completed: u64,
    /// Admitted deadline coflows that finished *after* their deadline.
    pub deadline_misses: u64,
    /// `deadline_misses` over admitted deadline coflows (0 when none).
    pub deadline_miss_rate: f64,
    /// Full simulation result of the run.
    pub result: SimResult,
}

/// A running scheduler service; see the [module docs](self).
pub struct CoflowService {
    queue: Arc<ArrivalQueue>,
    open: bool,
    handle: Option<JoinHandle<SimResult>>,
    admission: AdmissionController,
    /// Size of the fabric; flows naming a node beyond it are refused.
    num_nodes: usize,
    capacity: usize,
    last_arrival: f64,
    /// Deadlines of *admitted* coflows, joined against the engine's
    /// completion times at `finish` for the miss rate.
    deadlines: BTreeMap<u64, f64>,
}

impl CoflowService {
    /// Start configuring a service.
    pub fn builder() -> CoflowServiceBuilder {
        CoflowServiceBuilder::default()
    }

    /// Submit one arrival. Returns the admission verdict: a rejected coflow
    /// (isolation bound past its deadline) is dropped here — traced, counted,
    /// never queued. Fails with retryable [`SwallowError::Overloaded`] when
    /// the queue is full, fatal [`SwallowError::ChannelClosed`] after the
    /// loop has stopped, and fatal [`SwallowError::InvalidConfig`] when
    /// arrivals go backwards in time (the stream must be time-sorted), when
    /// the arrival or the deadline is not finite, or when a flow names a
    /// node outside the fabric or carries a size that is NaN, infinite or
    /// negative — malformed input is refused here, on the
    /// caller's thread, before it can reach the bound computation or the
    /// engine's own assertions.
    pub fn submit(&mut self, coflow: Coflow) -> Result<AdmissionVerdict, SwallowError> {
        if !self.open {
            return Err(SwallowError::ChannelClosed {
                channel: "arrivals",
            });
        }
        if !(coflow.arrival.is_finite() && coflow.deadline.is_none_or(f64::is_finite)) {
            return Err(SwallowError::InvalidConfig(format!(
                "coflow {} needs a finite arrival and deadline, got {} and {:?}",
                coflow.id.0, coflow.arrival, coflow.deadline
            )));
        }
        let outside = |f: &&FlowSpec| f.src.index().max(f.dst.index()) >= self.num_nodes;
        if let Some(f) = coflow.flows.iter().find(outside) {
            return Err(SwallowError::InvalidConfig(format!(
                "flow {} of coflow {} names a node outside the {}-node fabric",
                f.id.0, coflow.id.0, self.num_nodes
            )));
        }
        // A NaN size never satisfies the engine's completion test: the flow
        // would sit in the table until the horizon.
        let bad_size = |f: &&FlowSpec| !(f.size.is_finite() && f.size >= 0.0);
        if let Some(f) = coflow.flows.iter().find(bad_size) {
            return Err(SwallowError::InvalidConfig(format!(
                "flow {} of coflow {} needs a finite, non-negative size, got {}",
                f.id.0, coflow.id.0, f.size
            )));
        }
        if coflow.arrival < self.last_arrival {
            return Err(SwallowError::InvalidConfig(format!(
                "arrivals must be time-sorted: coflow {} arrives at {} after the stream reached {}",
                coflow.id.0, coflow.arrival, self.last_arrival
            )));
        }
        let verdict = self.admission.judge(&coflow);
        if !verdict.admitted {
            // Count + trace through the controller, then drop.
            self.admission.admit(&coflow);
            self.last_arrival = coflow.arrival;
            return Ok(verdict);
        }
        let (id, arrival, deadline) = (coflow.id.0, coflow.arrival, coflow.deadline);
        match self.queue.try_push(coflow, self.capacity) {
            Ok(()) => {}
            Err(true) => {
                return Err(SwallowError::Overloaded {
                    capacity: self.capacity,
                })
            }
            Err(false) => {
                return Err(SwallowError::ChannelClosed {
                    channel: "arrivals",
                })
            }
        }
        // Enqueued: only now does the submission become part of the stream.
        self.admission.record_admitted();
        self.last_arrival = arrival;
        if let Some(d) = deadline {
            self.deadlines.insert(id, d);
        }
        Ok(verdict)
    }

    /// Arrivals admitted (queued) so far.
    pub fn admitted(&self) -> u64 {
        self.admission.admitted()
    }

    /// Arrivals rejected by admission control so far.
    pub fn rejected(&self) -> u64 {
        self.admission.rejected()
    }

    /// Close the arrival stream, drain the engine, and join the loop.
    pub fn finish(mut self) -> Result<ServiceReport, SwallowError> {
        self.open = false;
        self.queue.close(); // engine drains the queue and exits
        let handle = self.handle.take().ok_or(SwallowError::ChannelClosed {
            channel: "service",
        })?;
        let result = handle.join().map_err(|_| SwallowError::ChannelClosed {
            channel: "service",
        })?;
        let mut deadline_coflows = 0u64;
        let mut deadline_misses = 0u64;
        let mut completed = 0u64;
        for c in &result.coflows {
            if c.completed_at.is_some() {
                completed += 1;
            }
            if let Some(deadline) = self.deadlines.get(&c.id.0) {
                deadline_coflows += 1;
                match c.completed_at {
                    Some(t) if t <= *deadline => {}
                    _ => deadline_misses += 1, // late or never finished
                }
            }
        }
        let deadline_miss_rate = if deadline_coflows == 0 {
            0.0
        } else {
            deadline_misses as f64 / deadline_coflows as f64
        };
        Ok(ServiceReport {
            admitted: self.admission.admitted(),
            rejected: self.admission.rejected(),
            completed,
            deadline_misses,
            deadline_miss_rate,
            result,
        })
    }
}

impl Drop for CoflowService {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coflow(id: u64, arrival: f64, deadline: Option<f64>) -> Coflow {
        let mut b = Coflow::builder(id)
            .arrival(arrival)
            .flow(FlowSpec::new(id, 0, 1, 100.0));
        if let Some(d) = deadline {
            b = b.deadline(d);
        }
        b.build()
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(matches!(
            CoflowService::builder().build(),
            Err(SwallowError::InvalidConfig(_))
        ));
        let base = || CoflowService::builder().fabric(Fabric::uniform(3, 10.0));
        assert!(matches!(
            base().queue_capacity(0).build(),
            Err(SwallowError::InvalidConfig(_))
        ));
        assert!(matches!(
            base().slice(0.0).build(),
            Err(SwallowError::InvalidConfig(_))
        ));
        assert!(matches!(
            base().admission_ratio(1.5).build(),
            Err(SwallowError::InvalidConfig(_))
        ));
        // An infinite slice is refused by name, whether the guard defaults
        // to it or is given (it used to panic inside `set_guard` then).
        for builder in [base(), base().admission_guard(0.0)] {
            match builder.slice(f64::INFINITY).build() {
                Err(SwallowError::InvalidConfig(why)) => {
                    assert_eq!(why, "slice must be positive and finite, got inf")
                }
                other => panic!("infinite slice accepted: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn streams_arrivals_and_completes() {
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .build()
            .unwrap();
        for i in 0..5u64 {
            let v = svc.submit(coflow(i, i as f64 * 0.5, None)).unwrap();
            assert!(v.admitted);
        }
        let report = svc.finish().unwrap();
        assert_eq!(report.admitted, 5);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.completed, 5);
        assert!(report.result.all_complete());
        assert_eq!(report.deadline_miss_rate, 0.0);
    }

    #[test]
    fn infeasible_deadlines_are_rejected_before_the_fabric() {
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .build()
            .unwrap();
        // 100 bytes at 10 B/s → bound 10 s; deadline 2 s is hopeless.
        let v = svc.submit(coflow(0, 0.0, Some(2.0))).unwrap();
        assert!(!v.admitted);
        // A feasible one sails through.
        let v = svc.submit(coflow(1, 0.0, Some(30.0))).unwrap();
        assert!(v.admitted);
        let report = svc.finish().unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.admitted, 1);
        // The rejected coflow never reached the engine.
        assert!(report.result.coflows.iter().all(|c| c.id.0 != 0));
        assert_eq!(report.deadline_miss_rate, 0.0);
    }

    #[test]
    fn out_of_order_arrivals_are_a_fatal_error() {
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .build()
            .unwrap();
        svc.submit(coflow(0, 5.0, None)).unwrap();
        let err = svc.submit(coflow(1, 1.0, None)).unwrap_err();
        assert!(matches!(err, SwallowError::InvalidConfig(_)));
        assert!(!err.is_retryable());
        let report = svc.finish().unwrap();
        assert_eq!(report.admitted, 1);
    }

    #[test]
    fn out_of_fabric_node_is_refused_on_submit() {
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .build()
            .unwrap();
        for (src, dst) in [(0, 3), (7, 1)] {
            let stray = Coflow::builder(0)
                .flow(FlowSpec::new(0, src, dst, 100.0))
                .build();
            let err = svc.submit(stray).unwrap_err();
            assert!(matches!(err, SwallowError::InvalidConfig(_)), "{err:?}");
            assert!(!err.is_retryable());
        }
        // Nothing was counted or queued, and the service carries on.
        assert_eq!(svc.admitted() + svc.rejected(), 0);
        assert!(svc.submit(coflow(1, 0.0, None)).unwrap().admitted);
        let report = svc.finish().unwrap();
        assert_eq!((report.admitted, report.completed), (1, 1));
    }

    /// `submit` refuses a coflow whose only flow has `size`, and the stream
    /// stays healthy afterwards. The field is public (and deserialized), so
    /// `FlowSpec::new`'s assertion is not on every path here.
    fn refuses_flow_size(size: f64) {
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .build()
            .unwrap();
        let mut odd = coflow(0, 1.0, None);
        odd.flows[0].size = size;
        let err = svc.submit(odd).unwrap_err();
        assert!(
            matches!(&err, SwallowError::InvalidConfig(m) if m.contains("size")),
            "{err:?}"
        );
        assert!(svc.submit(coflow(1, 1.0, None)).unwrap().admitted);
        let report = svc.finish().unwrap();
        assert_eq!((report.admitted, report.completed), (1, 1));
    }

    #[test]
    fn nan_flow_size_is_refused_on_submit() {
        refuses_flow_size(f64::NAN);
    }

    #[test]
    fn infinite_flow_size_is_refused_on_submit() {
        refuses_flow_size(f64::INFINITY);
    }

    #[test]
    fn negative_flow_size_is_refused_on_submit() {
        refuses_flow_size(-1.0);
    }

    #[test]
    fn non_finite_times_are_refused_on_submit() {
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .build()
            .unwrap();
        svc.submit(coflow(0, 1.0, None)).unwrap();
        for (arrival, deadline) in [
            (f64::NAN, None),
            (f64::INFINITY, None),
            (2.0, Some(f64::NAN)),
            (2.0, Some(f64::INFINITY)),
        ] {
            // The fields are public (and deserialized): the builder's own
            // assertions are not on every path to `submit`.
            let mut odd = coflow(1, 2.0, None);
            (odd.arrival, odd.deadline) = (arrival, deadline);
            let err = svc.submit(odd).unwrap_err();
            assert!(matches!(err, SwallowError::InvalidConfig(_)), "{err:?}");
        }
        // The scheduler never saw them: the stream is still healthy.
        assert!(svc.submit(coflow(2, 2.0, Some(60.0))).unwrap().admitted);
        let report = svc.finish().unwrap();
        assert_eq!((report.admitted, report.completed), (2, 2));
    }

    #[test]
    fn dead_scheduler_surfaces_as_channel_closed() {
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .queue_capacity(64)
            .build()
            .unwrap();
        // Two coflows sharing flow id 0 trip the engine's duplicate-id
        // assertion on the scheduler thread once the second is admitted.
        let twin = |id| {
            Coflow::builder(id)
                .arrival(id as f64)
                .flow(FlowSpec::new(0, 0, 1, 100.0))
                .build()
        };
        svc.submit(twin(0)).unwrap();
        svc.submit(twin(1)).unwrap();
        // Keep the stream moving until the loop is gone; it dies once it
        // has the arrival after the twin in hand. A queue nobody drains or
        // closes would answer `Overloaded` for ever instead.
        let started = std::time::Instant::now();
        let mut id = 2;
        let err = loop {
            match svc.submit(coflow(id, id as f64, None)) {
                Ok(_) => id += 1,
                Err(e) if e.is_retryable() => {
                    assert!(started.elapsed().as_secs() < 10, "still {e:?}");
                    std::thread::yield_now();
                }
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SwallowError::ChannelClosed { .. }), "{err:?}");
        assert!(!err.is_retryable());
        assert!(matches!(
            svc.finish(),
            Err(SwallowError::ChannelClosed { channel: "service" })
        ));
    }

    #[test]
    fn deadline_misses_are_reported() {
        // Two coflows sharing one egress port, both with deadlines only one
        // can make: admission admits both (each is feasible in isolation),
        // but contention pushes one past its deadline.
        let mut svc = CoflowService::builder()
            .fabric(Fabric::uniform(3, 10.0))
            .algorithm(Algorithm::Dcoflow)
            .build()
            .unwrap();
        let mk = |id, deadline| {
            Coflow::builder(id)
                .arrival(0.0)
                .deadline(deadline)
                .flow(FlowSpec::new(id, 0, 1 + id as u32, 100.0))
                .build()
        };
        assert!(svc.submit(mk(0, 10.5)).unwrap().admitted);
        assert!(svc.submit(mk(1, 11.0)).unwrap().admitted);
        let report = svc.finish().unwrap();
        assert_eq!(report.admitted, 2);
        assert_eq!(report.deadline_misses, 1);
        assert!((report.deadline_miss_rate - 0.5).abs() < 1e-12);
    }
}
