//! `SwallowContext` — the Table IV programming API.
//!
//! | Method | Invoker (paper) | Here |
//! |--------|-----------------|------|
//! | `hook(executor) ⇒ Array[flowInfo]` | Driver | [`SwallowContext::hook`] |
//! | `aggregate(Array[flowInfo]) ⇒ coflowInfo` | Driver | [`SwallowContext::aggregate`] |
//! | `add(coflowInfo) ⇒ coflowRef` | Driver | [`SwallowContext::add`] |
//! | `remove(coflowRef)` | Driver | [`SwallowContext::remove`] |
//! | `scheduling(Array[coflowRef]) ⇒ schResult` | Driver | [`SwallowContext::scheduling`] |
//! | `alloc(schResult)` | ClusterManager | [`SwallowContext::alloc`] |
//! | `push(coflowRef, blockId, blockData)` | Sender | [`SwallowContext::push`] |
//! | `pull(coflowRef, blockId) ⇒ blockData` | Receiver | [`SwallowContext::pull`] |
//!
//! Two extensions over Table IV: [`SwallowContext::stage`] plays the role of
//! Spark's shuffle-write (it hands a task's output block to its executor so
//! `hook()` has something to capture), and [`SwallowContext::restage`] is
//! its recovery twin — it re-stages a payload whose staged copy died with a
//! crashed worker.
//!
//! # Booting a runtime
//!
//! Contexts are built, not constructed:
//!
//! ```no_run
//! use swallow_core::{SwallowConfig, SwallowContext};
//!
//! let ctx = SwallowContext::builder()
//!     .config(SwallowConfig::default())
//!     .workers(4)
//!     .build()
//!     .expect("valid configuration");
//! # drop(ctx);
//! ```
//!
//! The builder validates its inputs (returning
//! [`SwallowError::InvalidConfig`]) and is the only place a fault
//! [`Injector`] and a [`Tracer`] can be attached.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::SwallowConfig;
use crate::error::SwallowError;
use crate::master::Master;
use crate::messages::{BlockId, CoflowInfo, CoflowRef, FlowInfo, SchResult, ToMaster, WorkerId};
use crate::worker::Worker;
use swallow_fabric::FlowId;
use swallow_faults::Injector;
use swallow_trace::{TraceEvent, Tracer};

/// Outcome of one `push`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushReport {
    /// Raw payload bytes.
    pub raw_bytes: u64,
    /// Bytes that crossed the wire.
    pub wire_bytes: u64,
    /// Whether the block went compressed.
    pub compressed: bool,
    /// Wall-clock transfer duration.
    pub duration: Duration,
}

struct Ctx {
    config: SwallowConfig,
    workers: Vec<Arc<Worker>>,
    master: Arc<Mutex<Master>>,
    to_master_tx: Sender<ToMaster>,
    to_master_rx: Receiver<ToMaster>,
    current_sched: Mutex<SchResult>,
    injector: Injector,
    shutdown: Arc<AtomicBool>,
    daemons: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_flow: AtomicU64,
    next_block: AtomicU64,
    tracer: Tracer,
    /// Epoch for wall-clock trace timestamps and fault-plan time.
    start: Instant,
}

/// Handle to a running Swallow runtime. Cheap to clone (the paper's
/// `SwallowContext.getInstance()` singleton pattern maps to cloning).
#[derive(Clone)]
pub struct SwallowContext {
    inner: Arc<Ctx>,
}

impl std::fmt::Debug for SwallowContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwallowContext")
            .field("workers", &self.inner.workers.len())
            .field("shutdown", &self.inner.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Configures and boots a [`SwallowContext`]; obtained from
/// [`SwallowContext::builder`].
#[must_use = "a builder does nothing until build() is called"]
pub struct SwallowContextBuilder {
    config: SwallowConfig,
    workers: usize,
    tracer: Tracer,
    injector: Injector,
}

impl SwallowContextBuilder {
    fn new() -> Self {
        Self {
            config: SwallowConfig::default(),
            workers: 2,
            tracer: Tracer::disabled(),
            injector: Injector::default(),
        }
    }

    /// Runtime configuration (defaults to [`SwallowConfig::default`]).
    pub fn config(mut self, config: SwallowConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of workers to boot (defaults to 2, the minimum).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Attach a tracer: runtime events (heartbeats, API calls, block
    /// movement, fault recovery) flow into its sink, timestamped in
    /// wall-clock seconds since `build()`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a fault injector. Fault-plan time is wall-clock seconds since
    /// `build()`: worker daemons skip heartbeats inside drop/crash windows,
    /// `push` sees crashed endpoints and slow-start delays, and the master's
    /// failure detector takes destructive recovery action only for crashes
    /// the injector confirms.
    pub fn faults(mut self, injector: Injector) -> Self {
        self.injector = injector;
        self
    }

    /// Validate the configuration and boot the runtime: worker daemons, the
    /// master, and the failure-detector monitor all start here.
    pub fn build(self) -> Result<SwallowContext, SwallowError> {
        let Self {
            config,
            workers: num_workers,
            tracer,
            injector,
        } = self;
        if num_workers < 2 {
            return Err(SwallowError::InvalidConfig(format!(
                "need at least two workers, got {num_workers}"
            )));
        }
        if !config.link_bandwidth.is_finite() || config.link_bandwidth <= 0.0 {
            return Err(SwallowError::InvalidConfig(format!(
                "link_bandwidth must be positive, got {}",
                config.link_bandwidth
            )));
        }
        if !config.heartbeat.is_finite() || config.heartbeat <= 0.0 {
            return Err(SwallowError::InvalidConfig(format!(
                "heartbeat must be positive, got {}",
                config.heartbeat
            )));
        }

        let start = Instant::now();
        let (tx, rx) = unbounded();
        let workers: Vec<Arc<Worker>> = (0..num_workers)
            .map(|i| Arc::new(Worker::new(WorkerId(i as u32), &config)))
            .collect();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut daemons = Vec::new();
        for w in &workers {
            daemons.push(w.spawn_daemon(
                tx.clone(),
                config.heartbeat,
                shutdown.clone(),
                injector.clone(),
                tracer.clone(),
            ));
        }
        let mut master = Master::new(config.clone(), num_workers);
        master.set_tracer(tracer.clone());
        let master = Arc::new(Mutex::new(master));

        // The monitor daemon: drains worker messages and runs the failure
        // detector every heartbeat. Detection (WorkerDown / WorkerRecovered
        // events) fires on missed heartbeats alone; the *destructive* half
        // of recovery — wiping the worker and re-queueing its flows — runs
        // only when the injector confirms a genuine crash, so a merely
        // stalled machine can never corrupt completion state.
        let monitor = {
            let master = Arc::clone(&master);
            let rx = rx.clone();
            let injector = injector.clone();
            let shutdown = shutdown.clone();
            let workers = workers.clone();
            let heartbeat = config.heartbeat;
            let window = config.heartbeat * config.liveness_misses as f64;
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    {
                        let mut m = master.lock();
                        while let Ok(msg) = rx.try_recv() {
                            m.handle(msg);
                        }
                        let now = start.elapsed().as_secs_f64();
                        for w in m.liveness_sweep(now, window) {
                            if injector.is_worker_down(w.0, now) {
                                if let Some(worker) = workers.get(w.0 as usize) {
                                    worker.crash_reset();
                                }
                                m.fail_worker(w);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_secs_f64(heartbeat));
                }
            })
        };
        daemons.push(monitor);

        Ok(SwallowContext {
            inner: Arc::new(Ctx {
                config,
                workers,
                master,
                to_master_tx: tx,
                to_master_rx: rx,
                current_sched: Mutex::new(SchResult::default()),
                injector,
                shutdown,
                daemons: Mutex::new(daemons),
                next_flow: AtomicU64::new(1),
                next_block: AtomicU64::new(1),
                tracer,
                start,
            }),
        })
    }
}

impl SwallowContext {
    /// Start configuring a runtime. See the module docs for the shape.
    pub fn builder() -> SwallowContextBuilder {
        SwallowContextBuilder::new()
    }

    /// The tracer events are flowing into (disabled unless one was attached
    /// via [`SwallowContextBuilder::tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The fault injector this runtime consults (empty unless one was
    /// attached via [`SwallowContextBuilder::faults`]).
    pub fn injector(&self) -> &Injector {
        &self.inner.injector
    }

    fn trace(&self, f: impl FnOnce() -> TraceEvent) {
        if self.inner.tracer.is_enabled() {
            self.inner
                .tracer
                .emit(self.inner.start.elapsed().as_secs_f64(), f);
        }
    }

    /// Wall-clock seconds since the runtime booted — the time base of trace
    /// records and fault-plan windows.
    fn now(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &SwallowConfig {
        &self.inner.config
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.inner.workers.len()
    }

    fn worker(&self, id: WorkerId) -> Result<&Arc<Worker>, SwallowError> {
        self.inner
            .workers
            .get(id.0 as usize)
            .ok_or(SwallowError::UnknownWorker(id))
    }

    /// Drain pending worker → master messages into the master's state.
    fn drain_master(&self) {
        let mut master = self.inner.master.lock();
        while let Ok(msg) = self.inner.to_master_rx.try_recv() {
            master.handle(msg);
        }
    }

    /// Stage a task's shuffle output on `src`, destined for `dst`. Allocates
    /// the flow/block ids and runs the compressibility gate. (Extension —
    /// stands in for Spark's shuffle write.)
    pub fn stage(&self, src: WorkerId, dst: WorkerId, data: Vec<u8>) -> BlockId {
        let worker = self.worker(src).expect("valid source worker");
        let flow = FlowId(self.inner.next_flow.fetch_add(1, Ordering::SeqCst));
        let block = BlockId(self.inner.next_block.fetch_add(1, Ordering::SeqCst));
        let bytes = data.len();
        worker.stage(flow, block, dst, Bytes::from(data));
        self.trace(|| TraceEvent::BlockStaged {
            block: block.0,
            bytes,
        });
        block
    }

    /// Re-stage the payload of `block` on its original sender, under the
    /// same flow/block identity — the recovery path after a crash wiped the
    /// staged copy (the caller re-reads the data from its durable source,
    /// as Spark would re-read a shuffle file).
    pub fn restage(
        &self,
        coflow: CoflowRef,
        block: BlockId,
        data: Vec<u8>,
    ) -> Result<(), SwallowError> {
        self.trace(|| TraceEvent::ApiCall {
            method: "restage".to_string(),
        });
        let flow_info = self
            .inner
            .master
            .lock()
            .flow_of_block(coflow, block)
            .ok_or(SwallowError::BlockMissing(block))?;
        let worker = self.worker(flow_info.src)?.clone();
        let bytes = data.len();
        worker.restage(flow_info, Bytes::from(data));
        self.trace(|| TraceEvent::BlockStaged {
            block: block.0,
            bytes,
        });
        Ok(())
    }

    /// Table IV `hook`: capture the staged flows of one executor.
    pub fn hook(&self, executor: WorkerId) -> Vec<FlowInfo> {
        self.trace(|| TraceEvent::ApiCall {
            method: "hook".to_string(),
        });
        self.worker(executor)
            .map(|w| w.hooked_flows())
            .unwrap_or_default()
    }

    /// Table IV `aggregate`: merge flow information into a coflow.
    pub fn aggregate(&self, flows: Vec<FlowInfo>) -> CoflowInfo {
        self.trace(|| TraceEvent::ApiCall {
            method: "aggregate".to_string(),
        });
        CoflowInfo { flows }
    }

    /// Table IV `add`: register a coflow with the master.
    pub fn add(&self, info: CoflowInfo) -> CoflowRef {
        self.trace(|| TraceEvent::ApiCall {
            method: "add".to_string(),
        });
        self.inner.master.lock().add(info)
    }

    /// Table IV `remove`: deregister and release the coflow's blocks.
    pub fn remove(&self, coflow: CoflowRef) {
        self.trace(|| TraceEvent::ApiCall {
            method: "remove".to_string(),
        });
        self.inner.master.lock().remove(coflow);
        for w in &self.inner.workers {
            w.store.remove_coflow(coflow);
        }
        self.trace(|| TraceEvent::BlockReleased { coflow: coflow.0 });
    }

    /// Table IV `scheduling`: run FVDF over the given coflows.
    pub fn scheduling(&self, refs: &[CoflowRef]) -> SchResult {
        self.trace(|| TraceEvent::ApiCall {
            method: "scheduling".to_string(),
        });
        self.drain_master();
        self.inner.master.lock().scheduling(refs)
    }

    /// Table IV `alloc`: install the scheduling result so subsequent pushes
    /// follow its compression strategy and bandwidth assignment.
    pub fn alloc(&self, sched: &SchResult) {
        self.trace(|| TraceEvent::ApiCall {
            method: "alloc".to_string(),
        });
        *self.inner.current_sched.lock() = sched.clone();
    }

    /// Block while either endpoint of the flow is inside a crash window,
    /// retrying with exponential backoff up to `push_retries` attempts.
    /// Returns the typed error once the retry budget is spent.
    fn await_endpoints(&self, flow_info: &FlowInfo) -> Result<(), SwallowError> {
        let mut attempt = 0u32;
        loop {
            let t = self.now();
            let down = if self.inner.injector.is_worker_down(flow_info.src.0, t) {
                Some(flow_info.src)
            } else if self.inner.injector.is_worker_down(flow_info.dst.0, t) {
                Some(flow_info.dst)
            } else {
                return Ok(());
            };
            let worker = down.expect("down endpoint");
            if attempt >= self.inner.config.push_retries {
                return Err(SwallowError::WorkerDown { worker });
            }
            attempt += 1;
            let flow = flow_info.flow.0;
            self.trace(|| TraceEvent::PushRetry { flow, attempt });
            let backoff = self.inner.config.retry_backoff * f64::powi(2.0, attempt as i32 - 1);
            std::thread::sleep(Duration::from_secs_f64(backoff));
        }
    }

    /// Table IV `push`: the sender transfers `block` to its receiver,
    /// compressing when the installed schedule says so (or, absent an
    /// installed decision for the flow, when the Eq. 3 gate holds).
    ///
    /// Under a fault plan, a crashed endpoint makes the push wait and retry
    /// with exponential backoff (emitting `push_retry` events) until the
    /// worker restarts or the retry budget is spent
    /// ([`SwallowError::WorkerDown`], retryable); a slow-start window delays
    /// the transfer by the configured amount.
    pub fn push(&self, coflow: CoflowRef, block: BlockId) -> Result<PushReport, SwallowError> {
        let flow_info = self
            .inner
            .master
            .lock()
            .flow_of_block(coflow, block)
            .ok_or(SwallowError::BlockMissing(block))?;
        self.await_endpoints(&flow_info)?;
        let delay = self.inner.injector.push_delay(flow_info.src.0, self.now());
        if delay > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay));
        }
        let src = self.worker(flow_info.src)?.clone();
        let dst = self.worker(flow_info.dst)?.clone();
        let staged = src
            .take_staged(block)
            .ok_or(SwallowError::BlockMissing(block))?;

        let (beta, rate) = {
            let sched = self.inner.current_sched.lock();
            let beta = sched
                .compress
                .get(&flow_info.flow)
                .copied()
                .unwrap_or_else(|| {
                    self.inner.config.smart_compress
                        && flow_info.compressible
                        && self
                            .inner
                            .config
                            .codec
                            .profile()
                            .beats_bandwidth(self.inner.config.link_bandwidth)
                });
            (beta, sched.rates.get(&flow_info.flow).copied())
        };

        let start = Instant::now();
        let (wire, compressed) = src.push_block(&dst, coflow, staged, beta, rate);
        let report = PushReport {
            raw_bytes: flow_info.bytes,
            wire_bytes: wire,
            compressed,
            duration: start.elapsed(),
        };
        self.trace(|| TraceEvent::BlockPushed {
            flow: flow_info.flow.0,
            wire_bytes: wire,
            compressed,
        });
        self.trace(|| TraceEvent::MessageSent {
            kind: "transfer_complete".to_string(),
        });
        self.inner
            .to_master_tx
            .send(ToMaster::TransferComplete {
                coflow,
                flow: flow_info.flow,
                wire_bytes: wire,
            })
            .map_err(|_| SwallowError::ChannelClosed {
                channel: "to_master",
            })?;
        Ok(report)
    }

    /// Table IV `pull`: the receiver fetches `block`, blocking (up to 30 s)
    /// until the sender's push lands.
    pub fn pull(&self, coflow: CoflowRef, block: BlockId) -> Result<Bytes, SwallowError> {
        self.pull_timeout(coflow, block, Duration::from_secs(30))
    }

    /// `pull` with an explicit timeout. A zero timeout is a non-blocking
    /// probe; `Duration::MAX` (or any timeout past the clock's range) waits
    /// indefinitely. On expiry the error is [`SwallowError::Timeout`],
    /// which is retryable.
    pub fn pull_timeout(
        &self,
        coflow: CoflowRef,
        block: BlockId,
        timeout: Duration,
    ) -> Result<Bytes, SwallowError> {
        let flow_info = self
            .inner
            .master
            .lock()
            .flow_of_block(coflow, block)
            .ok_or(SwallowError::BlockMissing(block))?;
        let dst = self.worker(flow_info.dst)?;
        dst.store
            .wait_for(coflow, block, timeout)
            .ok_or(SwallowError::Timeout { block })
    }

    /// Whether every flow of the coflow has completed (callback-driven; the
    /// paper's master marks the coflow completed when all flows report).
    pub fn is_complete(&self, coflow: CoflowRef) -> bool {
        self.drain_master();
        self.inner.master.lock().is_complete(coflow)
    }

    /// `(wire_bytes, raw_bytes)` moved so far — the Table VII statistic.
    pub fn traffic(&self) -> (u64, u64) {
        self.drain_master();
        self.inner.master.lock().traffic()
    }

    /// Latest heartbeat per worker.
    pub fn cluster_status(&self) -> Vec<(WorkerId, f64)> {
        self.drain_master();
        self.inner
            .master
            .lock()
            .cluster_status()
            .iter()
            .map(|(w, m)| (*w, m.cpu_util))
            .collect()
    }

    /// Workers the failure detector currently considers down.
    pub fn down_workers(&self) -> Vec<WorkerId> {
        self.inner.master.lock().down_workers()
    }

    /// Stop daemons and join them. Called automatically when the last clone
    /// drops.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let mut daemons = self.inner.daemons.lock();
        for d in daemons.drain(..) {
            let _ = d.join();
        }
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for d in self.daemons.lock().drain(..) {
            let _ = d.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> SwallowConfig {
        SwallowConfig {
            link_bandwidth: 20e6,
            heartbeat: 0.01,
            ..SwallowConfig::default()
        }
    }

    fn boot(config: SwallowConfig, workers: usize) -> SwallowContext {
        SwallowContext::builder()
            .config(config)
            .workers(workers)
            .build()
            .expect("test runtime boots")
    }

    fn compressible_payload(len: usize) -> Vec<u8> {
        b"shuffle-record:key=value;"
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect()
    }

    #[test]
    fn full_table4_lifecycle() {
        let ctx = boot(fast_config(), 3);
        let b1 = ctx.stage(WorkerId(0), WorkerId(1), compressible_payload(50_000));
        let b2 = ctx.stage(WorkerId(0), WorkerId(2), compressible_payload(30_000));
        let flows = ctx.hook(WorkerId(0));
        assert_eq!(flows.len(), 2);
        let info = ctx.aggregate(flows);
        assert_eq!(info.total_bytes(), 80_000);
        let coflow = ctx.add(info);
        let sched = ctx.scheduling(&[coflow]);
        assert_eq!(sched.order, vec![coflow]);
        ctx.alloc(&sched);
        let r1 = ctx.push(coflow, b1).unwrap();
        let r2 = ctx.push(coflow, b2).unwrap();
        // 20 MB/s link, LZ4 gate holds → compressed on the wire.
        assert!(r1.compressed && r2.compressed);
        assert!(r1.wire_bytes < r1.raw_bytes / 2);
        let d1 = ctx.pull(coflow, b1).unwrap();
        assert_eq!(d1.len(), 50_000);
        assert_eq!(&d1[..25], &compressible_payload(25)[..]);
        assert!(ctx.is_complete(coflow));
        let (wire, raw) = ctx.traffic();
        assert_eq!(raw, 80_000);
        assert!(wire < raw);
        ctx.remove(coflow);
        // After removal the block is gone and pull errors out.
        assert_eq!(
            ctx.pull_timeout(coflow, b1, Duration::from_millis(10)),
            Err(SwallowError::BlockMissing(b1))
        );
        ctx.shutdown();
    }

    #[test]
    fn builder_rejects_invalid_configurations() {
        let too_few = SwallowContext::builder().workers(1).build();
        assert!(matches!(too_few, Err(SwallowError::InvalidConfig(_))));
        let zero_beat = SwallowContext::builder()
            .config(SwallowConfig {
                heartbeat: 0.0,
                ..SwallowConfig::default()
            })
            .workers(2)
            .build();
        match zero_beat {
            Err(e @ SwallowError::InvalidConfig(_)) => {
                assert!(!e.is_retryable());
                assert!(e.to_string().contains("heartbeat"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn smart_compress_off_ships_raw() {
        let ctx = boot(fast_config().without_compression(), 2);
        let b = ctx.stage(WorkerId(0), WorkerId(1), compressible_payload(40_000));
        let coflow = ctx.add(ctx.aggregate(ctx.hook(WorkerId(0))));
        let sched = ctx.scheduling(&[coflow]);
        ctx.alloc(&sched);
        let r = ctx.push(coflow, b).unwrap();
        assert!(!r.compressed);
        assert_eq!(r.wire_bytes, r.raw_bytes);
        ctx.shutdown();
    }

    #[test]
    fn pull_blocks_until_push_from_other_thread() {
        let ctx = boot(fast_config(), 2);
        let b = ctx.stage(WorkerId(0), WorkerId(1), compressible_payload(20_000));
        let coflow = ctx.add(ctx.aggregate(ctx.hook(WorkerId(0))));
        let puller = {
            let ctx = ctx.clone();
            std::thread::spawn(move || ctx.pull(coflow, b).unwrap())
        };
        std::thread::sleep(Duration::from_millis(20));
        ctx.push(coflow, b).unwrap();
        let data = puller.join().unwrap();
        assert_eq!(data.len(), 20_000);
        ctx.shutdown();
    }

    #[test]
    fn unknown_ids_error() {
        let ctx = boot(fast_config(), 2);
        assert!(matches!(
            ctx.push(CoflowRef(99), BlockId(1)),
            Err(SwallowError::BlockMissing(_))
        ));
        assert!(matches!(
            ctx.pull_timeout(CoflowRef(99), BlockId(1), Duration::from_millis(5)),
            Err(SwallowError::BlockMissing(_))
        ));
        ctx.shutdown();
    }

    #[test]
    fn pull_timeout_expiry_is_retryable() {
        let ctx = boot(fast_config(), 2);
        let b = ctx.stage(WorkerId(0), WorkerId(1), compressible_payload(1_000));
        let coflow = ctx.add(ctx.aggregate(ctx.hook(WorkerId(0))));
        // Nothing pushed yet: a zero timeout probes and times out at once.
        let err = ctx.pull_timeout(coflow, b, Duration::ZERO).unwrap_err();
        assert_eq!(err, SwallowError::Timeout { block: b });
        assert!(err.is_retryable());
        // The retry loop a caller would write: push, then retry the pull.
        ctx.push(coflow, b).unwrap();
        assert!(ctx.pull_timeout(coflow, b, Duration::ZERO).is_ok());
        ctx.shutdown();
    }

    #[test]
    fn double_push_of_same_block_errors() {
        let ctx = boot(fast_config(), 2);
        let b = ctx.stage(WorkerId(0), WorkerId(1), compressible_payload(1_000));
        let coflow = ctx.add(ctx.aggregate(ctx.hook(WorkerId(0))));
        ctx.push(coflow, b).unwrap();
        assert!(matches!(
            ctx.push(coflow, b),
            Err(SwallowError::BlockMissing(_))
        ));
        ctx.shutdown();
    }

    #[test]
    fn push_against_permanently_dead_worker_reports_worker_down() {
        use swallow_faults::FaultPlan;
        // Receiver dead from t=0 with no restart and a tiny retry budget:
        // push must fail fast with the typed, retryable error and emit
        // push_retry events along the way.
        let sink = Arc::new(swallow_trace::CollectSink::new());
        let cfg = SwallowConfig {
            push_retries: 2,
            retry_backoff: 0.005,
            ..fast_config()
        };
        let ctx = SwallowContext::builder()
            .config(cfg)
            .workers(2)
            .faults(FaultPlan::new().crash(1, 0.0, None).injector())
            .tracer(Tracer::with_sink(sink.clone()))
            .build()
            .unwrap();
        let b = ctx.stage(WorkerId(0), WorkerId(1), compressible_payload(1_000));
        let coflow = ctx.add(ctx.aggregate(ctx.hook(WorkerId(0))));
        let err = ctx.push(coflow, b).unwrap_err();
        assert_eq!(
            err,
            SwallowError::WorkerDown {
                worker: WorkerId(1)
            }
        );
        assert!(err.is_retryable());
        let retries = sink
            .snapshot()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::PushRetry { .. }))
            .count();
        assert_eq!(retries, 2);
        // The staged block was not consumed by the failed push.
        let sched = ctx.scheduling(&[coflow]);
        assert_eq!(sched.compress.len(), 1);
        ctx.shutdown();
    }

    #[test]
    fn daemons_report_measurements() {
        let ctx = boot(fast_config(), 2);
        std::thread::sleep(Duration::from_millis(60));
        let status = ctx.cluster_status();
        assert_eq!(status.len(), 2, "both daemons should have reported");
        assert!(ctx.down_workers().is_empty());
        ctx.shutdown();
    }

    #[test]
    fn compression_speeds_up_transfers_end_to_end() {
        // The motivating effect: same payload, same link, smart compression
        // on vs off — the compressed run must finish faster.
        let payload = compressible_payload(400_000);
        let slow_link = SwallowConfig {
            link_bandwidth: 2e6, // 2 MB/s → raw takes 0.2 s
            ..fast_config()
        };
        let run = |cfg: SwallowConfig| -> Duration {
            let ctx = boot(cfg, 2);
            let b = ctx.stage(WorkerId(0), WorkerId(1), payload.clone());
            let coflow = ctx.add(ctx.aggregate(ctx.hook(WorkerId(0))));
            let sched = ctx.scheduling(&[coflow]);
            ctx.alloc(&sched);
            let r = ctx.push(coflow, b).unwrap();
            ctx.shutdown();
            r.duration
        };
        let with = run(slow_link.clone());
        let without = run(slow_link.without_compression());
        assert!(with < without / 2, "compressed {with:?} vs raw {without:?}");
    }
}
