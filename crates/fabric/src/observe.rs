//! The boundary hook: the one way simulation *state* leaves the engine.
//!
//! Events leave the engine through the [`Tracer`](swallow_trace::Tracer);
//! state leaves it as a [`BoundarySnapshot`] — a read-only, id-ordered cut
//! of every live flow (closed-form state plus the command in force) and the
//! engine's running counts, all evaluated at one slice boundary `idx · δ`.
//! The engine builds the snapshot at every boundary it *visits*, after the
//! policy's allocation has been applied and before it decides whether to
//! skip ahead, and only when someone consumes it: a
//! [`SimConfig::with_check`](crate::SimConfig::with_check) observer, or the
//! telemetry collector on a boundary its stride selects
//! ([`BoundarySnapshot::telemetry_sample`]).
//!
//! Because flow state and commands are segment-constant between reschedules
//! (the closed-form invariant the skip-ahead fast path rests on), the
//! boundaries the fast path visits are exactly the ones where anything can
//! change — so an observer attached to either path sees every distinct
//! (state, command) pair the simulation ever produces.
//!
//! The hook is defined here, in `swallow-fabric`, so the engine does not
//! depend on the oracle crate; `swallow-oracle` implements
//! [`BoundaryObserver`] with the actual invariants. Consumers only receive
//! shared references and nothing they compute feeds back into the loop —
//! in particular no observer can change *which* boundaries the engine
//! visits — which is what keeps observed runs bit-identical to bare ones.

use crate::alloc::FlowCommand;
use crate::cpu::CpuModel;
use crate::ids::{CoflowId, FlowId, NodeId};
use crate::port::Fabric;
use swallow_faults::Injector;
use swallow_metrics::telemetry::{port_util_bucket, TelemetrySample, PORT_UTIL_BUCKETS};

/// Read-only snapshot of one live flow at a slice boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSnapshot {
    /// Flow identifier.
    pub id: FlowId,
    /// Owning coflow.
    pub coflow: CoflowId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Original raw size in bytes.
    pub original_size: f64,
    /// Raw (uncompressed) bytes still to dispose.
    pub raw: f64,
    /// Compressed bytes produced but not yet transmitted.
    pub compressed: f64,
    /// Bytes that have crossed the wire so far.
    pub wire_bytes: f64,
    /// Raw bytes fed through the compressor so far.
    pub compressed_input: f64,
    /// Whether the workload marked this flow compressible.
    pub compressible: bool,
    /// Command in force for the current segment.
    pub cmd: FlowCommand,
    /// Compression ratio ξ the engine would apply to this flow.
    pub ratio: f64,
}

impl FlowSnapshot {
    /// Remaining volume `V = d + D` (raw plus compressed backlog).
    pub fn volume(&self) -> f64 {
        self.raw + self.compressed
    }
}

/// Everything the engine exposes at one visited slice boundary.
pub struct BoundarySnapshot<'a> {
    /// Boundary time `slice_idx · δ`.
    pub now: f64,
    /// Slice length δ in seconds.
    pub slice: f64,
    /// Boundary index (naive-equivalent slice count at this point).
    pub slice_idx: u64,
    /// Port capacities.
    pub fabric: &'a Fabric,
    /// CPU availability model.
    pub cpu: &'a CpuModel,
    /// The fault injector in force (empty for clean runs).
    pub faults: &'a Injector,
    /// Live flows, sorted by flow id.
    pub flows: &'a [FlowSnapshot],
    /// Compression speed `R` in bytes/s (0 when compression is disabled).
    pub compression_speed: f64,
    /// Coflows admitted and not yet finished.
    pub active_coflows: usize,
    /// Coflows not yet admitted (a stream-fed engine reports its
    /// one-coflow lookahead).
    pub pending_coflows: usize,
    /// Policy invocations so far, this boundary's included.
    pub reschedules: usize,
    /// Wire bytes of the flows retired before this boundary.
    pub retired_wire: f64,
    /// Bytes compression kept off the wire for those flows (raw − wire).
    pub retired_saved: f64,
}

impl BoundarySnapshot<'_> {
    /// Transmitting load per port as `(egress, ingress)`, indexed by node: a
    /// compressing flow occupies a core, not its ports.
    pub fn port_loads(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.fabric.num_nodes();
        let mut egress = vec![0.0f64; n];
        let mut ingress = vec![0.0f64; n];
        for f in self.flows {
            if !f.cmd.compress && f.cmd.rate > 0.0 {
                egress[f.src.index()] += f.cmd.rate;
                ingress[f.dst.index()] += f.cmd.rate;
            }
        }
        (egress, ingress)
    }

    /// The telemetry view of this boundary — a pure function of the
    /// snapshot, so the sample is a consistent cut at `now`: live flows and
    /// retired totals are both taken at the boundary itself. The estimator
    /// gauges are left at zero; they belong to the policy, not the engine.
    pub fn telemetry_sample(&self) -> TelemetrySample {
        let n = self.fabric.num_nodes();
        let (egress, ingress) = self.port_loads();
        let mut tx_rate = 0.0;
        let mut transmitting = 0u64;
        let mut compressing = 0u64;
        // Byte ledger: retired totals plus every live flow's contribution.
        let mut bytes_on_wire = self.retired_wire;
        let mut bytes_saved = self.retired_saved;
        for f in self.flows {
            if f.cmd.compress {
                compressing += 1;
            } else if f.cmd.rate > 0.0 {
                transmitting += 1;
                tx_rate += f.cmd.rate;
            }
            bytes_on_wire += f.wire_bytes;
            bytes_saved += f.compressed_input * (1.0 - f.ratio);
        }
        // Port-utilization statistics over all 2n ports (each node's egress
        // and ingress side counts as one port).
        let mut util_hist = [0u64; PORT_UTIL_BUCKETS];
        let mut util_sum = 0.0;
        let mut util_max = 0.0f64;
        let mut busy_ports = 0u64;
        let mut total_egress = 0.0;
        let mut total_cores = 0.0;
        // Every compressing flow holds one core of its sender.
        let mut busy_cores = compressing as f64;
        for i in 0..n {
            let node = NodeId(i as u32);
            let ecap = self.fabric.egress_cap(node);
            let icap = self.fabric.ingress_cap(node);
            total_egress += ecap;
            for (load, cap) in [(egress[i], ecap), (ingress[i], icap)] {
                let u = if cap > 0.0 { load / cap } else { 0.0 };
                util_sum += u;
                util_max = util_max.max(u);
                if u > 0.0 {
                    busy_ports += 1;
                }
                util_hist[port_util_bucket(u)] += 1;
            }
            let cores = self.cpu.cores(node) as f64;
            total_cores += cores;
            busy_cores += self.cpu.background_util(node, self.now) * cores;
        }
        let share = |part: f64, whole: f64| {
            if whole > 0.0 {
                (part / whole).min(1.0)
            } else {
                0.0
            }
        };
        TelemetrySample {
            time: self.now,
            slice_idx: self.slice_idx,
            active_coflows: self.active_coflows as u64,
            pending_coflows: self.pending_coflows as u64,
            transmitting_flows: transmitting,
            compressing_flows: compressing,
            tx_rate,
            net_util: share(tx_rate, total_egress),
            mean_port_util: if n > 0 {
                util_sum / (2 * n) as f64
            } else {
                0.0
            },
            max_port_util: util_max,
            busy_ports,
            port_util_hist: util_hist,
            cpu_occupancy: share(busy_cores, total_cores),
            bytes_on_wire,
            bytes_saved,
            reschedules: self.reschedules as u64,
            est_tracked_coflows: 0,
            est_mean_abs_rel_err: 0.0,
        }
    }
}

/// A read-only observer of engine slice boundaries.
///
/// Implementations take `&self` and must be `Send + Sync`: the engine holds
/// the observer behind an `Arc` inside its (cloneable) config, and callers
/// typically keep a second handle to collect results afterwards.
pub trait BoundaryObserver: Send + Sync {
    /// Called at every visited slice boundary with at least one live flow,
    /// after the policy's allocation (if any) has been applied.
    fn at_boundary(&self, snap: &BoundarySnapshot<'_>);
}
