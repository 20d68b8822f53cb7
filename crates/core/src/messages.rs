//! Message and identifier types exchanged between the driver, the master
//! and the workers — the reproduction of the paper's Akka messages and
//! Table IV data types.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use swallow_fabric::FlowId;

/// A worker (one "executor machine" in the paper's deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkerId(pub u32);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A shuffle block within a coflow ("a unique blockId to represent each
/// block in network transmission", §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u64);

/// Reference handler returned by `add()` (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoflowRef(pub u64);

/// Per-flow description captured by `hook()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowInfo {
    /// Globally unique flow id.
    pub flow: FlowId,
    /// Block carrying this flow's data.
    pub block: BlockId,
    /// Sending executor.
    pub src: WorkerId,
    /// Receiving executor.
    pub dst: WorkerId,
    /// Raw payload size in bytes.
    pub bytes: u64,
    /// Whether the payload passed the compressibility gate.
    pub compressible: bool,
}

/// Aggregated coflow description produced by `aggregate()`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CoflowInfo {
    /// Member flows.
    pub flows: Vec<FlowInfo>,
}

impl CoflowInfo {
    /// Total raw bytes across the coflow.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }
}

/// Scheduling results returned by `scheduling()` (Table IV): "the scheduling
/// sequence, compression strategy and resource requirements".
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SchResult {
    /// Coflows in service order (Shortest-Γ_C-First).
    pub order: Vec<CoflowRef>,
    /// β per flow.
    pub compress: BTreeMap<FlowId, bool>,
    /// Allocated bandwidth per flow, bytes/s.
    pub rates: BTreeMap<FlowId, f64>,
}

/// Periodic measurement heartbeat from a worker daemon (§III-B: "node
/// status, CPU utilization, bandwidth usage and job situation").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Reporting worker.
    pub worker: WorkerId,
    /// Wall-clock seconds since runtime start.
    pub at: f64,
    /// Fraction of this worker's cores busy compressing.
    pub cpu_util: f64,
    /// Bytes pushed since the previous heartbeat.
    pub bytes_sent: u64,
    /// Blocks currently staged for transmission.
    pub staged_blocks: usize,
}

/// Worker → master control messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ToMaster {
    /// Heartbeat.
    Measure(Measurement),
    /// A flow's transfer finished (receiver-side callback, §V-A).
    TransferComplete {
        /// Owning coflow.
        coflow: CoflowRef,
        /// Completed flow.
        flow: FlowId,
        /// Bytes that crossed the wire (post-compression).
        wire_bytes: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coflow_info_totals() {
        let info = CoflowInfo {
            flows: vec![
                FlowInfo {
                    flow: FlowId(1),
                    block: BlockId(1),
                    src: WorkerId(0),
                    dst: WorkerId(1),
                    bytes: 100,
                    compressible: true,
                },
                FlowInfo {
                    flow: FlowId(2),
                    block: BlockId(2),
                    src: WorkerId(0),
                    dst: WorkerId(2),
                    bytes: 50,
                    compressible: false,
                },
            ],
        };
        assert_eq!(info.total_bytes(), 150);
    }

    #[test]
    fn messages_serde_roundtrip() {
        // The JSON bytes are the subject here; the offline stub serializer
        // renders every struct as `{}`, so the property only exists under a
        // real toolchain.
        swallow_metrics::skip_if_stub!();
        let m = ToMaster::TransferComplete {
            coflow: CoflowRef(3),
            flow: FlowId(9),
            wire_bytes: 42,
        };
        let s = serde_json::to_string(&m).unwrap();
        let back: ToMaster = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn ids_display() {
        assert_eq!(WorkerId(3).to_string(), "w3");
    }
}
