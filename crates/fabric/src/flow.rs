//! Flows and their in-simulation progress.
//!
//! The paper models each flow's outstanding work as a *volume* `V = d + D`
//! (uncompressed raw part `d` plus already-compressed part `D`). A slice of
//! compression converts raw bytes into fewer compressed bytes; a slice of
//! transmission drains bytes onto the wire. [`FlowProgress`] tracks both
//! parts; the engine advances them through its closed-form segments.

use crate::ids::{CoflowId, FlowId, NodeId};
use crate::VOLUME_EPS;
use serde::{Deserialize, Serialize};

/// Immutable description of a flow as it appears in a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Unique flow identifier (unique across the whole trace).
    pub id: FlowId,
    /// Sender machine (uses its egress port).
    pub src: NodeId,
    /// Receiver machine (uses its ingress port).
    pub dst: NodeId,
    /// Size of the *raw* (uncompressed) data to move, in bytes.
    pub size: f64,
    /// Whether the payload is compressible at all. Pre-compressed or
    /// encrypted payloads set this to `false`, which forces β = 0 in the
    /// compression strategy (Pseudocode 1, line 3).
    pub compressible: bool,
}

impl FlowSpec {
    /// Convenience constructor; flows are compressible by default.
    pub fn new(id: u64, src: u32, dst: u32, size: f64) -> Self {
        assert!(size >= 0.0, "flow size must be non-negative");
        Self {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            size,
            compressible: true,
        }
    }

    /// Mark the flow as incompressible.
    pub fn incompressible(mut self) -> Self {
        self.compressible = false;
        self
    }
}

/// Mutable state of a flow inside the engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowProgress {
    /// The flow being tracked.
    pub spec: FlowSpec,
    /// Owning coflow.
    pub coflow: CoflowId,
    /// Arrival time of the owning coflow (seconds).
    pub arrival: f64,
    /// Raw bytes not yet compressed nor transmitted (the paper's `d`).
    pub raw: f64,
    /// Compressed bytes awaiting transmission (the paper's `D`).
    pub compressed: f64,
    /// Bytes actually put on the wire so far (compressed or raw).
    pub wire_bytes: f64,
    /// Raw bytes that went through the compressor (input side).
    pub compressed_input: f64,
}

impl FlowProgress {
    /// Start tracking a flow that arrived at `arrival` as part of `coflow`.
    pub fn new(spec: FlowSpec, coflow: CoflowId, arrival: f64) -> Self {
        let raw = spec.size;
        Self {
            spec,
            coflow,
            arrival,
            raw,
            compressed: 0.0,
            wire_bytes: 0.0,
            compressed_input: 0.0,
        }
    }

    /// Remaining volume `V = d + D` (paper §IV-A3).
    #[inline]
    pub fn volume(&self) -> f64 {
        self.raw + self.compressed
    }

    /// A flow is done when its volume is (numerically) zero.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.volume() <= VOLUME_EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(size: f64) -> FlowProgress {
        FlowProgress::new(FlowSpec::new(1, 0, 1, size), CoflowId(0), 0.0)
    }

    #[test]
    fn zero_sized_flow_is_complete_immediately() {
        assert!(prog(0.0).is_complete());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_rejected() {
        FlowSpec::new(1, 0, 1, -1.0);
    }
}
