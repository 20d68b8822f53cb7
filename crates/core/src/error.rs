//! The unified runtime error type.
//!
//! Every fallible `SwallowContext` entry point returns [`SwallowError`].
//! Variants split into *retryable* conditions — transient unavailability the
//! caller may wait out ([`SwallowError::Timeout`],
//! [`SwallowError::WorkerDown`]) — and *fatal* ones where retrying cannot
//! help (missing blocks, closed channels, bad configuration). The
//! [`SwallowError::is_retryable`] predicate encodes that split so callers
//! can branch without matching every variant.

use std::fmt;

use crate::messages::{BlockId, CoflowRef, WorkerId};

/// Errors surfaced by the runtime API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwallowError {
    /// Worker id out of range.
    UnknownWorker(WorkerId),
    /// No such coflow registered.
    UnknownCoflow(CoflowRef),
    /// The block is not part of the coflow, was never staged, or its staged
    /// payload died with a crashed worker (re-stage it via
    /// `SwallowContext::restage`).
    BlockMissing(BlockId),
    /// `pull` gave up waiting for the sender's push to land.
    Timeout {
        /// The block the receiver was waiting for.
        block: BlockId,
    },
    /// The worker is (still) unavailable after the configured retries.
    WorkerDown {
        /// The unavailable endpoint.
        worker: WorkerId,
    },
    /// An internal runtime channel was closed (the runtime is shutting
    /// down or has panicked).
    ChannelClosed {
        /// Which channel, e.g. `"to_master"`.
        channel: &'static str,
    },
    /// `SwallowContext::builder()` was given an unusable configuration.
    InvalidConfig(String),
    /// The service-mode arrival queue is full: the scheduler loop is not
    /// draining arrivals as fast as they are submitted. Back off and retry.
    Overloaded {
        /// Configured arrival-queue capacity that was exhausted.
        capacity: usize,
    },
}

impl SwallowError {
    /// Whether waiting and retrying the failed call can succeed.
    ///
    /// `Timeout` and `WorkerDown` describe transient states — the sender may
    /// still push, a crashed worker may restart — and `Overloaded` clears as
    /// soon as the service loop drains its queue. Everything else is a
    /// programming or configuration error that no amount of retrying fixes.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SwallowError::Timeout { .. }
                | SwallowError::WorkerDown { .. }
                | SwallowError::Overloaded { .. }
        )
    }
}

impl fmt::Display for SwallowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwallowError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            SwallowError::UnknownCoflow(c) => write!(f, "unknown coflow {}", c.0),
            SwallowError::BlockMissing(b) => write!(f, "block {} is missing", b.0),
            SwallowError::Timeout { block } => {
                write!(f, "timed out waiting for block {}", block.0)
            }
            SwallowError::WorkerDown { worker } => write!(f, "worker {worker} is down"),
            SwallowError::ChannelClosed { channel } => {
                write!(f, "runtime channel {channel:?} is closed")
            }
            SwallowError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            SwallowError::Overloaded { capacity } => {
                write!(f, "arrival queue full ({capacity} pending); retry later")
            }
        }
    }
}

impl std::error::Error for SwallowError {}

/// Trace-ingestion failures surface through the runtime API as configuration
/// errors: a trace that does not parse, or whose machine slots do not fit the
/// fabric, is unusable input in exactly the sense of
/// [`SwallowError::InvalidConfig`] — not retryable, fixed only by supplying a
/// different trace or fabric.
impl From<swallow_workload::WorkloadError> for SwallowError {
    fn from(e: swallow_workload::WorkloadError) -> Self {
        SwallowError::InvalidConfig(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_split() {
        assert!(SwallowError::Timeout { block: BlockId(1) }.is_retryable());
        assert!(SwallowError::WorkerDown {
            worker: WorkerId(2)
        }
        .is_retryable());
        assert!(SwallowError::Overloaded { capacity: 64 }.is_retryable());
        assert!(!SwallowError::BlockMissing(BlockId(1)).is_retryable());
        assert!(!SwallowError::UnknownWorker(WorkerId(9)).is_retryable());
        assert!(!SwallowError::ChannelClosed {
            channel: "to_master"
        }
        .is_retryable());
        assert!(!SwallowError::InvalidConfig("x".into()).is_retryable());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            SwallowError::WorkerDown {
                worker: WorkerId(3)
            }
            .to_string(),
            "worker w3 is down"
        );
        assert_eq!(
            SwallowError::Timeout { block: BlockId(7) }.to_string(),
            "timed out waiting for block 7"
        );
    }

    #[test]
    fn workload_errors_convert_to_invalid_config() {
        use swallow_workload::{MachineMap, StreamingTrace};

        // A trace whose mappers reference slots beyond a 4-port fabric must
        // come back as a structured `InvalidConfig`, never a panic.
        let wide = "1 0 6 1 2 3 4 5 6 1 1:100\n";
        let map = MachineMap::strict(4).unwrap();
        let err = StreamingTrace::new(wide.as_bytes(), map)
            .next()
            .expect("one record")
            .expect_err("slot 5 exceeds a 4-port fabric");
        let converted: SwallowError = err.into();
        match &converted {
            SwallowError::InvalidConfig(why) => {
                assert!(why.contains("exceeds"), "unexpected message: {why}");
                assert!(!converted.is_retryable());
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
