//! A live flow and the closed forms of its segment (module docs, "The fast
//! path"): every stage evaluates these same expressions, which is what makes
//! jumping `k` slices bit-identical to walking them.
//!
//! Reads and writes only the [`ActiveFlow`] it is called on; emits nothing.

use crate::alloc::FlowCommand;
use crate::flow::FlowProgress;

/// One live flow plus its closed-form segment state.
///
/// `seg` is the slice index at which the current command segment began;
/// `base_*` snapshot the flow's state at that boundary. The state after `n`
/// further slices is a pure function of the bases (see the module docs), so
/// advancing by one slice and advancing by `k` slices evaluate the *same*
/// expression — the skip-ahead invariant.
#[derive(Clone)]
pub(super) struct ActiveFlow {
    pub(super) p: FlowProgress,
    pub(super) seg: u64,
    pub(super) base_raw: f64,
    pub(super) base_compressed: f64,
    pub(super) base_wire: f64,
    pub(super) base_cinput: f64,
    /// Command in force for this segment.
    pub(super) cmd: FlowCommand,
    /// Cached `compression.ratio(size)` (a pure function of the flow size).
    pub(super) ratio: f64,
    /// Index of this flow's [`super::FlowRecord`] in the engine's record list.
    pub(super) rec: usize,
}

impl ActiveFlow {
    /// Raw bytes consumed by the compressor after `n` slices of this segment.
    #[inline]
    pub(super) fn compress_consumed(&self, n: u64, speed: f64, delta: f64) -> f64 {
        (speed * delta * n as f64).min(self.base_raw)
    }

    /// Transmission split after `n` slices: `(from_compressed, from_raw)`.
    /// Compressed bytes drain first (they already sit in the send buffer);
    /// any budget left over sends raw bytes directly.
    #[inline]
    pub(super) fn tx_parts(&self, n: u64, delta: f64) -> (f64, f64) {
        let budget = self.cmd.rate * delta * n as f64;
        let fc = budget.min(self.base_compressed);
        let fr = (budget - fc).min(self.base_raw);
        (fc, fr)
    }

    /// Raw part after `n` slices of this segment.
    #[inline]
    pub(super) fn raw_at(&self, n: u64, speed: f64, delta: f64) -> f64 {
        if self.cmd.compress {
            self.base_raw - self.compress_consumed(n, speed, delta)
        } else if self.cmd.rate > 0.0 {
            let (_, fr) = self.tx_parts(n, delta);
            self.base_raw - fr
        } else {
            self.base_raw
        }
    }

    /// Volume `V = d + D` after `n` slices of this segment.
    #[inline]
    pub(super) fn volume_at(&self, n: u64, speed: f64, delta: f64) -> f64 {
        if self.cmd.compress {
            let consumed = self.compress_consumed(n, speed, delta);
            (self.base_raw - consumed) + (self.base_compressed + consumed * self.ratio)
        } else if self.cmd.rate > 0.0 {
            let (fc, fr) = self.tx_parts(n, delta);
            (self.base_compressed - fc) + (self.base_raw - fr)
        } else {
            self.base_raw + self.base_compressed
        }
    }

    /// Closed-form `(raw, compressed, wire_bytes, compressed_input)` after
    /// `n` slices of this segment, without touching `self.p`.
    #[inline]
    pub(super) fn state_at(&self, n: u64, speed: f64, delta: f64) -> (f64, f64, f64, f64) {
        if self.cmd.compress {
            let consumed = self.compress_consumed(n, speed, delta);
            (
                self.base_raw - consumed,
                self.base_compressed + consumed * self.ratio,
                self.base_wire,
                self.base_cinput + consumed,
            )
        } else if self.cmd.rate > 0.0 {
            let (fc, fr) = self.tx_parts(n, delta);
            (
                self.base_raw - fr,
                self.base_compressed - fc,
                self.base_wire + (fc + fr),
                self.base_cinput,
            )
        } else {
            (
                self.base_raw,
                self.base_compressed,
                self.base_wire,
                self.base_cinput,
            )
        }
    }

    /// Write the closed-form state after `n` slices into `self.p`.
    #[inline]
    pub(super) fn materialize(&mut self, n: u64, speed: f64, delta: f64) {
        let (raw, compressed, wire, cinput) = self.state_at(n, speed, delta);
        self.p.raw = raw;
        self.p.compressed = compressed;
        self.p.wire_bytes = wire;
        self.p.compressed_input = cinput;
    }

    /// Start a new segment at `boundary` under `cmd`; `self.p` must already
    /// be materialized at that boundary.
    #[inline]
    pub(super) fn reset_segment(&mut self, boundary: u64, cmd: FlowCommand) {
        self.base_raw = self.p.raw;
        self.base_compressed = self.p.compressed;
        self.base_wire = self.p.wire_bytes;
        self.base_cinput = self.p.compressed_input;
        self.seg = boundary;
        self.cmd = cmd;
    }
}

/// Smallest `n ≥ n0 + 1` with `pred(n)`, starting the search from the
/// analytic estimate `est` and correcting for floating-point slack in either
/// direction. `pred` must be monotone (false → … → true). Returns `None` if
/// the correction loops do not converge quickly — callers treat that as
/// "don't skip", which is always safe.
#[inline]
pub(super) fn first_slice_satisfying(est: f64, n0: u64, pred: impl Fn(u64) -> bool) -> Option<u64> {
    // An estimate beyond u64 range (e.g. a denormally small rate) can never
    // be corrected by the bounded search below; "don't skip" is always safe.
    if est.is_finite() && est >= u64::MAX as f64 {
        return None;
    }
    let mut n = if est.is_finite() && est > (n0 + 1) as f64 {
        est as u64
    } else {
        n0 + 1
    };
    let mut guard = 0u32;
    while !pred(n) {
        n = n.checked_add(1)?;
        guard += 1;
        if guard > 64 {
            return None;
        }
    }
    while n > n0 + 1 && pred(n - 1) {
        n -= 1;
        guard += 1;
        if guard > 128 {
            return None;
        }
    }
    Some(n)
}
