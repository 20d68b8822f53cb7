//! Runtime configuration (the paper's `swallow.smartCompress` & friends).

use serde::{Deserialize, Serialize};
use swallow_compress::Table2;

/// Configuration of a Swallow runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwallowConfig {
    /// The paper's `swallow.smartCompress` option: enable the joint
    /// compression/scheduling path. When false, pushes always send raw.
    pub smart_compress: bool,
    /// Which codec's Table II parameters drive the Eq. 3 gate. (The bytes on
    /// the wire are always `swz`-compressed — the model parameters only
    /// steer the scheduling decision, exactly like Swallow's configurable
    /// `LZ4`/`Snappy`/`LZF` choice.)
    pub codec: Table2,
    /// Emulated per-worker link bandwidth, bytes/s each direction.
    pub link_bandwidth: f64,
    /// Worker daemon heartbeat interval (seconds).
    pub heartbeat: f64,
    /// Scheduler slice δ used in the Γ estimates (seconds).
    pub slice: f64,
    /// CPU cores per worker available to compression tasks.
    pub cores_per_worker: u32,
    /// How many times `push()` retries against an unavailable worker before
    /// giving up with `SwallowError::WorkerDown`.
    #[serde(default = "default_push_retries")]
    pub push_retries: u32,
    /// Base delay (seconds) of the push retry backoff; doubles per attempt.
    #[serde(default = "default_retry_backoff")]
    pub retry_backoff: f64,
    /// Heartbeat intervals a worker may miss before the master's failure
    /// detector declares it down. Deliberately generous by default so a
    /// stalled test machine never triggers spurious recovery.
    #[serde(default = "default_liveness_misses")]
    pub liveness_misses: u32,
}

fn default_push_retries() -> u32 {
    8
}

fn default_retry_backoff() -> f64 {
    0.05
}

fn default_liveness_misses() -> u32 {
    25
}

impl Default for SwallowConfig {
    fn default() -> Self {
        Self {
            smart_compress: true,
            codec: Table2::Lz4,
            link_bandwidth: 40e6, // 40 MB/s ≈ 320 Mbps: compression-friendly
            heartbeat: 0.02,
            slice: 0.01,
            cores_per_worker: 4,
            push_retries: default_push_retries(),
            retry_backoff: default_retry_backoff(),
            liveness_misses: default_liveness_misses(),
        }
    }
}

impl SwallowConfig {
    /// Disable smart compression (baseline mode).
    pub fn without_compression(mut self) -> Self {
        self.smart_compress = false;
        self
    }

    /// Set the emulated link bandwidth.
    pub fn with_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        self.link_bandwidth = bytes_per_sec;
        self
    }

    /// Select the codec model.
    pub fn with_codec(mut self, codec: Table2) -> Self {
        self.codec = codec;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_compression() {
        let c = SwallowConfig::default();
        assert!(c.smart_compress);
        assert_eq!(c.codec, Table2::Lz4);
        assert!(!c.without_compression().smart_compress);
    }

    #[test]
    fn builders() {
        let c = SwallowConfig::default()
            .with_bandwidth(1e6)
            .with_codec(Table2::Snappy);
        assert_eq!(c.link_bandwidth, 1e6);
        assert_eq!(c.codec, Table2::Snappy);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        SwallowConfig::default().with_bandwidth(0.0);
    }

    #[test]
    fn recovery_knobs_have_serde_defaults() {
        let c = SwallowConfig::default();
        assert_eq!(c.push_retries, 8);
        assert!((c.retry_backoff - 0.05).abs() < 1e-12);
        assert_eq!(c.liveness_misses, 25);
        // The serde-default half needs real JSON bytes; the offline stub
        // serializer renders every struct as `{}`, so skip it there.
        swallow_metrics::skip_if_stub!();
        // A config serialized before the recovery knobs existed still
        // deserializes, picking up the defaults.
        let mut v = serde_json::to_value(&c).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("push_retries");
        obj.remove("retry_backoff");
        obj.remove("liveness_misses");
        let back: SwallowConfig = serde_json::from_value(v).unwrap();
        assert_eq!(back, c);
    }
}
