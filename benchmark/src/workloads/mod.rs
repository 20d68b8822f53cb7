//! The five workloads. Each is named after the load it puts on the system,
//! builds its inputs from the seed alone, and hands the program under test
//! nothing but those inputs.

mod fabric;
mod fb;
mod replay;
mod service;
mod shuffle;

use crate::span::Recorder;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use swallow_fabric::SimResult;
use swallow_workload::SizeDist;

/// Metric values by catalogue name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one timed rep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOut {
    /// Every metric the rep measured (`wall_s` always among them).
    pub metrics: Metrics,
    /// Hash of the outputs; equal across reps and between the traced and
    /// the untraced run.
    pub checksum: u64,
    /// Units of work the rep attempted (coflows, submissions, blocks).
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
}

/// A workload after set-up: inputs built, ready to be timed.
pub trait Workload {
    /// The frozen parameters the inputs were built from.
    fn params(&self) -> Value;

    /// One timed rep.
    fn rep(&mut self, rec: &mut Recorder) -> RepOut;

    /// Ways in which the medians of a full-size run leave the regime the
    /// workload's name states; empty when they do not.
    fn regime_problems(&self, medians: &Metrics) -> Vec<String>;
}

/// How big to build a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The frozen, calibrated size.
    Full,
    /// Inputs that run in well under a second, for tests.
    Smoke,
}

impl Size {
    /// `full` or `smoke`, whichever this size is.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Set `name` up from `seed`. Returns the workload and what set-up itself
/// measured.
pub fn build(name: &str, seed: u64, size: Size) -> Result<(Box<dyn Workload>, Metrics), String> {
    match name {
        "fabric-loaded" => Ok(fabric::build_loaded(seed, size)),
        "fabric-idle" => Ok(fabric::build_idle(seed, size)),
        "fb-replay" => fb::build(seed, size),
        "service-slam" => Ok(service::build(seed, size)),
        "shuffle-pushpull" => shuffle::build(seed, size),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Directory for files a run writes (the `fb-replay` trace, span files):
/// `out/` beside this package, inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Order-sensitive 64-bit hash of the outputs of a rep.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Checksum {
    /// Mix one word in.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    /// Mix every byte of `data` in, eight at a time.
    pub fn bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
        self.word(data.len() as u64);
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of a simulation's outputs — the bits of every flow and coflow
/// completion time, the makespan and the reschedule count — and the number
/// of coflows that did not complete.
pub fn digest(result: &SimResult) -> (u64, u64) {
    let bits = |t: Option<f64>| t.map_or(u64::MAX, f64::to_bits);
    let mut sum = Checksum::default();
    for f in &result.flows {
        sum.word(bits(f.completed_at));
    }
    let mut incomplete = 0;
    for c in &result.coflows {
        sum.word(bits(c.completed_at));
        incomplete += u64::from(c.completed_at.is_none());
    }
    sum.word(result.makespan.to_bits());
    sum.word(result.reschedules as u64);
    (sum.finish(), incomplete)
}

/// What a [`SimResult`] alone says about the run: the two simulated
/// end-to-end metrics and the two regime descriptors.
pub struct SimSummary {
    /// Mean coflow completion time, simulated seconds.
    pub avg_cct_s: f64,
    /// Wire bytes over raw bytes.
    pub wire_ratio: f64,
    /// Wire bytes over what every egress port could carry in the makespan.
    pub mean_port_util: f64,
    /// Mean number of coflows in the fabric: Σ CCT / makespan (Little).
    pub mean_active_coflows: f64,
}

/// Summarise `result` of a run over `ports` ports of `cap` bytes/s.
pub fn summarize(result: &SimResult, ports: usize, cap: f64) -> SimSummary {
    let span = result.makespan.max(f64::MIN_POSITIVE);
    let cct_sum: f64 = result.cct_values().iter().sum();
    let wire = result.total_wire_bytes();
    SimSummary {
        avg_cct_s: result.avg_cct(),
        wire_ratio: wire / result.total_raw_bytes().max(1.0),
        mean_port_util: wire / (ports as f64 * cap * span),
        mean_active_coflows: cct_sum / span,
    }
}

/// The body of the paper's Fig. 1 flow-size mixture — bounded Pareto with
/// tail index 0.4 — scaled as `gen::fig1_size_dist_scaled` scales it (so it
/// starts at a 0.1 s transfer at `cap` bytes/s) and cut at `hi_over_lo`
/// times that. The full mixture's elephants reach five decades, which makes
/// one rep's work depend on whether the seed drew one; see the README on
/// calibration. Returned with its mean: the generators take an
/// inter-arrival gap, not a load, so a workload that states its offered
/// load needs the mean coflow size to turn one into the other.
pub fn fig1_body(cap: f64, hi_over_lo: f64) -> (SizeDist, f64) {
    let lo = 10e6 * 100.0 * cap / 10e9;
    let (hi, shape) = (lo * hi_over_lo, 0.4);
    (
        SizeDist::BoundedPareto { lo, hi, shape },
        bounded_pareto_mean(lo, hi, shape),
    )
}

/// Mean of a bounded Pareto on `[lo, hi]` with tail index `shape` (not 1),
/// in closed form.
fn bounded_pareto_mean(lo: f64, hi: f64, shape: f64) -> f64 {
    let norm = shape * lo.powf(shape) / (1.0 - (lo / hi).powf(shape));
    norm * (hi.powf(1.0 - shape) - lo.powf(1.0 - shape)) / (1.0 - shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_pareto_mean_matches_the_textbook_value() {
        // α = 2 on [1, 2]: mean = 4/3.
        assert!((bounded_pareto_mean(1.0, 2.0, 2.0) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn checksum_depends_on_order_and_length() {
        let hash = |data: &[u8]| {
            let mut c = Checksum::default();
            c.bytes(data);
            c.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ba"));
        assert_ne!(hash(b"a"), hash(b"a\0"));
        assert_eq!(hash(b"same"), hash(b"same"));
    }
}
