//! Sampling-based non-clairvoyant scheduling (Jajoo, Hu & Lin).
//!
//! Every other policy in this crate is clairvoyant: it reads exact remaining
//! volumes out of the [`FabricView`]. No production master has that
//! information. Following "A Case for Sampling Based Learning Techniques in
//! Coflow Scheduling", [`SampledPolicy`] hides the true sizes behind a
//! [`SizeEstimator`]:
//!
//! 1. at admission a deterministic *pilot subset* of the coflow's flows is
//!    designated (a configurable fraction, stride-spread across the id-sorted
//!    flow list); pilots report their true size up front, exactly as a
//!    sender-side probe would;
//! 2. every non-pilot flow is estimated at the mean of the coflow's known
//!    flow sizes, so the coflow total extrapolates from the observed pilots;
//! 3. as flows finish, the engine's [`Policy::on_flow_complete`] hook reveals
//!    their true sizes and the estimate refines;
//! 4. the wrapped clairvoyant policy (FVDF, SEBF, …) allocates against a
//!    *rewritten* view carrying estimated remaining volumes — never the true
//!    ones — and the engine clamps the resulting rates against true state,
//!    so byte ledgers and capacity invariants hold regardless of estimation
//!    error;
//! 5. an Aalo-style priority-aging guard watches for coflows that an
//!    under-estimate (or over-estimate) keeps starving and exponentially
//!    shrinks their *perceived* size until they are serviced, so
//!    mis-estimation can delay a coflow but never park it forever.
//!
//! At `pilot_fraction = 1.0` every flow is a pilot, the rewrite is the
//! identity, the guard never engages, and the wrapper reproduces its inner
//! clairvoyant policy bit-for-bit — the property `tests/metamorphic.rs`
//! pins.

use std::collections::BTreeMap;
use std::sync::Arc;

use swallow_fabric::view::CoflowGroups;
use swallow_fabric::{
    Allocation, Coflow, CoflowId, FabricView, FlowId, FlowView, Policy, VOLUME_EPS,
};
use swallow_metrics::Telemetry;
use swallow_trace::{TraceEvent, Tracer};

use crate::fvdf::FvdfPolicy;
use crate::ordered::OrderedPolicy;

/// What the estimator reports for non-pilot flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorMode {
    /// Pilot-based extrapolation (the paper's scheme).
    #[default]
    Pilot,
    /// Deliberately corrupt: report 0 bytes for every flow of every coflow.
    /// Used by the oracle's false-positive tests — the starvation guard and
    /// work-conserving backfill must still drain the system, and no
    /// invariant may fire, because the engine's ground truth never lies.
    ZeroForged,
}

/// Tunables for sampling-based estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Fraction of each coflow's flows scheduled as pilots, in `(0, 1]`.
    pub pilot_fraction: f64,
    /// Lower bound on pilots per coflow (at least 1, so the mean is always
    /// defined).
    pub min_pilots: usize,
    /// Multiplier the starvation guard applies to a starved coflow's
    /// perceived-size divisor, mirroring FVDF's `Upgrade` logbase.
    pub logbase: f64,
    /// Consecutive service-less allocations before each aging step.
    pub patience: u32,
    /// Estimator behaviour.
    pub mode: EstimatorMode,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            pilot_fraction: 0.1,
            min_pilots: 1,
            logbase: 1.2,
            patience: 2,
            mode: EstimatorMode::Pilot,
        }
    }
}

impl SamplingConfig {
    /// Default config at the given pilot fraction.
    pub fn with_pilot_fraction(pilot_fraction: f64) -> Self {
        Self {
            pilot_fraction,
            ..Self::default()
        }
    }

    /// Starvation-guard patience: consecutive service-less allocations a
    /// coflow tolerates before each aging step. Clamped to ≥ 1 at use.
    pub fn with_patience(mut self, patience: u32) -> Self {
        self.patience = patience;
        self
    }

    /// Starvation-guard aging multiplier (must be ≥ 1; 1 disables aging).
    pub fn with_logbase(mut self, logbase: f64) -> Self {
        assert!(logbase >= 1.0, "logbase must be ≥ 1, got {logbase}");
        self.logbase = logbase;
        self
    }
}

/// Per-coflow estimator state.
#[derive(Debug, Clone)]
struct CoflowEstimate {
    /// Flows whose true size is known: pilots at admission, everything else
    /// as completions reveal it.
    known: BTreeMap<FlowId, f64>,
    /// Member flows still estimated.
    unknown: usize,
    /// Member flow count (for reports).
    flows: usize,
    /// Pilots designated at admission.
    pilots: usize,
    /// Ground-truth total bytes — kept for error accounting and trace
    /// events only; scheduling never reads it.
    true_total: f64,
    /// Perceived-size divisor the starvation guard grows (≥ 1).
    boost: f64,
    /// Consecutive allocations that granted this coflow no service.
    starved_rounds: u32,
}

impl CoflowEstimate {
    fn known_sum(&self) -> f64 {
        self.known.values().sum()
    }

    /// Mean of the known flow sizes — the estimate used for every unknown
    /// flow. `known` is never empty (`min_pilots ≥ 1`).
    fn mean_known(&self) -> f64 {
        let n = self.known.len();
        if n == 0 {
            0.0
        } else {
            self.known_sum() / n as f64
        }
    }

    /// Estimated total coflow bytes (before any starvation boost).
    fn estimated_total(&self) -> f64 {
        self.known_sum() + self.unknown as f64 * self.mean_known()
    }
}

/// Pilot-flow sampling estimator: designates pilots at admission, learns
/// true sizes from completions, and extrapolates the rest.
#[derive(Debug, Clone)]
pub struct SizeEstimator {
    config: SamplingConfig,
    coflows: BTreeMap<CoflowId, CoflowEstimate>,
}

/// Deterministic pilot designation: `k = clamp(ceil(p·n), min_pilots, n)`
/// indices spread evenly (`⌊i·n/k⌋`) across the id-sorted flow list.
pub fn pilot_indices(n: usize, pilot_fraction: f64, min_pilots: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let want = (pilot_fraction * n as f64).ceil() as usize;
    let k = want.max(min_pilots).max(1).min(n);
    (0..k).map(|i| i * n / k).collect()
}

impl SizeEstimator {
    /// A fresh estimator.
    pub fn new(config: SamplingConfig) -> Self {
        assert!(
            config.pilot_fraction > 0.0 && config.pilot_fraction <= 1.0,
            "pilot_fraction must be in (0, 1]"
        );
        assert!(config.min_pilots >= 1, "min_pilots must be ≥ 1");
        assert!(config.logbase >= 1.0, "logbase must be ≥ 1");
        Self {
            config,
            coflows: BTreeMap::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Admit a coflow: designate pilots and return `(pilots, estimated
    /// total bytes)`.
    pub fn admit(&mut self, coflow: &Coflow) -> (usize, f64) {
        let mut ids: Vec<(FlowId, f64)> = coflow.flows.iter().map(|f| (f.id, f.size)).collect();
        ids.sort_unstable_by_key(|&(id, _)| id);
        let picks = pilot_indices(
            ids.len(),
            self.config.pilot_fraction,
            self.config.min_pilots,
        );
        let known: BTreeMap<FlowId, f64> = picks.iter().map(|&i| ids[i]).collect();
        let ce = CoflowEstimate {
            pilots: known.len(),
            unknown: ids.len() - known.len(),
            flows: ids.len(),
            true_total: coflow.total_bytes(),
            known,
            boost: 1.0,
            starved_rounds: 0,
        };
        let out = (ce.pilots, ce.estimated_total());
        self.coflows.insert(coflow.id, ce);
        out
    }

    /// A flow completion revealed its true size. Returns the refined total
    /// estimate when the flow was previously unknown, `None` otherwise.
    pub fn reveal(&mut self, flow: FlowId, coflow: CoflowId, size: f64) -> Option<f64> {
        let ce = self.coflows.get_mut(&coflow)?;
        if ce.known.insert(flow, size).is_some() {
            return None; // already a pilot
        }
        ce.unknown -= 1;
        Some(ce.estimated_total())
    }

    /// Drop a finished coflow.
    pub fn forget(&mut self, coflow: CoflowId) {
        self.coflows.remove(&coflow);
    }

    /// Coflows currently tracked.
    pub fn tracked(&self) -> usize {
        self.coflows.len()
    }

    /// `(pilots, member flows, still-unknown flows)` of a tracked coflow.
    pub fn coverage(&self, coflow: CoflowId) -> Option<(usize, usize, usize)> {
        let ce = self.coflows.get(&coflow)?;
        Some((ce.pilots, ce.flows, ce.unknown))
    }

    /// Estimated total bytes of a tracked coflow.
    pub fn estimated_total(&self, coflow: CoflowId) -> Option<f64> {
        let ce = self.coflows.get(&coflow)?;
        Some(match self.config.mode {
            EstimatorMode::Pilot => ce.estimated_total(),
            EstimatorMode::ZeroForged => 0.0,
        })
    }

    /// `|estimate − truth| / truth` for one tracked coflow (0 when the
    /// truth is 0 bytes).
    pub fn abs_rel_err(&self, coflow: CoflowId) -> Option<f64> {
        let ce = self.coflows.get(&coflow)?;
        let est = self.estimated_total(coflow).unwrap_or(0.0);
        Some(if ce.true_total > 0.0 {
            (est - ce.true_total).abs() / ce.true_total
        } else {
            0.0
        })
    }

    /// Mean absolute relative error over all tracked coflows (0 when none).
    pub fn mean_abs_rel_err(&self) -> f64 {
        if self.coflows.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .coflows
            .keys()
            .map(|&cid| self.abs_rel_err(cid).unwrap_or(0.0))
            .sum();
        sum / self.coflows.len() as f64
    }

    /// The estimator's belief about one flow's *original* size: `None` when
    /// the true size is known (pilot or revealed), `Some(estimate)` when it
    /// is extrapolated. [`EstimatorMode::ZeroForged`] believes 0 for every
    /// flow, known or not.
    fn flow_belief(&self, coflow: CoflowId, flow: FlowId) -> Option<f64> {
        let ce = &self.coflows[&coflow];
        match self.config.mode {
            EstimatorMode::Pilot => {
                if ce.known.contains_key(&flow) {
                    None
                } else {
                    Some(ce.mean_known())
                }
            }
            EstimatorMode::ZeroForged => Some(0.0),
        }
    }
}

/// A non-clairvoyant wrapper: feeds estimated sizes into a clairvoyant
/// inner policy and guards against estimation-induced starvation.
pub struct SampledPolicy {
    inner: Box<dyn Policy>,
    label: String,
    estimator: SizeEstimator,
    tracer: Tracer,
    telemetry: Option<Arc<Telemetry>>,
    /// Rewritten-view buffer reused across allocations.
    scratch: Vec<FlowView>,
    /// Coflow grouping of the view, for the starvation guard's scan.
    groups: CoflowGroups,
}

impl SampledPolicy {
    /// Wrap an arbitrary clairvoyant policy.
    pub fn new(inner: Box<dyn Policy>, config: SamplingConfig) -> Self {
        let label = format!("Sampled-{}", inner.name());
        Self {
            inner,
            label,
            estimator: SizeEstimator::new(config),
            tracer: Tracer::disabled(),
            telemetry: None,
            scratch: Vec::new(),
            groups: CoflowGroups::default(),
        }
    }

    /// Sampling-based non-clairvoyant FVDF.
    pub fn fvdf(config: SamplingConfig) -> Self {
        Self::new(Box::new(FvdfPolicy::new()), config)
    }

    /// Sampling-based non-clairvoyant SEBF.
    pub fn sebf(config: SamplingConfig) -> Self {
        Self::new(Box::new(OrderedPolicy::sebf()), config)
    }

    /// Read-only access to the estimator, for error harnesses.
    pub fn estimator(&self) -> &SizeEstimator {
        &self.estimator
    }

    /// Rewrite one true [`FlowView`] into what the estimator believes.
    ///
    /// Known flows pass through untouched (so `pilot_fraction = 1.0` is the
    /// identity) unless the starvation guard boosted the coflow, in which
    /// case the whole coflow's perceived volume shrinks by `boost`. Unknown
    /// flows get `remaining = max(believed_size − disposed, 0) / boost`,
    /// where `disposed = original − remaining` is observable progress, split
    /// across raw/compressed in the true proportions. When the true raw side
    /// is exhausted the entire perceived remainder is parked on the
    /// compressed side, so no policy can issue a compress command the engine
    /// would have to idle through.
    fn rewrite(&self, f: &FlowView) -> FlowView {
        let ce = &self.estimator.coflows[&f.coflow];
        let belief = self.estimator.flow_belief(f.coflow, f.id);
        if belief.is_none() && ce.boost <= 1.0 {
            return *f;
        }
        let (size, remaining) = match belief {
            None => (f.original_size, f.volume() / ce.boost),
            Some(est_size) => {
                let disposed = (f.original_size - f.volume()).max(0.0);
                (
                    (est_size / ce.boost),
                    (est_size / ce.boost - disposed).max(0.0),
                )
            }
        };
        let (raw, compressed) = if f.raw <= VOLUME_EPS {
            (0.0, remaining)
        } else {
            let frac_raw = f.raw / f.volume();
            let raw = remaining * frac_raw;
            (raw, remaining - raw)
        };
        FlowView {
            original_size: size,
            raw,
            compressed,
            ..*f
        }
    }
}

impl Policy for SampledPolicy {
    fn name(&self) -> &str {
        &self.label
    }

    fn on_arrival(&mut self, coflow: &Coflow, now: f64) {
        let (pilots, estimated) = self.estimator.admit(coflow);
        self.tracer.emit(now, || TraceEvent::CoflowEstimated {
            coflow: coflow.id.0,
            pilots,
            flows: coflow.flows.len(),
            estimated_bytes: estimated,
            true_bytes: coflow.total_bytes(),
        });
        self.inner.on_arrival(coflow, now);
    }

    fn on_completion(&mut self, coflow: CoflowId, now: f64) {
        self.estimator.forget(coflow);
        self.inner.on_completion(coflow, now);
    }

    fn on_flow_complete(&mut self, flow: FlowId, coflow: CoflowId, size: f64, now: f64) {
        if let Some(estimated) = self.estimator.reveal(flow, coflow, size) {
            self.tracer.emit(now, || TraceEvent::EstimateRefined {
                coflow: coflow.0,
                estimated_bytes: estimated,
            });
        }
        self.inner.on_flow_complete(flow, coflow, size, now);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        self.inner.set_tracer(tracer);
    }

    fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry.clone();
        self.inner.set_telemetry(telemetry);
    }

    fn allocate(&mut self, view: &FabricView<'_>) -> Allocation {
        // Build the estimated view the inner policy is allowed to see. The
        // fabric, CPU, and compression references are the truth — only flow
        // volumes are beliefs — so feasibility clamps still bind.
        let mut flows = std::mem::take(&mut self.scratch);
        flows.clear();
        flows.extend(view.flows.iter().map(|f| self.rewrite(f)));
        let est_view = FabricView {
            now: view.now,
            slice: view.slice,
            fabric: view.fabric,
            cpu: view.cpu,
            compression: view.compression,
            flows,
        };
        let alloc = self.inner.allocate(&est_view);
        self.scratch = est_view.flows;

        // Aalo-style starvation guard: a tracked coflow that keeps receiving
        // no service (no rate, no compression slot) for `patience` rounds
        // has its perceived size shrunk by `logbase`, exponentially raising
        // its priority under any size-based inner policy. Clairvoyant
        // coflows (everything known, unboosted) are exempt, which keeps
        // `pilot_fraction = 1.0` bit-identical to the inner policy.
        let patience = self.estimator.config.patience.max(1);
        let logbase = self.estimator.config.logbase;
        // Tracked coflows and spans both ascend in coflow id: walk them in
        // step. A tracked coflow with no flow in the view was not served.
        self.groups.rebuild(&view.flows);
        let mut spans = self.groups.spans().iter().peekable();
        for (&cid, ce) in self.estimator.coflows.iter_mut() {
            while spans.next_if(|s| s.coflow < cid).is_some() {}
            let span = spans.next_if(|s| s.coflow == cid);
            if ce.unknown == 0 && ce.boost <= 1.0 {
                continue;
            }
            let served = span.is_some_and(|span| {
                self.groups.flows(span, &view.flows).any(|(_, f)| {
                    let cmd = alloc.get(f.id);
                    cmd.compress || cmd.rate > 0.0
                })
            });
            if served {
                ce.starved_rounds = 0;
            } else {
                ce.starved_rounds += 1;
                if ce.starved_rounds >= patience {
                    ce.boost *= logbase;
                    ce.starved_rounds = 0;
                }
            }
        }

        if let Some(t) = self.telemetry.as_deref() {
            t.record_estimation(
                self.estimator.tracked() as u64,
                self.estimator.mean_abs_rel_err(),
            );
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_fabric::FlowSpec;

    fn coflow(id: u64, sizes: &[f64]) -> Coflow {
        let mut b = Coflow::builder(id);
        for (i, &s) in sizes.iter().enumerate() {
            b = b.flow(FlowSpec::new(id * 100 + i as u64, 0, 1, s));
        }
        b.build()
    }

    #[test]
    fn pilot_indices_are_deterministic_and_clamped() {
        assert_eq!(pilot_indices(0, 0.5, 1), Vec::<usize>::new());
        assert_eq!(pilot_indices(4, 0.25, 1), vec![0]);
        assert_eq!(pilot_indices(4, 0.5, 1), vec![0, 2]);
        assert_eq!(pilot_indices(4, 1.0, 1), vec![0, 1, 2, 3]);
        // min_pilots lifts the count; it can never exceed n.
        assert_eq!(pilot_indices(3, 0.01, 2), vec![0, 1]);
        assert_eq!(pilot_indices(2, 0.01, 5), vec![0, 1]);
    }

    #[test]
    fn admission_estimate_extrapolates_from_pilots() {
        let mut est = SizeEstimator::new(SamplingConfig::with_pilot_fraction(0.25));
        let c = coflow(1, &[100.0, 200.0, 300.0, 400.0]);
        let (pilots, estimated) = est.admit(&c);
        assert_eq!(pilots, 1);
        // Single pilot is flow index 0 (size 100) → total estimate 4 × 100.
        assert_eq!(estimated, 400.0);
        assert_eq!(est.coverage(CoflowId(1)), Some((1, 4, 3)));
        let err = est.abs_rel_err(CoflowId(1)).unwrap();
        assert!((err - 600.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn reveal_refines_and_full_sampling_is_exact() {
        let mut est = SizeEstimator::new(SamplingConfig::with_pilot_fraction(0.25));
        let c = coflow(1, &[100.0, 200.0, 300.0, 400.0]);
        est.admit(&c);
        // Revealing a pilot changes nothing.
        assert_eq!(est.reveal(FlowId(100), CoflowId(1), 100.0), None);
        // Revealing an unknown flow refines the estimate.
        let refined = est.reveal(FlowId(103), CoflowId(1), 400.0).unwrap();
        assert_eq!(refined, 100.0 + 400.0 + 2.0 * 250.0);
        // Full sampling is exact from admission.
        let mut est = SizeEstimator::new(SamplingConfig::with_pilot_fraction(1.0));
        let (pilots, estimated) = est.admit(&c);
        assert_eq!(pilots, 4);
        assert_eq!(estimated, 1000.0);
        assert_eq!(est.abs_rel_err(CoflowId(1)), Some(0.0));
        assert_eq!(est.mean_abs_rel_err(), 0.0);
    }

    #[test]
    fn zero_forged_reports_zero_everywhere() {
        let mut est = SizeEstimator::new(SamplingConfig {
            mode: EstimatorMode::ZeroForged,
            ..SamplingConfig::default()
        });
        est.admit(&coflow(1, &[100.0, 200.0]));
        assert_eq!(est.estimated_total(CoflowId(1)), Some(0.0));
        assert_eq!(est.abs_rel_err(CoflowId(1)), Some(1.0));
        assert_eq!(est.flow_belief(CoflowId(1), FlowId(100)), Some(0.0));
    }

    #[test]
    fn starvation_guard_knobs_pin_the_defaults_bit_exactly() {
        // The builder with today's documented defaults must be *the* default
        // config, down to the last mantissa bit — so exposing the knobs can
        // never drift existing runs.
        let built = SamplingConfig::default().with_patience(2).with_logbase(1.2);
        let default = SamplingConfig::default();
        assert_eq!(built, default);
        assert_eq!(default.patience, 2);
        assert_eq!(default.logbase.to_bits(), 1.2f64.to_bits());
        // And a scheduling run under the built config is bit-identical to
        // one under `Default` — same estimates, same guard behaviour.
        let mut a = SampledPolicy::fvdf(built);
        let mut b = SampledPolicy::fvdf(SamplingConfig::default());
        let trace = || {
            vec![
                coflow(1, &[100.0, 200.0, 300.0, 400.0]),
                coflow(2, &[50.0, 60.0]),
            ]
        };
        let run = |p: &mut SampledPolicy, coflows: Vec<Coflow>| {
            swallow_fabric::Engine::new(
                swallow_fabric::Fabric::uniform(2, 10.0),
                coflows,
                swallow_fabric::SimConfig::default().with_slice(0.01),
            )
            .run(p)
        };
        let ra = run(&mut a, trace());
        let rb = run(&mut b, trace());
        for (x, y) in ra.coflows.iter().zip(rb.coflows.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.cct().unwrap().to_bits(), y.cct().unwrap().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "logbase")]
    fn sub_one_logbase_is_rejected() {
        SamplingConfig::default().with_logbase(0.9);
    }

    #[test]
    fn forget_drops_tracking() {
        let mut est = SizeEstimator::new(SamplingConfig::default());
        est.admit(&coflow(1, &[50.0]));
        assert_eq!(est.tracked(), 1);
        est.forget(CoflowId(1));
        assert_eq!(est.tracked(), 0);
        assert_eq!(est.estimated_total(CoflowId(1)), None);
    }
}
