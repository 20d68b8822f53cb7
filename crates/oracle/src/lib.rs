//! # swallow-oracle — the correctness oracle
//!
//! Scheduling results are easy to produce and hard to trust: a subtly wrong
//! engine still prints plausible CCT tables. This crate makes the
//! reproduction *self-checking* along four independent axes:
//!
//! 1. **Online invariants** ([`InvariantChecker`]) — a read-only
//!    [`BoundaryObserver`](swallow_fabric::BoundaryObserver) attached via
//!    [`SimConfig::with_check`](swallow_fabric::SimConfig::with_check) that
//!    asserts physics at every visited slice boundary: port capacities,
//!    non-negative residuals, work conservation, volume monotonicity, byte
//!    ledgers and fault idling.
//! 2. **Differential replay** ([`differential_replay`]) — the same workload
//!    through the naive slice loop, the skip-ahead fast path and the
//!    faults-enabled path (under a plan whose one fault falls after the run
//!    has ended), diffed bit-exactly.
//! 3. **Analytic bounds** ([`check_lower_bounds`]) — the concurrent-open-shop
//!    lower bounds from `swallow-sched::bounds` as hard floors under every
//!    measured metric.
//! 4. **Golden figures** ([`GoldenFigure`]) — committed normalized-CCT
//!    expectations for the paper-figure workloads, compared under explicit
//!    tolerances (`paper oracle <exp>` drives this from the bench binary).
//!
//! The four axes fail independently: an engine bug that preserves
//! path-equivalence still trips an invariant; a bias that respects all
//! invariants still lands below a bound or outside a golden band.

pub mod bounds_check;
pub mod diff;
pub mod golden;
pub mod invariants;

pub use bounds_check::{best_case_ratio, check_lower_bounds, BoundCheck, BoundReport};
pub use diff::{diff_results, differential_replay, DifferentialOutcome, LegReport};
pub use golden::{GoldenDiff, GoldenEntry, GoldenFigure, GoldenReport};
pub use invariants::{CheckConfig, Invariant, InvariantChecker, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swallow_fabric::engine::Reschedule;
    use swallow_fabric::{
        BoundaryObserver, BoundarySnapshot, Coflow, CoflowId, CpuModel, Engine, Fabric,
        FlowCommand, FlowId, FlowSnapshot, FlowSpec, NodeId, Policy, SimConfig,
    };
    use swallow_faults::{FaultPlan, Injector};
    use swallow_sched::Algorithm;

    /// A healthy flow snapshot the synthetic tests then corrupt.
    fn flow(id: u64, src: u32, dst: u32, cmd: FlowCommand) -> FlowSnapshot {
        FlowSnapshot {
            id: FlowId(id),
            coflow: CoflowId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            original_size: 100.0,
            raw: 40.0,
            compressed: 0.0,
            wire_bytes: 60.0,
            compressed_input: 0.0,
            compressible: true,
            cmd,
            ratio: 0.62,
        }
    }

    /// Show `checker` the boundary at t = 1 s holding `flows`.
    fn show(
        checker: &InvariantChecker,
        fabric: &Fabric,
        faults: &Injector,
        flows: &[FlowSnapshot],
    ) {
        checker.at_boundary(&BoundarySnapshot {
            now: 1.0,
            slice: 0.01,
            slice_idx: 100,
            fabric,
            cpu: &CpuModel::unconstrained(fabric.num_nodes(), 16),
            faults,
            flows,
            compression_speed: 0.0,
            active_coflows: 1,
            pending_coflows: 0,
            reschedules: 1,
            retired_wire: 0.0,
            retired_saved: 0.0,
        });
    }

    fn observe(fabric: &Fabric, flows: &[FlowSnapshot]) -> InvariantChecker {
        let checker = InvariantChecker::new();
        show(&checker, fabric, &FaultPlan::new().injector(), flows);
        checker
    }

    /// The acceptance-critical proof that the checker is not a rubber
    /// stamp: a deliberately overcommitted port must fire `port_capacity`.
    #[test]
    fn seeded_capacity_overcommit_fires() {
        let fabric = Fabric::uniform(2, 10.0);
        // Two flows out of node 0 at 8 B/s each on a 10 B/s port.
        let flows = [
            flow(0, 0, 1, FlowCommand::transmit(8.0)),
            flow(1, 0, 1, FlowCommand::transmit(8.0)),
        ];
        let checker = observe(&fabric, &flows);
        assert!(!checker.is_clean(), "overcommit must be caught");
        let violations = checker.violations();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::PortCapacity),
            "expected port_capacity, got {violations:?}"
        );
        // Both the egress of node 0 and the ingress of node 1 are over.
        assert!(violations.len() >= 2, "{violations:?}");
    }

    #[test]
    fn negative_residual_fires() {
        let fabric = Fabric::uniform(2, 10.0);
        let mut f = flow(0, 0, 1, FlowCommand::transmit(1.0));
        f.raw = -0.5;
        let checker = observe(&fabric, &[f]);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::NegativeResidual));
    }

    #[test]
    fn byte_ledger_and_inflation_fire() {
        let fabric = Fabric::uniform(2, 10.0);
        let mut f = flow(0, 0, 1, FlowCommand::transmit(1.0));
        f.wire_bytes = 150.0; // > original_size
        f.raw = 120.0; // volume > original_size
        let checker = observe(&fabric, &[f]);
        let kinds: Vec<_> = checker.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&Invariant::ByteLedger), "{kinds:?}");
        assert!(kinds.contains(&Invariant::VolumeInflation), "{kinds:?}");
    }

    #[test]
    fn volume_growth_between_boundaries_fires() {
        let fabric = Fabric::uniform(2, 10.0);
        let faults = FaultPlan::new().injector();
        let checker = InvariantChecker::new();
        let mut f = flow(0, 0, 1, FlowCommand::transmit(1.0));
        for raw in [40.0, 45.0] {
            f.raw = raw;
            show(&checker, &fabric, &faults, &[f]);
        }
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::VolumeInflation));
    }

    #[test]
    fn fault_idle_violation_fires() {
        let fabric = Fabric::uniform(2, 10.0);
        let faults = FaultPlan::new().crash(0, 0.0, Some(10.0)).injector();
        let checker = InvariantChecker::new();
        // Sender 0 is down at t = 1 but the flow still carries rate.
        let flows = [flow(0, 0, 1, FlowCommand::transmit(5.0))];
        show(&checker, &fabric, &faults, &flows);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::FaultIdle));
    }

    #[test]
    fn idle_flow_with_spare_ports_fires_work_conservation() {
        let fabric = Fabric::uniform(2, 10.0);
        let checker = observe(&fabric, &[flow(0, 0, 1, FlowCommand::IDLE)]);
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::WorkConservation));
    }

    #[test]
    fn bottlenecked_idle_flow_is_not_flagged() {
        let fabric = Fabric::uniform(3, 10.0);
        // Flow 1 saturates node 0's egress; flow 0 idles behind it.
        let flows = [
            flow(0, 0, 1, FlowCommand::IDLE),
            flow(1, 0, 2, FlowCommand::transmit(10.0)),
        ];
        let checker = observe(&fabric, &flows);
        assert!(checker.is_clean(), "{:?}", checker.violations());
    }

    fn small_trace() -> Vec<Coflow> {
        vec![
            Coflow::builder(0)
                .flow(FlowSpec::new(0, 0, 1, 800.0))
                .flow(FlowSpec::new(1, 0, 2, 300.0))
                .build(),
            Coflow::builder(1)
                .arrival(2.0)
                .flow(FlowSpec::new(2, 1, 2, 500.0))
                .build(),
        ]
    }

    #[test]
    fn a_real_engine_run_is_clean() {
        let fabric = Fabric::uniform(3, 100.0);
        let checker = Arc::new(InvariantChecker::new());
        let mut policy = Algorithm::Fvdf.make();
        let res = Engine::new(
            fabric,
            small_trace(),
            SimConfig::default()
                .with_slice(0.01)
                .with_reschedule(Reschedule::EventsOnly)
                .with_check(checker.clone()),
        )
        .run(policy.as_mut());
        assert!(res.all_complete());
        assert!(checker.boundaries() > 0, "the hook must actually run");
        assert!(checker.is_clean(), "{:?}", checker.violations());
    }

    #[test]
    fn differential_replay_on_a_small_trace_is_clean() {
        let fabric = Fabric::uniform(3, 100.0);
        let base = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly);
        let coflows = small_trace();
        let outcome = differential_replay(
            &fabric,
            &coflows,
            &base,
            Some(CheckConfig::default()),
            || Algorithm::Fvdf.make(),
        );
        assert!(outcome.result.all_complete());
        assert_eq!(outcome.legs.len(), 3, "three legs, each with a checker");
        assert!(
            outcome.is_clean(),
            "mismatches: {:?}, legs: {:?}",
            outcome.mismatches,
            outcome.legs
        );
        let report = check_lower_bounds(
            &coflows,
            &Fabric::uniform(3, 100.0),
            &outcome.result,
            1.0,
            None,
        );
        assert!(report.ok, "{:?}", report.checks);
    }

    #[test]
    fn sampled_policies_replay_clean_and_respect_bounds() {
        // The oracle's axes are estimation-agnostic: a non-clairvoyant
        // policy scheduling from pilot-sampled size estimates must still
        // satisfy every engine invariant, replay bit-identically across
        // engine legs, and land above the analytic floors — the estimates
        // may be wrong, physics may not be.
        use swallow_sched::{SampledPolicy, SamplingConfig};
        let fabric = Fabric::uniform(3, 100.0);
        let base = SimConfig::default()
            .with_slice(0.01)
            .with_reschedule(Reschedule::EventsOnly);
        let coflows = small_trace();
        let outcome = differential_replay(
            &fabric,
            &coflows,
            &base,
            Some(CheckConfig::default()),
            || {
                Box::new(SampledPolicy::fvdf(SamplingConfig::with_pilot_fraction(
                    0.5,
                )))
            },
        );
        assert!(outcome.result.all_complete());
        assert!(
            outcome.is_clean(),
            "mismatches: {:?}, legs: {:?}",
            outcome.mismatches,
            outcome.legs
        );
        let report = check_lower_bounds(
            &coflows,
            &Fabric::uniform(3, 100.0),
            &outcome.result,
            1.0,
            None,
        );
        assert!(report.ok, "{:?}", report.checks);
    }

    #[test]
    fn zero_forged_estimator_drains_and_checker_stays_silent() {
        // Deliberate corruption: an estimator that reports 0 bytes for
        // every coflow. The starvation guard plus work-conserving backfill
        // must still drain the system, and the invariant checker — which
        // watches the engine's ground truth, not the policy's beliefs —
        // must not produce a single false positive.
        use swallow_sched::{EstimatorMode, SampledPolicy, SamplingConfig};
        fn forged() -> SamplingConfig {
            SamplingConfig {
                mode: EstimatorMode::ZeroForged,
                ..SamplingConfig::default()
            }
        }
        let makers: [fn() -> SampledPolicy; 2] = [
            || SampledPolicy::fvdf(forged()),
            || SampledPolicy::sebf(forged()),
        ];
        for make in makers {
            let mut policy = make();
            let checker = Arc::new(InvariantChecker::new());
            let res = Engine::new(
                Fabric::uniform(3, 100.0),
                small_trace(),
                SimConfig::default()
                    .with_slice(0.01)
                    .with_reschedule(Reschedule::EventsOnly)
                    .with_check(checker.clone()),
            )
            .run(&mut policy);
            assert!(
                res.all_complete(),
                "{}: zero-forged estimates must not stall the fabric",
                policy.name()
            );
            assert!(checker.boundaries() > 0, "the hook must actually run");
            assert!(
                checker.is_clean(),
                "{}: estimation error caused invariant false-positives: {:?}",
                policy.name(),
                checker.violations()
            );
        }
    }

    #[test]
    fn bound_report_catches_impossible_results() {
        let fabric = Fabric::uniform(3, 100.0);
        let coflows = small_trace();
        let mut policy = Algorithm::Fvdf.make();
        let mut res = Engine::new(
            fabric.clone(),
            coflows.clone(),
            SimConfig::default().with_slice(0.01),
        )
        .run(policy.as_mut());
        // Forge a physically impossible makespan.
        res.makespan = 1e-3;
        let report = check_lower_bounds(&coflows, &fabric, &res, 1.0, None);
        assert!(!report.ok);
        assert!(report.failures().any(|c| c.metric == "makespan"));
    }
}
