//! # swallow-faults
//!
//! Deterministic fault injection for the Swallow reproduction. A
//! [`FaultPlan`] is a declarative list of misbehaviours — worker crashes
//! with restarts, dropped heartbeats, link-capacity degradation, slowed
//! pushes, CPU-core revocation — each pinned to a time window on the run's
//! clock (simulated seconds in the engine, wall-clock seconds since boot in
//! the master/worker runtime). An [`Injector`] answers pure, side-effect-free
//! queries about the plan ("is worker 3 down at t = 1.25?"), so every
//! consumer — the fluid engine, the master's liveness sweep, the cluster
//! runner — observes the *same* faults at the same instants. Plans built
//! from the same seed are identical, which is what makes fault runs as
//! reproducible as clean ones.
//!
//! Like `swallow-trace`, this crate sits below the runtime layers and speaks
//! plain `u32` node/worker ids and `f64` seconds, so any layer can depend on
//! it without cycles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tolerance when comparing times against window boundaries. Matches the
/// engine's slice-boundary tolerance so a fault scheduled exactly on a slice
/// edge is observed on that slice in both the naive and skip-ahead paths.
const BOUNDARY_EPS: f64 = 1e-9;

/// One scheduled misbehaviour. Windows are half-open: a fault with
/// `from`/`until` is active for `from <= t < until`; a crash is in force for
/// `at <= t < restart_at` (forever when `restart_at` is `None`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "fault", rename_all = "snake_case")]
pub enum FaultKind {
    /// The worker process dies at `at` and (optionally) comes back at
    /// `restart_at`. While down it moves no bytes, compresses nothing, and
    /// sends no heartbeats.
    WorkerCrash {
        worker: u32,
        at: f64,
        restart_at: Option<f64>,
    },
    /// Heartbeats from `worker` are lost in `[from, until)` although the
    /// worker itself keeps running — the classic "suspected but alive"
    /// failure-detector scenario.
    HeartbeatDrop { worker: u32, from: f64, until: f64 },
    /// The fabric ports of `node` run at `factor` (in `(0, 1]`) of their
    /// nominal capacity during `[from, until)`.
    LinkDegrade {
        node: u32,
        factor: f64,
        from: f64,
        until: f64,
    },
    /// Pushes originating at `worker` incur an extra `delay_secs` of startup
    /// latency during `[from, until)` (slow-start / lossy first RTTs).
    SlowPush {
        worker: u32,
        delay_secs: f64,
        from: f64,
        until: f64,
    },
    /// `cores` CPU cores of `node` are revoked (e.g. reclaimed by a
    /// co-tenant) during `[from, until)`, shrinking the compression budget.
    CoreRevocation {
        node: u32,
        cores: u32,
        from: f64,
        until: f64,
    },
}

impl FaultKind {
    /// Stable snake_case label, used in trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::WorkerCrash { .. } => "worker_crash",
            FaultKind::HeartbeatDrop { .. } => "heartbeat_drop",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::SlowPush { .. } => "slow_push",
            FaultKind::CoreRevocation { .. } => "core_revocation",
        }
    }

    /// The node/worker the fault lands on.
    pub fn node(&self) -> u32 {
        match *self {
            FaultKind::WorkerCrash { worker, .. } => worker,
            FaultKind::HeartbeatDrop { worker, .. } => worker,
            FaultKind::LinkDegrade { node, .. } => node,
            FaultKind::SlowPush { worker, .. } => worker,
            FaultKind::CoreRevocation { node, .. } => node,
        }
    }

    /// `(start, end)` of the active window; `end` is `None` for a crash
    /// without restart.
    fn window(&self) -> (f64, Option<f64>) {
        match *self {
            FaultKind::WorkerCrash { at, restart_at, .. } => (at, restart_at),
            FaultKind::HeartbeatDrop { from, until, .. } => (from, Some(until)),
            FaultKind::LinkDegrade { from, until, .. } => (from, Some(until)),
            FaultKind::SlowPush { from, until, .. } => (from, Some(until)),
            FaultKind::CoreRevocation { from, until, .. } => (from, Some(until)),
        }
    }

    /// Is the fault in force at `t`?
    fn active_at(&self, t: f64) -> bool {
        let (start, end) = self.window();
        let before_end = match end {
            Some(e) => t + BOUNDARY_EPS < e,
            None => true,
        };
        t + BOUNDARY_EPS >= start && before_end
    }
}

/// A declarative, serializable list of [`FaultKind`]s. Build one explicitly
/// with the chained constructors or derive one from a seed with
/// [`FaultPlan::seeded`]; either way the plan is plain data — hand it to an
/// [`Injector`] to consult it at run time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an arbitrary fault.
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// Crash `worker` at `at`, restarting at `restart_at` (never, if `None`).
    pub fn crash(self, worker: u32, at: f64, restart_at: Option<f64>) -> Self {
        if let Some(r) = restart_at {
            assert!(r > at, "restart must come after the crash");
        }
        self.with(FaultKind::WorkerCrash {
            worker,
            at,
            restart_at,
        })
    }

    /// Drop every heartbeat from `worker` during `[from, until)`.
    pub fn drop_heartbeats(self, worker: u32, from: f64, until: f64) -> Self {
        assert!(until > from, "fault window must be non-empty");
        self.with(FaultKind::HeartbeatDrop {
            worker,
            from,
            until,
        })
    }

    /// Run `node`'s ports at `factor` of nominal capacity in `[from, until)`.
    pub fn degrade_link(self, node: u32, factor: f64, from: f64, until: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation factor must be in (0, 1]"
        );
        assert!(until > from, "fault window must be non-empty");
        self.with(FaultKind::LinkDegrade {
            node,
            factor,
            from,
            until,
        })
    }

    /// Add `delay_secs` of startup latency to pushes from `worker` in
    /// `[from, until)`.
    pub fn slow_push(self, worker: u32, delay_secs: f64, from: f64, until: f64) -> Self {
        assert!(delay_secs >= 0.0, "delay must be non-negative");
        assert!(until > from, "fault window must be non-empty");
        self.with(FaultKind::SlowPush {
            worker,
            delay_secs,
            from,
            until,
        })
    }

    /// Revoke `cores` cores of `node` during `[from, until)`.
    pub fn revoke_cores(self, node: u32, cores: u32, from: f64, until: f64) -> Self {
        assert!(cores > 0, "revoking zero cores is a no-op");
        assert!(until > from, "fault window must be non-empty");
        self.with(FaultKind::CoreRevocation {
            node,
            cores,
            from,
            until,
        })
    }

    /// A representative mixed plan derived deterministically from `seed`:
    /// two worker crashes (both restart), one heartbeat brown-out, two link
    /// degradations, one core revocation and one slow-push window, all
    /// scheduled inside `[0, horizon]` on a fabric of `nodes` machines. The
    /// same `(seed, nodes, horizon)` always yields the identical plan.
    pub fn seeded(seed: u64, nodes: u32, horizon: f64) -> Self {
        assert!(nodes >= 2, "need at least two nodes to fault one");
        assert!(horizon > 0.0, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..2 {
            let worker = rng.gen_range(0..nodes);
            let at = rng.gen_range(0.05..0.45) * horizon;
            let down_for = rng.gen_range(0.05..0.15) * horizon;
            plan = plan.crash(worker, at, Some(at + down_for));
        }
        let worker = rng.gen_range(0..nodes);
        let from = rng.gen_range(0.1..0.6) * horizon;
        let until = from + rng.gen_range(0.05..0.2) * horizon;
        plan = plan.drop_heartbeats(worker, from, until);
        for _ in 0..2 {
            let node = rng.gen_range(0..nodes);
            let from = rng.gen_range(0.0..0.6) * horizon;
            let until = from + rng.gen_range(0.1..0.3) * horizon;
            let factor = rng.gen_range(0.25..0.75);
            plan = plan.degrade_link(node, factor, from, until);
        }
        let node = rng.gen_range(0..nodes);
        let from = rng.gen_range(0.0..0.5) * horizon;
        let until = from + rng.gen_range(0.1..0.4) * horizon;
        let cores = rng.gen_range(1..=4);
        plan = plan.revoke_cores(node, cores, from, until);
        let worker = rng.gen_range(0..nodes);
        let from = rng.gen_range(0.0..0.5) * horizon;
        let until = from + rng.gen_range(0.1..0.3) * horizon;
        plan.slow_push(worker, 0.01, from, until)
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Freeze the plan into a cheaply clonable [`Injector`].
    pub fn injector(&self) -> Injector {
        Injector {
            faults: Arc::new(self.faults.clone()),
        }
    }
}

/// One observable start or end of a fault window, as reported by
/// [`Injector::transitions_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTransition {
    /// [`FaultKind::label`] of the fault changing state.
    pub kind: &'static str,
    /// Node/worker the fault lands on.
    pub node: u32,
    /// `true` when the window opens at this boundary, `false` when it
    /// closes.
    pub begins: bool,
}

/// Read-only oracle over a frozen [`FaultPlan`]. Every method is a pure
/// function of the query time, so concurrent consumers (engine slices,
/// worker daemons, the master's liveness sweep) agree on the fault state
/// without synchronization. `Injector::default()` injects nothing and all
/// queries short-circuit on the empty plan.
#[derive(Debug, Clone, Default)]
pub struct Injector {
    faults: Arc<Vec<FaultKind>>,
}

impl Injector {
    /// An injector over an explicit plan.
    pub fn new(plan: &FaultPlan) -> Self {
        plan.injector()
    }

    /// True when no faults are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Is `worker` crashed (and not yet restarted) at `t`?
    pub fn is_worker_down(&self, worker: u32, t: f64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, FaultKind::WorkerCrash { worker: w, .. } if *w == worker) && f.active_at(t)
        })
    }

    /// Are heartbeats from `worker` suppressed at `t`? True both during a
    /// heartbeat-drop window and while the worker is crashed.
    pub fn heartbeat_dropped(&self, worker: u32, t: f64) -> bool {
        self.is_worker_down(worker, t)
            || self.faults.iter().any(|f| {
                matches!(f, FaultKind::HeartbeatDrop { worker: w, .. } if *w == worker)
                    && f.active_at(t)
            })
    }

    /// Fraction of nominal link capacity available at `node` at time `t`
    /// (1.0 when undegraded). Overlapping degradations take the minimum.
    pub fn link_factor(&self, node: u32, t: f64) -> f64 {
        let mut factor = 1.0_f64;
        for f in self.faults.iter() {
            if let FaultKind::LinkDegrade {
                node: n, factor: x, ..
            } = f
            {
                if *n == node && f.active_at(t) {
                    factor = factor.min(*x);
                }
            }
        }
        factor
    }

    /// Cores of `node` revoked at `t` (sum over overlapping revocations).
    pub fn revoked_cores(&self, node: u32, t: f64) -> u32 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                FaultKind::CoreRevocation { node: n, cores, .. }
                    if *n == node && f.active_at(t) =>
                {
                    Some(*cores)
                }
                _ => None,
            })
            .sum()
    }

    /// Extra push-startup delay for `worker` at `t`, in seconds (sum over
    /// overlapping slow-push windows; 0.0 when unaffected).
    pub fn push_delay(&self, worker: u32, t: f64) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                FaultKind::SlowPush {
                    worker: w,
                    delay_secs,
                    ..
                } if *w == worker && f.active_at(t) => Some(*delay_secs),
                _ => None,
            })
            .sum()
    }

    /// The earliest window boundary strictly after `t`, if any. Consumers
    /// that cache fault state use this to know when it next changes (the
    /// engine also refuses to skip past it).
    pub fn next_change_after(&self, t: f64) -> Option<f64> {
        let mut next: Option<f64> = None;
        let mut consider = |b: f64| {
            if b > t + BOUNDARY_EPS {
                match next {
                    Some(n) if b >= n => {}
                    _ => next = Some(b),
                }
            }
        };
        for f in self.faults.iter() {
            let (start, end) = f.window();
            consider(start);
            if let Some(e) = end {
                consider(e);
            }
        }
        next
    }

    /// All fault windows opening or closing at boundary time `t` (within
    /// tolerance). Used by consumers to emit one trace event per transition.
    pub fn transitions_at(&self, t: f64) -> Vec<FaultTransition> {
        let mut out = Vec::new();
        for f in self.faults.iter() {
            let (start, end) = f.window();
            if (start - t).abs() <= BOUNDARY_EPS {
                out.push(FaultTransition {
                    kind: f.label(),
                    node: f.node(),
                    begins: true,
                });
            }
            if let Some(e) = end {
                if (e - t).abs() <= BOUNDARY_EPS {
                    out.push(FaultTransition {
                        kind: f.label(),
                        node: f.node(),
                        begins: false,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_injector_injects_nothing() {
        let inj = Injector::default();
        assert!(inj.is_empty());
        assert!(!inj.is_worker_down(0, 10.0));
        assert!(!inj.heartbeat_dropped(0, 10.0));
        assert_eq!(inj.link_factor(0, 10.0), 1.0);
        assert_eq!(inj.revoked_cores(0, 10.0), 0);
        assert_eq!(inj.push_delay(0, 10.0), 0.0);
        assert_eq!(inj.next_change_after(f64::NEG_INFINITY), None);
    }

    #[test]
    fn crash_window_is_half_open_and_restart_recovers() {
        let inj = FaultPlan::new().crash(3, 1.0, Some(2.0)).injector();
        assert!(!inj.is_worker_down(3, 0.5));
        assert!(inj.is_worker_down(3, 1.0));
        assert!(inj.is_worker_down(3, 1.5));
        assert!(!inj.is_worker_down(3, 2.0));
        assert!(!inj.is_worker_down(2, 1.5), "other workers unaffected");
        // Crashes also suppress heartbeats.
        assert!(inj.heartbeat_dropped(3, 1.5));
        assert!(!inj.heartbeat_dropped(3, 2.5));
    }

    #[test]
    fn crash_without_restart_is_permanent() {
        let inj = FaultPlan::new().crash(1, 0.5, None).injector();
        assert!(inj.is_worker_down(1, 1e9));
        assert_eq!(inj.next_change_after(0.0), Some(0.5));
        assert_eq!(inj.next_change_after(0.5), None);
    }

    #[test]
    fn link_degradations_compose_by_minimum() {
        let inj = FaultPlan::new()
            .degrade_link(0, 0.5, 1.0, 3.0)
            .degrade_link(0, 0.8, 2.0, 4.0)
            .injector();
        assert_eq!(inj.link_factor(0, 0.0), 1.0);
        assert_eq!(inj.link_factor(0, 1.5), 0.5);
        assert_eq!(inj.link_factor(0, 2.5), 0.5);
        assert_eq!(inj.link_factor(0, 3.5), 0.8);
        assert_eq!(inj.link_factor(1, 2.5), 1.0);
    }

    #[test]
    fn revocations_and_delays_sum_over_overlaps() {
        let inj = FaultPlan::new()
            .revoke_cores(2, 1, 0.0, 10.0)
            .revoke_cores(2, 2, 5.0, 10.0)
            .slow_push(2, 0.1, 0.0, 10.0)
            .slow_push(2, 0.2, 5.0, 10.0)
            .injector();
        assert_eq!(inj.revoked_cores(2, 1.0), 1);
        assert_eq!(inj.revoked_cores(2, 6.0), 3);
        assert!((inj.push_delay(2, 1.0) - 0.1).abs() < 1e-12);
        assert!((inj.push_delay(2, 6.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn next_change_walks_every_boundary_in_order() {
        let inj = FaultPlan::new()
            .crash(0, 2.0, Some(5.0))
            .degrade_link(1, 0.5, 1.0, 3.0)
            .injector();
        let mut t = f64::NEG_INFINITY;
        let mut seen = Vec::new();
        while let Some(b) = inj.next_change_after(t) {
            seen.push(b);
            t = b;
        }
        assert_eq!(seen, vec![1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn transitions_report_window_edges() {
        let inj = FaultPlan::new().crash(4, 1.0, Some(2.0)).injector();
        let begin = inj.transitions_at(1.0);
        assert_eq!(begin.len(), 1);
        assert_eq!(begin[0].kind, "worker_crash");
        assert_eq!(begin[0].node, 4);
        assert!(begin[0].begins);
        let end = inj.transitions_at(2.0);
        assert_eq!(end.len(), 1);
        assert!(!end[0].begins);
        assert!(inj.transitions_at(1.5).is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_restartable() {
        let a = FaultPlan::seeded(7, 24, 100.0);
        let b = FaultPlan::seeded(7, 24, 100.0);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 24, 100.0);
        assert_ne!(a, c, "different seeds should differ");
        // Every seeded crash restarts inside the horizon envelope, so fault
        // runs can always finish.
        for f in a.faults() {
            if let FaultKind::WorkerCrash { restart_at, .. } = f {
                let r = restart_at.expect("seeded crashes restart");
                assert!(r <= 100.0 * 0.6 + 1e-9);
            }
        }
    }

    #[test]
    fn plans_serde_roundtrip() {
        // The JSON bytes are the subject; the offline stub serializer
        // renders every struct as `{}`, so the property only exists under
        // a real toolchain.
        swallow_metrics::skip_if_stub!();
        let plan = FaultPlan::seeded(42, 8, 50.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
