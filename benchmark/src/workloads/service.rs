//! `service-slam`: a deadline-annotated trace fed to `CoflowService` by one
//! closed-loop client — each `submit` is retried, after a bounded backoff,
//! while the bounded queue answers `Overloaded`, and the next coflow is sent
//! when the verdict returns. The scheduler thread behind the queue is the
//! second busy thread.

use super::{digest, summarize, Checksum, Metrics, RepOut, Size, Workload};
use crate::alloc;
use crate::span::{CallLog, Recorder};
use serde_json::{json, Value};
use std::time::{Duration, Instant};
use swallow_core::CoflowService;
use swallow_fabric::{units, Coflow, Fabric};
use swallow_metrics::percentile;
use swallow_sched::{AdmissionController, Algorithm};
use swallow_workload::{CoflowGen, DeadlineSpec, GenConfig, SizeDist, Sizing};

/// Ports, at 1 Gbps each.
const PORTS: usize = 150;
/// Offered raw-byte load as a share of the fabric's capacity.
const OFFERED: f64 = 0.3;
/// Deadline slack over the isolation bound, uniform: below 1 is infeasible
/// and must be rejected, above it is admitted.
const SLACK: (f64, f64) = (0.8, 4.0);
/// Largest over smallest coflow size (12.5–375 MB).
const SIZE_RANGE: f64 = 30.0;
/// Capacity of the service's arrival queue.
const QUEUE: usize = 4096;
/// Coflows submitted, calibrated so one rep takes 4–6 s.
const COFLOWS: usize = 120_000;
/// The client's wait after an `Overloaded` answer: it doubles from the first
/// to the second value and starts over once a submit is accepted. Sleeping,
/// not spinning, keeps the client off the queue's lock while the scheduler
/// thread drains, so the rep times the service and not the harness.
/// A millisecond lets the scheduler thread free some thirty slots; waits of
/// 50 µs woke the client so often that the scheduler thread beside it ran
/// 45 % slower on the two-core reference box.
const BACKOFF: (Duration, Duration) = (Duration::from_millis(1), Duration::from_millis(16));
/// Regime guard: at most this share of `submit` calls may be retries.
const MAX_RETRY_SHARE: f64 = 0.25;

struct ServiceSlam {
    gen: GenConfig,
    trace: Vec<Coflow>,
    fabric: Fabric,
    cap: f64,
}

/// Set `service-slam` up: generate the deadline-annotated trace.
pub fn build(seed: u64, size: Size) -> (Box<dyn Workload>, Metrics) {
    let cap = units::gbps(1.0);
    let (sizes, mean_size) = super::fig1_body(cap, SIZE_RANGE);
    let gap = mean_size / (OFFERED * PORTS as f64 * cap);
    let gen = GenConfig {
        num_coflows: size.pick(COFLOWS, 500),
        num_nodes: PORTS,
        interarrival: SizeDist::Exp { mean: gap },
        width: SizeDist::Uniform { lo: 1.0, hi: 8.0 },
        flow_size: sizes,
        sizing: Sizing::PerCoflow { skew: 0.3 },
        compressible_fraction: 1.0,
        deadline: Some(DeadlineSpec::uniform(cap, SLACK.0, SLACK.1)),
        seed,
    };
    let t = Instant::now();
    let trace = CoflowGen::new(gen.clone()).generate();
    let mut setup = Metrics::new();
    setup.insert("workload.gen_s", t.elapsed().as_secs_f64());
    let w = ServiceSlam {
        gen,
        trace,
        fabric: Fabric::uniform(PORTS, cap),
        cap,
    };
    (Box::new(w), setup)
}

impl ServiceSlam {
    /// Standalone loop over `AdmissionController::judge` on the trace: what
    /// the admission test costs alone, and the share it rejects.
    fn probe_admission(&self, m: &mut Metrics) {
        // The service's default guard is one slice (0.01 s).
        let mut admission = AdmissionController::new(self.fabric.clone());
        admission.set_guard(0.01);
        let t = Instant::now();
        let rejected = self
            .trace
            .iter()
            .filter(|c| !std::hint::black_box(admission.judge(c)).admitted)
            .count();
        let n = self.trace.len() as f64;
        m.insert(
            "sched.admission_judge_ns",
            t.elapsed().as_secs_f64() * 1e9 / n,
        );
        m.insert("sched.admission_reject_share", rejected as f64 / n);
    }
}

impl Workload for ServiceSlam {
    fn params(&self) -> Value {
        json!({
            "coflows": self.gen.num_coflows,
            "ports": PORTS,
            "port_gbps": 1.0,
            "offered_load": OFFERED,
            "slack": [SLACK.0, SLACK.1],
            "queue": QUEUE,
            "policy": "FVDF-D",
            "clients": 1,
            "loop": "closed",
            "generator": format!("{:?}", self.gen),
        })
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepOut {
        let traced = rec.on();
        let n = self.trace.len();
        let mut svc = CoflowService::builder()
            .fabric(self.fabric.clone())
            .algorithm(Algorithm::FvdfDeadline)
            .queue_capacity(QUEUE)
            .build()
            .expect("a valid service configuration");
        let mut submit_log = CallLog::new("core.submit", rec);
        let mut latencies_us = Vec::with_capacity(if traced { n } else { 0 });
        let (mut calls, mut retries, mut fatal) = (0u64, 0u64, 0u64);
        // `submit` takes the coflow by value. The copies it is handed first
        // are made here, outside the timed and counted window; only a retry
        // has to copy again inside it.
        let first_copies = self.trace.clone();
        let allocs_before = alloc::allocations();

        let t0 = Instant::now();
        rec.span("core.submit_loop", |rec| {
            for (coflow, first_copy) in self.trace.iter().zip(first_copies) {
                let first_attempt = traced.then(Instant::now);
                let mut attempt = first_copy;
                let mut wait = BACKOFF.0;
                loop {
                    calls += 1;
                    let verdict = if traced {
                        submit_log.time(|| svc.submit(attempt))
                    } else {
                        svc.submit(attempt)
                    };
                    match verdict {
                        Ok(_) => break,
                        Err(e) if e.is_retryable() => {
                            // Queue full: the scheduler thread is catching up.
                            retries += 1;
                            std::thread::sleep(wait);
                            wait = (wait * 2).min(BACKOFF.1);
                            attempt = coflow.clone();
                        }
                        Err(_) => {
                            fatal += 1;
                            break;
                        }
                    }
                }
                if let Some(t) = first_attempt {
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            rec.adopt(&mut submit_log);
        });
        let submit_window_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let report = rec
            .span("core.finish_drain", |_| svc.finish())
            .expect("the scheduler thread shuts down cleanly");
        let drain_s = t1.elapsed().as_secs_f64();
        let (sim_sum, incomplete) = rec.span("check", |_| digest(&report.result));
        let wall_s = t0.elapsed().as_secs_f64();
        let allocs = alloc::allocations() - allocs_before;

        let mut sum = Checksum::default();
        for w in [
            sim_sum,
            report.admitted,
            report.rejected,
            report.deadline_misses,
        ] {
            sum.word(w);
        }
        // Admitted coflows the engine never saw are lost work too.
        let lost = report.admitted.abs_diff(report.result.coflows.len() as u64);
        let failed = fatal + incomplete + lost;

        let sim = summarize(&report.result, PORTS, self.cap);
        let mut m = Metrics::new();
        m.insert("wall_s", wall_s);
        m.insert("sim_avg_cct_s", sim.avg_cct_s);
        m.insert("wire_ratio", sim.wire_ratio);
        m.insert("core.arrivals_per_s", n as f64 / submit_window_s);
        m.insert("core.admitted", report.admitted as f64);
        m.insert("core.rejected", report.rejected as f64);
        m.insert("core.deadline_miss_rate", report.deadline_miss_rate);
        m.insert("core.submit_calls", calls as f64);
        m.insert("core.submit_retries", retries as f64);
        m.insert("core.retry_share", retries as f64 / calls as f64);
        if traced {
            m.insert("core.submit_busy_s", submit_log.hist.sum_s());
            m.insert("core.submit_p50_us", percentile(&latencies_us, 50.0));
            m.insert("core.submit_p99_us", percentile(&latencies_us, 99.0));
            m.insert("core.submit_p999_us", percentile(&latencies_us, 99.9));
            m.insert("core.finish_drain_s", drain_s);
            m.insert("core.allocs_per_submit", allocs as f64 / calls as f64);
            m.insert("fabric.mean_port_util", sim.mean_port_util);
            m.insert("fabric.mean_active_coflows", sim.mean_active_coflows);
            rec.span("sched.admission_probe", |_| self.probe_admission(&mut m));
        }

        RepOut {
            metrics: m,
            checksum: sum.finish(),
            attempted: n as u64,
            failed,
        }
    }

    fn regime_problems(&self, medians: &Metrics) -> Vec<String> {
        let mut problems = Vec::new();
        if medians["core.admitted"] < 1.0 || medians["core.rejected"] < 1.0 {
            problems.push(format!(
                "service-slam: admission must both admit and reject, got {} admitted and {} rejected",
                medians["core.admitted"], medians["core.rejected"]
            ));
        }
        let retry_share = medians["core.retry_share"];
        if retry_share > MAX_RETRY_SHARE {
            problems.push(format!(
                "service-slam: {retry_share:.3} of the submit calls were retries, above \
                 {MAX_RETRY_SHARE}: the client is loading the queue it should be feeding"
            ));
        }
        problems
    }
}
