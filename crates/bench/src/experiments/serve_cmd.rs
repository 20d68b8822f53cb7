//! `paper serve` / `paper slam` — the service-mode harness.
//!
//! Both drive [`swallow_core::CoflowService`]: a background scheduler loop
//! fed by streaming arrivals, with deadline admission control in front of
//! the fabric. `serve` replays a deadline-annotated standard trace at a
//! comfortable pace and reports admission/miss statistics; `slam` pushes a
//! much larger stream through the bounded arrival queue as fast as `submit`
//! accepts it, retrying on the retryable
//! [`swallow_core::SwallowError::Overloaded`].
//!
//! A `SERVE_report.json` is written either way. Its bytes are a pure
//! function of the flags (`same seed ⇒ identical bytes`): only *simulated*
//! quantities are reported. What the service costs in wall-clock time —
//! arrivals per second, `submit` latency percentiles — is measured by the
//! `service-slam` workload of `bash benchmark/run.sh`
//! (`core.arrivals_per_s`, `core.submit_p99_us`), not here.

use serde::Serialize;

use crate::scenario::deadline_trace;
use swallow_core::service::CoflowService;
use swallow_fabric::{units, Fabric};
use swallow_sched::Algorithm;

/// Options shared by `serve` and `slam`.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Scheduling algorithm (registry name).
    pub policy: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// Arrival count (`None` → 60 for serve, 12 000 for slam).
    pub coflows: Option<usize>,
    /// Arrival-queue capacity.
    pub queue: usize,
    /// Report path.
    pub out: String,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            policy: None,
            seed: 7,
            coflows: None,
            queue: 4096,
            out: "SERVE_report.json".to_string(),
        }
    }
}

/// The artifact written to `SERVE_report.json`: simulated quantities only,
/// so the bytes are deterministic for a given flag set.
#[derive(Debug, Serialize)]
struct ServeReport {
    mode: String,
    policy: String,
    seed: u64,
    queue_capacity: usize,
    num_nodes: usize,
    submitted: usize,
    admitted: u64,
    rejected: u64,
    completed: u64,
    deadline_misses: u64,
    deadline_miss_rate: f64,
    avg_cct: f64,
    makespan: f64,
    ok: bool,
}

fn die(why: &str) -> ! {
    crate::warn!("paper serve: {why}");
    std::process::exit(2);
}

/// `paper serve`: stream a deadline-annotated standard trace through the
/// service and report admission + deadline statistics.
pub fn run_serve(opts: &ServeOpts) {
    run(opts, false)
}

/// `paper slam`: the sustained-load run. Exits non-zero when the run is
/// unhealthy (an admitted coflow did not complete).
pub fn run_slam(opts: &ServeOpts) {
    run(opts, true)
}

fn run(opts: &ServeOpts, slam: bool) {
    let algorithm = match &opts.policy {
        None => Algorithm::FvdfDeadline,
        Some(name) => Algorithm::parse(name).unwrap_or_else(|| {
            let known: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
            die(&format!("unknown policy {name:?} (known: {known:?})"))
        }),
    };
    // serve: the std_trace offered load (super-saturated, mean 2.0) with
    // slack straddling 1 — exercises both the admission reject path and
    // deadline misses under contention. slam: a light offered load (mean
    // 500.0) with generous slack plus a 10 s admission guard, so every
    // admitted deadline is met and the run's cost is dominated by arrival
    // handling.
    let (mode, num_coflows, num_nodes, slack, interarrival) = if slam {
        ("slam", opts.coflows.unwrap_or(12_000), 24, (10.0, 40.0), 500.0)
    } else {
        ("serve", opts.coflows.unwrap_or(60), 24, (0.9, 6.0), 2.0)
    };
    let bandwidth = units::mbps(100.0);
    let trace = deadline_trace(
        num_coflows,
        num_nodes,
        bandwidth,
        opts.seed,
        slack.0,
        slack.1,
        interarrival,
    );
    let submitted = trace.len();

    crate::report!(
        "paper {mode}: {submitted} arrivals, {} on {num_nodes}×{} ports, queue {}",
        algorithm.name(),
        "100 Mbps",
        opts.queue
    );

    let mut builder = CoflowService::builder()
        .fabric(Fabric::uniform(num_nodes, bandwidth))
        .algorithm(algorithm)
        .queue_capacity(opts.queue);
    if slam {
        // The slam health gate demands zero deadline misses, so admission
        // must reserve absolute headroom for contention on top of the
        // isolation bound: only coflows that can absorb 10 s of queueing
        // delay are admitted. Tighter-deadline arrivals count as
        // rejections (the reject path under sustained load), not misses.
        builder = builder.admission_guard(10.0);
    }
    let mut svc = builder
        .build()
        .unwrap_or_else(|e| die(&format!("service failed to start: {e}")));

    for coflow in trace {
        loop {
            match svc.submit(coflow.clone()) {
                Ok(_verdict) => break,
                Err(e) if e.is_retryable() => {
                    // Queue full: the scheduler loop is catching up. Yield
                    // and resubmit — the backpressure contract of service
                    // mode.
                    std::thread::yield_now();
                }
                Err(e) => die(&format!("submit failed: {e}")),
            }
        }
    }
    let report = svc
        .finish()
        .unwrap_or_else(|e| die(&format!("service shutdown failed: {e}")));
    let ok = report.completed == report.admitted && report.result.all_complete();

    crate::report!(
        "  admitted {} / rejected {} (infeasible deadlines), completed {}",
        report.admitted,
        report.rejected,
        report.completed
    );
    crate::report!(
        "  deadline misses {} (rate {:.4}); sim avg CCT {:.3} s, makespan {:.1} s",
        report.deadline_misses,
        report.deadline_miss_rate,
        report.result.avg_cct(),
        report.result.makespan
    );

    let artifact = ServeReport {
        mode: mode.to_string(),
        policy: algorithm.name().to_string(),
        seed: opts.seed,
        queue_capacity: opts.queue,
        num_nodes,
        submitted,
        admitted: report.admitted,
        rejected: report.rejected,
        completed: report.completed,
        deadline_misses: report.deadline_misses,
        deadline_miss_rate: report.deadline_miss_rate,
        avg_cct: report.result.avg_cct(),
        makespan: report.result.makespan,
        ok,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("report serializes");
    crate::report::write_report(&opts.out, format!("{json}\n"));
    crate::report!("  wrote {}", opts.out);

    if !ok {
        crate::warn!(
            "paper {mode}: unhealthy run ({} admitted, {} completed)",
            report.admitted,
            report.completed
        );
        std::process::exit(1);
    }
}
