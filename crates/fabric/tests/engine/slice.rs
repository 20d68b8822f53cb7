//! A slice length that is not a positive, finite number is refused where it
//! enters. With δ = ∞ or NaN every boundary time `idx · δ` is NaN, no arrival
//! compares below it, and the loop used to spin at boundary 0 for ever — so
//! each case runs on its own thread under a watchdog, and an engine that
//! hangs again fails its test in five seconds instead of hanging the suite.

use crate::helpers::single_flow_trace;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use swallow_fabric::engine::{Engine, SimConfig};
use swallow_fabric::policy::FairSharePolicy;
use swallow_fabric::Fabric;

/// Run a one-flow trace under the configuration `config` builds, re-raising
/// its panic here; panic differently if it has not returned in five seconds.
fn run_under_watchdog(config: impl FnOnce() -> SimConfig + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        let engine = Engine::new(
            Fabric::uniform(2, 100.0),
            single_flow_trace(100.0),
            config(),
        );
        engine.run(&mut FairSharePolicy::default());
        done.send(()).ok();
    });
    match finished.recv_timeout(Duration::from_secs(5)) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("the engine hung: no result after 5 s"),
        // Returned, or dropped the sender while unwinding.
        _ => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[test]
#[should_panic(expected = "slice must be positive and finite, got inf")]
fn infinite_slice_is_refused_by_the_builder() {
    run_under_watchdog(|| SimConfig::default().with_slice(f64::INFINITY));
}

#[test]
#[should_panic(expected = "slice must be positive and finite, got NaN")]
fn nan_slice_through_the_field_is_refused_by_the_engine() {
    run_under_watchdog(|| SimConfig {
        slice: f64::NAN,
        ..SimConfig::default()
    });
}
