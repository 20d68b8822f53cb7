//! The pipelined push (`worker.rs`, "The push path") seen through the
//! Table IV calls: what it puts on the wire, how long it takes, and what a
//! `pull` can see while it is under way. Links of 20–50 MB/s and blocks of
//! at most 2 MB keep every test at tens of milliseconds.

use std::sync::Barrier;
use std::time::{Duration, Instant};
use swallow_compress::apps::synthesize_with_ratio;
use swallow_compress::stream::DEFAULT_CHUNK;
use swallow_compress::{Level, StreamCompressor};
use swallow_core::{BlockId, CoflowRef, SwallowConfig, SwallowContext, SwallowError, WorkerId};

fn boot(link: f64) -> SwallowContext {
    SwallowContext::builder()
        .config(SwallowConfig::default().with_bandwidth(link))
        .workers(2)
        .build()
        .expect("test runtime boots")
}

/// Stage `payload` on worker 0 for worker 1 and take it through `add`,
/// `scheduling` and `alloc`; what is left is the push and the pull.
fn scheduled(ctx: &SwallowContext, payload: &[u8]) -> (CoflowRef, BlockId) {
    let block = ctx.stage(WorkerId(0), WorkerId(1), payload.to_vec());
    let coflow = ctx.add(ctx.aggregate(ctx.hook(WorkerId(0))));
    ctx.alloc(&ctx.scheduling(&[coflow]));
    (coflow, block)
}

#[test]
fn the_wire_carries_exactly_the_one_shot_stream() {
    let payload = synthesize_with_ratio(0.4, 1_500_000, 11);
    assert!(payload.len() > 5 * DEFAULT_CHUNK);
    let mut one_shot = StreamCompressor::new(Level::Fast);
    one_shot.write(&payload);
    let one_shot = one_shot.finish();

    let ctx = boot(50e6);
    let (coflow, block) = scheduled(&ctx, &payload);
    let report = ctx.push(coflow, block).unwrap();
    assert!(report.compressed);
    assert_eq!(report.raw_bytes, payload.len() as u64);
    assert_eq!(report.wire_bytes, one_shot.len() as u64);
    assert_eq!(&ctx.pull(coflow, block).unwrap()[..], &payload[..]);
    ctx.shutdown();
}

#[test]
fn a_pull_sees_the_block_whole_and_no_sooner_than_the_wire_allows() {
    let link = 20e6;
    let payload = synthesize_with_ratio(0.5, 2_000_000, 12);
    let ctx = boot(link);
    let (coflow, block) = scheduled(&ctx, &payload);

    let go = Barrier::new(2);
    let (report, began, probes) = std::thread::scope(|scope| {
        // The prober: non-blocking pulls, back to back, for as long as the
        // push is under way. Returns the refusals it collected and the
        // instant the block first showed.
        let prober = scope.spawn(|| {
            go.wait();
            let mut timeouts = 0u32;
            loop {
                match ctx.pull_timeout(coflow, block, Duration::ZERO) {
                    Err(SwallowError::Timeout { .. }) => timeouts += 1,
                    Ok(data) => {
                        let seen = Instant::now();
                        assert_eq!(&data[..], &payload[..], "a partial block was visible");
                        return (timeouts, seen);
                    }
                    Err(other) => panic!("probe failed: {other}"),
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        go.wait();
        let began = Instant::now();
        let report = ctx.push(coflow, block).unwrap();
        (report, began, prober.join().unwrap())
    });
    let (timeouts, seen) = probes;

    assert!(report.compressed);
    let on_the_wire = report.wire_bytes as f64 / link;
    assert!(on_the_wire > 0.03, "the test needs a push of some length");
    // Store-and-forward or pipelined, the last byte cannot land before the
    // ports have carried every byte.
    assert!(
        report.duration.as_secs_f64() >= on_the_wire * 0.999,
        "push returned after {:?}, the wire alone takes {on_the_wire} s",
        report.duration
    );
    assert!(
        (seen - began).as_secs_f64() >= on_the_wire * 0.999,
        "block visible {:?} after the push began, the wire alone takes {on_the_wire} s",
        seen - began
    );
    // Half-way through (and at every other probe before `seen`) the answer
    // was `Timeout`.
    assert!(timeouts > 10, "only {timeouts} probes ran during the push");
    ctx.shutdown();
}
