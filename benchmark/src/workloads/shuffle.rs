//! `shuffle-pushpull`: repeated 2×2 shuffles of real bytes through a
//! four-worker `SwallowContext` with emulated 400 Mbps links, driven through
//! every Table IV call by one pusher and one puller thread. The `swz` codec
//! and the runtime do all the work here and the simulator none.

use super::{Checksum, Metrics, RepOut, Size, Workload};
use crate::alloc;
use crate::span::{CallLog, Recorder};
use serde_json::{json, Value};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use swallow_compress::apps::synthesize_with_ratio;
use swallow_compress::{codec, stream, Level};
use swallow_core::{BlockId, CoflowRef, SwallowConfig, SwallowContext, WorkerId};
use swallow_fabric::units;

/// Emulated link rate of every worker, each direction.
const LINK_MBPS: f64 = 400.0;
/// Bytes per block.
const BLOCK_BYTES: usize = 4_000_000;
/// Target compressed/raw ratio of each payload class; 1.0 is the
/// incompressible class.
const RATIOS: [f64; 4] = [0.25, 0.5, 0.85, 1.0];
/// Shuffle rounds per rep, calibrated so one rep takes 4–6 s.
const ROUNDS: usize = 16;
/// Mappers are workers 0 and 1, reducers workers 2 and 3.
const PAIRS: [(u32, u32); 4] = [(0, 2), (0, 3), (1, 2), (1, 3)];

struct Shuffle {
    ctx: SwallowContext,
    payloads: Vec<Vec<u8>>,
    block_bytes: usize,
    rounds: usize,
    link_rate: f64,
}

/// Set `shuffle-pushpull` up: synthesise one payload per class and boot
/// the runtime.
pub fn build(seed: u64, size: Size) -> Result<(Box<dyn Workload>, Metrics), String> {
    let rounds = size.pick(ROUNDS, 2);
    let block_bytes = size.pick(BLOCK_BYTES, 100_000);
    let t = Instant::now();
    let payloads = (0u64..)
        .zip(RATIOS)
        .map(|(class, ratio)| {
            synthesize_with_ratio(ratio, block_bytes, seed.wrapping_mul(4).wrapping_add(class))
        })
        .collect();
    let mut setup = Metrics::new();
    setup.insert("workload.gen_s", t.elapsed().as_secs_f64());
    let link_rate = units::mbps(LINK_MBPS);
    let ctx = SwallowContext::builder()
        .config(SwallowConfig::default().with_bandwidth(link_rate))
        .workers(4)
        .build()
        .map_err(|e| format!("runtime failed to start: {e}"))?;
    let w = Shuffle {
        ctx,
        payloads,
        block_bytes,
        rounds,
        link_rate,
    };
    Ok((Box::new(w), setup))
}

/// What the puller thread reports back for one round.
struct Pulled {
    pull_s: f64,
    mismatches: u64,
    checksum: u64,
}

impl Shuffle {
    /// Payload class of block `slot` in round `round`: the classes rotate,
    /// so every pair of workers carries every class.
    fn class(round: usize, slot: usize) -> usize {
        (round + slot) % RATIOS.len()
    }

    /// Time the codec alone over this workload's own payloads.
    fn probe_codec(&self, m: &mut Metrics) {
        let (mut raw, mut packed) = (0usize, 0usize);
        let (mut comp, mut decomp, mut streamed) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for payload in &self.payloads {
            let t = Instant::now();
            let frame = std::hint::black_box(codec::compress(payload));
            comp += t.elapsed();
            let t = Instant::now();
            let back = std::hint::black_box(codec::decompress(&frame));
            decomp += t.elapsed();
            assert_eq!(back.as_deref().ok(), Some(&payload[..]));
            let t = Instant::now();
            let mut c = stream::StreamCompressor::new(Level::Fast);
            c.write(payload);
            std::hint::black_box(c.finish());
            streamed += t.elapsed();
            raw += payload.len();
            packed += frame.len();
        }
        let mb = raw as f64 / 1e6;
        m.insert("compress.swz_compress_mb_s", mb / comp.as_secs_f64());
        m.insert("compress.swz_decompress_mb_s", mb / decomp.as_secs_f64());
        m.insert("compress.stream_compress_mb_s", mb / streamed.as_secs_f64());
        m.insert("compress.swz_ratio", packed as f64 / raw as f64);
    }
}

impl Workload for Shuffle {
    fn params(&self) -> Value {
        json!({
            "workers": 4,
            "link_mbps": LINK_MBPS,
            "shuffle": "2x2",
            "block_bytes": self.block_bytes,
            "payload_ratios": RATIOS.to_vec(),
            "rounds": self.rounds,
            "codec_model": "LZ4",
            "clients": 2,
            "loop": "closed",
        })
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepOut {
        let traced = rec.on();
        let ctx = &self.ctx;
        let payloads = &self.payloads;
        let rounds = self.rounds;
        let mut push_log = CallLog::new("core.push", rec);
        let mut control = Duration::ZERO;
        let (mut raw, mut wire, mut tried) = (0u64, 0u64, 0u64);
        // Blocks the schedule sent to the codec, and those of them that
        // were then shipped compressed (a frame no smaller ships raw).
        let (mut to_codec, mut compressed) = (0u64, 0u64);
        let (mut failed, mut pull_s) = (0u64, 0.0f64);
        // Σ over rounds of the wire bytes on the round's most loaded link.
        let mut bottleneck_bytes = 0u64;
        let mut sum = Checksum::default();
        let allocs_before = alloc::allocations();

        let t0 = Instant::now();
        std::thread::scope(|scope| {
            // The puller: pulls each round's blocks in push order and
            // compares every one with the payload that was staged.
            let (to_puller, rounds_in) = mpsc::channel::<(usize, CoflowRef, Vec<BlockId>)>();
            let (to_pusher, rounds_done) = mpsc::channel::<Pulled>();
            scope.spawn(move || {
                for (round, coflow, blocks) in rounds_in {
                    let t = Instant::now();
                    let mut out = Pulled {
                        pull_s: 0.0,
                        mismatches: 0,
                        checksum: 0,
                    };
                    let mut sum = Checksum::default();
                    for (slot, block) in blocks.into_iter().enumerate() {
                        match ctx.pull(coflow, block) {
                            Ok(data) if data[..] == payloads[Shuffle::class(round, slot)][..] => {
                                sum.bytes(&data)
                            }
                            _ => out.mismatches += 1,
                        }
                    }
                    out.pull_s = t.elapsed().as_secs_f64();
                    out.checksum = sum.finish();
                    if to_pusher.send(out).is_err() {
                        return;
                    }
                }
            });

            // The pusher: this thread.
            for round in 0..rounds {
                rec.span("core.shuffle_round", |rec| {
                    let t = Instant::now();
                    let blocks: Vec<BlockId> = PAIRS
                        .iter()
                        .enumerate()
                        .map(|(slot, &(src, dst))| {
                            let data = payloads[Shuffle::class(round, slot)].clone();
                            ctx.stage(WorkerId(src), WorkerId(dst), data)
                        })
                        .collect();
                    let mut flows = ctx.hook(WorkerId(0));
                    flows.extend(ctx.hook(WorkerId(1)));
                    let gate: Vec<_> = flows.iter().map(|f| (f.flow, f.compressible)).collect();
                    let coflow = ctx.add(ctx.aggregate(flows));
                    let sched = ctx.scheduling(&[coflow]);
                    ctx.alloc(&sched);
                    to_codec += gate
                        .iter()
                        .filter(|(flow, open)| sched.compress.get(flow).copied().unwrap_or(*open))
                        .count() as u64;
                    control += t.elapsed();

                    to_puller
                        .send((round, coflow, blocks.clone()))
                        .expect("the puller outlives the rounds");
                    // Wire bytes per worker: mappers only send and reducers
                    // only receive, so a worker is one direction of one link.
                    let mut link_bytes = [0u64; 4];
                    for (&block, &(src, dst)) in blocks.iter().zip(&PAIRS) {
                        let pushed = if traced {
                            push_log.time(|| ctx.push(coflow, block))
                        } else {
                            ctx.push(coflow, block)
                        };
                        tried += 1;
                        match pushed {
                            Ok(report) => {
                                raw += report.raw_bytes;
                                wire += report.wire_bytes;
                                compressed += u64::from(report.compressed);
                                link_bytes[src as usize] += report.wire_bytes;
                                link_bytes[dst as usize] += report.wire_bytes;
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    bottleneck_bytes += link_bytes.into_iter().max().unwrap_or(0);
                    let pulled = rounds_done.recv().expect("the puller answers each round");
                    pull_s += pulled.pull_s;
                    failed += pulled.mismatches;
                    sum.word(pulled.checksum);
                    let t = Instant::now();
                    ctx.remove(coflow);
                    control += t.elapsed();
                    rec.adopt(&mut push_log);
                });
            }
            drop(to_puller); // ends the puller's loop
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let allocs = alloc::allocations() - allocs_before;

        let blocks = (rounds * PAIRS.len()) as f64;
        let mut m = Metrics::new();
        m.insert("wall_s", wall_s);
        // A round is one coflow. Its modelled completion time is the
        // paper's bottleneck: the wire bytes on its most loaded link over
        // the link rate — exact for a seed, like the simulator's CCTs.
        m.insert(
            "sim_avg_cct_s",
            bottleneck_bytes as f64 / self.link_rate / rounds as f64,
        );
        m.insert("wire_ratio", wire as f64 / (raw as f64).max(1.0));
        m.insert(
            "compress.useful_share",
            compressed as f64 / to_codec.max(1) as f64,
        );
        if traced {
            let push_s = push_log.hist.sum_s();
            m.insert("core.goodput_mb_s", raw as f64 / 1e6 / wall_s);
            m.insert("core.control_s", control.as_secs_f64());
            m.insert("core.push_calls", push_log.hist.count() as f64);
            m.insert("core.push_s", push_s);
            m.insert("core.push_p50_ms", push_log.hist.quantile_ns(0.5) / 1e6);
            m.insert("core.push_p99_ms", push_log.hist.quantile_ns(0.99) / 1e6);
            m.insert("core.pull_s", pull_s);
            m.insert(
                "core.throttle_share",
                wire as f64 / self.link_rate / push_s.max(f64::MIN_POSITIVE),
            );
            m.insert("core.allocs_per_block", allocs as f64 / blocks);
            rec.span("compress.codec_probe", |_| self.probe_codec(&mut m));
        }

        RepOut {
            metrics: m,
            checksum: sum.finish(),
            attempted: tried,
            failed,
        }
    }

    fn regime_problems(&self, medians: &Metrics) -> Vec<String> {
        if medians["compress.useful_share"] > 0.0 {
            Vec::new()
        } else {
            vec!["shuffle-pushpull: no block was shipped compressed".into()]
        }
    }
}

impl Drop for Shuffle {
    fn drop(&mut self) {
        self.ctx.shutdown();
    }
}
