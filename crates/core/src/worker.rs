//! Swallow workers: block staging, compression, rate-limited transfer and
//! the measurement daemon.
//!
//! ## The push path
//!
//! [`Worker::push_block`] is where Swallow's bet is placed: CPU spent on
//! the codec buys time on the link only if the link is busy *while* the
//! codec works. A block the schedule sends to the codec that is larger than
//! one stream chunk ([`stream::DEFAULT_CHUNK`], 256 KiB) is therefore
//! pipelined per chunk, on the pushing thread, both halves of the transfer
//! in one loop:
//!
//! ```text
//! codec   | c0 | c1 | c2 | c3 |d0| c4 |d1| …        | c15 |      |d14|  |d15| put
//! link         | w0   | w1   | w2   | w3   | …            | w15       |
//! ```
//!
//! * **Sender.** Compress chunk *k*, reserve its wire piece (length word +
//!   `swz` frame; the stream magic rides with the first piece, the
//!   terminator with the last) on the egress and the ingress port at once,
//!   and go on to chunk *k + 1*. [`TokenBucket::reserve`] returns the
//!   instant the port will have carried the piece instead of sleeping, so
//!   the modelled transmission of piece *k* runs under the compression of
//!   its successors. The pieces are, byte for byte, the stream
//!   [`stream::StreamCompressor`] returns in one go.
//! * **The arrival rule.** The receiver half decodes and checksum-verifies
//!   piece *k* no earlier than the instant both ports have finished
//!   carrying it (plus the lag of a per-flow rate cap, which accumulates
//!   over the pieces so that the whole push still takes Σ wire / cap). It
//!   takes the core between two chunks of the sender for whatever has
//!   landed by then, and sleeps only once nothing is left to compress.
//! * **All or nothing.** The block is `put` into the receiver's store
//!   after its last piece has arrived and verified: a `pull` never sees a
//!   block sooner than Σ wire / rate after its push began, and never a
//!   partial one.
//! * **The stored chunk.** With chunk 0 on the wire before chunk 15 is
//!   compressed, "ship raw if the frame is not smaller" cannot be decided
//!   for the block; the stream decides it per chunk instead (a chunk that
//!   does not shrink goes as one literal run, still an ordinary frame), so
//!   a streamed block costs at most its raw size plus 26 bytes per chunk
//!   and `compressed` in the result means `wire < raw`.
//!
//! A block of at most one chunk, or one the schedule does not compress,
//! is store-and-forward as it always was: compress (or not), ship the
//! smaller of frame and raw bytes, decode on arrival.

use bytes::Bytes;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bucket::{sleep_until, TokenBucket};
use crate::config::SwallowConfig;
use crate::messages::{BlockId, CoflowRef, FlowInfo, Measurement, ToMaster, WorkerId};
use crate::store::BlockStore;
use swallow_compress::{codec, is_compressible, stream};
use swallow_fabric::FlowId;
use swallow_faults::Injector;
use swallow_trace::{TraceEvent, Tracer};

/// A staged outgoing block, captured by `hook()`.
#[derive(Debug, Clone)]
pub struct StagedBlock {
    /// Flow metadata.
    pub info: FlowInfo,
    /// Raw payload.
    pub data: Bytes,
}

/// One Swallow worker ("slaver" in the paper's wording).
pub struct Worker {
    id: WorkerId,
    /// Blocks written by local tasks, awaiting scheduling.
    staged: Mutex<Vec<StagedBlock>>,
    /// Blocks received from peers.
    pub(crate) store: BlockStore,
    /// Egress port rate limiter.
    egress: TokenBucket,
    /// Ingress port rate limiter.
    ingress: TokenBucket,
    /// Cores currently busy compressing (for heartbeats).
    compressing: AtomicUsize,
    /// Bytes pushed since the last heartbeat.
    sent_since_beat: AtomicU64,
    cores: u32,
}

impl Worker {
    /// Create a worker with ports sized from `config`.
    pub fn new(id: WorkerId, config: &SwallowConfig) -> Self {
        Self {
            id,
            staged: Mutex::new(Vec::new()),
            store: BlockStore::new(),
            egress: TokenBucket::new(config.link_bandwidth),
            ingress: TokenBucket::new(config.link_bandwidth),
            compressing: AtomicUsize::new(0),
            sent_since_beat: AtomicU64::new(0),
            cores: config.cores_per_worker,
        }
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Stage a block produced by a local task (the shuffle-write hook).
    /// Runs the compressibility gate so `hook()` reports it per flow.
    pub fn stage(&self, flow: FlowId, block: BlockId, dst: WorkerId, data: Bytes) -> FlowInfo {
        let info = FlowInfo {
            flow,
            block,
            src: self.id,
            dst,
            bytes: data.len() as u64,
            compressible: is_compressible(&data),
        };
        self.staged.lock().push(StagedBlock {
            info: info.clone(),
            data,
        });
        info
    }

    /// Captured flow information for `hook()`.
    pub fn hooked_flows(&self) -> Vec<FlowInfo> {
        self.staged.lock().iter().map(|s| s.info.clone()).collect()
    }

    /// Take a staged block out for transmission.
    pub fn take_staged(&self, block: BlockId) -> Option<StagedBlock> {
        let mut staged = self.staged.lock();
        let idx = staged.iter().position(|s| s.info.block == block)?;
        Some(staged.swap_remove(idx))
    }

    /// Re-stage a payload under its *existing* flow/block identity — the
    /// recovery path after a crash wiped the staged copy (the analogue of
    /// re-reading a shuffle file from disk).
    pub fn restage(&self, info: FlowInfo, data: Bytes) {
        self.staged.lock().push(StagedBlock { info, data });
    }

    /// Simulate the worker process dying: staged blocks and received
    /// storage vanish, exactly what a machine restart loses. Identity and
    /// port limiters survive (they model the NIC, not the process).
    pub fn crash_reset(&self) {
        self.staged.lock().clear();
        self.store.clear();
    }

    /// Number of staged blocks.
    pub fn staged_count(&self) -> usize {
        self.staged.lock().len()
    }

    /// Execute a push decided by the scheduler: optionally compress, then
    /// move the bytes through both rate-limited ports into `dst`'s store.
    /// A block that is compressed and larger than one stream chunk is
    /// pipelined (module docs); `dst` sees it only once all of it has
    /// arrived and verified.
    ///
    /// Returns `(wire_bytes, compressed)`; `compressed` is true when fewer
    /// bytes than the block holds crossed the wire.
    pub fn push_block(
        &self,
        dst: &Worker,
        coflow: CoflowRef,
        block: StagedBlock,
        compress_it: bool,
        rate_cap: Option<f64>,
    ) -> (u64, bool) {
        let raw = &block.data;
        let (stored, wire) = if compress_it && raw.len() > stream::DEFAULT_CHUNK {
            let mut link = Link::new(self, dst, rate_cap);
            let decoded = self.push_streamed(&mut link, raw);
            (Bytes::from(decoded), link.wire)
        } else {
            // Only ship compressed when it actually helps (swz can expand
            // incompressible payloads slightly).
            let frame = compress_it
                .then(|| {
                    self.compressing.fetch_add(1, Ordering::SeqCst);
                    let frame = codec::compress(raw);
                    self.compressing.fetch_sub(1, Ordering::SeqCst);
                    frame
                })
                .filter(|frame| frame.len() < raw.len());
            let mut link = Link::new(self, dst, rate_cap);
            sleep_until(link.send(frame.as_ref().unwrap_or(raw).len()));
            // Receiver decompresses on arrival (decompression is much
            // faster than compression — Table II — so we fold it into the
            // transfer).
            let stored = match frame {
                Some(frame) => {
                    Bytes::from(codec::decompress(&frame).expect("sender-produced frame decodes"))
                }
                None => raw.clone(),
            };
            (stored, link.wire)
        };
        dst.store.put(coflow, block.info.block, stored);
        self.sent_since_beat.fetch_add(wire, Ordering::Relaxed);
        (wire, wire < raw.len() as u64)
    }

    /// The pipelined push of a block of several chunks: both halves of the
    /// stream on this thread, a chunk apart. Returns what the receiver
    /// decoded, after the last chunk has arrived and verified.
    fn push_streamed(&self, link: &mut Link<'_>, raw: &[u8]) -> Vec<u8> {
        let mut tx = stream::StreamCompressor::new(swallow_compress::Level::Fast);
        let mut rx = stream::StreamDecompressor::new();
        let mut decoded = Vec::with_capacity(raw.len());
        // Wire pieces on the link, or landed but not yet decoded, oldest
        // first, each with the instant it has fully arrived.
        let mut in_flight: VecDeque<(Instant, Vec<u8>)> = VecDeque::new();
        // The receiver half: a piece is decoded and verified no earlier
        // than the instant it has arrived.
        let mut receive = |arrives: Instant, piece: &[u8]| {
            sleep_until(arrives);
            rx.feed(piece, &mut decoded)
                .expect("sender-produced frame decodes")
        };

        self.compressing.fetch_add(1, Ordering::SeqCst);
        let chunks = raw.len().div_ceil(stream::DEFAULT_CHUNK);
        for (k, chunk) in raw.chunks(stream::DEFAULT_CHUNK).enumerate() {
            // The receiver gets the core first, for whatever landed while
            // the chunk before this one was being compressed.
            while in_flight
                .front()
                .is_some_and(|(arrives, _)| *arrives <= Instant::now())
            {
                let (arrives, piece) = in_flight.pop_front().expect("a front was just seen");
                receive(arrives, &piece);
            }
            tx.write(chunk);
            if k + 1 < chunks {
                let piece = tx.take_framed();
                in_flight.push_back((link.send(piece.len()), piece));
            }
        }
        // The last chunk's frame leaves with the terminator behind it.
        let last = tx.finish();
        self.compressing.fetch_sub(1, Ordering::SeqCst);
        let last_arrives = link.send(last.len());
        // Nothing is left to compress: wait for the rest.
        for (arrives, piece) in in_flight {
            receive(arrives, &piece);
        }
        receive(last_arrives, &last);
        decoded
    }

    /// Fraction of cores busy compressing right now.
    pub fn cpu_util(&self) -> f64 {
        self.compressing.load(Ordering::SeqCst) as f64 / self.cores as f64
    }

    /// Spawn the measurement daemon: heartbeats to the master until
    /// `shutdown` flips. Returns the join handle.
    ///
    /// The fault `injector` is consulted every beat: while this worker is
    /// crashed or inside a heartbeat-drop window the daemon stays silent
    /// (and skips the Heartbeat trace event), which is what the master's
    /// failure detector observes as a missed heartbeat.
    pub fn spawn_daemon(
        self: &Arc<Self>,
        to_master: Sender<ToMaster>,
        heartbeat: f64,
        shutdown: Arc<AtomicBool>,
        injector: Injector,
        tracer: Tracer,
    ) -> std::thread::JoinHandle<()> {
        let worker = Arc::clone(self);
        let start = Instant::now();
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                let at = start.elapsed().as_secs_f64();
                if injector.heartbeat_dropped(worker.id.0, at) {
                    std::thread::sleep(std::time::Duration::from_secs_f64(heartbeat));
                    continue;
                }
                let m = Measurement {
                    worker: worker.id,
                    at,
                    cpu_util: worker.cpu_util(),
                    bytes_sent: worker.sent_since_beat.swap(0, Ordering::Relaxed),
                    staged_blocks: worker.staged_count(),
                };
                tracer.emit(at, || TraceEvent::Heartbeat {
                    worker: worker.id.0,
                });
                tracer.emit(at, || TraceEvent::MessageSent {
                    kind: "measure".to_string(),
                });
                if to_master.send(ToMaster::Measure(m)).is_err() {
                    break; // master is gone
                }
                std::thread::sleep(std::time::Duration::from_secs_f64(heartbeat));
            }
        })
    }
}

/// One push's view of the path from a sender's egress port to a receiver's
/// ingress port: what it has put on the wire and when that arrives.
struct Link<'a> {
    egress: &'a TokenBucket,
    ingress: &'a TokenBucket,
    /// The per-flow rate cap from `alloc()`, when it binds.
    cap: Option<f64>,
    /// Bytes sent so far.
    wire: u64,
    /// How far the cap has pushed arrivals behind the ports so far.
    lag: Duration,
}

impl<'a> Link<'a> {
    fn new(src: &'a Worker, dst: &'a Worker, rate_cap: Option<f64>) -> Self {
        Self {
            egress: &src.egress,
            ingress: &dst.ingress,
            cap: rate_cap.filter(|&cap| cap > 0.0 && cap < src.egress.rate()),
            wire: 0,
            lag: Duration::ZERO,
        }
    }

    /// Put `bytes` on the wire now and return the instant they have
    /// arrived. Both ports are reserved at once and the transfer completes
    /// when the slower one does (Eq. 2's min(Bs, Br) as a wall-clock fact);
    /// a rate cap delays the arrival by what the capped rate would add,
    /// and that delay accumulates over the pieces of one push, so the last
    /// of them lands no sooner than Σ bytes / cap after the first left.
    fn send(&mut self, bytes: usize) -> Instant {
        let bytes = bytes as u64;
        self.wire += bytes;
        let carried = self.egress.reserve(bytes).max(self.ingress.reserve(bytes));
        if let Some(cap) = self.cap {
            let extra = bytes as f64 / cap - bytes as f64 / self.egress.rate();
            self.lag += Duration::from_secs_f64(extra.max(0.0));
        }
        carried + self.lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SwallowConfig {
        SwallowConfig::default().with_bandwidth(10e6) // 10 MB/s: fast tests
    }

    #[test]
    fn stage_and_hook() {
        let w = Worker::new(WorkerId(0), &cfg());
        let info = w.stage(
            FlowId(1),
            BlockId(1),
            WorkerId(1),
            Bytes::from(vec![b'x'; 1000]),
        );
        assert_eq!(info.bytes, 1000);
        assert!(info.compressible); // constant byte → very compressible
        assert_eq!(w.hooked_flows().len(), 1);
        assert_eq!(w.staged_count(), 1);
        let taken = w.take_staged(BlockId(1)).unwrap();
        assert_eq!(taken.info.flow, FlowId(1));
        assert_eq!(w.staged_count(), 0);
        assert!(w.take_staged(BlockId(1)).is_none());
    }

    #[test]
    fn push_moves_bytes_and_compresses() {
        let a = Worker::new(WorkerId(0), &cfg());
        let b = Worker::new(WorkerId(1), &cfg());
        let data = Bytes::from(b"hello hello hello hello ".repeat(200));
        a.stage(FlowId(1), BlockId(7), WorkerId(1), data.clone());
        let staged = a.take_staged(BlockId(7)).unwrap();
        let (wire, compressed) = a.push_block(&b, CoflowRef(1), staged, true, None);
        assert!(compressed);
        assert!((wire as usize) < data.len() / 2);
        let got = b.store.get(CoflowRef(1), BlockId(7)).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn incompressible_payload_ships_raw_even_with_beta() {
        let a = Worker::new(WorkerId(0), &cfg());
        let b = Worker::new(WorkerId(1), &cfg());
        // Pseudo-random bytes: swz would expand them.
        let mut x = 1u64;
        let noise: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        let data = Bytes::from(noise);
        a.stage(FlowId(2), BlockId(8), WorkerId(1), data.clone());
        let staged = a.take_staged(BlockId(8)).unwrap();
        assert!(!staged.info.compressible);
        let (wire, compressed) = a.push_block(&b, CoflowRef(1), staged, true, None);
        assert!(!compressed);
        assert_eq!(wire as usize, data.len());
        assert_eq!(b.store.get(CoflowRef(1), BlockId(8)).unwrap(), data);
    }

    #[test]
    fn large_blocks_use_the_stream_format_transparently() {
        let a = Worker::new(WorkerId(0), &cfg());
        let b = Worker::new(WorkerId(1), &cfg());
        // Over DEFAULT_CHUNK → streamed; content must round-trip exactly.
        let data = Bytes::from(b"streaming chunked payload ".repeat(20_000));
        assert!(data.len() > swallow_compress::stream::DEFAULT_CHUNK);
        a.stage(FlowId(9), BlockId(99), WorkerId(1), data.clone());
        let staged = a.take_staged(BlockId(99)).unwrap();
        let (wire, compressed) = a.push_block(&b, CoflowRef(9), staged, true, None);
        assert!(compressed);
        assert!((wire as usize) < data.len() / 4);
        assert_eq!(b.store.get(CoflowRef(9), BlockId(99)).unwrap(), data);
    }

    // ---- the pipelined push: links of 30–50 MB/s and blocks of at most
    // ---- 1.5 MB keep each of these at tens of milliseconds ----

    fn workers(rate: f64, n: u32) -> Vec<Worker> {
        let cfg = SwallowConfig::default().with_bandwidth(rate);
        (0..n).map(|id| Worker::new(WorkerId(id), &cfg)).collect()
    }

    /// splitmix64 noise: incompressible, and the same under any `rand`.
    fn noise(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 56) as u8
            })
            .collect()
    }

    fn phrase(n: usize) -> Vec<u8> {
        b"(key_0042,partition_007,value=aggregated_record) "
            .iter()
            .copied()
            .cycle()
            .take(n)
            .collect()
    }

    /// Stream chunks of phrase, every `noisy`-th one noise instead.
    fn mixed(chunks: usize, noisy: usize) -> Vec<u8> {
        let mut data = Vec::new();
        for k in 0..chunks {
            if k % noisy == noisy - 1 {
                data.extend(noise(stream::DEFAULT_CHUNK, k as u64));
            } else {
                data.extend(phrase(stream::DEFAULT_CHUNK));
            }
        }
        data
    }

    /// 512-byte pieces of phrase, every third one noise: every chunk of
    /// it shrinks to about a third (the benchmark's payload shape).
    fn speckled(len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        for k in 0u64.. {
            if data.len() >= len {
                break;
            }
            let piece = 512.min(len - data.len());
            if k % 3 == 2 {
                data.extend(noise(piece, k));
            } else {
                data.extend(phrase(piece));
            }
        }
        data
    }

    fn stream_chunks(len: usize) -> u64 {
        len.div_ceil(stream::DEFAULT_CHUNK) as u64
    }

    #[test]
    fn a_rate_cap_stretches_a_compressed_push_too() {
        let rate = 40e6;
        let w = workers(rate, 2);
        // Six chunks, each about 90 KB on the wire: the cap has to slow
        // every one of them, not just the last.
        let data = Bytes::from(speckled(1_500_000));
        w[0].stage(FlowId(1), BlockId(1), WorkerId(1), data.clone());
        let staged = w[0].take_staged(BlockId(1)).unwrap();
        let start = Instant::now();
        let (wire, compressed) =
            w[0].push_block(&w[1], CoflowRef(1), staged, true, Some(rate / 4.0));
        let elapsed = start.elapsed().as_secs_f64();
        assert!(compressed);
        assert!(wire > 200_000, "the test needs bytes on the wire: {wire}");
        let at_cap = wire as f64 / (rate / 4.0);
        assert!(
            elapsed >= at_cap * 0.999,
            "cap not applied: {elapsed} s < {at_cap} s"
        );
        assert_eq!(w[1].store.get(CoflowRef(1), BlockId(1)).unwrap(), data);
    }

    #[test]
    fn a_block_of_phrase_and_noise_chunks_ships_compressed_and_bounded() {
        let w = workers(50e6, 2);
        // Phrase, noise, phrase, noise, phrase: the noisy chunks go stored.
        let data = Bytes::from(mixed(5, 2));
        let info = w[0].stage(FlowId(1), BlockId(1), WorkerId(1), data.clone());
        assert!(info.compressible, "two noisy chunks in five pass the gate");
        let staged = w[0].take_staged(BlockId(1)).unwrap();
        let (wire, compressed) =
            w[0].push_block(&w[1], CoflowRef(1), staged, info.compressible, None);
        assert!(compressed);
        assert!(
            wire < data.len() as u64 / 2,
            "three chunks in five shrink to nothing: {wire}"
        );
        assert!(wire >= 2 * stream::DEFAULT_CHUNK as u64);
        assert!(wire <= data.len() as u64 + 26 * stream_chunks(data.len()));
        assert_eq!(w[1].store.get(CoflowRef(1), BlockId(1)).unwrap(), data);
    }

    #[test]
    fn a_streamed_block_of_noise_costs_at_most_26_bytes_a_chunk() {
        let w = workers(50e6, 2);
        let data = Bytes::from(noise(1_000_000, 9));
        let info = w[0].stage(FlowId(1), BlockId(1), WorkerId(1), data.clone());
        assert!(!info.compressible);
        let staged = w[0].take_staged(BlockId(1)).unwrap();
        // Forced through the codec against the gate's advice.
        let (wire, compressed) = w[0].push_block(&w[1], CoflowRef(1), staged, true, None);
        assert!(!compressed);
        assert!(wire >= data.len() as u64);
        assert!(
            wire <= data.len() as u64 + 26 * stream_chunks(data.len()),
            "{wire} bytes for {} of noise",
            data.len()
        );
        assert_eq!(w[1].store.get(CoflowRef(1), BlockId(1)).unwrap(), data);
    }

    #[test]
    fn interleaved_chunk_reservations_do_not_oversubscribe_a_port() {
        let rate = 30e6;
        let w = workers(rate, 3);
        let data = Bytes::from(speckled(1_500_000));
        let staged: Vec<StagedBlock> = [1u64, 2]
            .into_iter()
            .map(|b| {
                w[0].stage(FlowId(b), BlockId(b), WorkerId(b as u32), data.clone());
                w[0].take_staged(BlockId(b)).unwrap()
            })
            .collect();
        // Two pushers, two receivers, one egress port.
        let go = std::sync::Barrier::new(2);
        let start = Instant::now();
        let wire: u64 = std::thread::scope(|scope| {
            let pushers: Vec<_> = staged
                .into_iter()
                .zip(&w[1..])
                .map(|(block, dst)| {
                    let (src, go) = (&w[0], &go);
                    scope.spawn(move || {
                        go.wait();
                        src.push_block(dst, CoflowRef(1), block, true, None).0
                    })
                })
                .collect();
            pushers.into_iter().map(|p| p.join().unwrap()).sum()
        });
        let elapsed = start.elapsed().as_secs_f64();
        assert!(wire > 800_000, "the test needs bytes on the wire: {wire}");
        let port_time = wire as f64 / rate;
        assert!(elapsed >= port_time * 0.999, "{elapsed} s < {port_time} s");
        for (b, dst) in [(1u64, &w[1]), (2, &w[2])] {
            assert_eq!(dst.store.get(CoflowRef(1), BlockId(b)).unwrap(), data);
        }
    }

    #[test]
    fn crash_reset_wipes_state_and_restage_recovers_it() {
        let w = Worker::new(WorkerId(0), &cfg());
        let data = Bytes::from(vec![b'x'; 500]);
        let info = w.stage(FlowId(1), BlockId(1), WorkerId(1), data.clone());
        w.store
            .put(CoflowRef(1), BlockId(2), Bytes::from_static(b"rx"));
        w.crash_reset();
        assert_eq!(w.staged_count(), 0);
        assert!(w.store.is_empty());
        assert!(w.take_staged(BlockId(1)).is_none());
        // Recovery re-stages the same payload under the same identity.
        w.restage(info.clone(), data);
        let back = w.take_staged(BlockId(1)).unwrap();
        assert_eq!(back.info, info);
        assert_eq!(back.data.len(), 500);
    }

    #[test]
    fn rate_cap_slows_transfer() {
        let a = Worker::new(WorkerId(0), &cfg());
        let b = Worker::new(WorkerId(1), &cfg());
        let data = Bytes::from(vec![0u8; 200_000]);
        a.stage(FlowId(3), BlockId(9), WorkerId(1), data);
        let staged = a.take_staged(BlockId(9)).unwrap();
        let start = Instant::now();
        // Cap at 1 MB/s: 200 KB raw → ≥ 0.2 s (uncompressed push).
        a.push_block(&b, CoflowRef(1), staged, false, Some(1e6));
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.18, "cap not applied: {elapsed}");
    }
}
