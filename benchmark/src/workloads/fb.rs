//! `fb-replay`: a Facebook-format trace read from disk and replayed as it
//! streams — `TraceFile::stream` feeding `Engine::from_arrivals` under SEBF
//! with no compression. The same engine used the other way round: lazy
//! admission instead of a materialised trace, wide coflows instead of
//! narrow, MADD ordering instead of FVDF's Γ.

use super::replay::{replay, Shape};
use super::{out_dir, Metrics, RepOut, Size, Workload};
use crate::span::{CallLog, Recorder};
use crate::timed::TimedStream;
use serde_json::{json, Value};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use swallow_fabric::engine::Reschedule;
use swallow_fabric::{units, Coflow, Engine, Fabric, SimConfig};
use swallow_sched::Algorithm;
use swallow_workload::{FbGen, TraceFile, WorkloadSource};

/// Machines in the trace, each a 1 Gbps port.
const MACHINES: u32 = 150;
/// Largest mapper and reducer count per coflow.
const MAX_FANOUT: u32 = 10;
/// Largest per-reducer size, MB (log-uniform from 1).
const MAX_MB: u32 = 300;
/// Offered load as a share of the fabric's ingress capacity.
const OFFERED: f64 = 0.15;
/// Coflows, calibrated so one rep takes 4–6 s.
const COFLOWS: usize = 9000;

struct FbReplay {
    gen: FbGen,
    path: PathBuf,
    file_bytes: u64,
    cap: f64,
}

/// Set `fb-replay` up: generate the trace and write it to disk.
pub fn build(seed: u64, size: Size) -> Result<(Box<dyn Workload>, Metrics), String> {
    let cap = units::gbps(1.0);
    // Mean coflow size: (1+MAX_FANOUT)/2 reducers, each log-uniform MB.
    let mean_mb = (MAX_MB as f64 - 1.0) / (MAX_MB as f64).ln();
    let mean_bytes = (1.0 + MAX_FANOUT as f64) / 2.0 * mean_mb * units::MB;
    let gap_s = mean_bytes / (OFFERED * MACHINES as f64 * cap);
    let gen = FbGen {
        num_coflows: size.pick(COFLOWS, 60) as u64,
        num_machines: MACHINES,
        mean_gap_ms: gap_s * 1e3,
        max_mappers: MAX_FANOUT,
        max_reducers: MAX_FANOUT,
        max_mb: MAX_MB,
        seed,
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Unique per set-up: tests set several workloads up in one process.
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("fb-replay-{}-{serial}.txt", std::process::id()));
    let t = Instant::now();
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    let file_bytes = gen
        .write_to(&mut out)
        .and_then(|n| out.flush().map(|()| n))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let write_s = t.elapsed().as_secs_f64();
    let mut setup = Metrics::new();
    setup.insert("workload.gen_s", write_s);
    setup.insert("workload.fb_write_mb_s", file_bytes as f64 / 1e6 / write_s);
    let w = FbReplay {
        gen,
        path,
        file_bytes,
        cap,
    };
    Ok((Box::new(w), setup))
}

impl FbReplay {
    /// The trace as the program under test reads it: from the bytes on disk.
    fn stream(&self) -> impl Iterator<Item = Coflow> + Send {
        TraceFile::open(&self.path)
            .stream()
            .expect("the trace set-up wrote opens")
            .map(|c| c.expect("the trace set-up wrote parses"))
    }
}

impl Workload for FbReplay {
    fn params(&self) -> Value {
        json!({
            "coflows": self.gen.num_coflows,
            "machines": MACHINES,
            "port_gbps": 1.0,
            "max_mappers": MAX_FANOUT,
            "max_reducers": MAX_FANOUT,
            "max_mb": MAX_MB,
            "offered_load": OFFERED,
            "mean_gap_ms": self.gen.mean_gap_ms,
            "file_bytes": self.file_bytes,
            "policy": "SEBF",
            "compression": "none",
            "slice_s": SimConfig::default().slice,
            "reschedule": "events-only",
        })
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepOut {
        // Parse-only scan, outside the timed replay: what reading and
        // parsing the file costs with no engine behind it.
        let parse_s = rec.on().then(|| {
            rec.span("workload.fb_parse", |_| {
                let t = Instant::now();
                let parsed = self.stream().count();
                assert_eq!(parsed as u64, self.gen.num_coflows);
                t.elapsed().as_secs_f64()
            })
        });

        let shape = Shape {
            ports: MACHINES as usize,
            cap: self.cap,
            coflows: self.gen.num_coflows as usize,
        };
        let config = SimConfig::default().with_reschedule(Reschedule::EventsOnly);
        let fabric = Fabric::uniform(shape.ports, self.cap);
        let log = rec
            .on()
            .then(|| Arc::new(Mutex::new(CallLog::new("workload.stream_next", rec))));
        let build_log = log.clone();
        let mut out = replay(rec, Algorithm::Sebf, shape, log, || {
            // From bytes on disk: opening the file is part of the replay.
            let arrivals: Box<dyn Iterator<Item = Coflow> + Send> = match build_log {
                Some(log) => Box::new(TimedStream::new(self.stream(), log)),
                None => Box::new(self.stream()),
            };
            Engine::from_arrivals(fabric, arrivals, config)
        });
        if let Some(parse_s) = parse_s {
            let wall_s = out.metrics["wall_s"];
            out.metrics.insert("workload.fb_parse_s", parse_s);
            out.metrics.insert(
                "workload.fb_parse_mb_s",
                self.file_bytes as f64 / 1e6 / parse_s,
            );
            out.metrics
                .insert("workload.fb_parse_share", parse_s / wall_s);
        }
        out
    }

    fn regime_problems(&self, _medians: &Metrics) -> Vec<String> {
        Vec::new()
    }
}

impl Drop for FbReplay {
    fn drop(&mut self) {
        // Best effort: a leftover trace file is ignored by git.
        let _ = std::fs::remove_file(&self.path);
    }
}
