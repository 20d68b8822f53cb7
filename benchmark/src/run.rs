//! One run of one workload: set up several times, time reps for the asked
//! duration, check the outputs, and reduce every metric to its median.
//!
//! Set-up takes between 0.4 ms (`fabric-loaded`) and 120 ms (`fabric-idle`).
//! A relative bound on a single timing of the former would gate on timer
//! noise, so no set-up sample is shorter than [`SETUP_SAMPLE_S`]: a sample
//! is the mean of as many consecutive set-ups as it takes to fill that long.

use crate::alloc;
use crate::catalog::Catalog;
use crate::span::Recorder;
use crate::workloads::{self, Metrics, Size};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use swallow_metrics::percentile;

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
/// Consecutive set-ups are averaged into one sample until they have taken
/// this long together, seconds.
const SETUP_SAMPLE_S: f64 = 0.2;
/// Timed reps per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Workload name, as in `BENCHMARK.json`.
    pub workload: String,
    /// Seed of every generator.
    pub seed: u64,
    /// Keep timing reps until they have measured this long, seconds.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// Input size; [`Size::Smoke`] also means two reps and no regime guard.
    pub size: Size,
    /// Where to write the spans of a traced run.
    pub trace_out: Option<PathBuf>,
}

/// A metric over the reps (or set-ups) of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Median: the reported value.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stat {
    fn of(samples: &[f64]) -> Stat {
        Stat {
            median: percentile(samples, 50.0),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The options the run was made with.
    pub opts: RunOpts,
    /// Outputs were right: nothing failed, every rep hashed the same, and
    /// the workload stayed in the regime its name states.
    pub correct: bool,
    /// Units of work attempted over all reps.
    pub attempted: u64,
    /// Units of work that failed over all reps.
    pub failed: u64,
    /// Output hash of the reps (of the first, should they differ).
    pub checksum: u64,
    /// Timed reps made.
    pub reps: usize,
    /// Every metric measured, by name.
    pub stats: BTreeMap<&'static str, Stat>,
    /// The workload's frozen parameters.
    pub params: Value,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

/// `VmHWM` of this process in MB, if procfs shows it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Run one workload. `Err` is a run that could not be made (unknown
/// workload, set-up failed); a run that was made but came out wrong is
/// `Ok` with `correct == false`.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let smoke = opts.size == Size::Smoke;
    if cfg!(debug_assertions) && !smoke {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let catalog = Catalog::get();
    let mut rec = Recorder::new(opts.traced);
    alloc::set_counting(opts.traced);

    // Set-up, several times over; the last one is kept and timed against.
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut workload = None;
    for _ in 0..SETUP_SAMPLES {
        let mut sums = Metrics::new();
        let mut made = 0.0;
        while made == 0.0 || (!smoke && sums["setup_s"] < SETUP_SAMPLE_S) {
            drop(workload.take()); // outside the timer
            let t = Instant::now();
            let (w, measured) = rec.span("setup", |_| {
                workloads::build(&opts.workload, opts.seed, opts.size)
            })?;
            *sums.entry("setup_s").or_default() += t.elapsed().as_secs_f64();
            workload = Some(w);
            for (name, v) in measured {
                *sums.entry(name).or_default() += v;
            }
            made += 1.0;
        }
        for (name, sum) in sums {
            samples.entry(name).or_default().push(sum / made);
        }
    }
    let mut workload = workload.expect("set-up ran at least once");

    // Timed reps.
    let min_reps = if smoke { 2 } else { MIN_REPS };
    let (mut attempted, mut failed, mut measured_s) = (0, 0, 0.0);
    let mut checksums = Vec::new();
    while checksums.len() < min_reps || measured_s < opts.seconds {
        let out = rec.span("rep", |rec| workload.rep(rec));
        measured_s += out.metrics["wall_s"];
        attempted += out.attempted;
        failed += out.failed;
        checksums.push(out.checksum);
        for (name, v) in out.metrics {
            samples.entry(name).or_default().push(v);
        }
    }
    alloc::set_counting(false);

    let mut stats: BTreeMap<&'static str, Stat> = samples
        .iter()
        .map(|(name, values)| (*name, Stat::of(values)))
        .collect();
    if let Some(mb) = peak_rss_mb() {
        stats.insert("peak_rss_mb", Stat::of(&[mb]));
    }
    stats.insert(
        "bench.failed_share",
        Stat::of(&[failed as f64 / attempted.max(1) as f64]),
    );
    if opts.traced {
        stats.insert("bench.traced_wall_s", stats["wall_s"]);
    }
    for name in stats.keys() {
        assert!(
            catalog.metric(name).is_some(),
            "metric {name} is not listed in BENCHMARK.json"
        );
    }

    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    if checksums.iter().any(|c| *c != checksums[0]) {
        problems.push(format!("reps disagree on the output hash: {checksums:x?}"));
    }
    if !smoke {
        let medians: Metrics = stats.iter().map(|(n, s)| (*n, s.median)).collect();
        problems.extend(workload.regime_problems(&medians));
    }
    if !opts.traced {
        for def in &catalog.end_to_end {
            if !stats.contains_key(def.name.as_str()) {
                problems.push(format!("end-to-end metric {} was not measured", def.name));
            }
        }
    }

    if let Some(path) = &opts.trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{}\n", rec.to_json(&opts.workload)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    Ok(RunResult {
        opts: opts.clone(),
        correct: problems.is_empty(),
        attempted,
        failed,
        checksum: checksums[0],
        reps: checksums.len(),
        stats,
        params: workload.params(),
        problems,
    })
}

impl RunResult {
    /// The metrics this run prints — end-to-end when untraced, per-layer
    /// when traced — as `(definition, stat)`. A per-layer metric the
    /// workload has no such layer for reads 0.
    fn printed(&self) -> impl Iterator<Item = (&crate::catalog::MetricDef, Stat)> + '_ {
        Catalog::get().printed(self.opts.traced).iter().map(|def| {
            let stat = self.stats.get(def.name.as_str()).copied();
            (def, stat.unwrap_or(Stat::of(&[0.0])))
        })
    }

    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_json(&self) -> Value {
        let metrics: Map<String, Value> = self
            .printed()
            .map(|(def, s)| {
                (
                    def.name.clone(),
                    json!({ "value": s.median, "unit": def.unit }),
                )
            })
            .collect();
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }

    /// Everything the suite records about the run: the printed metrics with
    /// their spread, the output hash, the parameters.
    pub fn detail_json(&self) -> Value {
        let metrics: Map<String, Value> = self
            .printed()
            .map(|(def, s)| {
                let v = json!({
                    "value": s.median,
                    "unit": def.unit,
                    "min": s.min,
                    "max": s.max,
                    "samples": s.n,
                });
                (def.name.clone(), v)
            })
            .collect();
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "reps": self.reps,
            "result_checksum": format!("{:016x}", self.checksum),
            "params": self.params,
            "problems": self.problems,
            "metrics": metrics,
        })
    }

    /// Every printed metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {}, {} reps) result_checksum {:016x}\n",
            self.opts.workload,
            self.opts.seed,
            if self.opts.traced {
                "traced"
            } else {
                "untraced"
            },
            self.reps,
            self.checksum
        );
        for (def, s) in self.printed() {
            out.push_str(&format!(
                "  {:<32} {:>16.6} {:<6} (min {:.6}, max {:.6}, n {})\n",
                def.name, s.median, def.unit, s.min, s.max, s.n
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("  PROBLEM: {p}\n"));
        }
        out
    }
}
