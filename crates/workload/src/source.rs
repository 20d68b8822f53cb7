//! The unified workload API: one trait over synthetic generators and
//! imported traces.
//!
//! Every consumer — the engine (via [`swallow_fabric::Engine::from_arrivals`]),
//! the bench experiments, the oracle and the dash/replay commands — takes a
//! [`WorkloadSource`] and pulls an arrival-ordered stream of [`Coflow`]s from
//! it. Synthetic generators ([`CoflowGen`], [`FbMix`], [`HibenchWorkload`]
//! via [`HibenchSource`]) stream straight out of their RNG state; imported
//! traces stream from disk ([`TraceFile`]), with the Facebook benchmark
//! format never materialized (see [`crate::fb`]). An in-memory [`Trace`] is
//! itself a source.

use crate::error::WorkloadError;
use crate::fb::{FbHeader, MachineMap, StreamingTrace};
use crate::fbmix::FbMix;
use crate::gen::CoflowGen;
use crate::hibench::HibenchWorkload;
use crate::trace::{self, Trace};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use swallow_fabric::Coflow;

/// An owned, `Send` stream of coflows in non-decreasing arrival order.
/// Errors surface in-band so multi-GB imports fail at the offending line
/// without having been materialized first.
pub type CoflowStream = Box<dyn Iterator<Item = Result<Coflow, WorkloadError>> + Send>;

/// A workload the simulator can consume: a (restartable) stream of coflows
/// over a known fabric size.
pub trait WorkloadSource {
    /// Human-readable label for tables and reports.
    fn label(&self) -> String;

    /// Number of fabric ports the placements reference.
    fn num_nodes(&self) -> Result<usize, WorkloadError>;

    /// Open a fresh arrival-ordered stream. Each call restarts from the
    /// beginning (sources are deterministic), so differential replays can
    /// pull one stream per engine leg.
    fn stream(&self) -> Result<CoflowStream, WorkloadError>;

    /// Materialize the whole workload as a [`Trace`] (arrival-sorted).
    /// Prefer [`WorkloadSource::stream`] for anything large.
    fn load(&self) -> Result<Trace, WorkloadError> {
        let num_nodes = self.num_nodes()?;
        let coflows: Result<Vec<_>, _> = self.stream()?.collect();
        Ok(Trace::new(self.label(), num_nodes, coflows?))
    }
}

impl WorkloadSource for CoflowGen {
    fn label(&self) -> String {
        let c = self.config();
        format!("gen-{}x{}-seed{}", c.num_coflows, c.num_nodes, c.seed)
    }

    fn num_nodes(&self) -> Result<usize, WorkloadError> {
        Ok(self.config().num_nodes)
    }

    fn stream(&self) -> Result<CoflowStream, WorkloadError> {
        Ok(Box::new(self.iter().map(Ok)))
    }
}

impl WorkloadSource for FbMix {
    fn label(&self) -> String {
        format!(
            "fbmix-{}x{}-seed{}",
            self.num_coflows, self.num_nodes, self.seed
        )
    }

    fn num_nodes(&self) -> Result<usize, WorkloadError> {
        Ok(self.num_nodes)
    }

    fn stream(&self) -> Result<CoflowStream, WorkloadError> {
        if self.num_nodes < 2 {
            return Err(WorkloadError::InvalidConfig(format!(
                "FbMix needs at least two nodes, got {}",
                self.num_nodes
            )));
        }
        Ok(Box::new(self.iter().map(Ok)))
    }
}

/// [`HibenchWorkload`] bound to a cluster size, job count and seed — the
/// three arguments its `coflows` method takes — so it fits the one-call
/// [`WorkloadSource`] shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HibenchSource {
    /// The application/scale pair.
    pub workload: HibenchWorkload,
    /// Cluster size.
    pub num_nodes: usize,
    /// Number of shuffle jobs (coflows).
    pub num_jobs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSource for HibenchSource {
    fn label(&self) -> String {
        format!(
            "hibench-{:?}-{}-seed{}",
            self.workload.app,
            self.workload.scale.label(),
            self.seed
        )
        .to_lowercase()
    }

    fn num_nodes(&self) -> Result<usize, WorkloadError> {
        Ok(self.num_nodes)
    }

    fn stream(&self) -> Result<CoflowStream, WorkloadError> {
        if self.num_nodes < 2 {
            return Err(WorkloadError::InvalidConfig(format!(
                "Hibench workload needs at least two machines, got {}",
                self.num_nodes
            )));
        }
        if self.num_jobs < 1 {
            return Err(WorkloadError::InvalidConfig(
                "Hibench workload needs at least one job".into(),
            ));
        }
        // Job counts are small (tens); materializing is the simple and
        // correct choice here — the streaming contract is about traces.
        let coflows = self
            .workload
            .coflows(self.num_nodes, self.num_jobs, self.seed);
        Ok(Box::new(coflows.into_iter().map(Ok)))
    }
}

impl WorkloadSource for Trace {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn num_nodes(&self) -> Result<usize, WorkloadError> {
        Ok(self.num_nodes)
    }

    fn stream(&self) -> Result<CoflowStream, WorkloadError> {
        // `Trace::new` sorted by arrival, so the clone streams in order.
        Ok(Box::new(self.coflows.clone().into_iter().map(Ok)))
    }

    fn load(&self) -> Result<Trace, WorkloadError> {
        Ok(self.clone())
    }
}

/// On-disk trace formats [`TraceFile`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The crate's own JSON trace document.
    Json,
    /// The flow-per-row CSV (`coflow,arrival,flow,src,dst,size,compressible`).
    Csv,
    /// The Facebook coflow-benchmark text format (see [`crate::fb`]) —
    /// the only format that streams instead of materializing.
    Fb,
}

/// A trace file on disk, consumed through [`WorkloadSource`].
///
/// `.json` and `.csv` files parse through the legacy [`Trace`] readers (they
/// are small-scale formats and materialize); everything else is treated as
/// the Facebook benchmark format and **streams**. For Facebook traces the
/// fabric size comes from, in order: an explicit [`TraceFile::with_ports`],
/// the trace's `<num_machines> <num_coflows>` header, else an error asking
/// for one of the two.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    path: PathBuf,
    format: TraceFormat,
    ports: Option<usize>,
    wrap: bool,
}

impl TraceFile {
    /// Open `path`, inferring the format from the extension (`.json`,
    /// `.csv`, anything else → Facebook benchmark format).
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path: PathBuf = path.into();
        let format = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => TraceFormat::Json,
            Some("csv") => TraceFormat::Csv,
            _ => TraceFormat::Fb,
        };
        Self {
            path,
            format,
            ports: None,
            wrap: false,
        }
    }

    /// Force a format regardless of extension.
    pub fn with_format(mut self, format: TraceFormat) -> Self {
        self.format = format;
        self
    }

    /// Map Facebook machine slots onto exactly `ports` fabric ports
    /// (overrides the trace header).
    pub fn with_ports(mut self, ports: usize) -> Self {
        self.ports = Some(ports);
        self
    }

    /// Fold machine slots beyond the fabric back onto it modulo the port
    /// count instead of failing (see [`MachineMap::wrapping`]).
    pub fn with_wrap(mut self) -> Self {
        self.wrap = true;
        self
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The resolved format.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Read the Facebook-format header, if the file has one. `Ok(None)` for
    /// headerless Facebook traces and for the other formats.
    pub fn header(&self) -> Result<Option<FbHeader>, WorkloadError> {
        if self.format != TraceFormat::Fb {
            return Ok(None);
        }
        // The map is irrelevant for header reading; use a permissive one.
        let mut s = StreamingTrace::new(self.reader()?, MachineMap::wrapping(2).expect("valid"));
        s.header()
    }

    fn reader(&self) -> Result<BufReader<File>, WorkloadError> {
        File::open(&self.path)
            .map(BufReader::new)
            .map_err(|e| WorkloadError::Io(format!("{}: {e}", self.path.display())))
    }

    fn read_text(&self) -> Result<String, WorkloadError> {
        std::fs::read_to_string(&self.path)
            .map_err(|e| WorkloadError::Io(format!("{}: {e}", self.path.display())))
    }

    fn machine_map(&self) -> Result<MachineMap, WorkloadError> {
        let ports = self.num_nodes()?;
        if self.wrap {
            MachineMap::wrapping(ports)
        } else {
            MachineMap::strict(ports)
        }
    }
}

impl WorkloadSource for TraceFile {
    fn label(&self) -> String {
        self.path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
            .to_string()
    }

    fn num_nodes(&self) -> Result<usize, WorkloadError> {
        if let Some(p) = self.ports {
            return Ok(p);
        }
        match self.format {
            TraceFormat::Json | TraceFormat::Csv => Ok(self.load()?.num_nodes),
            TraceFormat::Fb => match self.header()? {
                Some(h) if h.num_machines >= 2 => Ok(h.num_machines),
                Some(h) => Err(WorkloadError::InvalidConfig(format!(
                    "{}: header declares {} machine(s); need at least two",
                    self.path.display(),
                    h.num_machines
                ))),
                None => Err(WorkloadError::InvalidConfig(format!(
                    "{}: headerless Facebook trace; pass an explicit port count",
                    self.path.display()
                ))),
            },
        }
    }

    fn stream(&self) -> Result<CoflowStream, WorkloadError> {
        match self.format {
            TraceFormat::Json | TraceFormat::Csv => {
                let trace = self.load()?;
                Ok(Box::new(trace.coflows.into_iter().map(Ok)))
            }
            TraceFormat::Fb => {
                let map = self.machine_map()?;
                Ok(Box::new(StreamingTrace::new(self.reader()?, map)))
            }
        }
    }

    fn load(&self) -> Result<Trace, WorkloadError> {
        let name = self.label();
        match self.format {
            TraceFormat::Json => Ok(trace::parse_json(&self.read_text()?)?),
            TraceFormat::Csv => Ok(trace::parse_csv(name, &self.read_text()?)?),
            TraceFormat::Fb => {
                let num_nodes = self.num_nodes()?;
                let coflows: Result<Vec<_>, _> = self.stream()?.collect();
                Ok(Trace::new(name, num_nodes, coflows?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    #[test]
    fn generator_stream_matches_generate() {
        let gen = CoflowGen::new(GenConfig {
            num_coflows: 25,
            num_nodes: 8,
            ..GenConfig::default()
        });
        let streamed: Result<Vec<_>, _> = gen.stream().unwrap().collect();
        assert_eq!(streamed.unwrap(), gen.generate());
        assert_eq!(gen.num_nodes().unwrap(), 8);
        assert!(gen.label().contains("25x8"));
    }

    #[test]
    fn fbmix_stream_matches_generate() {
        let mix = FbMix::new(40, 10, 1e6, 3);
        let streamed: Result<Vec<_>, _> = mix.stream().unwrap().collect();
        assert_eq!(streamed.unwrap(), mix.generate());
    }

    #[test]
    fn hibench_source_streams_jobs() {
        use crate::hibench::WorkloadScale;
        use swallow_compress::HibenchApp;
        let src = HibenchSource {
            workload: HibenchWorkload::new(HibenchApp::Sort, WorkloadScale::Large),
            num_nodes: 12,
            num_jobs: 4,
            seed: 9,
        };
        let t = src.load().unwrap();
        assert_eq!(t.coflows.len(), 4);
        assert_eq!(t.num_nodes, 12);
        let bad = HibenchSource {
            num_nodes: 1,
            ..src
        };
        assert!(matches!(bad.stream(), Err(WorkloadError::InvalidConfig(_))));
    }

    #[test]
    fn trace_is_its_own_source() {
        let gen = CoflowGen::new(GenConfig {
            num_coflows: 5,
            num_nodes: 4,
            ..GenConfig::default()
        });
        let t = Trace::new("t", 4, gen.generate());
        let back: Result<Vec<_>, _> = t.stream().unwrap().collect();
        assert_eq!(back.unwrap(), t.coflows);
        assert_eq!(t.load().unwrap(), t);
    }

    #[test]
    fn trace_file_format_inference() {
        assert_eq!(TraceFile::open("a/b.json").format(), TraceFormat::Json);
        assert_eq!(TraceFile::open("a/b.csv").format(), TraceFormat::Csv);
        assert_eq!(TraceFile::open("a/b.txt").format(), TraceFormat::Fb);
        assert_eq!(TraceFile::open("a/b.fb").format(), TraceFormat::Fb);
        assert_eq!(TraceFile::open("a/fbtrace").format(), TraceFormat::Fb);
    }

    #[test]
    fn missing_file_is_io_error() {
        let f = TraceFile::open("definitely/not/here.fb").with_ports(4);
        assert!(matches!(f.stream(), Err(WorkloadError::Io(_))));
    }
}
