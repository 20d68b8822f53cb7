//! Trace container and (de)serialization.
//!
//! Traces round-trip through JSON (via `serde_json`) and through a simple
//! one-row-per-flow CSV (`coflow,arrival,flow,src,dst,size,compressible`)
//! that external tooling can produce. Deadline workloads add an optional
//! eighth column, `deadline` (absolute seconds; empty = none), which the
//! parser accepts and `to_csv` emits only when at least one coflow carries
//! a deadline — deadline-free traces keep their historical byte layout.

use serde::{Deserialize, Serialize};
use std::fmt;
use swallow_fabric::{Coflow, FlowSpec};

/// A named coflow trace over a fixed-size cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable trace name.
    pub name: String,
    /// Number of machines the placements reference.
    pub num_nodes: usize,
    /// The coflows, arrival-sorted.
    pub coflows: Vec<Coflow>,
}

/// Errors raised while parsing external trace files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A CSV row did not have the expected 7 (or, with a deadline, 8) fields.
    BadRow(usize),
    /// A CSV field failed to parse.
    BadField {
        /// 1-based row.
        row: usize,
        /// Field name.
        field: &'static str,
    },
    /// JSON parse failure (message).
    Json(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadRow(r) => {
                write!(f, "row {r}: expected 7 or 8 comma-separated fields")
            }
            TraceError::BadField { row, field } => write!(f, "row {row}: bad field `{field}`"),
            TraceError::Json(m) => write!(f, "json: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Wrap generated coflows.
    pub fn new(name: impl Into<String>, num_nodes: usize, mut coflows: Vec<Coflow>) -> Self {
        coflows.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Self {
            name: name.into(),
            num_nodes,
            coflows,
        }
    }

    /// Total flows across all coflows.
    pub fn num_flows(&self) -> usize {
        self.coflows.iter().map(|c| c.num_flows()).sum()
    }

    /// Total bytes across all coflows.
    pub fn total_bytes(&self) -> f64 {
        self.coflows.iter().map(|c| c.total_bytes()).sum()
    }

    /// Keep only the largest `frac ∈ (0, 1]` of flows by size — the paper's
    /// "97% flows"/"95% flows" trace variants drop the smallest flows
    /// ("e.g., size in kilobyte"). Coflows left empty are removed.
    pub fn retain_top_fraction(&self, frac: f64) -> Trace {
        assert!(frac > 0.0 && frac <= 1.0, "fraction must be in (0,1]");
        let mut sizes: Vec<f64> = self
            .coflows
            .iter()
            .flat_map(|c| c.flows.iter().map(|f| f.size))
            .collect();
        sizes.sort_by(f64::total_cmp);
        let cut_idx = ((1.0 - frac) * sizes.len() as f64).floor() as usize;
        let threshold = if cut_idx == 0 {
            f64::NEG_INFINITY
        } else {
            sizes[cut_idx.min(sizes.len() - 1)]
        };
        let coflows: Vec<Coflow> = self
            .coflows
            .iter()
            .filter_map(|c| {
                let flows: Vec<FlowSpec> = c
                    .flows
                    .iter()
                    .filter(|f| f.size >= threshold)
                    .cloned()
                    .collect();
                if flows.is_empty() {
                    None
                } else {
                    Some(Coflow {
                        id: c.id,
                        arrival: c.arrival,
                        deadline: c.deadline,
                        flows,
                    })
                }
            })
            .collect();
        Trace {
            name: format!("{} (top {:.0}%)", self.name, frac * 100.0),
            num_nodes: self.num_nodes,
            coflows,
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Serialize to the flow-per-row CSV format (with header). The
    /// `deadline` column appears only when some coflow has one, so
    /// deadline-free traces serialize exactly as they always have.
    pub fn to_csv(&self) -> String {
        let with_deadlines = self.coflows.iter().any(|c| c.deadline.is_some());
        let mut out = String::from("coflow,arrival,flow,src,dst,size,compressible");
        if with_deadlines {
            out.push_str(",deadline");
        }
        out.push('\n');
        for c in &self.coflows {
            for f in &c.flows {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{}",
                    c.id.0, c.arrival, f.id.0, f.src.0, f.dst.0, f.size, f.compressible
                ));
                if with_deadlines {
                    out.push(',');
                    if let Some(d) = c.deadline {
                        out.push_str(&format!("{d}"));
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

/// JSON parse behind [`crate::source::TraceFile`].
pub(crate) fn parse_json(s: &str) -> Result<Trace, TraceError> {
    serde_json::from_str(s).map_err(|e| TraceError::Json(e.to_string()))
}

/// CSV parse behind [`crate::source::TraceFile`] (header optional).
/// `num_nodes` is inferred from the largest node index.
pub(crate) fn parse_csv(name: impl Into<String>, s: &str) -> Result<Trace, TraceError> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<u64, (f64, Option<f64>, Vec<FlowSpec>)> = BTreeMap::new();
    let mut max_node = 0u32;
    for (i, line) in s.lines().enumerate() {
        let row = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with("coflow,") || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 7 && parts.len() != 8 {
            return Err(TraceError::BadRow(row));
        }
        let field = |idx: usize, name: &'static str| -> Result<f64, TraceError> {
            parts[idx]
                .trim()
                .parse::<f64>()
                .map_err(|_| TraceError::BadField { row, field: name })
        };
        let coflow = field(0, "coflow")? as u64;
        let arrival = field(1, "arrival")?;
        let flow = field(2, "flow")? as u64;
        let src = field(3, "src")? as u32;
        let dst = field(4, "dst")? as u32;
        let size = field(5, "size")?;
        let compressible = match parts[6].trim() {
            "true" | "1" => true,
            "false" | "0" => false,
            _ => {
                return Err(TraceError::BadField {
                    row,
                    field: "compressible",
                })
            }
        };
        let deadline = match parts.get(7).map(|p| p.trim()) {
            None | Some("") => None,
            Some(d) => Some(d.parse::<f64>().map_err(|_| TraceError::BadField {
                row,
                field: "deadline",
            })?),
        };
        max_node = max_node.max(src).max(dst);
        let mut spec = FlowSpec::new(flow, src, dst, size);
        if !compressible {
            spec = spec.incompressible();
        }
        let entry = groups.entry(coflow).or_insert((arrival, deadline, Vec::new()));
        entry.2.push(spec);
        entry.0 = arrival;
        entry.1 = deadline;
    }
    let coflows: Vec<Coflow> = groups
        .into_iter()
        .map(|(id, (arrival, deadline, flows))| Coflow {
            id: swallow_fabric::CoflowId(id),
            arrival,
            deadline,
            flows,
        })
        .collect();
    Ok(Trace::new(name, (max_node + 1) as usize, coflows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{CoflowGen, GenConfig};

    fn small_trace() -> Trace {
        let coflows = CoflowGen::new(GenConfig {
            num_coflows: 10,
            num_nodes: 5,
            ..GenConfig::default()
        })
        .generate();
        Trace::new("test", 5, coflows)
    }

    #[test]
    fn json_roundtrip() {
        // The JSON bytes are the subject; the offline stub serializer
        // renders every struct as `{}`, so the property only exists under
        // a real toolchain.
        swallow_metrics::skip_if_stub!();
        let t = small_trace();
        let s = t.to_json();
        let back = parse_json(&s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn csv_roundtrip() {
        let t = small_trace();
        let s = t.to_csv();
        let back = parse_csv("test", &s).unwrap();
        assert_eq!(t.num_flows(), back.num_flows());
        assert!((t.total_bytes() - back.total_bytes()).abs() < 1.0);
        assert_eq!(t.num_nodes, back.num_nodes);
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        assert_eq!(parse_csv("x", "1,2,3\n"), Err(TraceError::BadRow(1)));
        let bad_bool = "0,0.0,0,1,2,100,maybe\n";
        assert!(matches!(
            parse_csv("x", bad_bool),
            Err(TraceError::BadField {
                field: "compressible",
                ..
            })
        ));
        let bad_size = "0,0.0,0,1,2,huge,true\n";
        assert!(matches!(
            parse_csv("x", bad_size),
            Err(TraceError::BadField { field: "size", .. })
        ));
    }

    #[test]
    fn csv_deadline_column_round_trips() {
        let mut t = small_trace();
        t.coflows[0].deadline = Some(12.5);
        t.coflows[3].deadline = Some(40.0);
        let s = t.to_csv();
        assert!(s.starts_with("coflow,arrival,flow,src,dst,size,compressible,deadline\n"));
        let back = parse_csv("test", &s).unwrap();
        let find = |id: u64| {
            back.coflows
                .iter()
                .find(|c| c.id.0 == id)
                .expect("coflow survives")
        };
        assert_eq!(find(t.coflows[0].id.0).deadline, Some(12.5));
        assert_eq!(find(t.coflows[3].id.0).deadline, Some(40.0));
        assert!(back
            .coflows
            .iter()
            .filter(|c| c.id != t.coflows[0].id && c.id != t.coflows[3].id)
            .all(|c| c.deadline.is_none()));
        // Deadline-free traces keep the historical 7-column layout.
        let plain = small_trace().to_csv();
        assert!(plain.starts_with("coflow,arrival,flow,src,dst,size,compressible\n"));
        assert!(!plain.contains("deadline"));
    }

    #[test]
    fn csv_rejects_bad_deadline_field() {
        let bad = "0,0.0,0,1,2,100,true,soon\n";
        assert!(matches!(
            parse_csv("x", bad),
            Err(TraceError::BadField {
                field: "deadline",
                ..
            })
        ));
    }

    #[test]
    fn bad_json_is_error_not_panic() {
        assert!(matches!(parse_json("{not json"), Err(TraceError::Json(_))));
    }

    #[test]
    fn retain_top_fraction_drops_smallest() {
        let t = small_trace();
        let kept = t.retain_top_fraction(0.5);
        assert!(kept.num_flows() <= t.num_flows());
        assert!(kept.num_flows() >= t.num_flows() / 2 - 1);
        // Smallest surviving flow is at least the median of the original.
        let mut sizes: Vec<f64> = t
            .coflows
            .iter()
            .flat_map(|c| c.flows.iter().map(|f| f.size))
            .collect();
        sizes.sort_by(f64::total_cmp);
        let median = sizes[sizes.len() / 2 - 1];
        let min_kept = kept
            .coflows
            .iter()
            .flat_map(|c| c.flows.iter().map(|f| f.size))
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_kept >= median * 0.999,
            "min_kept={min_kept}, median={median}"
        );
    }

    #[test]
    fn retain_all_is_identity_modulo_name() {
        let t = small_trace();
        let kept = t.retain_top_fraction(1.0);
        assert_eq!(kept.num_flows(), t.num_flows());
    }

    #[test]
    fn stats() {
        let t = small_trace();
        assert!(t.num_flows() > 0);
        assert!(t.total_bytes() > 0.0);
    }
}
