//! The metric and workload catalogue, read from the `BENCHMARK.json` at the
//! root of the repository (compiled in, so the binary and the contract file
//! cannot drift apart): names, units, directions and regression bounds are
//! stated there once and looked up here.

use serde_json::Value;
use std::sync::OnceLock;

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics: what the untraced run prints.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics: what the traced run prints.
    pub per_layer: Vec<MetricDef>,
    /// How long one run measures, seconds.
    pub run_seconds: u64,
}

fn metric_defs(doc: &Value, key: &str) -> Vec<MetricDef> {
    let list = doc[key].as_array().expect("BENCHMARK.json: metric list");
    list.iter()
        .map(|m| MetricDef {
            name: m["name"].as_str().expect("metric name").to_string(),
            unit: m["unit"].as_str().expect("metric unit").to_string(),
            higher_is_better: m["better"].as_str() == Some("higher"),
            bound: m["bound"].as_f64(),
        })
        .collect()
}

impl Catalog {
    /// The catalogue compiled into this binary.
    pub fn get() -> &'static Catalog {
        static CATALOG: OnceLock<Catalog> = OnceLock::new();
        CATALOG.get_or_init(|| {
            let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
                .expect("BENCHMARK.json is valid JSON");
            let workloads = doc["workloads"].as_array().expect("workload list");
            Catalog {
                workloads: workloads
                    .iter()
                    .map(|w| w["name"].as_str().expect("workload name").to_string())
                    .collect(),
                end_to_end: metric_defs(&doc, "end_to_end"),
                per_layer: metric_defs(&doc, "per_layer"),
                run_seconds: doc["run_seconds"].as_u64().expect("run_seconds"),
            }
        })
    }

    /// The metrics one run prints: per-layer when traced, else end-to-end.
    pub fn printed(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Look a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
