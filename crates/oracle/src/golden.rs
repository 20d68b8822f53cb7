//! Golden paper-figure regression: committed expectations for the
//! fig6a-class CCT comparisons.
//!
//! A golden file (`tests/golden/oracle_<exp>_seed<N>.json`) records, per
//! policy, the expected **normalized average CCT** — the policy's average
//! CCT divided by FVDF's on the same workload, the unit the paper's Fig. 6
//! bars are drawn in. Normalization makes the goldens robust to absolute
//! time-unit changes while still pinning the *relative* ordering the paper
//! claims.
//!
//! Each entry is either **pinned** (`|measured − pinned| ≤ tolerance`,
//! refreshed from a trusted run via `paper oracle <exp> --refresh-golden`)
//! or a **band** (`lo ≤ measured ≤ hi`, a hand-set sanity envelope for
//! baselines whose exact value is allowed to drift with engine precision).
//! FVDF itself is pinned at exactly `1.0`: it is the normalization
//! denominator, so any deviation means the harness itself broke.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Expected normalized CCT for one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenEntry {
    /// Exact expectation, compared within the figure-wide `tolerance`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pinned: Option<f64>,
    /// Inclusive `[lo, hi]` sanity band (used when no pinned value exists).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub band: Option<[f64; 2]>,
}

/// One committed golden figure: expectations for every policy in one
/// experiment at one seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenFigure {
    /// Experiment name (`fig6a`, `small`).
    pub experiment: String,
    /// Workload seed the expectations were recorded at.
    pub seed: u64,
    /// Absolute tolerance for pinned comparisons (normalized-CCT units).
    pub tolerance: f64,
    /// Per-policy expectations, keyed by policy name.
    pub policies: BTreeMap<String, GoldenEntry>,
}

/// Outcome of comparing one policy against its golden entry.
#[derive(Debug, Clone, Serialize)]
pub struct GoldenDiff {
    /// Policy name.
    pub policy: String,
    /// Measured normalized CCT (`None` when the run did not produce it).
    pub measured: Option<f64>,
    /// What the golden expected, rendered for the report.
    pub expected: String,
    /// True when the measurement satisfies the expectation.
    pub ok: bool,
}

/// Full comparison of a run against a golden figure.
#[derive(Debug, Clone, Serialize)]
pub struct GoldenReport {
    /// Per-policy verdicts.
    pub diffs: Vec<GoldenDiff>,
    /// True when every policy matched.
    pub ok: bool,
}

impl GoldenFigure {
    /// Parse a committed golden file.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Serialize for committing (stable key order via `BTreeMap`).
    pub fn to_json_pretty(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("golden serializes");
        s.push('\n');
        s
    }

    /// Build a fresh golden from measured values, pinning every policy.
    /// This is the `--refresh-golden` path; commit the output only after a
    /// deliberate, reviewed behavior change.
    pub fn from_measurements(
        experiment: &str,
        seed: u64,
        tolerance: f64,
        measured: &BTreeMap<String, f64>,
    ) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        Self {
            experiment: experiment.to_string(),
            seed,
            tolerance,
            policies: measured
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        GoldenEntry {
                            pinned: Some(v),
                            band: None,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Compare measured normalized CCTs against this golden. Policies the
    /// golden lists but the run omits, and policies the run produced but
    /// the golden never heard of, both count as drift.
    pub fn compare(&self, measured: &BTreeMap<String, f64>) -> GoldenReport {
        let mut diffs = Vec::new();
        for (policy, entry) in &self.policies {
            let m = measured.get(policy).copied();
            let (ok, expected) = match (m, entry.pinned, entry.band) {
                (None, _, _) => (false, "a measurement".to_string()),
                (Some(v), Some(p), _) => (
                    (v - p).abs() <= self.tolerance,
                    format!("{p} ± {}", self.tolerance),
                ),
                (Some(v), None, Some([lo, hi])) => {
                    ((lo..=hi).contains(&v), format!("within [{lo}, {hi}]"))
                }
                (Some(_), None, None) => (false, "a pinned value or band".to_string()),
            };
            diffs.push(GoldenDiff {
                policy: policy.clone(),
                measured: m,
                expected,
                ok,
            });
        }
        for policy in measured.keys() {
            if !self.policies.contains_key(policy) {
                diffs.push(GoldenDiff {
                    policy: policy.clone(),
                    measured: measured.get(policy).copied(),
                    expected: "absence (policy not in golden)".to_string(),
                    ok: false,
                });
            }
        }
        let ok = diffs.iter().all(|d| d.ok);
        GoldenReport { diffs, ok }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> GoldenFigure {
        GoldenFigure {
            experiment: "unit".to_string(),
            seed: 7,
            tolerance: 0.02,
            policies: [
                (
                    "fvdf".to_string(),
                    GoldenEntry {
                        pinned: Some(1.0),
                        band: None,
                    },
                ),
                (
                    "srtf".to_string(),
                    GoldenEntry {
                        pinned: None,
                        band: Some([0.5, 8.0]),
                    },
                ),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn committed_json_form_parses_to_the_same_figure() {
        // The offline stub serializer cannot parse into a struct; the
        // compare() semantics below are covered on the direct form either way.
        swallow_metrics::skip_if_stub!();
        let parsed = GoldenFigure::from_json(
            r#"{
                "experiment": "unit",
                "seed": 7,
                "tolerance": 0.02,
                "policies": {
                    "fvdf": { "pinned": 1.0 },
                    "srtf": { "band": [0.5, 8.0] }
                }
            }"#,
        )
        .unwrap();
        assert_eq!(parsed, golden());
    }

    fn measured(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn matching_measurements_pass() {
        let report = golden().compare(&measured(&[("fvdf", 1.0), ("srtf", 1.7)]));
        assert!(report.ok, "{:?}", report.diffs);
    }

    #[test]
    fn pinned_drift_beyond_tolerance_fails() {
        let report = golden().compare(&measured(&[("fvdf", 1.05), ("srtf", 1.7)]));
        assert!(!report.ok);
        let fvdf = report.diffs.iter().find(|d| d.policy == "fvdf").unwrap();
        assert!(!fvdf.ok);
    }

    #[test]
    fn pinned_drift_within_tolerance_passes() {
        let report = golden().compare(&measured(&[("fvdf", 1.015), ("srtf", 1.7)]));
        assert!(report.diffs.iter().find(|d| d.policy == "fvdf").unwrap().ok);
    }

    #[test]
    fn band_violations_fail() {
        for v in [0.4, 8.5] {
            let report = golden().compare(&measured(&[("fvdf", 1.0), ("srtf", v)]));
            assert!(!report.ok, "srtf={v} should be outside the band");
        }
    }

    #[test]
    fn missing_and_unexpected_policies_are_drift() {
        let report = golden().compare(&measured(&[("fvdf", 1.0)]));
        assert!(!report.ok, "missing srtf must fail");
        let report = golden().compare(&measured(&[("fvdf", 1.0), ("srtf", 1.7), ("mystery", 1.0)]));
        assert!(!report.ok, "unknown policy must fail");
    }

    #[test]
    fn refresh_roundtrip_is_stable_and_self_consistent() {
        let m = measured(&[("fvdf", 1.0), ("srtf", 1.712345)]);
        let fresh = GoldenFigure::from_measurements("unit", 7, 0.02, &m);
        assert!(fresh.compare(&m).ok, "a refreshed golden matches its source");
        swallow_metrics::skip_if_stub!();
        let text = fresh.to_json_pretty();
        let back = GoldenFigure::from_json(&text).unwrap();
        assert_eq!(back, fresh);
        assert!(back.compare(&m).ok, "a refreshed golden matches its source");
    }
}
