//! Cross-process determinism pin for `paper dash`: two collections with the
//! same seed and stride must serialize to byte-identical deterministic
//! snapshots — the exact bytes `DASH_report.json` is built from. The CI
//! `dash-smoke` job re-checks the same property end-to-end (two full binary
//! invocations, `cmp` on the written files); this test keeps the guarantee
//! under plain `cargo test` without shelling out.

use swallow_bench::experiments::dash_cmd;

fn report_bytes(seed: u64, stride: u64) -> String {
    let snap = dash_cmd::collect("small", seed, stride).deterministic();
    serde_json::to_string_pretty(&snap).expect("snapshot serializes")
}

#[test]
fn same_seed_dash_reports_are_byte_identical() {
    let a = report_bytes(7, 4);
    let b = report_bytes(7, 4);
    assert_eq!(a, b, "same seed+stride must reproduce DASH_report.json");
}

#[test]
fn different_seeds_change_the_report() {
    // Under the real serde the two seeded runs must differ; the no-op stub
    // serializer renders every snapshot identically, so the property only
    // exists under a real toolchain.
    swallow_metrics::skip_if_stub!();
    let a = report_bytes(7, 4);
    let b = report_bytes(8, 4);
    assert_ne!(a, b, "different seeds should perturb the telemetry");
}
