//! `--compare A.json B.json`: two result files side by side. For every
//! workload and end-to-end metric it prints both medians and the relative
//! difference, and it fails when a difference exceeds the metric's bound in
//! `BENCHMARK.json` or the two files disagree on a `result_checksum`.
//! Between two files of one seed the simulated metrics ([`DETERMINISTIC`])
//! must be equal to the bit. Used for the self-agreement check (one commit,
//! one seed, two sets of runs) and for every parent-versus-change report.

use crate::catalog::Catalog;
use serde_json::Value;
use std::path::Path;

/// End-to-end metrics that the inputs alone decide: their bound in
/// `BENCHMARK.json` covers what another seed may move them by; with the
/// seed held they may not move at all.
pub const DETERMINISTIC: [&str; 2] = ["sim_avg_cct_s", "wire_ratio"];

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result files; the report, and whether they agree.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    let catalog = Catalog::get();
    let mut report = format!(
        "A = {} (commit {}, seed {})\nB = {} (commit {}, seed {})\n",
        a.display(),
        doc_a["env"]["commit"].as_str().unwrap_or("?"),
        doc_a["env"]["seed"],
        b.display(),
        doc_b["env"]["commit"].as_str().unwrap_or("?"),
        doc_b["env"]["seed"],
    );
    let same_seed = doc_a["env"]["seed"] == doc_b["env"]["seed"];
    let mut agree = true;
    for workload in &catalog.workloads {
        let (wa, wb) = (
            &doc_a["workloads"][workload]["untraced"],
            &doc_b["workloads"][workload]["untraced"],
        );
        if wa.is_null() || wb.is_null() {
            report.push_str(&format!("{workload}: missing from one file\n"));
            agree = false;
            continue;
        }
        let same_hash = wa["result_checksum"] == wb["result_checksum"];
        agree &= same_hash;
        report.push_str(&format!(
            "{workload}: result_checksum {} {} {}\n",
            wa["result_checksum"].as_str().unwrap_or("?"),
            if same_hash { "==" } else { "!= (FAIL)" },
            wb["result_checksum"].as_str().unwrap_or("?"),
        ));
        for def in &catalog.end_to_end {
            let va = wa["metrics"][&def.name]["value"].as_f64();
            let vb = wb["metrics"][&def.name]["value"].as_f64();
            let (Some(va), Some(vb)) = (va, vb) else {
                report.push_str(&format!("  {:<16} missing (FAIL)\n", def.name));
                agree = false;
                continue;
            };
            let rel = if va == vb { 0.0 } else { (vb - va) / va.abs() };
            let exact = same_seed && DETERMINISTIC.contains(&def.name.as_str());
            let bound = if exact { 0.0 } else { def.bound.unwrap_or(0.0) };
            let worse = if def.higher_is_better {
                rel < 0.0
            } else {
                rel > 0.0
            };
            let verdict = match (rel.abs() > bound, worse) {
                (false, _) => "ok",
                (true, true) => "WORSE beyond bound (FAIL)",
                (true, false) => "BETTER beyond bound (FAIL)",
            };
            agree &= rel.abs() <= bound;
            report.push_str(&format!(
                "  {:<16} A {:>14.6}  B {:>14.6} {:<5} {:>+8.2} %  (bound {:.0} %) {verdict}\n",
                def.name,
                va,
                vb,
                def.unit,
                rel * 100.0,
                bound * 100.0,
            ));
        }
    }
    Ok((report, agree))
}
