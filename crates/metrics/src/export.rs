//! Telemetry exporters: Prometheus text exposition, JSONL time series, and
//! a self-contained HTML dashboard (inline SVG, no external assets).

use std::fmt::Write as _;

use crate::hist::LogHistogram;
use crate::telemetry::{TelemetrySample, TelemetrySnapshot, PORT_UTIL_BUCKETS};

/// Render a snapshot in Prometheus text exposition format (version 0.0.4):
/// the latest sample as gauges, run totals as counters, and the per-phase
/// latency histograms in native histogram exposition.
pub fn prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
        let _ = writeln!(out, "# HELP swallow_{name} {help}");
        let _ = writeln!(out, "# TYPE swallow_{name} gauge");
        let _ = writeln!(out, "swallow_{name} {value}");
    };
    let counter = |out: &mut String, name: &str, help: &str, value: f64| {
        let _ = writeln!(out, "# HELP swallow_{name} {help}");
        let _ = writeln!(out, "# TYPE swallow_{name} counter");
        let _ = writeln!(out, "swallow_{name} {value}");
    };

    if let Some(s) = snap.samples.last() {
        gauge(&mut out, "sim_time_seconds", "Simulated time.", s.time);
        gauge(
            &mut out,
            "active_coflows",
            "Coflows arrived and not yet finished.",
            s.active_coflows as f64,
        );
        gauge(
            &mut out,
            "pending_coflows",
            "Coflows not yet arrived.",
            s.pending_coflows as f64,
        );
        gauge(
            &mut out,
            "transmitting_flows",
            "Flows with non-zero rate.",
            s.transmitting_flows as f64,
        );
        gauge(
            &mut out,
            "compressing_flows",
            "Flows holding a compression core.",
            s.compressing_flows as f64,
        );
        gauge(&mut out, "tx_rate_gbps", "Aggregate wire rate.", s.tx_rate);
        gauge(
            &mut out,
            "net_utilization",
            "Wire rate over bisection capacity.",
            s.net_util,
        );
        gauge(
            &mut out,
            "mean_port_utilization",
            "Mean per-port utilization.",
            s.mean_port_util,
        );
        gauge(
            &mut out,
            "max_port_utilization",
            "Utilization of the busiest port.",
            s.max_port_util,
        );
        gauge(
            &mut out,
            "busy_ports",
            "Ports with non-zero utilization.",
            s.busy_ports as f64,
        );
        gauge(
            &mut out,
            "cpu_occupancy",
            "Compression cores in use over total.",
            s.cpu_occupancy,
        );
        counter(
            &mut out,
            "bytes_on_wire_gb_total",
            "Bytes put on the wire after compression.",
            s.bytes_on_wire,
        );
        counter(
            &mut out,
            "bytes_saved_gb_total",
            "Bytes saved by compression.",
            s.bytes_saved,
        );
        counter(
            &mut out,
            "reschedules_total",
            "Policy invocations.",
            s.reschedules as f64,
        );
        let _ = writeln!(
            out,
            "# HELP swallow_port_utilization_decile Ports per utilization decile at the last sample."
        );
        let _ = writeln!(out, "# TYPE swallow_port_utilization_decile gauge");
        for (i, &c) in s.port_util_hist.iter().enumerate() {
            let _ = writeln!(out, "swallow_port_utilization_decile{{decile=\"{i}\"}} {c}");
        }
    }
    counter(
        &mut out,
        "telemetry_samples_total",
        "Telemetry samples recorded (including evicted).",
        snap.samples_seen as f64,
    );

    let _ = writeln!(
        out,
        "# HELP swallow_phase_latency_us Wall-clock engine phase latency."
    );
    let _ = writeln!(out, "# TYPE swallow_phase_latency_us histogram");
    for (phase, hist) in &snap.phases {
        let mut cumulative = 0u64;
        for (edge, count) in hist.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(
                out,
                "swallow_phase_latency_us_bucket{{phase=\"{phase}\",le=\"{edge}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "swallow_phase_latency_us_bucket{{phase=\"{phase}\",le=\"+Inf\"}} {}",
            hist.count
        );
        let _ = writeln!(
            out,
            "swallow_phase_latency_us_sum{{phase=\"{phase}\"}} {}",
            hist.sum_us
        );
        let _ = writeln!(
            out,
            "swallow_phase_latency_us_count{{phase=\"{phase}\"}} {}",
            hist.count
        );
    }
    out
}

/// Render the sample series as JSONL: one JSON object per line, oldest
/// first. Deterministic for a seeded run (samples carry no wall clock).
pub fn jsonl(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for s in &snap.samples {
        out.push_str(&serde_json::to_string(s).expect("sample serializes"));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// HTML dashboard
// ---------------------------------------------------------------------------

const SPARK_W: f64 = 560.0;
const SPARK_H: f64 = 96.0;
const COLORS: [&str; 6] = [
    "#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#0891b2",
];

fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Inline SVG sparkline of `(x, y)` points; `x` ascending.
fn svg_sparkline(series: &[(f64, f64)], color: &str) -> String {
    if series.len() < 2 {
        return format!(
            "<svg width=\"{SPARK_W}\" height=\"{SPARK_H}\" viewBox=\"0 0 {SPARK_W} {SPARK_H}\"><text x=\"8\" y=\"20\" class=\"lbl\">(not enough samples)</text></svg>"
        );
    }
    let (x_lo, x_hi) = series
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.0), hi.max(p.0))
        });
    let (y_lo, y_hi) = series
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.1), hi.max(p.1))
        });
    let x_span = (x_hi - x_lo).max(f64::MIN_POSITIVE);
    let y_span = (y_hi - y_lo).max(f64::MIN_POSITIVE);
    let pad = 4.0;
    let mut points = String::new();
    for (x, y) in series {
        let px = pad + (x - x_lo) / x_span * (SPARK_W - 2.0 * pad);
        let py = SPARK_H - pad - (y - y_lo) / y_span * (SPARK_H - 2.0 * pad);
        let _ = write!(points, "{px:.1},{py:.1} ");
    }
    format!(
        "<svg width=\"{SPARK_W}\" height=\"{SPARK_H}\" viewBox=\"0 0 {SPARK_W} {SPARK_H}\">\
         <polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{points}\"/>\
         <text x=\"{tx}\" y=\"12\" class=\"lbl\" text-anchor=\"end\">max {max}</text>\
         <text x=\"{tx}\" y=\"{by}\" class=\"lbl\" text-anchor=\"end\">min {min}</text>\
         </svg>",
        tx = SPARK_W - 6.0,
        by = SPARK_H - 4.0,
        max = fmt_num(y_hi),
        min = fmt_num(y_lo),
    )
}

/// Inline SVG bar chart of the port-utilization deciles.
fn svg_decile_bars(hist: &[u64; PORT_UTIL_BUCKETS]) -> String {
    let max = (*hist.iter().max().unwrap_or(&0)).max(1) as f64;
    let bar_w = SPARK_W / PORT_UTIL_BUCKETS as f64;
    let mut bars = String::new();
    for (i, &c) in hist.iter().enumerate() {
        let h = c as f64 / max * (SPARK_H - 20.0);
        let x = i as f64 * bar_w + 2.0;
        let y = SPARK_H - 14.0 - h;
        let _ = write!(
            bars,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{h:.1}\" fill=\"#2563eb\"/>\
             <text x=\"{cx:.1}\" y=\"{ty}\" class=\"lbl\" text-anchor=\"middle\">{lo}%</text>",
            w = bar_w - 4.0,
            cx = x + (bar_w - 4.0) / 2.0,
            ty = SPARK_H - 2.0,
            lo = i * 10,
        );
    }
    format!("<svg width=\"{SPARK_W}\" height=\"{SPARK_H}\" viewBox=\"0 0 {SPARK_W} {SPARK_H}\">{bars}</svg>")
}

/// Inline SVG log-x CDF overlay of several histograms.
fn svg_hist_cdfs(hists: &[(&str, &LogHistogram)]) -> String {
    let live: Vec<_> = hists.iter().filter(|(_, h)| !h.is_empty()).collect();
    if live.is_empty() {
        return "<p class=\"lbl\">(no phase timings recorded)</p>".into();
    }
    let max_edge = live
        .iter()
        .flat_map(|(_, h)| h.nonzero_buckets().map(|(e, _)| e))
        .max()
        .unwrap_or(1) as f64;
    let log_hi = max_edge.ln().max(f64::MIN_POSITIVE);
    let h = SPARK_H * 1.6;
    let pad = 4.0;
    let mut lines = String::new();
    let mut legend = String::new();
    for (i, (name, hist)) in live.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let mut points = format!("{pad:.1},{:.1} ", h - pad);
        let mut cumulative = 0u64;
        for (edge, count) in hist.nonzero_buckets() {
            cumulative += count;
            let frac = cumulative as f64 / hist.count as f64;
            let px = pad + (edge as f64).ln().max(0.0) / log_hi * (SPARK_W - 2.0 * pad);
            let py = h - pad - frac * (h - 2.0 * pad);
            let _ = write!(points, "{px:.1},{py:.1} ");
        }
        let _ = write!(
            lines,
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{points}\"/>"
        );
        let _ = write!(
            legend,
            "<span class=\"key\"><span class=\"swatch\" style=\"background:{color}\"></span>{name}</span> "
        );
    }
    format!(
        "<svg width=\"{SPARK_W}\" height=\"{h}\" viewBox=\"0 0 {SPARK_W} {h}\">{lines}\
         <text x=\"{tx}\" y=\"{by}\" class=\"lbl\" text-anchor=\"end\">log µs → {max_edge:.0}</text></svg>\
         <div>{legend}</div>",
        tx = SPARK_W - 6.0,
        by = h - 4.0,
    )
}

/// Render a fully self-contained HTML dashboard: sparkline grid over the
/// sample series, the final port-utilization decile histogram, and the
/// phase-latency CDFs + summary table. No external assets.
pub fn html_dashboard(title: &str, snap: &TelemetrySnapshot) -> String {
    let series = |f: fn(&TelemetrySample) -> f64| -> Vec<(f64, f64)> {
        snap.samples.iter().map(|s| (s.time, f(s))).collect()
    };
    let sparks: [(&str, Vec<(f64, f64)>); 7] = [
        ("network utilization", series(|s| s.net_util)),
        ("mean port utilization", series(|s| s.mean_port_util)),
        ("active coflows", series(|s| s.active_coflows as f64)),
        (
            "transmitting flows",
            series(|s| s.transmitting_flows as f64),
        ),
        ("compression-CPU occupancy", series(|s| s.cpu_occupancy)),
        ("bytes on wire (cumulative)", series(|s| s.bytes_on_wire)),
        ("bytes saved (cumulative)", series(|s| s.bytes_saved)),
    ];

    let mut body = String::new();
    let _ = write!(
        body,
        "<h1>{title}</h1>\
         <p class=\"meta\">{n} samples retained (stride {stride}, {seen} seen, {dropped} evicted)</p>",
        n = snap.samples.len(),
        stride = snap.stride,
        seen = snap.samples_seen,
        dropped = snap.samples_dropped,
    );
    body.push_str("<div class=\"grid\">");
    for (i, (label, s)) in sparks.iter().enumerate() {
        let _ = write!(
            body,
            "<div class=\"card\"><h2>{label}</h2>{svg}</div>",
            svg = svg_sparkline(s, COLORS[i % COLORS.len()]),
        );
    }
    if let Some(last) = snap.samples.last() {
        let _ = write!(
            body,
            "<div class=\"card\"><h2>port-utilization deciles (final sample)</h2>{}</div>",
            svg_decile_bars(&last.port_util_hist)
        );
    }
    body.push_str("</div>");

    let hists: Vec<(&str, &LogHistogram)> =
        snap.phases.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let _ = write!(
        body,
        "<h2>engine phase latency (wall clock)</h2>{}",
        svg_hist_cdfs(&hists)
    );
    body.push_str(
        "<table><tr><th>phase</th><th>count</th><th>mean µs</th><th>p50 ≤ µs</th><th>p99 ≤ µs</th><th>max µs</th></tr>",
    );
    for (name, h) in &hists {
        if h.is_empty() {
            let _ = write!(
                body,
                "<tr><td>{name}</td><td>0</td><td>—</td><td>—</td><td>—</td><td>—</td></tr>"
            );
        } else {
            let _ = write!(
                body,
                "<tr><td>{name}</td><td>{}</td><td>{:.1}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                h.count,
                h.mean_us(),
                h.quantile_us(0.5),
                h.quantile_us(0.99),
                h.max_us,
            );
        }
    }
    body.push_str("</table>");

    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>{title}</title><style>\
         body{{font:14px/1.4 system-ui,sans-serif;margin:24px;color:#111}}\
         h1{{font-size:20px}}h2{{font-size:13px;font-weight:600;margin:0 0 4px}}\
         .meta{{color:#555}}\
         .grid{{display:flex;flex-wrap:wrap;gap:16px}}\
         .card{{border:1px solid #ddd;border-radius:6px;padding:10px}}\
         .lbl{{font-size:10px;fill:#666}}\
         .key{{margin-right:12px;font-size:12px}}\
         .swatch{{display:inline-block;width:10px;height:10px;margin-right:4px;border-radius:2px}}\
         table{{border-collapse:collapse;margin-top:8px}}\
         td,th{{border:1px solid #ddd;padding:4px 10px;text-align:right}}\
         td:first-child,th:first-child{{text-align:left}}\
         </style></head><body>{body}</body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Phase, Telemetry};
    use std::time::Duration;

    fn sample(idx: u64) -> TelemetrySample {
        TelemetrySample {
            time: idx as f64 * 0.01,
            slice_idx: idx,
            active_coflows: idx + 1,
            pending_coflows: 0,
            transmitting_flows: 2,
            compressing_flows: 1,
            tx_rate: 5.0,
            net_util: 0.4,
            mean_port_util: 0.2,
            max_port_util: 0.8,
            busy_ports: 3,
            port_util_hist: [1, 0, 2, 0, 0, 0, 0, 0, 0, 1],
            cpu_occupancy: 0.25,
            bytes_on_wire: 1.5,
            bytes_saved: 0.3,
            reschedules: idx,
            est_tracked_coflows: 0,
            est_mean_abs_rel_err: 0.0,
        }
    }

    fn snapshot() -> TelemetrySnapshot {
        let t = Telemetry::with_stride(1);
        for i in 0..16 {
            t.record_sample(sample(i));
        }
        t.record_phase(Phase::Schedule, Duration::from_micros(50));
        t.record_phase(Phase::Schedule, Duration::from_micros(200));
        t.record_phase(Phase::WaterFill, Duration::from_micros(10));
        t.snapshot()
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus(&snapshot());
        assert!(text.contains("# TYPE swallow_net_utilization gauge"));
        assert!(text.contains("swallow_net_utilization 0.4"));
        assert!(text.contains("swallow_port_utilization_decile{decile=\"0\"} 1"));
        assert!(text.contains("# TYPE swallow_phase_latency_us histogram"));
        assert!(text.contains("swallow_phase_latency_us_bucket{phase=\"schedule\",le=\"+Inf\"} 2"));
        assert!(text.contains("swallow_phase_latency_us_count{phase=\"schedule\"} 2"));
        assert!(text.contains("swallow_phase_latency_us_count{phase=\"water_fill\"} 1"));
        // Cumulative buckets are monotone: the +Inf bucket equals count.
        assert!(text.contains("swallow_telemetry_samples_total 16"));
    }

    #[test]
    fn jsonl_one_line_per_sample() {
        let text = jsonl(&snapshot());
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 16);
        crate::skip_if_stub!();
        let first: TelemetrySample = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.slice_idx, 0);
    }

    #[test]
    fn html_is_self_contained() {
        let html = html_dashboard("dash test", &snapshot());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("network utilization"));
        assert!(html.contains("engine phase latency"));
        // No external assets: no http(s) URLs, scripts, or links.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("<link"));
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = Telemetry::with_stride(1).snapshot();
        let html = html_dashboard("empty", &snap);
        assert!(html.contains("0 samples retained"));
        assert!(!prometheus(&snap).contains("swallow_net_utilization"));
        assert_eq!(jsonl(&snap), "");
    }
}
