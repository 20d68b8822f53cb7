//! The `paper` harness: regenerate every table and figure of the Swallow
//! paper's evaluation.
//!
//! ```text
//! paper [--quiet] <subcommand> [<subcommand> …]
//!
//!   fig1  fig2  fig4  fig6a fig6b fig6c fig6d fig6e fig6f
//!   fig7a fig7b fig7c table1 table2 table3 table5 table8
//!   trace <experiment> [--out <path>] — traced replay (fig6 | small);
//!          .jsonl streams events, .json writes a Chrome trace document
//!   faults <experiment> [--seed N] — replay under a seeded fault plan
//!          (fig6a | small), reporting per-policy CCT inflation; same seed
//!          yields a byte-identical TRACE_summary.json
//!   oracle <experiment> [--seed N] [--refresh-golden] — full correctness
//!          oracle (fig6a | small): online invariants, multi-path
//!          differential replay, analytic bounds, golden-figure compare;
//!          writes ORACLE_report.json and exits non-zero on any failure;
//!          on failure also dumps a FLIGHT_record.json post-mortem
//!   sampling <experiment> [--seed N] — non-clairvoyant pilot-flow
//!          sampling sweep (fig6a | small | replay): per-policy CCT gap
//!          to the clairvoyant counterpart across pilot fractions, with
//!          bit-exact cross-mode replay and a pilot-fraction-1.0
//!          clairvoyant-reproduction gate; same seed ⇒ byte-identical
//!          SAMPLING_report.json
//!   dash  <experiment> [--seed N] [--stride K] — telemetry replay
//!          (fig6a | small): strided sampler + phase profiler, writing
//!          DASH_report.{json,html,prom,jsonl}; the .json view is
//!          deterministic (same seed+stride ⇒ identical bytes)
//!   replay <trace> [--policy P] [--bg F] [--seed N] [--ports N]
//!          [--modes M] [--wrap] [--out <path>] — stream a public
//!          Facebook-format (or JSON/CSV) trace through the policy panel
//!          with the invariant checker attached, demanding bit-identical
//!          results across engine modes; --bg reserves a port-capacity
//!          fraction for background traffic; writes REPLAY_report.json
//!          (deterministic bytes) and exits non-zero on any failure
//!   serve [--policy P] [--seed N] [--coflows N] [--queue N] [--out <path>]
//!          — stream a deadline-annotated trace through the long-running
//!          CoflowService (admission control + background scheduler loop),
//!          writing a deterministic SERVE_report.json
//!   slam  [--policy P] [--seed N] [--coflows N] [--queue N] [--out <path>]
//!          — sustained load on the service: ~12k arrivals pushed as fast
//!          as admission accepts them; writes the same deterministic
//!          SERVE_report.json and exits non-zero when an admitted coflow
//!          did not complete
//!   tracegen [--out <path>] [--coflows N] [--machines N] [--gap-ms F]
//!          [--max-mb N] [--seed N] — stream a synthetic Facebook-format
//!          trace to disk (constant memory; same seed ⇒ identical bytes)
//!   all   — everything in paper order
//! ```
//!
//! (`table6` is printed by `fig6e`, `table7` by `fig7b`. `--quiet`
//! suppresses narrative output; JSON artifacts are still written.)

use swallow_bench::cli::CommonArgs;
use swallow_bench::experiments::{
    dash_cmd, faults_cmd, oracle_cmd, replay_cmd, sampling_cmd, serve_cmd, trace_cmd, tracegen_cmd,
};
use swallow_bench::experiments::{ext, fig1, fig2, fig4, fig6, fig7, tables};
use swallow_bench::report;

fn usage() -> ! {
    eprintln!(
        "usage: paper [--quiet] <cmd> [<cmd> …]\n\
         cmds: fig1 fig2 fig4 fig6 fig6a fig6b fig6c fig6d fig6e fig6f\n\
         \x20     fig7 fig7a fig7b fig7c table1 table2 table3 table5 table8\n\
         \x20     ext ext1 ext2 ext3 ext4 ext5 all\n\
         \x20     trace <experiment> [--out <path>]\n\
         \x20     faults <experiment> [--seed N]\n\
         \x20     oracle <experiment> [--seed N] [--refresh-golden]\n\
         \x20     sampling <experiment> [--seed N]\n\
         \x20     dash <experiment> [--seed N] [--stride K]\n\
         \x20     replay <trace> [--policy P] [--bg F] [--seed N] [--ports N]\n\
         \x20            [--modes skip,naive] [--wrap] [--out <path>]\n\
         \x20     serve [--policy P] [--seed N] [--coflows N] [--queue N]\n\
         \x20            [--out <path>]\n\
         \x20     slam  [--policy P] [--seed N] [--coflows N] [--queue N]\n\
         \x20            [--out <path>]\n\
         \x20     tracegen [--out <path>] [--coflows N] [--machines N]\n\
         \x20            [--gap-ms F] [--max-mb N] [--seed N]\n\
         (table6 prints with fig6e, table7 with fig7b;\n\
         \x20trace replays fig6|small with the structured tracer attached,\n\
         \x20exports the events and writes TRACE_summary.json;\n\
         \x20faults replays fig6a|small under a seeded fault plan, prints\n\
         \x20per-policy CCT inflation and writes a deterministic\n\
         \x20TRACE_summary.json (same seed => identical bytes);\n\
         \x20oracle checks invariants, replay equivalence, analytic bounds\n\
         \x20and the committed golden figure, writing ORACLE_report.json\n\
         \x20(plus a FLIGHT_record.json post-mortem on failure);\n\
         \x20sampling sweeps pilot fractions under the non-clairvoyant\n\
         \x20size estimator (fig6a|small|replay), reports each sampled\n\
         \x20policy's CCT gap to its clairvoyant counterpart and writes a\n\
         \x20deterministic SAMPLING_report.json;\n\
         \x20dash replays with the telemetry sampler + phase profiler and\n\
         \x20writes DASH_report.{{json,html,prom,jsonl}} — the .json is\n\
         \x20deterministic, the .html is a self-contained SVG dashboard;\n\
         \x20replay streams a public coflow-benchmark trace through the\n\
         \x20policy panel (never materialized) with the invariant checker\n\
         \x20attached and demands bit-identical CCT tables across engine\n\
         \x20modes, writing a deterministic REPLAY_report.json;\n\
         \x20serve/slam run the long-running service: streaming arrivals,\n\
         \x20deadline admission control, background scheduler loop; slam is\n\
         \x20the sustained-load run; both write a deterministic\n\
         \x20SERVE_report.json;\n\
         \x20tracegen streams a synthetic Facebook-format trace to disk;\n\
         \x20--quiet suppresses narrative output, artifacts still written)"
    );
    std::process::exit(2);
}

fn dispatch(cmd: &str) {
    match cmd {
        "fig1" => fig1::run(),
        "fig2" => fig2::run(),
        "fig4" | "fig3" => fig4::run(),
        "fig6" => fig6::run(),
        "fig6a" => fig6::fig6a(),
        "fig6b" => fig6::fig6b(),
        "fig6c" => fig6::fig6c(),
        "fig6d" => fig6::fig6d(),
        "fig6e" | "table6" => fig6::fig6e(),
        "fig6f" => fig6::fig6f(),
        "fig7" => fig7::run(),
        "fig7a" => fig7::fig7a(),
        "fig7b" | "table7" => fig7::fig7b(),
        "fig7c" => fig7::fig7c(),
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "table3" => tables::table3(),
        "table5" => tables::table5(),
        "table8" => tables::table8(),
        "tables" => tables::run_all(),
        "ext" => ext::run(),
        "ext1" => ext::ext_codec_selection(),
        "ext2" => ext::ext_decompression(),
        "ext3" => ext::ext_bounds(),
        "ext4" => ext::ext_granularity(),
        "ext5" => ext::ext_nonclairvoyant(),
        "all" => {
            for c in [
                "fig1", "fig2", "fig4", "table1", "table2", "table3", "fig6a", "fig6b", "fig6c",
                "fig6d", "fig6e", "fig6f", "table5", "fig7a", "fig7b", "fig7c", "table8", "ext",
            ] {
                swallow_bench::report!("──────────────────────────────────────────── {c}");
                dispatch(c);
            }
        }
        _ => usage(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flag, accepted anywhere in the argument list.
    args.retain(|a| {
        if a == "--quiet" || a == "-q" {
            report::set_quiet(true);
            false
        } else {
            true
        }
    });
    if args.is_empty() {
        usage();
    }
    let mut i = 0;
    while i < args.len() {
        let cmd = args[i].clone();
        i += 1;
        match cmd.as_str() {
            "trace" => {
                let p = CommonArgs::new("trace", "paper trace <experiment> [--out <path>]")
                    .positional("experiment")
                    .value_flag("--out")
                    .parse(&args, &mut i);
                trace_cmd::run(p.positional(0), p.flag("--out").unwrap_or("trace.json"));
            }
            "faults" => {
                let p = CommonArgs::new("faults", "paper faults <experiment> [--seed N]")
                    .positional("experiment")
                    .value_flag("--seed")
                    .parse(&args, &mut i);
                faults_cmd::run(p.positional(0), p.get_or("--seed", 7u64));
            }
            "oracle" => {
                let p = CommonArgs::new(
                    "oracle",
                    "paper oracle <experiment> [--seed N] [--refresh-golden]",
                )
                .positional("experiment")
                .value_flag("--seed")
                .switch("--refresh-golden")
                .parse(&args, &mut i);
                oracle_cmd::run(
                    p.positional(0),
                    p.get_or("--seed", 7u64),
                    p.has("--refresh-golden"),
                );
            }
            "sampling" => {
                let p = CommonArgs::new("sampling", "paper sampling <experiment> [--seed N]")
                    .positional("experiment")
                    .value_flag("--seed")
                    .parse(&args, &mut i);
                sampling_cmd::run(p.positional(0), p.get_or("--seed", 7u64));
            }
            "dash" => {
                let p = CommonArgs::new("dash", "paper dash <experiment> [--seed N] [--stride K]")
                    .positional("experiment")
                    .value_flag("--seed")
                    .value_flag("--stride")
                    .parse(&args, &mut i);
                dash_cmd::run(
                    p.positional(0),
                    p.get_or("--seed", 7u64),
                    p.get_or("--stride", 1u64),
                );
            }
            "replay" => {
                let p = CommonArgs::new(
                    "replay",
                    "paper replay <trace> [--policy P] [--bg F] [--seed N] [--ports N] \
                     [--modes skip,naive] [--wrap] [--out <path>]",
                )
                .positional("trace")
                .value_flag("--policy")
                .value_flag("--bg")
                .value_flag("--seed")
                .value_flag("--ports")
                .value_flag("--modes")
                .value_flag("--out")
                .switch("--wrap")
                .parse(&args, &mut i);
                let mut opts = replay_cmd::ReplayOpts {
                    trace: p.positional(0).to_string(),
                    policy: p.flag("--policy").map(str::to_string),
                    bg: p.get_or("--bg", 0.0f64),
                    seed: p.get_or("--seed", 7u64),
                    wrap: p.has("--wrap"),
                    out: p.flag("--out").unwrap_or("REPLAY_report.json").to_string(),
                    ..replay_cmd::ReplayOpts::default()
                };
                if let Some(ports) = p.flag("--ports") {
                    opts.ports = Some(
                        ports
                            .parse()
                            .unwrap_or_else(|_| p.die(&format!("--ports: bad count {ports:?}"))),
                    );
                }
                if let Some(modes) = p.flag("--modes") {
                    opts.modes = modes.split(',').map(str::to_string).collect();
                }
                if !(0.0..1.0).contains(&opts.bg) {
                    p.die(&format!("--bg must be in [0, 1), got {}", opts.bg));
                }
                replay_cmd::run(&opts);
            }
            "serve" | "slam" => {
                let slam = cmd == "slam";
                let p = CommonArgs::new(
                    if slam { "slam" } else { "serve" },
                    "paper serve|slam [--policy P] [--seed N] [--coflows N] \
                     [--queue N] [--out <path>]",
                )
                .value_flag("--policy")
                .value_flag("--seed")
                .value_flag("--coflows")
                .value_flag("--queue")
                .value_flag("--out")
                .parse(&args, &mut i);
                let defaults = serve_cmd::ServeOpts::default();
                let mut opts = serve_cmd::ServeOpts {
                    policy: p.flag("--policy").map(str::to_string),
                    seed: p.get_or("--seed", defaults.seed),
                    queue: p.get_or("--queue", defaults.queue),
                    out: p.flag("--out").unwrap_or(&defaults.out).to_string(),
                    ..defaults
                };
                if let Some(n) = p.flag("--coflows") {
                    opts.coflows = Some(
                        n.parse()
                            .unwrap_or_else(|_| p.die(&format!("--coflows: bad count {n:?}"))),
                    );
                }
                if slam {
                    serve_cmd::run_slam(&opts);
                } else {
                    serve_cmd::run_serve(&opts);
                }
            }
            "tracegen" => {
                let p = CommonArgs::new(
                    "tracegen",
                    "paper tracegen [--out <path>] [--coflows N] [--machines N] \
                     [--gap-ms F] [--max-mb N] [--seed N]",
                )
                .value_flag("--out")
                .value_flag("--coflows")
                .value_flag("--machines")
                .value_flag("--gap-ms")
                .value_flag("--max-mb")
                .value_flag("--seed")
                .parse(&args, &mut i);
                let defaults = tracegen_cmd::TracegenOpts::default();
                let opts = tracegen_cmd::TracegenOpts {
                    out: p.flag("--out").unwrap_or(&defaults.out).to_string(),
                    coflows: p.get_or("--coflows", defaults.coflows),
                    machines: p.get_or("--machines", defaults.machines),
                    gap_ms: p.get_or("--gap-ms", defaults.gap_ms),
                    max_mb: p.get_or("--max-mb", defaults.max_mb),
                    seed: p.get_or("--seed", defaults.seed),
                };
                tracegen_cmd::run(&opts);
            }
            _ => dispatch(&cmd),
        }
    }
}
