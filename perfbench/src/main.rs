//! The Esh repository benchmark: three closed-loop workloads, each run in
//! a process of its own, printing every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) as the last line of stdout.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for what each workload loads and bypasses.

mod cold;
mod common;
mod hot;
mod ingest;
mod measure;

use std::fmt::Write as _;
use std::time::Duration;

use common::{Ctx, Report};

/// The per-layer metrics every traced run prints, in order, with units.
/// A layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("solver.sat_queries_per_query", "count"),
    ("solver.conflicts_per_sat", "count"),
    ("solver.sat_ms_per_query", "ms"),
    ("solver.sat_share", "ratio"),
    ("solver.blast_hit_rate", "ratio"),
    ("solver.resets_per_query", "count"),
    ("engine.nonsat_ms_per_query", "ms"),
    ("engine.query_classes_per_query", "count"),
    ("engine.add_target_us", "us"),
    ("prefilter.pruned_frac", "ratio"),
    ("prefilter.collisions_per_query", "count"),
    ("prefilter.exact_fallbacks_per_query", "count"),
    ("prefilter.probes_per_query", "count"),
    ("prefilter.refined_pairs_per_query", "count"),
    ("cache.lookups_per_query", "count"),
    ("cache.hit_rate", "ratio"),
    ("shard.fanout_per_query", "count"),
    ("shard.pruned_per_query", "count"),
    ("shard.classes_decoded_per_query", "count"),
    ("shard.decoded_bytes_per_query", "bytes"),
    ("shard.decoded_to_mapped", "ratio"),
    ("index.write_s", "s"),
    ("index.open_ms", "ms"),
    ("index.core_bytes_per_proc", "bytes"),
    ("index.shard_bytes_per_proc", "bytes"),
    ("strands.extract_us_per_proc", "us"),
    ("strands.lift_us_per_proc", "us"),
    ("strands.classes_per_proc", "count"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.server_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.batch_occupancy", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("self_ms_per_op.bench", "ms"),
    ("self_ms_per_op.esh-core", "ms"),
    ("self_ms_per_op.esh-index", "ms"),
    ("self_ms_per_op.esh-strands", "ms"),
    ("self_ms_per_op.esh-serve", "ms"),
];

/// The end-to-end metrics every untraced run prints, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("index_bytes_per_proc", "bytes"),
    ("precision_at_10", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    holdout_seed: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut holdout_seed) =
        (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(num(value()?)?),
            "--seconds" => seconds = Some(num(value()?)?),
            "--trace" => trace = num(value()?)? != 0,
            "--holdout-seed" => holdout_seed = Some(num(value()?)?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (cold-search | hot-serve | ingest)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        holdout_seed,
    })
}

/// Runs this binary again on the held-out seed, as a process of its own
/// so its memory high-water mark stays its own, and returns its result
/// line.
fn run_holdout(args: &Args, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("held-out run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), stdout.lines().last()) {
        (true, Some(line)) => Ok(line.to_string()),
        _ => Err(format!(
            "held-out run on seed {seed} failed ({})",
            out.status
        )),
    }
}

fn metric_object(metrics: &[(&str, &str)], values: &[(&'static str, f64)]) -> (String, bool) {
    let mut body = String::new();
    let mut finite = true;
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let v = values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        finite &= v.is_finite();
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    (format!("{{{body}}}"), finite)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx::new(args.seed, Duration::from_secs(args.seconds), args.trace);
    let result = match args.workload.as_str() {
        "cold-search" => cold::run(&ctx),
        "hot-serve" => hot::run(&ctx),
        "ingest" => ingest::run(&ctx),
        other => Err(format!(
            "unknown workload `{other}` (cold-search | hot-serve | ingest)"
        )),
    };
    let report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let holdout = match args.holdout_seed.map(|s| run_holdout(&args, s)).transpose() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let (metrics, finite) = if args.trace {
        metric_object(PER_LAYER, &report.layers)
    } else {
        metric_object(END_TO_END, &report.e2e)
    };
    for problem in &report.problems {
        eprintln!("perfbench: {}: check failed: {problem}", args.workload);
    }
    let correct = report.problems.is_empty() && finite;
    let config = report.config_line(&ctx, &args.workload);
    if let Err(e) = ctx.save_result(&args.workload, &config, &metrics) {
        eprintln!("perfbench: could not save the result: {e}");
    }
    println!("{config}");
    if let Some(line) = holdout {
        println!(
            "{{\"holdout_seed\": {}, \"result\": {line}}}",
            args.holdout_seed.unwrap_or(0)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted.max(1),
        report.failed,
    );
}
