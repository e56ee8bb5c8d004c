//! perfledger — the workspace's performance ledger.
//!
//! ```text
//! perfledger --workload <fig3|stream|rollout> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfledger --write-golden <path>
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics with
//! tracing and `mfod-obs` off; with `--trace 1` it runs a fixed amount of
//! the workload under benchmark-side spans with `mfod-obs` on and reports
//! per-layer self times, counters and coverage. Either way every output is
//! checked; the last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`), the lines before it a
//! human-readable report and the run record. A failed check exits with
//! code 1. Run from the root of a checkout: model stores and span traces
//! go to `.perfledger/` there.

mod common;
mod fig3;
mod golden;
mod layers;
mod record;
mod rollout;
mod serving;
mod stream;
mod trace;

use common::{Args, Metric, Outcome};
use std::time::Instant;

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run_record(args: &Args, out: &Outcome, steal: Option<f64>) -> String {
    let overhead = out
        .metrics
        .iter()
        .find(|m| m.name == "obs.trace_overhead")
        .map_or("null".into(), |m| json_num(m.value));
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.smoke.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "pool_threads",
            mfod::linalg::par::global().threads().to_string(),
        ),
        ("rustc", json_str(&record::rustc_version())),
        ("git_commit", json_str(&record::git_commit())),
        ("source_digest", json_str(&record::source_digest())),
        (
            "checkout_fs",
            json_str(&record::fs_type(std::path::Path::new("."))),
        ),
        ("steal_share", steal.map_or("null".into(), json_num)),
        ("trace_overhead", overhead),
    ];
    fields.extend(out.record.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"run_record\": {{{}}}}}", body.join(", "))
}

fn main() {
    let main_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfledger: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.write_golden {
        if let Err(e) = fig3::write_golden(path) {
            eprintln!("perfledger: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Untraced runs measure with mfod-obs off, whatever the environment
    // says; traced passes switch it on themselves.
    mfod_obs::Recorder::install(false);
    let cpu_before = record::cpu_times();
    let result = match args.workload.as_str() {
        "fig3" => fig3::run(&args, main_start),
        "stream" => stream::run(&args, main_start),
        "rollout" => rollout::run(&args, main_start),
        other => Err(format!(
            "unknown workload {other} (fig3, stream or rollout)"
        )),
    };
    let steal = record::steal_share(cpu_before, record::cpu_times());
    let mut out = result.unwrap_or_else(|e| {
        let mut out = Outcome::default();
        out.fail(1, e);
        out
    });
    if !args.trace && !out.metrics.is_empty() {
        let rss = record::peak_rss_mib().unwrap_or(f64::NAN);
        out.report
            .push(common::report_line("peak_rss_mib", rss, "MiB", "VmHWM"));
        out.metrics.push(Metric::new("peak_rss_mib", rss, "MiB"));
    }
    out.report.push(format!(
        "  error_rate {:.6} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    println!(
        "perfledger {} seed={} trace={}{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    for line in &out.report {
        println!("{line}");
    }
    println!("{}", run_record(&args, &out, steal));
    println!("{}", result_line(&out));
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}
