//! `lifebench` — one seeded benchmark of the distance-sketch lifecycle.
//!
//! ```text
//! lifebench --workload point-tz|batch-degrading|swap-churn|congest-grid
//!           --seed N --seconds S --trace 0|1 [--work-dir DIR]
//!           [--inject wrong|fail]
//! ```
//!
//! One process runs one workload: it generates every input from the seed,
//! drives the graph, CONGEST, build, store, verify and serve layers through
//! their public APIs, checks every answer against the direct flat-kernel
//! answer, and prints one JSON object as its last line of output.  With
//! `--trace 0` that object carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics, and the run's spans are written to
//! `DIR/traces/`.  A wrong answer or a failed stretch check makes the run
//! exit with status 1; `--inject` plants one deliberately (see
//! `selftest.sh`).

mod ladder;
mod lifecycle;
mod spans;
mod traffic;
mod util;
mod workloads;

use std::path::PathBuf;
use workloads::{Inject, Run, WORKLOADS};

/// Every end-to-end metric, in report order.  `error_rate` is printed but
/// not part of the JSON object: it is zero on a healthy run, and the
/// object's `attempted` and `failed` carry it.
const END_TO_END: [&str; 12] = [
    "setup_s",
    "p50_us",
    "p99_us",
    "sustained_qps",
    "throughput_qps",
    "swap_s",
    "build_s",
    "rounds",
    "messages",
    "peak_rss_mb",
    "snapshot_mb",
    "stretch_mean",
];

/// Every per-layer metric of the traced run.
const PER_LAYER: [&str; 28] = [
    "graph.generate_s",
    "congest.ns_per_message",
    "congest.ns_per_round",
    "build.total_s",
    "build.phase_s.pivots",
    "build.phase_s.clusters",
    "build.phase_s.merge",
    "store.save_s",
    "store.load_freeze_s",
    "store.snapshot_bytes",
    "analysis.verify_s",
    "flat.ns_per_query",
    "server.ns_per_query",
    "server.hop_ns_per_frame",
    "server.cache_hit_ratio",
    "net.rtt_us_p50",
    "net.rtt_us_p99",
    "net.wire_us_per_frame",
    "net.read_syscalls_per_frame",
    "net.write_syscalls_per_frame",
    "http.rtt_us_p50",
    "obs.scrape_us",
    "swap.request_s",
    "swap.read_p99_us_during",
    "loadgen.lag_us_p99",
    "loadgen.attempted",
    "loadgen.failed",
    "trace.overhead_ratio",
];

fn usage(problem: &str) -> ! {
    eprintln!("lifebench: {problem}");
    eprintln!(
        "usage: lifebench --workload {} --seed N --seconds S --trace 0|1 \
         [--work-dir DIR] [--inject wrong|fail]",
        WORKLOADS.map(|w| w.0).join("|")
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("{name} needs a value")))
    })
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: Option<T>) -> T {
    match flag(args, name) {
        Some(text) => text
            .parse()
            .unwrap_or_else(|_| usage(&format!("{name} {text}: not a valid value"))),
        None => default.unwrap_or_else(|| usage(&format!("{name} is required"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = flag(&args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let kind = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .map(|w| w.1)
        .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let seed: u64 = parsed(&args, "--seed", None);
    let seconds: f64 = parsed(&args, "--seconds", Some(10.0));
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let trace = match parsed::<u8>(&args, "--trace", Some(0)) {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let inject = match flag(&args, "--inject") {
        None => None,
        Some("wrong") => Some(Inject::Wrong),
        Some("fail") => Some(Inject::Fail),
        Some(other) => usage(&format!("--inject {other}: expected wrong or fail")),
    };
    let work_dir =
        PathBuf::from(flag(&args, "--work-dir").unwrap_or(".bench_build/lifebench-work"));
    let run = Run {
        kind,
        seed,
        seconds,
        trace,
        dir: work_dir.join(format!("{name}-{seed}-{}", std::process::id())),
        inject,
    };

    let tracer = trace.then(spans::Tracer::new);
    let outcome = run.execute(tracer.as_ref());
    workloads::clean(&run.dir);
    let report = outcome.unwrap_or_else(|e| {
        eprintln!("lifebench: {name} seed {seed}: {e}");
        std::process::exit(1);
    });
    if let Some(tracer) = &tracer {
        let dir = work_dir.join("traces");
        let path = dir.join(format!("{name}-{seed}.jsonl"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| tracer.write(&path)) {
            eprintln!("lifebench: writing {path:?}: {e}");
            std::process::exit(1);
        }
        println!("spans written to {}", path.display());
        for (span, (total, own, count)) in tracer.self_times() {
            println!("span {span:<22} {count:>8} × total {total:>10.4} s  self {own:>10.4} s");
        }
    }

    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &metric in names {
        let Some(&(value, unit)) = report.metrics.get(metric) else {
            eprintln!("lifebench: {name} did not measure {metric}");
            std::process::exit(1);
        };
        if !value.is_finite() {
            eprintln!("lifebench: {name}: {metric} is {value}");
            std::process::exit(1);
        }
        println!("{metric:<30} {value:>16.6} {unit}");
        json.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let tally = &report.tally;
    println!(
        "{:<30} {:>16.6} ratio  ({} failed of {} attempted: {} typed errors, {} transport \
         errors, {} timeouts, {} refusals; {} answered, {} wrong)",
        "error_rate",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
        tally.failed(),
        tally.attempted,
        tally.typed_errors,
        tally.transport_errors,
        tally.timeouts,
        tally.refusals,
        tally.answered,
        tally.wrong
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    if let Some(problem) = &tally.first_problem {
        println!("first problem: {problem}");
    }
    for problem in &report.problems {
        println!("check failed: {problem}");
    }
    let correct = tally.wrong == 0 && report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed(),
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
