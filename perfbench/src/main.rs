//! The repository benchmark: two workloads over the paper's I/O-automata
//! compositions, measured from outside through the crates' public APIs.
//!
//! ```text
//! afd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation beyond the benchmark's own clock reads; with
//! `--trace 1` it records spans around every layer call, enables the
//! `afd-prof` stage spans of the engines, and reports the per-layer
//! metrics plus the tracing overhead. Either way every output is
//! checked, the last stdout line is the JSON result, and the exit code
//! is nonzero when any check failed. See `README.md` for the workloads
//! and what each one exercises or bypasses.

mod explore;
mod kv;
mod report;

use std::path::PathBuf;

use report::Metrics;

/// Workloads this binary runs, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["explore-paxos3", "kv-chaos"];

/// End-to-end metrics every untraced run reports. What a work item is
/// depends on the workload: a distinct reachable state (explore-paxos3)
/// or a client op (kv-chaos). The p99 latency is printed but not bounded
/// here: kv-chaos's p99 moves by whole 10-ms runtime ticks with the
/// host's CPU steal, wider than any bound the benchmark may set
/// (README.md); the traced run reports it with the per-layer metrics.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports. A layer the workload
/// bypasses reads 0: no call into it was made.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("ioa.next_task_ns", "ns"),
    ("ioa.enabled_ns", "ns"),
    ("ioa.step_ns", "ns"),
    ("ioa.states", "count"),
    ("system.build_us", "us"),
    ("core.check_ns", "ns/event"),
    ("runtime.step_ns", "ns/event"),
    ("runtime.route_ns", "ns/event"),
    ("runtime.lock_hold_ns", "ns/event"),
    ("runtime.sched_wait_ns", "ns/event"),
    ("runtime.recv_wait_ns", "ns/event"),
    ("runtime.chaos_ns", "ns/event"),
    ("runtime.retransmit_ns", "ns/event"),
    ("runtime.pacing_ns", "ns/event"),
    ("runtime.retransmits", "count"),
    ("runtime.coverage_pct", "%"),
    ("net.spawn_ms", "ms"),
    ("net.run_ms", "ms"),
    ("net.encode_ns", "ns/event"),
    ("net.socket_ns", "ns/event"),
    ("net.ack_wait_ns", "ns/event"),
    ("net.coord_queue_ns", "ns/event"),
    ("net.sink_commit_ns", "ns/event"),
    ("net.recv_wait_ns", "ns/event"),
    ("net.pacing_ns", "ns/event"),
    ("net.coverage_pct", "%"),
    ("rsm.slot_ms_p50", "ms"),
    ("rsm.slot_ms_p99", "ms"),
    ("rsm.slots", "count"),
    ("rsm.events_per_slot", "events"),
    ("rsm.batch_fill", "ratio"),
    ("rsm.backlog_ops_max", "ops"),
    ("rsm.submit_ns", "ns"),
    ("rsm.read_ns", "ns"),
    ("load.poll_ns", "ns"),
    ("load.lag_p99_ms", "ms"),
    ("trace.throughput_delta_pct", "%"),
    ("trace.p50_delta_pct", "%"),
    ("trace.p99_delta_pct", "%"),
    ("trace.untraced_throughput_per_s", "1/s"),
    ("trace.traced_throughput_per_s", "1/s"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.untraced_p99_ms", "ms"),
    ("trace.traced_p99_ms", "ms"),
    ("trace.spans", "count"),
];

/// One invocation's parameters.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    pub workload: &'static str,
}

/// What a workload hands back: its metrics, how many items it attempted,
/// how many of those failed, and every failed check.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record the tracing overhead: the traced pass's (throughput /s,
    /// p50 ms, p99 ms) against the untraced pass of the same invocation.
    pub fn put_overhead(&mut self, untraced: (f64, f64, f64), traced: (f64, f64, f64)) {
        let pct = |t: f64, u: f64| if u > 0.0 { 100.0 * (t - u) / u } else { 0.0 };
        let m = &mut self.metrics;
        m.put("trace.throughput_delta_pct", pct(traced.0, untraced.0), "%");
        m.put("trace.p50_delta_pct", pct(traced.1, untraced.1), "%");
        m.put("trace.p99_delta_pct", pct(traced.2, untraced.2), "%");
        m.put("trace.untraced_throughput_per_s", untraced.0, "1/s");
        m.put("trace.traced_throughput_per_s", traced.0, "1/s");
        m.put("trace.untraced_p50_ms", untraced.1, "ms");
        m.put("trace.traced_p50_ms", traced.1, "ms");
        m.put("trace.untraced_p99_ms", untraced.2, "ms");
        m.put("trace.traced_p99_ms", traced.2, "ms");
        println!(
            "tracing overhead: throughput {:.1} -> {:.1} /s ({:+.2}%), p50 {:.4} -> {:.4} ms ({:+.2}%), p99 {:.4} -> {:.4} ms ({:+.2}%)",
            untraced.0,
            traced.0,
            pct(traced.0, untraced.0),
            untraced.1,
            traced.1,
            pct(traced.1, untraced.1),
            untraced.2,
            traced.2,
            pct(traced.2, untraced.2),
        );
    }
}

/// Write the kept spans and count them.
pub fn finish_trace(cfg: &RunCfg, tr: &report::Tracer, out: &mut Outcome) {
    let path = cfg
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    match tr.write(&path) {
        Ok(()) => println!("spans: {} kept, written to {}", tr.kept(), path.display()),
        Err(e) => out
            .errors
            .push(format!("writing spans to {}: {e}", path.display())),
    }
    out.metrics.put("trace.spans", tr.kept() as f64, "count");
}

fn usage(msg: &str) -> ! {
    eprintln!("afd-perfbench: {msg}");
    eprintln!(
        "usage: afd-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> RunCfg {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val}"))),
                );
            }
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 120.0),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out-dir" => out_dir = PathBuf::from(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    RunCfg {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be in (0, 120]")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        out_dir,
    }
}

fn main() {
    // The traced kv-chaos run respawns this binary as its node processes.
    if afd_net::maybe_serve_from_env() {
        return;
    }
    let cfg = parse_args();
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let mut out = match cfg.workload {
        "explore-paxos3" => explore::run(&cfg),
        "kv-chaos" => kv::run(&cfg),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let failed_frac = report::mean(out.failed as f64, out.attempted as f64);
    println!(
        "failed_frac = {failed_frac} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in wanted {
        let v = out.metrics.get(name).unwrap_or(0.0);
        metrics.put(name, v, unit);
    }
    out.metrics = metrics;
    let correct = out.errors.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
