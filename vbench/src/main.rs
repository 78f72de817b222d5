//! The repository's benchmark: one command, three workloads, every answer
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path vbench/Cargo.toml -- \
//!     --workload serve-knn|ingest-mixed|cluster-hybrid \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! a report with provenance, configuration, generator health and every
//! figure that is not a declared metric. With `--trace 0` the metrics
//! are the end-to-end metrics; `--trace 1` replays the same seeded
//! operation stream with spans around the calls into each layer and
//! reports per-layer metrics instead. Every workload reports every
//! metric `BENCHMARK.json` declares for the mode. A wrong answer makes
//! the run exit with code 1. See `vbench/README.md`.

mod cluster;
mod common;
mod gen;
mod ingest;
mod layers;
mod load;
mod serve_knn;
mod trace;

use common::{json_str, Opts, Report};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use vdb_core::Result;
use vdb_server::{Client, ServerHandle, ServerStatsSnapshot};

/// The end-to-end metrics of `BENCHMARK.json`, reported by every
/// workload's untraced run.
const END_TO_END: [&str; 4] = ["setup_s", "search_p50_us", "recall_at_10", "peak_rss_mb"];

/// The per-layer metrics of `BENCHMARK.json`, reported by every
/// workload's traced run.
const PER_LAYER: [&str; 27] = [
    "core.l2_batch_ns_per_row",
    "core.adc_scan_ns_per_code",
    "quant.pq_train_s",
    "quant.pq_encode_us",
    "index-graph.hnsw_build_s",
    "index-graph.hnsw_search_us",
    "index-table.ivfpq_build_s",
    "index-table.ivfpq_search_us",
    "index-table.ivfpq_insert_us",
    "query.execute_us",
    "query.text_search_us",
    "query.fuse_us",
    "storage.wal_append_us",
    "storage.wal_sync_us",
    "storage.wal_replay_s",
    "storage.crc32_mb_per_s",
    "storage.snapshot_encode_s",
    "storage.snapshot_decode_s",
    "vdbms.collection_search_us",
    "vdbms.collection_insert_us",
    "vdbms.merge_s",
    "server.ping_rtt_us",
    "server.overhead_us",
    "server.request_codec_us",
    "server.response_codec_us",
    "server.coalesced_share",
    "trace.overhead_us",
];

fn usage() -> ! {
    eprintln!(
        "usage: vbench --workload serve-knn|ingest-mixed|cluster-hybrid --seed N --seconds S --trace 0|1 [--smoke]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (None, None, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse::<u64>().ok().or_else(|| usage()),
            "--seconds" => seconds = val().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = val() == "1",
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    let run: fn(&Opts) -> Result<Report> = match workload.as_str() {
        "serve-knn" => serve_knn::run,
        "ingest-mixed" => ingest::run,
        "cluster-hybrid" => cluster::run,
        _ => usage(),
    };
    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("vbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
        smoke,
        scratch: scratch.clone(),
        out_dir,
    };
    let ticks = common::cpu_ticks();
    let result = run(&opts);
    std::fs::remove_dir_all(&scratch).ok();
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    if let (Some(a), Some(b)) = (ticks, common::cpu_ticks()) {
        report.info("host_cpu", common::host_cpu_json(&a, &b));
    }
    let declared: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = print_report(&workload, &opts, &report, declared) {
        eprintln!("vbench: {workload}: {e}");
        std::process::exit(1);
    }
    if report.wrong > 0 {
        std::process::exit(1);
    }
}

fn metric_json((name, value, unit): &(String, f64, &str)) -> String {
    format!(
        "{}:{{\"value\":{value},\"unit\":{}}}",
        json_str(name),
        json_str(unit)
    )
}

/// Print the report line and the result line. The result holds exactly
/// the `declared` metrics; any other figure goes on the report line. A
/// declared metric that is missing or not a finite number is an error,
/// and then no result line is printed.
fn print_report(
    workload: &str,
    o: &Opts,
    r: &Report,
    declared: &[&str],
) -> std::result::Result<(), String> {
    let mut result = Vec::new();
    for name in declared {
        match r.metrics.iter().find(|m| m.0 == *name) {
            Some(m) if m.1.is_finite() => result.push(metric_json(m)),
            Some(m) => return Err(format!("metric {name} is {}", m.1)),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    let extra: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !declared.contains(&m.0.as_str()))
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity.
            let value = if value.is_finite() { *value } else { -1.0 };
            metric_json(&(name.clone(), value, unit))
        })
        .collect();
    let mut info = vec![
        format!("\"workload\":{}", json_str(workload)),
        format!("\"seed\":{}", o.seed),
        format!("\"seconds\":{}", o.seconds),
        format!("\"trace\":{}", o.trace),
        format!(
            "\"failed_frac\":{}",
            r.failed as f64 / r.attempted.max(1) as f64
        ),
        format!("\"wrong\":{}", r.wrong),
        format!("\"other_metrics\":{{{}}}", extra.join(",")),
    ];
    info.extend(r.info.iter().map(|(k, v)| format!("{}:{v}", json_str(k))));
    println!("{{\"report\":{{{}}}}}", info.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.wrong == 0,
        r.attempted.max(1),
        r.failed,
        result.join(",")
    );
    Ok(())
}

/// Run `f` while a sampler polls the servers' queue depths every 10 ms
/// (in-process, no connection); returns `f`'s result and the deepest
/// queue seen.
pub fn sample_depth<R>(handles: &[&ServerHandle], f: impl FnOnce() -> R) -> (R, u64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut max = 0;
            while !stop.load(Ordering::SeqCst) {
                for h in handles {
                    let st = h.stats();
                    max = max.max(st.interactive_depth + st.bulk_depth);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            max
        });
        let out = f();
        stop.store(true, Ordering::SeqCst);
        (out, sampler.join().expect("depth sampler"))
    })
}

/// Server-layer metrics read from its stats plane.
pub fn server_stat_metrics(report: &mut Report, stats: &ServerStatsSnapshot, depth_max: u64) {
    report.metric("server.hist_p50_us", stats.p50_us as f64, "us");
    report.metric("server.hist_p99_us", stats.p99_us as f64, "us");
    report.metric(
        "server.coalesced_share",
        stats.coalesced as f64 / stats.served.max(1) as f64,
        "ratio",
    );
    report.metric("server.queue_depth_max", depth_max as f64, "count");
    report.metric("server.busy", stats.busy as f64, "count");
    report.metric(
        "server.deadline_expired",
        stats.deadline_expired as f64,
        "count",
    );
    report.metric(
        "server.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
}

/// `server.ping_rtt_us`: median of `Client::ping` round trips.
pub fn ping_metric(tr: &mut trace::Tracer, report: &mut Report, client: &Client) -> Result<()> {
    for i in 0..500u64 {
        tr.time("server.ping", None, i, || client.ping())?;
    }
    layers::span_metric(report, tr, "server.ping_rtt_us", "server.ping");
    Ok(())
}

/// Write the traced run's spans and record where they went.
pub fn write_trace(o: &Opts, workload: &str, tr: &trace::Tracer, report: &mut Report) {
    let path = o
        .out_dir
        .join(format!("trace-{workload}-seed{}.jsonl", o.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => report.info_str("trace_file", &path.display().to_string()),
        Err(e) => eprintln!("vbench: cannot write {}: {e}", path.display()),
    }
    report.info("spans", tr.spans.len().to_string());
    let self_times: Vec<String> = tr
        .by_name()
        .iter()
        .map(|(name, v)| format!("{}:{:.3}", json_str(name), load::median(v)))
        .collect();
    report.info("self_time_us", format!("{{{}}}", self_times.join(",")));
}
