//! What every workload shares: run options, the result report,
//! correctness checks on served answers, and host provenance.

use crate::load::{Health, Sample, Status};
use std::path::PathBuf;
use vdb::{HybridHit, SearchHit};
use vdb_server::{ClientConfig, ServerStatsSnapshot};

/// Command-line options of one run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and rates for the smoke test; never used for figures.
    pub smoke: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Result size of every query.
pub const K: usize = 10;

/// One client connection per client: each load thread owns its client.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        pool_size: 1,
        ..ClientConfig::default()
    }
}

/// Metrics, counts and provenance of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    /// Failed, refused or wrong operations.
    pub failed: u64,
    /// Wrong answers and failed end-state checks.
    pub wrong: u64,
    /// `(key, JSON value)` pairs printed on the report line.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    pub fn info_str(&mut self, key: &str, text: &str) {
        self.info(key, json_str(text));
    }

    /// Count a load phase's operations and record its generator health.
    pub fn phase(&mut self, name: &str, samples: &[Sample]) -> Health {
        let h = Health::of(samples);
        self.count(h.sent, h.failed, h.wrong);
        self.info(&format!("phase.{name}"), h.json());
        self.info(&format!("tail.{name}"), crate::load::tail_json(samples));
        h
    }

    pub fn count(&mut self, attempted: usize, failed: usize, wrong: usize) {
        self.attempted += attempted as u64;
        self.failed += (failed + wrong) as u64;
        self.wrong += wrong as u64;
    }

    /// A failed end-state check (no operation of its own).
    pub fn wrong_state(&mut self, what: String) {
        eprintln!("vbench: wrong: {what}");
        self.wrong += 1;
        self.failed += 1;
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Invariants of a served kNN answer that hold however approximate the
/// index is: `expect_len` hits (`k` clamped to the live rows), no
/// duplicate keys, distances ascending and equal to the exact distance
/// of the returned key, and no key deleted before the request was sent.
pub fn check_knn(
    hits: &[SearchHit],
    expect_len: usize,
    exact_dist: impl Fn(u64) -> Option<f32>,
    deleted: impl Fn(u64) -> bool,
) -> Result<(), String> {
    if hits.len() != expect_len {
        return Err(format!("{} hits, expected {expect_len}", hits.len()));
    }
    for (i, h) in hits.iter().enumerate() {
        if hits[..i].iter().any(|o| o.key == h.key) {
            return Err(format!("duplicate key {}", h.key));
        }
        if i > 0
            && hits[i - 1]
                .dist
                .partial_cmp(&h.dist)
                .is_none_or(|o| o.is_gt())
        {
            return Err(format!("distances not ascending at rank {i}"));
        }
        if deleted(h.key) {
            return Err(format!("deleted key {} returned", h.key));
        }
        match exact_dist(h.key) {
            None => return Err(format!("unknown key {}", h.key)),
            Some(d) if (d - h.dist).abs() > 1e-3 * d.max(1.0) => {
                return Err(format!("key {} distance {} != exact {d}", h.key, h.dist))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The same invariants for fused hybrid hits, ordered by fused score.
pub fn check_hybrid(
    hits: &[HybridHit],
    expect_len: usize,
    exact_dist: impl Fn(u64) -> Option<f32>,
) -> Result<(), String> {
    if hits.len() != expect_len {
        return Err(format!("{} hybrid hits, expected {expect_len}", hits.len()));
    }
    for (i, h) in hits.iter().enumerate() {
        if hits[..i].iter().any(|o| o.key == h.key) {
            return Err(format!("duplicate hybrid key {}", h.key));
        }
        if i > 0
            && hits[i - 1]
                .fused
                .partial_cmp(&h.fused)
                .is_none_or(|o| o.is_lt())
        {
            return Err(format!("fused scores not descending at rank {i}"));
        }
        if !(h.text_score.is_finite() && h.text_score >= 0.0) {
            return Err(format!("key {} text score {}", h.key, h.text_score));
        }
        match exact_dist(h.key) {
            None => return Err(format!("unknown hybrid key {}", h.key)),
            Some(d) if (d - h.dist).abs() > 1e-3 * d.max(1.0) => {
                return Err(format!(
                    "hybrid key {} distance {} != exact {d}",
                    h.key, h.dist
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Map a check result to a status, logging the first few failures.
pub fn status_of(check: Result<(), String>, logged: &mut usize) -> Status {
    match check {
        Ok(()) => Status::Ok,
        Err(e) => {
            if *logged < 5 {
                eprintln!("vbench: wrong answer: {e}");
                *logged += 1;
            }
            Status::Wrong
        }
    }
}

pub fn status_err(e: &vdb_core::Error, logged: &mut usize) -> Status {
    if *logged < 5 {
        eprintln!("vbench: request failed: {e}");
        *logged += 1;
    }
    Status::Failed
}

/// Recall hits of `got` against the exact top-k `truth`.
pub fn overlap(got: impl Iterator<Item = u64>, truth: &[u64]) -> usize {
    got.filter(|k| truth.contains(k)).count()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// A workload reports it after its first set-up and that set-up's share
/// of the load: each later set-up in the same process adds memory the
/// allocator kept from the earlier ones, a different amount each run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` when there is one.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(String::from))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build provenance shared by every workload.
pub fn provenance(report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.info("nproc", nproc.to_string());
    report.info_str("kernel", vdb_core::kernel::dispatch_name());
    report.info_str("git_rev", &git_rev());
}

/// The host's aggregate CPU tick counters (`cpu` line of `/proc/stat`).
pub fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|t| t.parse().ok()).collect()
}

/// Shares of the host's CPU time between two `cpu_ticks` readings that
/// went to this machine's work (user + system) and that the hypervisor
/// stole: a run with a high steal share ran on a contended host.
pub fn host_cpu_json(before: &[u64], after: &[u64]) -> String {
    let d: Vec<f64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    let total: f64 = d.iter().take(8).sum::<f64>().max(1.0);
    let at = |i: usize| d.get(i).copied().unwrap_or(0.0) / total;
    format!(
        "{{\"busy\":{:.3},\"iowait\":{:.3},\"steal\":{:.3}}}",
        at(0) + at(1) + at(2),
        at(4),
        at(7)
    )
}

/// A server's request counters, as a JSON object for the report.
pub fn server_counts_json(s: &ServerStatsSnapshot) -> String {
    format!(
        "{{\"served\":{},\"busy\":{},\"deadline_expired\":{},\"protocol_errors\":{}}}",
        s.served, s.busy, s.deadline_expired, s.protocol_errors
    )
}
