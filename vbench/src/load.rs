//! Open-loop load generation and latency statistics.
//!
//! Each client thread follows a fixed schedule: its `i`-th request is due
//! at `start + offset + i / rate`, whether or not earlier requests have
//! returned, because a VDBMS serves independent users. Latency is taken
//! from the *due* time, so a stall also charges the requests queued
//! behind it. The generator's own lateness is reported separately: time
//! the client spent late although its connection was free means the
//! client, not the server, fell behind.

use std::time::{Duration, Instant};

/// How one operation ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Ok,
    /// Failed or refused (`Busy`, `RateLimited`, `Deadline`, I/O).
    Failed,
    /// Answered, but the answer broke a correctness check.
    Wrong,
}

/// One scheduled operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Due time, seconds after the phase start.
    pub due_s: f64,
    /// Completion minus due time.
    pub latency_us: f64,
    /// Send minus due time.
    pub late_us: f64,
    /// Send minus the later of due time and the previous completion on
    /// this thread: lateness the client caused itself.
    pub self_late_us: f64,
    pub status: Status,
}

/// The generator sleeps until this long before a due time and spins the
/// rest, so timer wake-up delay is not charged to the system under test.
const SPIN: Duration = Duration::from_micros(200);

/// Run one thread's schedule for `length`, calling `op(i)` for the
/// `i`-th due request.
pub fn open_loop(
    start: Instant,
    rate: f64,
    offset: Duration,
    length: Duration,
    mut op: impl FnMut(usize) -> Status,
) -> Vec<Sample> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut out = Vec::with_capacity((rate * length.as_secs_f64()) as usize + 1);
    let mut prev_done = start;
    for i in 0.. {
        let rel = offset + interval * i as u32;
        if rel >= length {
            break;
        }
        let due = start + rel;
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let status = op(i);
        let done = Instant::now();
        out.push(Sample {
            due_s: rel.as_secs_f64(),
            latency_us: micros(done - due),
            late_us: micros(sent - due),
            self_late_us: micros(sent.saturating_duration_since(due.max(prev_done))),
            status,
        });
        prev_done = done;
    }
    out
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Minimum samples behind one p99 estimate: at least ten lie beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Latency percentiles of the successful samples.
///
/// The schedule is cut into consecutive chunks (twenty, or fewer so that
/// each holds [`P99_MIN_SAMPLES`]) and `p99` is the mean of the middle
/// half of the chunks' p99s. On a host that steals about 1% of CPU time
/// in short bursts, a single p99 sits on the edge between undisturbed and
/// disturbed requests and jumps between them from run to run; the
/// trimmed mean over chunks moves smoothly with the disturbance instead,
/// and a burst that spoils a few chunks is trimmed away.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// Median of the chunks' p99s.
    pub p99_median: f64,
    pub chunks: usize,
    /// Fewest samples above the p99 rank in any chunk.
    pub beyond_p99: usize,
}

pub fn latency(samples: &[Sample]) -> Latency {
    let mut ok: Vec<&Sample> = samples.iter().filter(|s| s.status == Status::Ok).collect();
    ok.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let n = ok.len();
    let chunk = P99_MIN_SAMPLES.max(n.div_ceil(20));
    let chunks = (n / chunk).max(1);
    let mut p99s = Vec::with_capacity(chunks);
    let mut beyond = usize::MAX;
    for c in 0..chunks {
        let hi = if c + 1 == chunks { n } else { (c + 1) * chunk };
        let mut v: Vec<f64> = ok[c * chunk..hi].iter().map(|s| s.latency_us).collect();
        v.sort_by(f64::total_cmp);
        beyond = beyond.min(v.len() - (0.99 * v.len() as f64).ceil() as usize);
        p99s.push(percentile(&v, 0.99));
    }
    let all: Vec<f64> = ok.iter().map(|s| s.latency_us).collect();
    Latency {
        count: n,
        p50: median(&all),
        p99: interquartile_mean(&p99s),
        p99_median: median(&p99s),
        chunks,
        beyond_p99: if n == 0 { 0 } else { beyond },
    }
}

/// Mean of the middle half of `values` (all of them when fewer than 4).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Latency at a spread of quantiles, as a JSON object (tail shape).
pub fn tail_json(samples: &[Sample]) -> String {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| s.status == Status::Ok)
        .map(|s| s.latency_us)
        .collect();
    v.sort_by(f64::total_cmp);
    let mut parts: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .map(|&q| format!("\"p{}\":{:.1}", q * 100.0, percentile(&v, q)))
        .collect();
    // p50 of each tenth of the phase, in schedule order: shows whether a
    // disturbance was a burst or lasted the whole phase.
    let mut ok: Vec<&Sample> = samples.iter().filter(|s| s.status == Status::Ok).collect();
    ok.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let tenth = ok.len().div_ceil(10).max(1);
    let p50s: Vec<String> = ok
        .chunks(tenth)
        .map(|c| {
            format!(
                "{:.1}",
                median(&c.iter().map(|s| s.latency_us).collect::<Vec<_>>())
            )
        })
        .collect();
    parts.push(format!("\"p50_by_tenth\":[{}]", p50s.join(",")));
    format!("{{{}}}", parts.join(","))
}

/// Generator health for one phase.
#[derive(Clone, Debug)]
pub struct Health {
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub wrong: usize,
    pub late_p50_us: f64,
    pub late_p99_us: f64,
    pub late_max_us: f64,
    pub self_late_p99_us: f64,
    pub self_late_max_us: f64,
    /// Median lateness of the last tenth of the schedule minus that of
    /// the first tenth: positive and large when a backlog grew.
    pub backlog_growth_us: f64,
}

/// Self-lateness p99 above which the client, not the server, is judged
/// to have fallen behind.
pub const CLIENT_BEHIND_US: f64 = 1000.0;
/// Growth in lateness over a phase that counts as a growing backlog: far
/// above what a burst of host noise leaves behind, far below what a
/// rate beyond capacity builds up in a few seconds.
pub const BACKLOG_GROWTH_US: f64 = 10_000.0;

impl Health {
    pub fn of(samples: &[Sample]) -> Health {
        let mut sorted: Vec<Sample> = samples.to_vec();
        sorted.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
        let sorted_by = |f: fn(&Sample) -> f64| {
            let mut v: Vec<f64> = sorted.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let late = sorted_by(|s| s.late_us);
        let self_late = sorted_by(|s| s.self_late_us);
        let tenth = (sorted.len() / 10).max(1).min(sorted.len());
        let head: Vec<f64> = sorted[..tenth].iter().map(|s| s.late_us).collect();
        let tail: Vec<f64> = sorted[sorted.len() - tenth..]
            .iter()
            .map(|s| s.late_us)
            .collect();
        let count = |st: Status| samples.iter().filter(|s| s.status == st).count();
        Health {
            sent: samples.len(),
            ok: count(Status::Ok),
            failed: count(Status::Failed),
            wrong: count(Status::Wrong),
            late_p50_us: percentile(&late, 0.5),
            late_p99_us: percentile(&late, 0.99),
            late_max_us: late.last().copied().unwrap_or(0.0),
            self_late_p99_us: percentile(&self_late, 0.99),
            self_late_max_us: self_late.last().copied().unwrap_or(0.0),
            backlog_growth_us: if samples.is_empty() {
                0.0
            } else {
                median(&tail) - median(&head)
            },
        }
    }

    pub fn client_behind(&self) -> bool {
        self.self_late_p99_us > CLIENT_BEHIND_US
    }

    pub fn backlog_growing(&self) -> bool {
        self.backlog_growth_us > BACKLOG_GROWTH_US
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"sent\":{},\"succeeded\":{},\"failed\":{},\"wrong\":{},\"late_p50_us\":{:.1},\"late_p99_us\":{:.1},\"late_max_us\":{:.1},\"self_late_p99_us\":{:.1},\"self_late_max_us\":{:.1},\"backlog_growth_us\":{:.1},\"client_behind\":{},\"backlog_growing\":{}}}",
            self.sent,
            self.ok,
            self.failed,
            self.wrong,
            self.late_p50_us,
            self.late_p99_us,
            self.late_max_us,
            self.self_late_p99_us,
            self.self_late_max_us,
            self.backlog_growth_us,
            self.client_behind(),
            self.backlog_growing()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn interquartile_mean_trims_both_ends() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, -50.0, 5.0, 6.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn schedule_runs_every_due_request() {
        let start = Instant::now();
        let s = open_loop(
            start,
            1000.0,
            Duration::ZERO,
            Duration::from_millis(50),
            |_| Status::Ok,
        );
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }
}
