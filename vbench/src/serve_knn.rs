//! `serve-knn`: read-only kNN served over loopback TCP.
//!
//! n = 20k clustered rows, d = 64, HNSW, k = 10, beam 64, in memory, no
//! WAL. Two client threads, one connection each, send an open-loop
//! schedule at a fixed rate (a share on each of several server
//! instances), then at each rate of a fixed ladder for `goodput_qps`.
//! Almost all the work is in `server`, `index-graph` and the `core`
//! kernels.

use crate::common::*;
use crate::gen::{self, Points, Rng};
use crate::layers;
use crate::load::{self, open_loop, Sample};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use vdb::{CollectionConfig, CollectionSchema, IndexSpec, SystemProfile, Vdbms};
use vdb_core::{Metric, Result, SearchParams};
use vdb_index_graph::HnswConfig;
use vdb_server::{serve, Client, ServerConfig, ServerHandle};

const NAME: &str = "knn";
/// Fixed offered rate of the latency phase (both threads together).
const RATE: f64 = 500.0;
/// Share of the run at the fixed rate; the ladder has the rest.
const FIXED_SHARE: f64 = 0.7;
/// Offered rates tried for `goodput_qps`.
pub const LADDER: [f64; 3] = [1250.0, 2500.0, 5000.0];
/// Latency limit on a ladder rate's p99 (the median over the rate's
/// chunks of each chunk's p99) for the rate to count.
pub const P99_LIMIT_US: f64 = 10_000.0;
const THREADS: usize = 2;

struct Size {
    n: usize,
    dim: usize,
    queries: usize,
    setups: usize,
    rate_scale: f64,
    warmup: Duration,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            n: 2000,
            dim: 64,
            queries: 100,
            setups: 1,
            rate_scale: 0.1,
            warmup: Duration::from_millis(100),
        }
    } else {
        Size {
            n: 20_000,
            dim: 64,
            queries: 1000,
            setups: 5,
            rate_scale: 1.0,
            warmup: Duration::from_secs(1),
        }
    }
}

fn params() -> SearchParams {
    SearchParams::default().with_beam_width(64)
}

fn config(n: usize) -> CollectionConfig {
    // Load path: threshold above n, then one merge builds the index once.
    CollectionConfig {
        merge_threshold: n + 1,
        ..SystemProfile::MostlyMixed.collection_config(IndexSpec::Hnsw(HnswConfig::default()))
    }
}

/// Insert every row, then merge once; with a tracer, each insert and the
/// merge are spans.
fn load(points: &Points, mut tr: Option<&mut Tracer>) -> Result<Vdbms> {
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection_with(
        CollectionSchema::new(NAME, points.dim, Metric::Euclidean),
        config(points.len()),
    )?;
    let c = db.collection_mut(NAME)?;
    for i in 0..points.len() {
        Tracer::time_opt(&mut tr, "vdbms.collection_insert", i as u64, || {
            c.insert(i as u64, points.row(i), &[])
        })?;
    }
    Tracer::time_opt(&mut tr, "vdbms.merge", 0, || c.merge())?;
    Ok(db)
}

fn start(db: Vdbms, probe: &[f32]) -> Result<(ServerHandle, Vec<Client>)> {
    let handle = serve(db, "127.0.0.1:0", ServerConfig::default())?;
    let clients = (0..THREADS)
        .map(|_| Client::connect_with(handle.addr(), client_config()))
        .collect::<Result<Vec<_>>>()?;
    clients[0].search(NAME, probe, K, &params())?;
    Ok((handle, clients))
}

struct Inputs {
    points: Points,
    queries: Vec<Vec<f32>>,
    /// Per query, the cluster of the row it was drawn near.
    keywords: Vec<usize>,
    truth: Vec<Vec<u64>>,
}

fn inputs(seed: u64, s: &Size) -> Inputs {
    let mut rng = Rng::new(seed);
    let points = gen::clustered(s.n, s.dim, 32, 0.6, &mut rng);
    let (queries, keywords): (Vec<Vec<f32>>, Vec<usize>) =
        gen::queries(&points, s.queries, 0.05, &mut rng)
            .into_iter()
            .map(|(q, row)| (q, points.cluster[row]))
            .unzip();
    let truth = queries
        .iter()
        .map(|q| gen::exact_topk(q, (0..points.len()).map(|i| (i as u64, points.row(i))), K))
        .collect();
    Inputs {
        points,
        queries,
        keywords,
        truth,
    }
}

/// Outcome of a load phase (of one thread, or merged).
#[derive(Default)]
struct Run {
    samples: Vec<Sample>,
    recall_hits: usize,
    recall_total: usize,
}

impl Run {
    fn absorb(&mut self, other: Run) {
        self.samples.extend(other.samples);
        self.recall_hits += other.recall_hits;
        self.recall_total += other.recall_total;
    }
}

/// Drive `clients` (one thread each) through an open-loop schedule at
/// `rate` for `length`; every answer is checked.
fn drive(
    clients: &[Client],
    inp: &Inputs,
    rate: f64,
    length: Duration,
    first_op: usize,
    tracers: Option<&mut [Tracer]>,
) -> Run {
    let per_thread = rate / clients.len() as f64;
    let start = Instant::now() + Duration::from_millis(5);
    let tracer_slots: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    let runs: Vec<Run> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(tracer_slots)
            .enumerate()
            .map(|(t, (client, mut tr))| {
                s.spawn(move || {
                    let params = params();
                    let (mut hits_sum, mut total, mut logged) = (0, 0, 0);
                    let offset = Duration::from_secs_f64(t as f64 / rate);
                    let samples = open_loop(start, per_thread, offset, length, |i| {
                        let op = first_op + i * clients.len() + t;
                        let qi = op % inp.queries.len();
                        let q = &inp.queries[qi];
                        let res = match tr.as_deref_mut() {
                            Some(tr) => {
                                let root = tr.begin("request", None, op as u64);
                                let r = tr.time("server.search", Some(root), op as u64, || {
                                    client.search(NAME, q, K, &params)
                                });
                                tr.end(root);
                                r
                            }
                            None => client.search(NAME, q, K, &params),
                        };
                        let hits = match res {
                            Ok(h) => h,
                            Err(e) => return status_err(&e, &mut logged),
                        };
                        let exact = |key: u64| {
                            ((key as usize) < inp.points.len())
                                .then(|| gen::l2(q, inp.points.row(key as usize)))
                        };
                        let st = status_of(check_knn(&hits, K, exact, |_| false), &mut logged);
                        hits_sum += overlap(hits.iter().map(|h| h.key), &inp.truth[qi]);
                        total += inp.truth[qi].len();
                        st
                    });
                    Run {
                        samples,
                        recall_hits: hits_sum,
                        recall_total: total,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut all = Run::default();
    for r in runs {
        all.absorb(r);
    }
    all
}

fn record_config(report: &mut Report, n: usize) {
    report.info_str("server_config", &format!("{:?}", ServerConfig::default()));
    report.info_str("collection_config", &format!("{:?}", config(n)));
    report.info_str(
        "setup_path",
        "in-process Collection::insert of every row with merge_threshold = n + 1, one merge() (single HNSW build), serve(), connect, first answered search",
    );
    report.info(
        "load",
        format!(
            "{{\"loop\":\"open\",\"threads\":{THREADS},\"connections\":{THREADS},\"rate_qps\":{RATE},\"ladder_qps\":{:?},\"p99_limit_us\":{P99_LIMIT_US}}}",
            LADDER
        ),
    );
}

pub fn run(o: &Opts) -> Result<Report> {
    let s = size(o.smoke);
    let mut report = Report::default();
    provenance(&mut report);
    record_config(&mut report, s.n);
    let inp = inputs(o.seed, &s);
    if o.trace {
        traced(o, &s, &inp, &mut report)?;
        return Ok(report);
    }

    // Several complete set-ups, each followed by a warm-up and its share
    // of the fixed-rate phase; `setup_s` is the median set-up and the
    // latency figures pool the shares. The served p50 moves by up to a
    // fifth from one server instance to the next on a 2-vCPU host (where
    // the server's threads land), so one instance per run would make that
    // the run-to-run spread. The last set-up also runs the ladder.
    let rate = RATE * s.rate_scale;
    let share_len = Duration::from_secs_f64(o.seconds * FIXED_SHARE / s.setups as f64);
    let mut setup_times = Vec::new();
    let mut rss = f64::NAN;
    let mut fixed = Run::default();
    let mut counts = Vec::new();
    let mut served: Option<(ServerHandle, Vec<Client>)> = None;
    for i in 0..s.setups {
        if let Some((h, _)) = served.take() {
            counts.push(server_counts_json(&h.stats()));
            drop(h.shutdown());
        }
        let t0 = Instant::now();
        let db = load(&inp.points, None)?;
        let (h, clients) = start(db, &inp.queries[0])?;
        setup_times.push(t0.elapsed().as_secs_f64());
        let warm = drive(&clients, &inp, rate, s.warmup, 0, None);
        report.phase(&format!("warmup_{i}"), &warm.samples);
        let mut share = drive(&clients, &inp, rate, share_len, 1 << 20, None);
        // Place the share after the earlier ones on one schedule.
        for x in &mut share.samples {
            x.due_s += i as f64 * share_len.as_secs_f64();
        }
        fixed.absorb(share);
        if i == 0 {
            rss = peak_rss_mb();
        }
        served = Some((h, clients));
    }
    let (handle, clients) = served.expect("at least one set-up");
    report.info("event_loop", handle.stats().event_loop.to_string());
    let h = report.phase("fixed", &fixed.samples);
    let lat = load::latency(&fixed.samples);

    let rung_len = Duration::from_secs_f64(o.seconds * (1.0 - FIXED_SHARE) / LADDER.len() as f64);
    let mut goodput = 0.0;
    let mut rungs = Vec::new();
    for (r, &rate) in LADDER.iter().enumerate() {
        let run = drive(
            &clients,
            &inp,
            rate * s.rate_scale,
            rung_len,
            (r + 2) << 20,
            None,
        );
        let rh = report.phase(&format!("ladder_{}", rate as u64), &run.samples);
        // A failed or refused request misses the limit.
        let p99 = if rh.failed + rh.wrong > 0 {
            f64::INFINITY
        } else {
            load::latency(&run.samples).p99_median
        };
        let ok = p99 <= P99_LIMIT_US && !rh.backlog_growing();
        if ok {
            goodput = rate * s.rate_scale;
        }
        rungs.push(format!(
            "{{\"rate_qps\":{},\"p99_us\":{:.1},\"meets_limit\":{ok}}}",
            rate * s.rate_scale,
            if p99.is_finite() { p99 } else { -1.0 }
        ));
    }
    counts.push(server_counts_json(&handle.stats()));
    drop(clients);
    drop(handle.shutdown());

    report.info("ladder", format!("[{}]", rungs.join(",")));
    report.info(
        "search_samples",
        format!(
            "{{\"count\":{},\"p99_chunks\":{},\"beyond_p99_per_chunk\":{}}}",
            lat.count, lat.chunks, lat.beyond_p99
        ),
    );
    report.info("generator_behind", h.client_behind().to_string());
    report.info("server_stats", format!("[{}]", counts.join(",")));
    report.info("setup_samples_s", format!("{:?}", setup_times));
    report.metric("setup_s", load::median(&setup_times), "s");
    report.metric("search_p50_us", lat.p50, "us");
    report.info("search_p99_us_ungated", format!("{:.1}", lat.p99));
    report.info("goodput_qps_ungated", format!("{goodput}"));
    report.metric(
        "recall_at_10",
        fixed.recall_hits as f64 / fixed.recall_total.max(1) as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", rss, "MiB");
    report.info("peak_rss_mb_at_end", format!("{:.1}", peak_rss_mb()));
    Ok(report)
}

fn traced(o: &Opts, s: &Size, inp: &Inputs, report: &mut Report) -> Result<()> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let db = load(&inp.points, Some(&mut tr))?;
    layers::load_metrics(report, &tr);
    layers::snapshot_layers(&mut tr, report, db.collection(NAME)?)?;
    layers::graph_layers(&mut tr, report, &inp.points, &inp.queries, &params(), true)?;
    layers::collection_layers(
        &mut tr,
        report,
        db.collection(NAME)?,
        NAME,
        &inp.queries,
        &params(),
    )?;
    // Layers the served stream does not reach, on the same rows.
    layers::table_layers(
        &mut tr,
        report,
        &inp.points,
        &inp.queries,
        &inp.points,
        false,
    )?;
    let texts = gen::keyword_corpus(&inp.points, &mut Rng::new(o.seed ^ 0x7E57)).0;
    layers::text_layers(
        &mut tr,
        report,
        &inp.points,
        &texts,
        &inp.queries,
        &inp.keywords,
    )?;
    layers::storage_layers(
        &mut tr,
        report,
        &layers::insert_records(&inp.points, 300),
        &o.scratch.join("wal-probe"),
    )?;

    let (handle, clients) = start(db, &inp.queries[0])?;
    report.info("event_loop", handle.stats().event_loop.to_string());
    let rate = RATE * s.rate_scale;
    let warm = drive(&clients, inp, rate, s.warmup, 0, None);
    report.phase("warmup", &warm.samples);

    // Same schedule untraced, then traced: the difference in p50 is the
    // tracing overhead.
    let half = Duration::from_secs_f64(o.seconds * 0.4);
    let ((plain, traced_run), depth_max) = crate::sample_depth(&[&handle], || {
        let plain = drive(&clients, inp, rate, half, 1 << 20, None);
        let mut ts: Vec<Tracer> = (0..THREADS).map(|_| Tracer::new(epoch)).collect();
        let traced_run = drive(&clients, inp, rate, half, 1 << 20, Some(&mut ts));
        for t in ts {
            tr.absorb(t);
        }
        (plain, traced_run)
    });
    report.phase("fixed_untraced", &plain.samples);
    report.phase("fixed_traced", &traced_run.samples);
    let p50_plain = load::latency(&plain.samples).p50;
    let p50_traced = load::latency(&traced_run.samples).p50;

    crate::ping_metric(&mut tr, report, &clients[0])?;
    let stats = handle.stats();
    drop(clients);
    drop(handle.shutdown());

    report.metric(
        "server.overhead_us",
        p50_plain - tr.median_us("vdbms.collection_search"),
        "us",
    );
    crate::server_stat_metrics(report, &stats, depth_max);
    report.metric("trace.overhead_us", p50_traced - p50_plain, "us");
    crate::write_trace(o, "serve-knn", &tr, report);
    Ok(())
}
