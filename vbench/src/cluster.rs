//! `cluster-hybrid`: two shard servers behind a `ClusterClient`.
//!
//! Each shard holds HNSW plus a BM25 text index over a keyword-skewed
//! corpus (n = 20k in total, split by `ClusterManifest::shard_of`). One
//! client thread sends an open-loop schedule through one `ClusterClient`
//! (one connection per shard): half kNN `search`, half `hybrid_search`
//! (RRF k0 = 60, planner `auto`). Almost all the work is in
//! `distributed` scatter/merge and the `query` text, fusion and planner
//! code.

use crate::common::*;
use crate::gen::{self, Points, Rng, KEYWORDS};
use crate::layers::{self, text_attr};
use crate::load::{self, open_loop, Sample};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use vdb::{
    CollectionConfig, CollectionSchema, Fusion, HybridStrategy, IndexSpec, Predicate,
    SystemProfile, Vdbms,
};
use vdb_core::{AttrType, Metric, Result, SearchParams};
use vdb_distributed::ClusterManifest;
use vdb_index_graph::HnswConfig;
use vdb_server::{serve, Client, ClusterClient, ServerConfig, ServerHandle};

const NAME: &str = "docs";
const SHARDS: usize = 2;
/// Offered rate, kNN and hybrid queries together.
const RATE: f64 = 300.0;
const FUSION: Fusion = Fusion::Rrf { k0: 60 };

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
            rate_scale: 0.25,
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

fn schema(dim: usize) -> CollectionSchema {
    CollectionSchema::new(NAME, dim, Metric::Euclidean)
        .column("text", AttrType::Str)
        .text_index("text")
}

fn config(rows: usize) -> CollectionConfig {
    CollectionConfig {
        merge_threshold: rows + 1,
        ..SystemProfile::MostlyMixed.collection_config(IndexSpec::Hnsw(HnswConfig::default()))
    }
}

struct Query {
    vector: Vec<f32>,
    keyword: usize,
}

struct Inputs {
    points: Points,
    texts: Vec<String>,
    /// Per shard, the keys it holds.
    shard_keys: Vec<Vec<u64>>,
    queries: Vec<Query>,
    /// Exact top-k over all rows.
    knn_truth: Vec<Vec<u64>>,
    /// Exact top-k among the documents that mention the query keyword.
    keyword_truth: Vec<Vec<u64>>,
}

fn inputs(seed: u64, s: &Size) -> Result<Inputs> {
    let mut rng = Rng::new(seed);
    let points = gen::clustered(s.n, s.dim, KEYWORDS.len(), 0.8, &mut rng);
    let (texts, tagged) = gen::keyword_corpus(&points, &mut rng);
    let queries: Vec<Query> = gen::queries(&points, s.queries, 0.05, &mut rng)
        .into_iter()
        .map(|(vector, row)| Query {
            vector,
            keyword: points.cluster[row],
        })
        .collect();
    let routing = ClusterManifest::new(
        NAME,
        SHARDS,
        &(0..SHARDS)
            .map(|i| format!("shard-{i}"))
            .collect::<Vec<_>>(),
    )?;
    let mut shard_keys = vec![Vec::new(); SHARDS];
    for key in 0..s.n as u64 {
        shard_keys[routing.shard_of(key)].push(key);
    }
    let rows = |k: u64| (k, points.row(k as usize));
    let knn_truth = queries
        .iter()
        .map(|q| gen::exact_topk(&q.vector, (0..s.n as u64).map(rows), K))
        .collect();
    let keyword_truth = queries
        .iter()
        .map(|q| {
            let tagged_rows = (0..s.n as u64).filter(|&k| tagged[k as usize] == Some(q.keyword));
            gen::exact_topk(&q.vector, tagged_rows.map(rows), K)
        })
        .collect();
    Ok(Inputs {
        points,
        texts,
        shard_keys,
        queries,
        knn_truth,
        keyword_truth,
    })
}

/// Insert the shard's rows, then merge once; with a tracer, each insert
/// and the merge are spans.
fn load_shard(inp: &Inputs, shard: usize, mut tr: Option<&mut Tracer>) -> Result<Vdbms> {
    let keys = &inp.shard_keys[shard];
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection_with(schema(inp.points.dim), config(keys.len()))?;
    let c = db.collection_mut(NAME)?;
    for &k in keys {
        Tracer::time_opt(&mut tr, "vdbms.collection_insert", k, || {
            c.insert(
                k,
                inp.points.row(k as usize),
                &text_attr(&inp.texts[k as usize]),
            )
        })?;
    }
    Tracer::time_opt(&mut tr, "vdbms.merge", 0, || c.merge())?;
    Ok(db)
}

fn start(dbs: Vec<Vdbms>, probe: &Query) -> Result<(Vec<ServerHandle>, ClusterClient)> {
    let handles = dbs
        .into_iter()
        .map(|db| serve(db, "127.0.0.1:0", ServerConfig::default()))
        .collect::<Result<Vec<_>>>()?;
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let manifest = ClusterManifest::new(NAME, SHARDS, &addrs)?;
    for (h, a) in handles.iter().zip(&addrs) {
        h.set_cluster(a.clone(), manifest.clone());
    }
    let cluster = ClusterClient::connect_with(&addrs[0], NAME, client_config())?;
    cluster.hybrid_search(
        &probe.vector,
        KEYWORDS[probe.keyword],
        K,
        FUSION,
        None,
        &params(),
    )?;
    Ok((handles, cluster))
}

fn exact(inp: &Inputs, q: &[f32], key: u64) -> Option<f32> {
    ((key as usize) < inp.points.len()).then(|| gen::l2(q, inp.points.row(key as usize)))
}

#[derive(Default)]
struct Run {
    knn: Vec<Sample>,
    hybrid: Vec<Sample>,
    knn_hits: usize,
    knn_total: usize,
    fused_hits: usize,
    fused_total: usize,
    /// Planner choices reported by hybrid answers: text-first,
    /// vector-first, fused.
    strategies: [usize; 3],
}

impl Run {
    fn absorb(&mut self, other: Run) {
        self.knn.extend(other.knn);
        self.hybrid.extend(other.hybrid);
        self.knn_hits += other.knn_hits;
        self.knn_total += other.knn_total;
        self.fused_hits += other.fused_hits;
        self.fused_total += other.fused_total;
        for (a, b) in self.strategies.iter_mut().zip(other.strategies) {
            *a += b;
        }
    }
}

fn strategy_slot(s: HybridStrategy) -> usize {
    match s {
        HybridStrategy::TextFirst => 0,
        HybridStrategy::VectorFirst => 1,
        HybridStrategy::Fused => 2,
    }
}

/// Even operations are kNN searches, odd ones hybrid searches.
fn drive(
    cluster: &ClusterClient,
    inp: &Inputs,
    rate: f64,
    length: Duration,
    first_op: usize,
    mut tr: Option<&mut Tracer>,
) -> Run {
    let start = Instant::now() + Duration::from_millis(5);
    let mut run = Run::default();
    let mut kinds = Vec::new();
    let mut logged = 0;
    let params = params();
    let samples = open_loop(start, rate, Duration::ZERO, length, |i| {
        let op = first_op + i;
        let qi = (op / 2) % inp.queries.len();
        let q = &inp.queries[qi];
        let exact = |k: u64| exact(inp, &q.vector, k);
        let hybrid = op % 2 == 1;
        kinds.push(hybrid);
        if !hybrid {
            let res = match tr.as_deref_mut() {
                Some(t) => t.time("distributed.scatter", None, op as u64, || {
                    cluster.search(&q.vector, K, &params)
                }),
                None => cluster.search(&q.vector, K, &params),
            };
            match res {
                Ok(hits) => {
                    run.knn_hits += overlap(hits.iter().map(|h| h.key), &inp.knn_truth[qi]);
                    run.knn_total += inp.knn_truth[qi].len();
                    status_of(check_knn(&hits, K, exact, |_| false), &mut logged)
                }
                Err(e) => status_err(&e, &mut logged),
            }
        } else {
            let call =
                || cluster.hybrid_search(&q.vector, KEYWORDS[q.keyword], K, FUSION, None, &params);
            let res = match tr.as_deref_mut() {
                Some(t) => t.time("distributed.hybrid_scatter", None, op as u64, call),
                None => call(),
            };
            match res {
                Ok(r) => {
                    let truth = &inp.keyword_truth[qi];
                    run.fused_hits += overlap(r.hits.iter().map(|h| h.key), truth);
                    run.fused_total += truth.len();
                    run.strategies[strategy_slot(r.strategy)] += 1;
                    status_of(check_hybrid(&r.hits, K, exact), &mut logged)
                }
                Err(e) => status_err(&e, &mut logged),
            }
        }
    });
    for (s, hybrid) in samples.into_iter().zip(kinds) {
        if hybrid {
            run.hybrid.push(s);
        } else {
            run.knn.push(s);
        }
    }
    run
}

fn record_config(report: &mut Report, inp: &Inputs) {
    report.info_str("server_config", &format!("{:?}", ServerConfig::default()));
    report.info_str(
        "collection_config",
        &format!("{:?}", config(inp.shard_keys[0].len())),
    );
    report.info(
        "shard_rows",
        format!(
            "{:?}",
            inp.shard_keys.iter().map(Vec::len).collect::<Vec<_>>()
        ),
    );
    report.info_str(
        "setup_path",
        "per shard: in-process Collection::insert of its rows (vector + text) with merge_threshold above its row count, one merge() (HNSW + inverted index build); serve() both, publish the manifest, ClusterClient connect, first answered hybrid search",
    );
    report.info(
        "load",
        format!(
            "{{\"loop\":\"open\",\"threads\":1,\"connections\":{SHARDS},\"rate_qps\":{RATE},\"mix\":\"1:1 knn:hybrid\",\"fusion\":\"rrf k0=60\",\"strategy\":\"auto\"}}"
        ),
    );
}

/// Sum of every shard server's stats, with the first shard's latency
/// histogram.
fn shard_stats(handles: &[ServerHandle]) -> vdb_server::ServerStatsSnapshot {
    let mut all = handles[0].stats();
    for h in &handles[1..] {
        let s = h.stats();
        all.served += s.served;
        all.coalesced += s.coalesced;
        all.busy += s.busy;
        all.deadline_expired += s.deadline_expired;
        all.protocol_errors += s.protocol_errors;
    }
    all
}

fn shutdown(handles: Vec<ServerHandle>) {
    for h in handles {
        drop(h.shutdown());
    }
}

fn strategy_shares(report: &mut Report, run: &Run) {
    let total = run.strategies.iter().sum::<usize>().max(1) as f64;
    for (i, name) in ["text_first", "vector_first", "fused"].iter().enumerate() {
        report.metric(
            &format!("query.strategy_share.{name}"),
            run.strategies[i] as f64 / total,
            "ratio",
        );
    }
}

pub fn run(o: &Opts) -> Result<Report> {
    let s = size(o.smoke);
    let mut report = Report::default();
    provenance(&mut report);
    let inp = inputs(o.seed, &s)?;
    record_config(&mut report, &inp);
    if o.trace {
        traced(o, &s, &inp, &mut report)?;
        return Ok(report);
    }

    // Several complete set-ups, each followed by a warm-up and its share
    // of the load phase, as in `serve-knn`: `setup_s` is the median
    // set-up and the latency figures pool the shares.
    let rate = RATE * s.rate_scale;
    let share_len = Duration::from_secs_f64(o.seconds / s.setups as f64);
    let mut setup_times = Vec::new();
    let mut rss = f64::NAN;
    let mut counts = Vec::new();
    let mut run = Run::default();
    for i in 0..s.setups {
        let t0 = Instant::now();
        let dbs = (0..SHARDS)
            .map(|i| load_shard(&inp, i, None))
            .collect::<Result<Vec<_>>>()?;
        let (handles, cluster) = start(dbs, &inp.queries[0])?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            report.info("event_loop", handles[0].stats().event_loop.to_string());
        }
        let warm = drive(&cluster, &inp, rate, s.warmup, 0, None);
        report.phase(&format!("warmup_knn_{i}"), &warm.knn);
        report.phase(&format!("warmup_hybrid_{i}"), &warm.hybrid);
        let mut share = drive(&cluster, &inp, rate, share_len, 1 << 20, None);
        // Place the share after the earlier ones on one schedule.
        for x in share.knn.iter_mut().chain(&mut share.hybrid) {
            x.due_s += i as f64 * share_len.as_secs_f64();
        }
        run.absorb(share);
        if i == 0 {
            rss = peak_rss_mb();
        }
        counts.push(server_counts_json(&shard_stats(&handles)));
        drop(cluster);
        shutdown(handles);
    }
    let kh = report.phase("knn", &run.knn);
    let hh = report.phase("hybrid", &run.hybrid);
    let knn = load::latency(&run.knn);
    let hyb = load::latency(&run.hybrid);
    report.info(
        "samples",
        format!(
            "{{\"search\":{},\"search_p99_chunks\":{},\"search_beyond_p99_per_chunk\":{},\"hybrid\":{},\"hybrid_p99_chunks\":{},\"hybrid_beyond_p99_per_chunk\":{}}}",
            knn.count, knn.chunks, knn.beyond_p99, hyb.count, hyb.chunks, hyb.beyond_p99
        ),
    );
    report.info(
        "strategies",
        format!(
            "{{\"text_first\":{},\"vector_first\":{},\"fused\":{}}}",
            run.strategies[0], run.strategies[1], run.strategies[2]
        ),
    );
    report.info(
        "generator_behind",
        (kh.client_behind() || hh.client_behind()).to_string(),
    );
    report.info("server_stats", format!("[{}]", counts.join(",")));
    report.info("setup_samples_s", format!("{setup_times:?}"));
    report.metric("setup_s", load::median(&setup_times), "s");
    report.metric("search_p50_us", knn.p50, "us");
    report.info("search_p99_us_ungated", format!("{:.1}", knn.p99));
    report.metric("hybrid_p50_us", hyb.p50, "us");
    report.info("hybrid_p99_us_ungated", format!("{:.1}", hyb.p99));
    report.metric(
        "recall_at_10",
        run.knn_hits as f64 / run.knn_total.max(1) as f64,
        "ratio",
    );
    report.metric(
        "fused_recall_at_10",
        run.fused_hits as f64 / run.fused_total.max(1) as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", rss, "MiB");
    report.info("peak_rss_mb_at_end", format!("{:.1}", peak_rss_mb()));
    Ok(report)
}

/// `vdbms.collection_hybrid`: in-process `Collection::hybrid_text_search`
/// on shard 0's collection.
fn hybrid_layer(tr: &mut Tracer, coll: &vdb::Collection, queries: &[Query]) -> Result<()> {
    let params = params();
    for (i, q) in queries.iter().enumerate() {
        let kw = KEYWORDS[q.keyword];
        tr.time("vdbms.collection_hybrid", None, i as u64, || {
            coll.hybrid_text_search(&q.vector, kw, K, &Predicate::True, FUSION, None, &params)
        })?;
    }
    Ok(())
}

/// Paired scatter and direct per-shard calls, closed loop: returns, per
/// query, the slowest direct shard call and the scatter minus it (µs).
fn scatter_pairs(
    tr: &mut Tracer,
    cluster: &ClusterClient,
    shards: &[Client],
    inp: &Inputs,
    count: usize,
    hybrid: bool,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let params = params();
    let (mut slowest, mut overhead) = (Vec::new(), Vec::new());
    let us = |tr: &Tracer, id: usize| (tr.spans[id].end_ns - tr.spans[id].start_ns) as f64 / 1e3;
    for (i, q) in inp.queries.iter().take(count).enumerate() {
        let req = i as u64;
        let kw = KEYWORDS[q.keyword];
        let (scatter, shard) = if hybrid {
            ("distributed.hybrid_scatter", "server.shard_hybrid")
        } else {
            ("distributed.scatter", "server.shard_search")
        };
        let id = tr.begin(scatter, None, req);
        if hybrid {
            cluster.hybrid_search(&q.vector, kw, K, FUSION, None, &params)?;
        } else {
            cluster.search(&q.vector, K, &params)?;
        }
        tr.end(id);
        let scatter_us = us(tr, id);
        let mut max = 0.0f64;
        for c in shards {
            let id = tr.begin(shard, None, req);
            if hybrid {
                c.hybrid_search(NAME, &q.vector, kw, K, FUSION, None, &params)?;
            } else {
                c.search(NAME, &q.vector, K, &params)?;
            }
            tr.end(id);
            max = max.max(us(tr, id));
        }
        slowest.push(max);
        overhead.push(scatter_us - max);
    }
    Ok((slowest, overhead))
}

fn traced(o: &Opts, s: &Size, inp: &Inputs, report: &mut Report) -> Result<()> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let dbs = (0..SHARDS)
        .map(|i| load_shard(inp, i, Some(&mut tr)))
        .collect::<Result<Vec<_>>>()?;
    layers::load_metrics(report, &tr);
    layers::snapshot_layers(&mut tr, report, dbs[0].collection(NAME)?)?;
    let shard0 = Points {
        dim: inp.points.dim,
        data: inp.shard_keys[0]
            .iter()
            .flat_map(|&k| inp.points.row(k as usize).iter().copied())
            .collect(),
        cluster: inp.shard_keys[0]
            .iter()
            .map(|&k| inp.points.cluster[k as usize])
            .collect(),
    };
    let texts0: Vec<String> = inp.shard_keys[0]
        .iter()
        .map(|&k| inp.texts[k as usize].clone())
        .collect();
    let vectors: Vec<Vec<f32>> = inp.queries.iter().map(|q| q.vector.clone()).collect();
    let keywords: Vec<usize> = inp.queries.iter().map(|q| q.keyword).collect();
    let coll0 = dbs[0].collection(NAME)?;
    layers::graph_layers(&mut tr, report, &shard0, &vectors, &params(), true)?;
    layers::collection_layers(&mut tr, report, coll0, NAME, &vectors, &params())?;
    layers::text_layers(&mut tr, report, &shard0, &texts0, &vectors, &keywords)?;
    hybrid_layer(&mut tr, coll0, &inp.queries)?;
    // Layers the cluster's stream does not reach, on shard 0's rows.
    layers::table_layers(&mut tr, report, &shard0, &vectors, &shard0, false)?;
    layers::storage_layers(
        &mut tr,
        report,
        &layers::insert_records(&shard0, 300),
        &o.scratch.join("wal-probe"),
    )?;

    let (handles, cluster) = start(dbs, &inp.queries[0])?;
    report.info("event_loop", handles[0].stats().event_loop.to_string());
    let rate = RATE * s.rate_scale;
    let warm = drive(&cluster, inp, rate, s.warmup, 0, None);
    report.phase("warmup_knn", &warm.knn);
    report.phase("warmup_hybrid", &warm.hybrid);
    let half = Duration::from_secs_f64(o.seconds * 0.4);
    let refs: Vec<&ServerHandle> = handles.iter().collect();
    let ((plain, traced_run, spans), depth_max) = crate::sample_depth(&refs, || {
        let plain = drive(&cluster, inp, rate, half, 1 << 20, None);
        let mut spans = Tracer::new(epoch);
        let traced_run = drive(&cluster, inp, rate, half, 1 << 20, Some(&mut spans));
        (plain, traced_run, spans)
    });
    tr.absorb(spans);
    for (name, run) in [("untraced", &plain), ("traced", &traced_run)] {
        report.phase(&format!("knn_{name}"), &run.knn);
        report.phase(&format!("hybrid_{name}"), &run.hybrid);
    }
    let stats = shard_stats(&handles);

    let shard_clients = handles
        .iter()
        .map(|h| Client::connect_with(h.addr(), client_config()))
        .collect::<Result<Vec<_>>>()?;
    let pairs = inp.queries.len().min(300);
    let mut pair_tr = Tracer::new(epoch);
    let (slowest, knn_over) =
        scatter_pairs(&mut pair_tr, &cluster, &shard_clients, inp, pairs, false)?;
    let (_, hyb_over) = scatter_pairs(&mut pair_tr, &cluster, &shard_clients, inp, pairs, true)?;
    crate::ping_metric(&mut pair_tr, report, &shard_clients[0])?;
    let scatter_us = pair_tr.median_us("distributed.scatter");
    tr.absorb(pair_tr);
    drop(shard_clients);
    drop(cluster);
    shutdown(handles);

    strategy_shares(report, &traced_run);
    layers::span_metric(
        report,
        &tr,
        "vdbms.collection_hybrid_us",
        "vdbms.collection_hybrid",
    );
    let p50 = |v: &[Sample]| load::latency(v).p50;
    report.metric(
        "server.overhead_us",
        p50(&plain.knn) - tr.median_us("vdbms.collection_search"),
        "us",
    );
    crate::server_stat_metrics(report, &stats, depth_max);
    report.metric("distributed.scatter_us", scatter_us, "us");
    report.metric("distributed.slowest_shard_us", load::median(&slowest), "us");
    report.metric(
        "distributed.merge_overhead_us",
        load::median(&knn_over),
        "us",
    );
    report.metric(
        "distributed.hybrid_merge_overhead_us",
        load::median(&hyb_over),
        "us",
    );
    report.metric(
        "trace.overhead_us",
        p50(&traced_run.knn) - p50(&plain.knn),
        "us",
    );
    crate::write_trace(o, "cluster-hybrid", &tr, report);
    Ok(())
}
