//! In-process calls into single layers, timed as spans by the traced run.
//!
//! Every workload reports every per-layer metric: each probe below runs
//! on the workload's own rows and queries, whether or not the workload's
//! operation stream reaches that layer. A probe times one layer's public
//! calls and records the metrics taken from their spans.
//!
//! Each replayed request gets a root span `request`; every layer call
//! made on its behalf is a child span, so the root's self time is the
//! benchmark's own overhead.

use crate::common::{Report, K};
use crate::gen::{self, Points, KEYWORDS};
use crate::trace::Tracer;
use std::path::Path;
use vdb::Collection;
use vdb_core::{
    kernel, AttrValue, BuildOptions, Error, Metric, MutableIndex, Result, SearchContext,
    SearchParams, VectorIndex, Vectors,
};
use vdb_index_graph::{HnswConfig, HnswIndex};
use vdb_index_table::{IvfPqConfig, IvfPqIndex};
use vdb_quant::{PqConfig, ProductQuantizer};
use vdb_query::{
    execute_with, fuse, Fusion, HybridCandidate, Planner, PlannerMode, QueryContext, TextIndex,
    VectorQuery, DEFAULT_STOPWORDS,
};
use vdb_server::{Request, Response};
use vdb_storage::snapshot::{self, Snapshot};
use vdb_storage::{AttributeStore, Wal, WalRecord};

/// Rows per `core.l2_batch` and codes per `core.adc_scan` span.
const L2_BLOCK: usize = 1024;
/// Rows inserted one by one into the probe IVF-PQ index.
const IVF_INSERTS: usize = 500;
/// IVF-PQ shape of the `index-table` probe (and of `ingest-mixed`).
pub fn ivfpq_config() -> IvfPqConfig {
    IvfPqConfig::new(32, 8)
}

fn vectors_of(p: &Points) -> Vectors {
    Vectors::from_flat(p.dim, p.data.clone()).expect("generated rows are valid")
}

/// Wire codec round trip of one search request and its answer.
fn codec_spans(
    tr: &mut Tracer,
    root: usize,
    req: u64,
    collection: &str,
    query: &[f32],
    params: &SearchParams,
    hits: &[vdb::SearchHit],
) -> Result<()> {
    tr.time("server.request_codec", Some(root), req, || {
        let frame = Request::Search {
            collection: collection.into(),
            k: K as u32,
            params: params.clone(),
            query: query.to_vec(),
        }
        .encode();
        Request::decode(&frame).map(|_| ())
    })?;
    tr.time("server.response_codec", Some(root), req, || {
        let frame = Response::Hits(hits.to_vec()).encode();
        Response::decode(&frame).map(|_| ())
    })?;
    Ok(())
}

/// `core.l2_batch` and `index-graph` on a standalone HNSW over `rows`:
/// the build, then per query one block of `kernel::l2_sq_batch` and
/// `search_with` on a reused context. With `execute`, also
/// `query.execute` (`execute_with` on the planner's plan) over this index.
pub fn graph_layers(
    tr: &mut Tracer,
    report: &mut Report,
    rows: &Points,
    queries: &[Vec<f32>],
    params: &SearchParams,
    execute: bool,
) -> Result<()> {
    let vectors = vectors_of(rows);
    let index = tr.time("index-graph.hnsw_build", None, 0, || {
        HnswIndex::build_with(
            vectors.clone(),
            Metric::Euclidean,
            HnswConfig::default(),
            &BuildOptions::serial(),
        )
    })?;
    let attrs = AttributeStore::new();
    let qctx = QueryContext::new(&vectors, &attrs, &index)?;
    let planner = Planner::new(PlannerMode::CostBased);
    let mut sctx = SearchContext::new();
    let block = L2_BLOCK.min(rows.len());
    let blocks = rows.len() / block;
    let mut out = vec![0.0f32; block];
    for (i, q) in queries.iter().enumerate() {
        let req = i as u64;
        let root = tr.begin("request", None, req);
        let b = i % blocks * block * rows.dim;
        tr.time("core.l2_batch", Some(root), req, || {
            kernel::l2_sq_batch(q, &rows.data[b..b + block * rows.dim], rows.dim, &mut out);
            std::hint::black_box(&out);
        });
        tr.time("index-graph.hnsw_search", Some(root), req, || {
            index.search_with(&mut sctx, q, K, params).map(|_| ())
        })?;
        if execute {
            let vq = VectorQuery::knn(q.clone(), K).with_params(params.clone());
            let plan = planner.plan(&qctx, &vq);
            tr.time("query.execute", Some(root), req, || {
                execute_with(&qctx, &mut sctx, &vq, plan.strategy).map(|_| ())
            })?;
        }
        tr.end(root);
    }
    report.metric(
        "core.l2_batch_ns_per_row",
        tr.median_us("core.l2_batch") * 1e3 / block as f64,
        "ns",
    );
    report.metric(
        "index-graph.hnsw_build_s",
        tr.median_us("index-graph.hnsw_build") / 1e6,
        "s",
    );
    span_metric(
        report,
        tr,
        "index-graph.hnsw_search_us",
        "index-graph.hnsw_search",
    );
    if execute {
        span_metric(report, tr, "query.execute_us", "query.execute");
    }
    Ok(())
}

/// `quant`, `core.adc_scan` and `index-table` on `rows`: PQ training,
/// then per query `ProductQuantizer::encode`, one block of ADC scan over
/// the rows' codes and an IVF-PQ `search_with`; then `IVF_INSERTS`
/// single-row `MutableIndex::insert`s of `inserts`. With `execute`, also
/// `query.execute` over the IVF-PQ index.
pub fn table_layers(
    tr: &mut Tracer,
    report: &mut Report,
    rows: &Points,
    queries: &[Vec<f32>],
    inserts: &Points,
    execute: bool,
) -> Result<()> {
    let params = SearchParams::default();
    let vectors = vectors_of(rows);
    let pq = tr.time("quant.pq_train", None, 0, || {
        ProductQuantizer::train(&vectors, &PqConfig::new(8))
    })?;
    let codes = pq.encode_all(&vectors, &BuildOptions::serial())?;
    let mut index = tr.time("index-table.ivfpq_build", None, 0, || {
        IvfPqIndex::build(vectors.clone(), Metric::Euclidean, &ivfpq_config())
    })?;
    let attrs = AttributeStore::new();
    let mut sctx = SearchContext::new();
    let block = L2_BLOCK.min(rows.len());
    let blocks = rows.len() / block;
    let mut out = vec![0.0f32; block];
    {
        let qctx = QueryContext::new(&vectors, &attrs, &index)?;
        let planner = Planner::new(PlannerMode::CostBased);
        for (i, q) in queries.iter().enumerate() {
            let req = i as u64;
            let root = tr.begin("request", None, req);
            tr.time("quant.pq_encode", Some(root), req, || pq.encode(q))?;
            let table = pq.adc_table(q)?;
            let b = i % blocks * block * pq.m();
            tr.time("core.adc_scan", Some(root), req, || {
                // `AdcTable::scan` is a direct call of `kernel::adc_scan`.
                table.scan(&codes[b..b + block * pq.m()], &mut out);
                std::hint::black_box(&out);
            });
            tr.time("index-table.ivfpq_search", Some(root), req, || {
                index.search_with(&mut sctx, q, K, &params).map(|_| ())
            })?;
            if execute {
                let vq = VectorQuery::knn(q.clone(), K).with_params(params.clone());
                let plan = planner.plan(&qctx, &vq);
                tr.time("query.execute", Some(root), req, || {
                    execute_with(&qctx, &mut sctx, &vq, plan.strategy).map(|_| ())
                })?;
            }
            tr.end(root);
        }
    }
    for i in 0..IVF_INSERTS.min(inserts.len()) {
        tr.time("index-table.ivfpq_insert", None, i as u64, || {
            MutableIndex::insert(&mut index, inserts.row(i))
        })?;
    }
    report.metric(
        "core.adc_scan_ns_per_code",
        tr.median_us("core.adc_scan") * 1e3 / block as f64,
        "ns",
    );
    report.metric(
        "quant.pq_train_s",
        tr.median_us("quant.pq_train") / 1e6,
        "s",
    );
    span_metric(report, tr, "quant.pq_encode_us", "quant.pq_encode");
    report.metric(
        "index-table.ivfpq_build_s",
        tr.median_us("index-table.ivfpq_build") / 1e6,
        "s",
    );
    span_metric(
        report,
        tr,
        "index-table.ivfpq_search_us",
        "index-table.ivfpq_search",
    );
    span_metric(
        report,
        tr,
        "index-table.ivfpq_insert_us",
        "index-table.ivfpq_insert",
    );
    if execute {
        span_metric(report, tr, "query.execute_us", "query.execute");
    }
    Ok(())
}

/// `vdbms.collection_search` (`Collection::search` on `coll`) and the
/// wire codec of each request and its answer.
pub fn collection_layers(
    tr: &mut Tracer,
    report: &mut Report,
    coll: &Collection,
    collection: &str,
    queries: &[Vec<f32>],
    params: &SearchParams,
) -> Result<()> {
    for (i, q) in queries.iter().enumerate() {
        let req = i as u64;
        let root = tr.begin("request", None, req);
        let hits = tr.time("vdbms.collection_search", Some(root), req, || {
            coll.search(q, K, params)
        })?;
        codec_spans(tr, root, req, collection, q, params, &hits)?;
        tr.end(root);
    }
    span_metric(
        report,
        tr,
        "vdbms.collection_search_us",
        "vdbms.collection_search",
    );
    span_metric(
        report,
        tr,
        "server.request_codec_us",
        "server.request_codec",
    );
    span_metric(
        report,
        tr,
        "server.response_codec_us",
        "server.response_codec",
    );
    Ok(())
}

/// Storage layer on `records` in a directory of its own: WAL append and
/// fsync per record, replay of the whole log, and CRC32 throughput over
/// the log bytes. Returns the size of the log.
pub fn storage_layers(
    tr: &mut Tracer,
    report: &mut Report,
    records: &[WalRecord],
    dir: &Path,
) -> Result<usize> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("probe.wal");
    let mut wal = Wal::open(&path)?;
    for (j, rec) in records.iter().enumerate() {
        tr.time("storage.wal_append", None, j as u64, || wal.append(rec))?;
        tr.time("storage.wal_sync", None, j as u64, || wal.sync())?;
    }
    drop(wal);
    let replayed = tr.time("storage.wal_replay", None, 0, || Wal::replay(&path))?;
    if replayed.len() != records.len() {
        return Err(Error::Corrupt(format!(
            "replayed {} of {} WAL records",
            replayed.len(),
            records.len()
        )));
    }
    let bytes = std::fs::read(&path)?;
    std::fs::remove_dir_all(dir).ok();
    for i in 0..5 {
        tr.time("storage.crc32", None, i, || {
            std::hint::black_box(vdb_storage::crc32(&bytes));
        });
    }
    span_metric(report, tr, "storage.wal_append_us", "storage.wal_append");
    span_metric(report, tr, "storage.wal_sync_us", "storage.wal_sync");
    report.metric(
        "storage.wal_replay_s",
        tr.median_us("storage.wal_replay") / 1e6,
        "s",
    );
    report.metric(
        "storage.crc32_mb_per_s",
        bytes.len() as f64 / tr.median_us("storage.crc32"),
        "MB/s",
    );
    Ok(bytes.len())
}

/// The first `n` rows as WAL insert records.
pub fn insert_records(rows: &Points, n: usize) -> Vec<WalRecord> {
    (0..n.min(rows.len()))
        .map(|i| WalRecord::Insert {
            key: i as u64,
            vector: rows.row(i).to_vec(),
            attrs: Vec::new(),
        })
        .collect()
}

/// `vdbms.collection_insert_us` and `vdbms.merge_s` from the spans of
/// the workload's own load path.
pub fn load_metrics(report: &mut Report, tr: &Tracer) {
    span_metric(
        report,
        tr,
        "vdbms.collection_insert_us",
        "vdbms.collection_insert",
    );
    report.metric("vdbms.merge_s", tr.median_us("vdbms.merge") / 1e6, "s");
}

/// `storage.snapshot_encode` and `storage.snapshot_decode`, three times
/// each, of `coll`'s snapshot image (`Collection::export_replica_state`).
pub fn snapshot_layers(tr: &mut Tracer, report: &mut Report, coll: &Collection) -> Result<()> {
    let (_, image, _) = coll.export_replica_state()?;
    snapshot_codec(tr, report, &snapshot::decode(&image)?)?;
    Ok(())
}

/// Encode and decode `snap` three times each; returns its encoded size.
pub fn snapshot_codec(tr: &mut Tracer, report: &mut Report, snap: &Snapshot) -> Result<usize> {
    let mut size = 0;
    for i in 0..3 {
        let bytes = tr.time("storage.snapshot_encode", None, i, || {
            snapshot::encode(snap)
        })?;
        size = bytes.len();
        tr.time("storage.snapshot_decode", None, i, || {
            snapshot::decode(&bytes)
        })?;
    }
    for (metric, span) in [
        ("storage.snapshot_encode_s", "storage.snapshot_encode"),
        ("storage.snapshot_decode_s", "storage.snapshot_decode"),
    ] {
        report.metric(metric, tr.median_us(span) / 1e6, "s");
    }
    Ok(size)
}

/// `query` text search and fusion: a BM25 `TextIndex` over `texts` (one
/// document per row of `rows`, in order); per query `TextIndex::search`
/// for its keyword, then `fuse` (RRF k0 = 60) of the text hits ranked by
/// BM25 score and by exact distance to the query.
pub fn text_layers(
    tr: &mut Tracer,
    report: &mut Report,
    rows: &Points,
    texts: &[String],
    queries: &[Vec<f32>],
    keywords: &[usize],
) -> Result<()> {
    let mut text = TextIndex::with_stopwords(DEFAULT_STOPWORDS.iter().copied());
    for t in texts {
        text.push_doc(t);
    }
    for (i, (q, &kw)) in queries.iter().zip(keywords).enumerate() {
        let req = i as u64;
        let root = tr.begin("request", None, req);
        let kw = KEYWORDS[kw % KEYWORDS.len()];
        let hits = tr.time("query.text_search", Some(root), req, || {
            text.search(kw, 4 * K)
        });
        let candidates: Vec<HybridCandidate> = hits
            .iter()
            .map(|h| HybridCandidate {
                key: h.doc as u64,
                dist: gen::l2(q, rows.row(h.doc as usize)),
                text_score: h.score,
            })
            .collect();
        tr.time("query.fuse", Some(root), req, || {
            fuse(&candidates, Fusion::Rrf { k0: 60 }, K)
        });
        tr.end(root);
    }
    span_metric(report, tr, "query.text_search_us", "query.text_search");
    span_metric(report, tr, "query.fuse_us", "query.fuse");
    Ok(())
}

/// Per-layer metrics that are medians of span self times.
pub fn span_metric(report: &mut Report, tr: &Tracer, metric: &str, span: &str) {
    report.metric(metric, tr.median_us(span), "us");
}

/// Attribute list of one text document.
pub fn text_attr(text: &str) -> [(&'static str, AttrValue); 1] {
    [("text", AttrValue::Str(text.to_string()))]
}
