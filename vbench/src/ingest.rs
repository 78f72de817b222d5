//! `ingest-mixed`: a durable IVF-PQ collection under inserts, deletes and
//! searches, then restarts.
//!
//! The collection keeps a WAL (fsync per acknowledged write), merges
//! incrementally, and checkpoints at every merge. One connection sends
//! open-loop inserts with every 10th operation a delete of an older key;
//! the other sends open-loop searches. Then several cycles of shutdown →
//! `Vdbms::recover_collection` → first correct search. Almost all the
//! work is in `storage`, `vdbms` maintenance, `index-table` and `quant`.

use crate::common::*;
use crate::gen::{self, Points, Rng};
use crate::layers;
use crate::load::{self, open_loop, Sample, Status};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vdb::{
    CollectionConfig, CollectionSchema, IndexSpec, MergeMode, SearchHit, SystemProfile, Vdbms,
};
use vdb_core::{Error, Metric, Result, SearchParams};
use vdb_server::{serve, Client, ServerConfig, ServerHandle};
use vdb_storage::{snapshot, WalRecord};

const NAME: &str = "ingest";
/// Insert/delete operations per second on the write connection.
const WRITE_RATE: f64 = 400.0;
/// Searches per second on the read connection.
const READ_RATE: f64 = 500.0;
/// Buffered rows that trigger an (incremental) merge and checkpoint.
const MERGE_THRESHOLD: usize = 1000;
/// Every `DELETE_EVERY`-th write is a delete of an older key.
const DELETE_EVERY: usize = 10;

struct Size {
    n0: usize,
    dim: usize,
    queries: usize,
    setups: usize,
    restarts: usize,
    rate_scale: f64,
    threshold: usize,
    warmup: Duration,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            n0: 1500,
            dim: 64,
            queries: 50,
            setups: 1,
            restarts: 2,
            rate_scale: 0.25,
            threshold: 100,
            warmup: Duration::from_millis(100),
        }
    } else {
        Size {
            n0: 10_000,
            dim: 64,
            queries: 600,
            setups: 5,
            restarts: 3,
            rate_scale: 1.0,
            threshold: MERGE_THRESHOLD,
            warmup: Duration::from_secs(1),
        }
    }
}

fn params() -> SearchParams {
    SearchParams::default()
}

fn schema(dim: usize) -> CollectionSchema {
    CollectionSchema::new(NAME, dim, Metric::Euclidean)
}

fn config(dir: &Path, threshold: usize) -> CollectionConfig {
    CollectionConfig {
        merge_threshold: threshold,
        merge_mode: MergeMode::Incremental,
        wal_dir: Some(dir.to_path_buf()),
        ..SystemProfile::MostlyMixed.collection_config(IndexSpec::IvfPq(layers::ivfpq_config()))
    }
}

/// Seeded inputs: the initial rows, the stream of inserted rows, the
/// order in which initial rows are deleted, and the query set.
struct Inputs {
    initial: Points,
    stream: Points,
    delete_order: Vec<u64>,
    queries: Vec<Vec<f32>>,
    /// Per query, the cluster of the row it was drawn near.
    keywords: Vec<usize>,
}

impl Inputs {
    fn vector(&self, key: u64) -> Option<&[f32]> {
        let k = key as usize;
        if k < self.initial.len() {
            Some(self.initial.row(k))
        } else if k - self.initial.len() < self.stream.len() {
            Some(self.stream.row(k - self.initial.len()))
        } else {
            None
        }
    }

    /// The `j`-th write: `(key, Some(row))` inserts, `(key, None)` deletes.
    fn write(&self, j: usize) -> (u64, Option<&[f32]>) {
        if j % DELETE_EVERY == DELETE_EVERY - 1 {
            (self.delete_order[j / DELETE_EVERY], None)
        } else {
            let i = j - j / DELETE_EVERY;
            let key = (self.initial.len() + i) as u64;
            (key, Some(self.stream.row(i)))
        }
    }
}

fn inputs(seed: u64, s: &Size, seconds: f64) -> Inputs {
    let mut rng = Rng::new(seed);
    let initial = gen::clustered(s.n0, s.dim, 32, 0.6, &mut rng);
    let (queries, keywords) = gen::queries(&initial, s.queries, 0.05, &mut rng)
        .into_iter()
        .map(|(q, row)| (q, initial.cluster[row]))
        .unzip();
    let mut delete_order: Vec<u64> = (0..s.n0 as u64).collect();
    rng.shuffle(&mut delete_order);
    // Enough stream rows for every write the schedule can issue.
    let writes = (WRITE_RATE * s.rate_scale * (seconds + 2.0 * s.warmup.as_secs_f64())) as usize;
    let stream = gen::clustered(writes + 1000, s.dim, 32, 0.6, &mut Rng::new(seed ^ 0x5EED));
    Inputs {
        initial,
        stream,
        delete_order,
        queries,
        keywords,
    }
}

/// Acknowledged state: what every read after a restart must see.
#[derive(Default)]
struct Acked {
    /// Keys whose latest acknowledged write is a delete.
    deleted: HashMap<u64, Instant>,
    /// Keys whose write failed: their state is unknown.
    unknown: Vec<u64>,
    /// Writes issued so far (index of the next write).
    next: usize,
}

fn load(inp: &Inputs, dir: &Path, threshold: usize) -> Result<Vdbms> {
    let mut db = Vdbms::new(SystemProfile::MostlyMixed);
    db.create_collection_with(schema(inp.initial.dim), config(dir, threshold))?;
    let c = db.collection_mut(NAME)?;
    for i in 0..inp.initial.len() {
        c.insert(i as u64, inp.initial.row(i), &[])?;
    }
    Ok(db)
}

fn start(db: Vdbms) -> Result<(ServerHandle, Client, Client)> {
    let handle = serve(db, "127.0.0.1:0", ServerConfig::default())?;
    let writer = Client::connect_with(handle.addr(), client_config())?;
    let reader = Client::connect_with(handle.addr(), client_config())?;
    Ok((handle, writer, reader))
}

/// Exact distance of `key` to `q` over the generated rows.
fn exact(inp: &Inputs, q: &[f32], key: u64) -> Option<f32> {
    inp.vector(key).map(|v| gen::l2(q, v))
}

/// One search's record, checked after the phase against the deletes
/// acknowledged before it was sent.
struct Read {
    sent: Instant,
    query: usize,
    hits: Vec<SearchHit>,
}

#[derive(Default)]
struct Phase {
    writes: Vec<Sample>,
    /// Whether each write sample was an insert.
    is_insert: Vec<bool>,
    reads: Vec<Sample>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.writes.extend(other.writes);
        self.is_insert.extend(other.is_insert);
        self.reads.extend(other.reads);
    }
}

/// Run the mixed open-loop schedule for `length`.
fn drive(
    writer: &Client,
    reader: &Client,
    inp: &Inputs,
    acked: &mut Acked,
    rate_scale: f64,
    length: Duration,
    mut tracers: Option<(&mut Tracer, &mut Tracer)>,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let first_write = acked.next;
    let (mut wtr, mut rtr) = match tracers.take() {
        Some((w, r)) => (Some(w), Some(r)),
        None => (None, None),
    };
    let (w, r) = std::thread::scope(|s| {
        let acked = &mut *acked;
        let wt = s.spawn(move || {
            let mut logged = 0;
            let mut is_insert = Vec::new();
            let samples = open_loop(
                start,
                WRITE_RATE * rate_scale,
                Duration::ZERO,
                length,
                |i| {
                    let j = first_write + i;
                    let (key, row) = inp.write(j);
                    is_insert.push(row.is_some());
                    let res = match (&mut wtr, row) {
                        (Some(tr), Some(v)) => tr.time("server.insert", None, j as u64, || {
                            writer.insert(NAME, key, v, &[])
                        }),
                        (Some(tr), None) => {
                            tr.time("server.delete", None, j as u64, || writer.delete(NAME, key))
                        }
                        (None, Some(v)) => writer.insert(NAME, key, v, &[]),
                        (None, None) => writer.delete(NAME, key),
                    };
                    acked.next = j + 1;
                    match res {
                        Ok(()) => {
                            if row.is_none() {
                                acked.deleted.insert(key, Instant::now());
                            }
                            Status::Ok
                        }
                        Err(e) => {
                            acked.unknown.push(key);
                            status_err(&e, &mut logged)
                        }
                    }
                },
            );
            (samples, is_insert)
        });
        let rt = s.spawn(move || {
            let mut logged = 0;
            let mut reads = Vec::new();
            let samples = open_loop(start, READ_RATE * rate_scale, Duration::ZERO, length, |i| {
                let qi = (first_write + i) % inp.queries.len();
                let q = &inp.queries[qi];
                let sent = Instant::now();
                let res = match &mut rtr {
                    Some(tr) => tr.time("server.search", None, i as u64, || {
                        reader.search(NAME, q, K, &params())
                    }),
                    None => reader.search(NAME, q, K, &params()),
                };
                match res {
                    Ok(hits) => {
                        reads.push(Some(Read {
                            sent,
                            query: qi,
                            hits,
                        }));
                        Status::Ok
                    }
                    Err(e) => {
                        reads.push(None);
                        status_err(&e, &mut logged)
                    }
                }
            });
            (samples, reads)
        });
        (
            wt.join().expect("writer thread"),
            rt.join().expect("reader thread"),
        )
    });
    let (writes, is_insert) = w;
    let (mut reads, records) = r;
    // Check every answer: a delete acknowledged before the search was
    // sent must not be returned.
    let mut logged = 0;
    for (sample, rec) in reads.iter_mut().zip(&records) {
        if let Some(rec) = rec {
            let q = &inp.queries[rec.query];
            let deleted = |key: u64| acked.deleted.get(&key).is_some_and(|t| *t < rec.sent);
            sample.status = status_of(
                check_knn(&rec.hits, K, |k| exact(inp, q, k), deleted),
                &mut logged,
            );
        }
    }
    Phase {
        writes,
        is_insert,
        reads,
    }
}

/// Every acknowledged insert readable with its exact vector, every
/// acknowledged delete absent.
fn verify_state(db: &Vdbms, inp: &Inputs, acked: &Acked, report: &mut Report, when: &str) {
    let Ok(c) = db.collection(NAME) else {
        report.wrong_state(format!("{when}: collection missing"));
        return;
    };
    let mut bad = 0usize;
    for key in live_keys(inp, acked) {
        if c.get(key).as_deref() != inp.vector(key) {
            bad += 1;
        }
    }
    for key in acked.deleted.keys() {
        if !acked.unknown.contains(key) && c.get(*key).is_some() {
            bad += 1;
        }
    }
    if bad > 0 {
        report.wrong_state(format!("{when}: {bad} acknowledged writes lost"));
    }
}

/// Keys that must be live: initial rows and acknowledged inserts, minus
/// acknowledged deletes and writes of unknown outcome.
fn live_keys(inp: &Inputs, acked: &Acked) -> Vec<u64> {
    let inserted = (0..acked.next)
        .filter_map(|j| match inp.write(j) {
            (k, Some(_)) => Some(k),
            _ => None,
        })
        .chain(0..inp.initial.len() as u64);
    inserted
        .filter(|k| !acked.deleted.contains_key(k) && !acked.unknown.contains(k))
        .collect()
}

/// Bring the update buffer to half the merge threshold with further
/// acknowledged writes of the stream, so every restart replays the same
/// WAL tail whatever point of the merge cycle the load phase ended in.
fn settle_tail(
    writer: &Client,
    inp: &Inputs,
    acked: &mut Acked,
    threshold: usize,
    report: &mut Report,
) -> Result<()> {
    let target = threshold / 2;
    let buffered = writer.stats(NAME)?.buffered as usize;
    let need = if buffered <= target {
        target - buffered
    } else {
        threshold - buffered + target
    };
    let mut inserted = 0;
    while inserted < need {
        let j = acked.next;
        let (key, row) = inp.write(j);
        match row {
            Some(v) => {
                writer.insert(NAME, key, v, &[])?;
                inserted += 1;
            }
            None => {
                writer.delete(NAME, key)?;
                acked.deleted.insert(key, Instant::now());
            }
        }
        acked.next = j + 1;
        report.count(1, 0, 0);
    }
    report.info(
        "buffered_at_restart",
        writer.stats(NAME)?.buffered.to_string(),
    );
    Ok(())
}

/// Restart cycles: shut down (no checkpoint), recover, serve, first
/// correct search; then recall over the query set and a full state check
/// after the next shutdown. Returns the recovery times and recall@10.
#[allow(clippy::too_many_arguments)]
fn restarts(
    mut handle: ServerHandle,
    clients: (Client, Client),
    inp: &Inputs,
    acked: &Acked,
    dir: &Path,
    threshold: usize,
    cycles: usize,
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> Result<(Vec<f64>, f64)> {
    drop(clients);
    let live = live_keys(inp, acked);
    let truth: Vec<Vec<u64>> = inp
        .queries
        .iter()
        .map(|q| {
            gen::exact_topk(
                q,
                live.iter().map(|&k| (k, inp.vector(k).expect("live key"))),
                K,
            )
        })
        .collect();
    let is_deleted = |k: u64| acked.deleted.contains_key(&k) && !acked.unknown.contains(&k);
    let (mut times, mut hits, mut total, mut logged) = (Vec::new(), 0, 0, 0);
    for cycle in 0..cycles {
        let db = handle.shutdown();
        verify_state(&db, inp, acked, report, &format!("before restart {cycle}"));
        drop(db);
        let t0 = Instant::now();
        let root = tr
            .as_deref_mut()
            .map(|t| t.begin("restart", None, cycle as u64));
        let mut span = |name: &'static str| {
            tr.as_deref_mut()
                .zip(root)
                .map(|(t, r)| t.begin(name, Some(r), cycle as u64))
        };
        let s = span("vdbms.recover_collection");
        let mut db = Vdbms::new(SystemProfile::MostlyMixed);
        db.recover_collection(schema(inp.initial.dim), config(dir, threshold))?;
        let s2 = span("server.serve");
        let (h, writer, reader) = start(db)?;
        let s3 = span("server.first_search");
        let q = &inp.queries[cycle % inp.queries.len()];
        let first = reader.search(NAME, q, K, &params());
        let elapsed = t0.elapsed().as_secs_f64();
        if let Some(t) = tr.as_deref_mut() {
            for id in [s, s2, s3, root].into_iter().flatten() {
                t.end(id);
            }
        }
        report.count(1, 0, 0);
        match first.map(|h| check_knn(&h, K, |k| exact(inp, q, k), is_deleted)) {
            Ok(Ok(())) => times.push(elapsed),
            Ok(Err(e)) => report.wrong_state(format!("first search after restart {cycle}: {e}")),
            Err(e) => {
                report.failed += 1;
                eprintln!("vbench: first search after restart {cycle} failed: {e}");
            }
        }
        for (qi, q) in inp.queries.iter().enumerate() {
            report.count(1, 0, 0);
            match reader.search(NAME, q, K, &params()) {
                Ok(h) => {
                    let st = status_of(
                        check_knn(&h, K, |k| exact(inp, q, k), is_deleted),
                        &mut logged,
                    );
                    if st == Status::Wrong {
                        report.wrong += 1;
                        report.failed += 1;
                    }
                    hits += overlap(h.iter().map(|x| x.key), &truth[qi]);
                    total += truth[qi].len();
                }
                Err(e) => {
                    status_err(&e, &mut logged);
                    report.failed += 1;
                }
            }
        }
        drop((writer, reader));
        handle = h;
    }
    let db = handle.shutdown();
    verify_state(&db, inp, acked, report, "after the last restart");
    Ok((times, hits as f64 / total.max(1) as f64))
}

fn record_config(report: &mut Report, dir: &Path, threshold: usize) {
    report.info_str("server_config", &format!("{:?}", ServerConfig::default()));
    report.info_str(
        "collection_config",
        &format!("{:?}", config(dir, threshold)),
    );
    report.info_str(
        "setup_path",
        "in-process durable Collection::insert of every initial row (WAL append + fsync each), incremental merges and checkpoints every merge_threshold rows, serve(), connect, first answered search",
    );
    report.info(
        "load",
        format!(
            "{{\"loop\":\"open\",\"threads\":2,\"connections\":2,\"write_rate\":{WRITE_RATE},\"read_rate\":{READ_RATE},\"delete_every\":{DELETE_EVERY}}}"
        ),
    );
}

fn fresh_dir(o: &Opts, name: &str) -> PathBuf {
    let d = o.scratch.join(name);
    std::fs::remove_dir_all(&d).ok();
    d
}

pub fn run(o: &Opts) -> Result<Report> {
    let s = size(o.smoke);
    let mut report = Report::default();
    provenance(&mut report);
    let dir = fresh_dir(o, "ingest");
    record_config(&mut report, &dir, s.threshold);
    let inp = inputs(o.seed, &s, o.seconds);
    if o.trace {
        traced(o, &s, &inp, &dir, &mut report)?;
        return Ok(report);
    }

    // Several complete set-ups from an empty directory, each followed by
    // a warm-up and its share of the load phase, as in `serve-knn`:
    // `setup_s` is the median set-up and the latency figures pool the
    // shares. The last set-up's acknowledged state goes on to the
    // restarts.
    let share_len = Duration::from_secs_f64(o.seconds / s.setups as f64);
    let mut setup_times = Vec::new();
    let mut rss = f64::NAN;
    let mut merges = 0;
    let mut ph = Phase::default();
    let mut served = None;
    for i in 0..s.setups {
        if let Some((h, w, r, _)) = served.take() {
            drop((w, r));
            drop(ServerHandle::shutdown(h));
        }
        std::fs::remove_dir_all(&dir).ok();
        let t0 = Instant::now();
        let db = load(&inp, &dir, s.threshold)?;
        let (h, w, r) = start(db)?;
        r.search(NAME, &inp.queries[0], K, &params())?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            report.info("event_loop", h.stats().event_loop.to_string());
        }
        let mut acked = Acked::default();
        let warm = drive(&w, &r, &inp, &mut acked, s.rate_scale, s.warmup, None);
        report.phase(&format!("warmup_writes_{i}"), &warm.writes);
        report.phase(&format!("warmup_reads_{i}"), &warm.reads);
        let merges0 = h.stats().merges;
        let mut share = drive(&w, &r, &inp, &mut acked, s.rate_scale, share_len, None);
        merges += h.stats().merges - merges0;
        // Place the share after the earlier ones on one schedule.
        for x in share.writes.iter_mut().chain(&mut share.reads) {
            x.due_s += i as f64 * share_len.as_secs_f64();
        }
        ph.absorb(share);
        if i == 0 {
            rss = peak_rss_mb();
        }
        served = Some((h, w, r, acked));
    }
    let (handle, writer, reader, mut acked) = served.expect("at least one set-up");
    let wh = report.phase("writes", &ph.writes);
    let rh = report.phase("reads", &ph.reads);
    let inserts: Vec<Sample> = ph
        .writes
        .iter()
        .zip(&ph.is_insert)
        .filter(|(_, ins)| **ins)
        .map(|(s, _)| *s)
        .collect();
    let deletes: Vec<Sample> = ph
        .writes
        .iter()
        .zip(&ph.is_insert)
        .filter(|(_, ins)| !**ins)
        .map(|(s, _)| *s)
        .collect();
    let ins = load::latency(&inserts);
    let del = load::latency(&deletes);
    let srch = load::latency(&ph.reads);

    settle_tail(&writer, &inp, &mut acked, s.threshold, &mut report)?;
    let (times, recall) = restarts(
        handle,
        (writer, reader),
        &inp,
        &acked,
        &dir,
        s.threshold,
        s.restarts,
        &mut report,
        None,
    )?;
    report.info("merges_during_load", merges.to_string());
    report.info("delete_p50_us", format!("{:.1}", del.p50));
    report.info(
        "samples",
        format!(
            "{{\"search\":{},\"search_p99_chunks\":{},\"search_beyond_p99_per_chunk\":{},\"insert\":{},\"insert_p99_chunks\":{},\"insert_beyond_p99_per_chunk\":{}}}",
            srch.count, srch.chunks, srch.beyond_p99, ins.count, ins.chunks, ins.beyond_p99
        ),
    );
    report.info(
        "generator_behind",
        (wh.client_behind() || rh.client_behind()).to_string(),
    );
    report.info("setup_samples_s", format!("{setup_times:?}"));
    report.info("restart_samples_s", format!("{times:?}"));
    report.metric("setup_s", load::median(&setup_times), "s");
    report.metric("search_p50_us", srch.p50, "us");
    report.info("search_p99_us_ungated", format!("{:.1}", srch.p99));
    report.info("insert_p50_us_ungated", format!("{:.1}", ins.p50));
    report.info("insert_p99_us_ungated", format!("{:.1}", ins.p99));
    report.info("recover_s_ungated", format!("{:.4}", load::median(&times)));
    report.metric("recall_at_10", recall, "ratio");
    report.metric("peak_rss_mb", rss, "MiB");
    report.info("peak_rss_mb_at_end", format!("{:.1}", peak_rss_mb()));
    std::fs::remove_dir_all(&dir).ok();
    Ok(report)
}

/// The workload's first `n` writes as WAL records.
fn write_records(inp: &Inputs, n: usize) -> Vec<WalRecord> {
    (0..n)
        .map(|j| match inp.write(j) {
            (key, Some(v)) => WalRecord::Insert {
                key,
                vector: v.to_vec(),
                attrs: Vec::new(),
            },
            (key, None) => WalRecord::Delete { key },
        })
        .collect()
}

fn traced(o: &Opts, s: &Size, inp: &Inputs, dir: &Path, report: &mut Report) -> Result<()> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let params = params();

    // Standalone layers on the initial rows; the IVF-PQ probe is the
    // workload's own index shape, so it also times `query.execute`.
    layers::table_layers(
        &mut tr,
        report,
        &inp.initial,
        &inp.queries,
        &inp.stream,
        true,
    )?;
    layers::graph_layers(&mut tr, report, &inp.initial, &inp.queries, &params, false)?;
    let texts = gen::keyword_corpus(&inp.initial, &mut Rng::new(o.seed ^ 0x7E57)).0;
    layers::text_layers(
        &mut tr,
        report,
        &inp.initial,
        &texts,
        &inp.queries,
        &inp.keywords,
    )?;
    let records = write_records(inp, 300);
    let log_bytes =
        layers::storage_layers(&mut tr, report, &records, &dir.with_extension("probe"))?;
    let inserts = records
        .iter()
        .filter(|r| matches!(r, WalRecord::Insert { .. }))
        .count();
    // Log bytes of the write stream (deletes included) per inserted row.
    let record_bytes = log_bytes as f64 / inserts.max(1) as f64;

    // vdbms in process: the same collection that is then served. The
    // first writes of the stream go through `Collection` directly, with
    // an explicit merge and checkpoint after each block.
    let mut db = load(inp, dir, s.threshold)?;
    let mut acked = Acked::default();
    {
        let c = db.collection_mut(NAME)?;
        layers::collection_layers(&mut tr, report, c, NAME, &inp.queries, &params)?;
        for _block in 0..3 {
            for _ in 0..s.threshold / 2 {
                let j = acked.next;
                let (key, row) = inp.write(j);
                match row {
                    Some(v) => tr.time("vdbms.collection_insert", None, j as u64, || {
                        c.insert(key, v, &[])
                    })?,
                    None => {
                        tr.time("vdbms.collection_delete", None, j as u64, || c.delete(key))?;
                        acked.deleted.insert(key, Instant::now());
                    }
                }
                acked.next = j + 1;
            }
            tr.time("vdbms.merge", None, 0, || c.merge())?;
            tr.time("vdbms.checkpoint", None, 0, || c.checkpoint())?;
        }
    }

    let (handle, writer, reader) = start(db)?;
    report.info("event_loop", handle.stats().event_loop.to_string());
    let warm = drive(
        &writer,
        &reader,
        inp,
        &mut acked,
        s.rate_scale,
        s.warmup,
        None,
    );
    report.phase("warmup_writes", &warm.writes);
    report.phase("warmup_reads", &warm.reads);
    let merges0 = handle.stats().merges;
    let half = Duration::from_secs_f64(o.seconds * 0.4);
    let (phases, depth_max) = crate::sample_depth(&[&handle], || {
        let plain = drive(&writer, &reader, inp, &mut acked, s.rate_scale, half, None);
        let (mut wt, mut rt) = (Tracer::new(epoch), Tracer::new(epoch));
        let traced_run = drive(
            &writer,
            &reader,
            inp,
            &mut acked,
            s.rate_scale,
            half,
            Some((&mut wt, &mut rt)),
        );
        tr.absorb(wt);
        tr.absorb(rt);
        (plain, traced_run)
    });
    let (plain, traced_run) = phases;
    crate::ping_metric(&mut tr, report, &reader)?;
    let stats = handle.stats();
    for (name, ph) in [("untraced", &plain), ("traced", &traced_run)] {
        report.phase(&format!("writes_{name}"), &ph.writes);
        report.phase(&format!("reads_{name}"), &ph.reads);
    }
    let rows_written = plain
        .is_insert
        .iter()
        .chain(&traced_run.is_insert)
        .filter(|x| **x)
        .count();
    let merges = stats.merges - merges0;

    // The end state as a snapshot: encode and decode it.
    let db_snapshot_path = dir.join(format!("{NAME}.snap"));
    settle_tail(&writer, inp, &mut acked, s.threshold, report)?;
    let (times, _) = restarts(
        handle,
        (writer, reader),
        inp,
        &acked,
        dir,
        s.threshold,
        s.restarts,
        report,
        Some(&mut tr),
    )?;
    report.info("restart_samples_s", format!("{times:?}"));
    let snap = snapshot::read(&db_snapshot_path)?
        .ok_or_else(|| Error::NotFound("checkpoint snapshot".into()))?;
    let snap_bytes = layers::snapshot_codec(&mut tr, report, &snap)?;

    for (metric, span) in [
        ("vdbms.merge_s", "vdbms.merge"),
        ("vdbms.checkpoint_s", "vdbms.checkpoint"),
        ("vdbms.recover_collection_s", "vdbms.recover_collection"),
    ] {
        report.metric(metric, tr.median_us(span) / 1e6, "s");
    }
    // The write stream's log bytes per inserted row, plus one full
    // snapshot per merge (a checkpoint follows every merge).
    report.metric(
        "storage.bytes_written_per_row",
        record_bytes + (merges as f64 * snap_bytes as f64) / rows_written.max(1) as f64,
        "B",
    );
    layers::span_metric(
        report,
        &tr,
        "vdbms.collection_insert_us",
        "vdbms.collection_insert",
    );
    report.metric("vdbms.merges", merges as f64, "count");
    crate::server_stat_metrics(report, &stats, depth_max);
    let p50 = |ph: &Phase| load::latency(&ph.reads).p50;
    report.metric(
        "server.overhead_us",
        p50(&plain) - tr.median_us("vdbms.collection_search"),
        "us",
    );
    report.metric("trace.overhead_us", p50(&traced_run) - p50(&plain), "us");
    crate::write_trace(o, "ingest-mixed", &tr, report);
    std::fs::remove_dir_all(dir).ok();
    Ok(())
}
