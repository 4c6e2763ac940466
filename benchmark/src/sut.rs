//! The system under test: every `thetis::*` symbol the benchmark touches
//! is named in this file and nowhere else, so the binding surface is one
//! page. The rest of the benchmark sees plain numbers, strings and the
//! opaque handles defined here.
//!
//! Two kinds of entry point live here. The *end-to-end* ones do what a
//! user of the crate does (build a lake, boot a server, search). The
//! *layer* ones replay what the server does for one request as separate
//! calls on each crate's public functions, each wrapped in a span of the
//! benchmark's own recorder — that is how a traced run attributes time to
//! `datalake`, `lsh`, `core`, `embedding` and `serve` without a single
//! span inside `crates/`.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use thetis::core::{
    EmbeddingCosine, EntitySimilarity, Informativeness, Query, SearchOptions, SearchResult,
    SigmaKernel, ThetisEngine, TypeJaccard,
};
use thetis::corpus::{BenchQuery, Benchmark, BenchmarkConfig, BenchmarkKind};
use thetis::datalake::csv::read_csv;
use thetis::datalake::{
    apply_replay, read_checkpoint, write_checkpoint, DataLake, EntityLinker, EpochLake,
    ExactLabelLinker, Mutation, Table, TableId, Wal, WalRecord,
};
use thetis::embedding::{EmbeddingStore, Rdf2Vec, Rdf2VecConfig, SgnsConfig, WalkConfig};
use thetis::eval::ndcg_at_k;
use thetis::kg::{EntityId, KnowledgeGraph};
use thetis::lsh::lsei::{Lsei, LseiMode, TypeSigner};
use thetis::lsh::persist::{read_lsei_file, write_lsei_file};
use thetis::lsh::{LshConfig, TypeFilter};
use thetis::serve::{
    parse_query_spec, serve, Hit, Request, Response, RunningServer, Server, ServerConfig, SimKind,
};

use crate::rng::Rng;
use crate::trace::Tracer;

/// Fraction of the paper's corpus sizes both lakes are generated at.
const SCALE: f64 = 0.01;
/// Seed of both lakes, their KGs and their query sets. The corpus is the
/// benchmark's data set and stays put, as WT2015 and its 50 queries do in
/// the paper; `--seed` picks which queries run in what order, the spec
/// pools, the Zipf draws and the ingested tables. Lakes of different
/// seeds differ by 20 % in cost per query, and query sets by 10 %, which
/// would drown every bound the driver allows.
const CORPUS_SEED: u64 = 12;
/// Width of every query tuple.
const QUERY_WIDTH: usize = 3;
/// Results asked of every search.
pub const K: usize = 10;
/// Rows and columns of an ingested table.
const INGEST_ROWS: usize = 12;
const INGEST_COLS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LakeKind {
    /// `Wt2015`: 2,380 tables of ~35 rows.
    Wt,
    /// `Synthetic`: 17,323 tables of ~12 rows.
    Syn,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    One,
    Five,
}

/// Toggles the global metrics registry of `thetis::obs`, as
/// `thetis-cli serve` does at boot.
pub fn set_obs(on: bool) {
    thetis::obs::set_enabled(on);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One generated corpus: KG, unlinked lake, queries and ground truth.
pub struct Inputs {
    bench: Benchmark,
}

impl Inputs {
    /// The lake of `kind` with `n_queries` query pairs and their ground
    /// truth.
    pub fn generate(kind: LakeKind, n_queries: usize) -> Self {
        let kind = match kind {
            LakeKind::Wt => BenchmarkKind::Wt2015,
            LakeKind::Syn => BenchmarkKind::Synthetic,
        };
        Self {
            bench: Benchmark::build(&BenchmarkConfig {
                kind,
                scale: SCALE,
                n_queries,
                query_width: QUERY_WIDTH,
                seed: CORPUS_SEED,
            }),
        }
    }

    pub fn tables(&self) -> usize {
        self.bench.lake.len()
    }

    pub fn rows(&self) -> usize {
        self.bench.lake.tables().iter().map(Table::n_rows).sum()
    }

    fn bench_query(&self, width: Width, i: usize) -> &BenchQuery {
        match width {
            Width::One => &self.bench.queries1[i],
            Width::Five => &self.bench.queries5[i],
        }
    }

    /// Query `i` of the given width, for in-process search.
    pub fn query(&self, width: Width, i: usize) -> Q {
        Q(Query::new(self.bench_query(width, i).tuples.clone()))
    }

    /// The same query as the wire protocol spells it: entity labels, `,`
    /// between entities and `;` between tuples.
    pub fn spec(&self, width: Width, i: usize) -> String {
        let graph = &self.bench.kg.graph;
        let tuple = |t: &Vec<EntityId>| {
            let labels: Vec<&str> = t.iter().map(|&e| graph.label(e)).collect();
            labels.join(",")
        };
        let tuples: Vec<String> = self
            .bench_query(width, i)
            .tuples
            .iter()
            .map(tuple)
            .collect();
        tuples.join(";")
    }

    /// NDCG@10 of a ranking against the generated ground truth.
    pub fn ndcg10(&self, width: Width, i: usize, ranked: &[(u64, u64)]) -> f64 {
        let gt = match width {
            Width::One => &self.bench.gt1,
            Width::Five => &self.bench.gt5,
        };
        let ids: Vec<TableId> = ranked.iter().map(|&(t, _)| TableId(t as u32)).collect();
        ndcg_at_k(gt, i, &ids, K)
    }

    /// A 12-row, 3-column CSV of entity labels of one topic — what a
    /// writer ingests. Same `rng` state, same table.
    pub fn ingest_csv(&self, rng: &mut Rng) -> String {
        let kg = &self.bench.kg;
        let pools = &kg.topics[rng.below(kg.topics.len())].entities_by_kind;
        let mut csv = String::from("c0,c1,c2\n");
        for _ in 0..INGEST_ROWS {
            let row: Vec<&str> = (0..INGEST_COLS)
                .map(|k| {
                    let pool = &pools[k % pools.len()];
                    kg.graph.label(pool[rng.below(pool.len())])
                })
                .collect();
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        csv
    }

    /// The inputs as a service start would find them in memory: the KG
    /// and the lake, neither linked nor indexed.
    pub fn world(&self) -> World {
        World {
            graph: self.bench.kg.graph.clone(),
            lake: self.bench.lake.clone(),
        }
    }
}

/// An in-process query.
pub struct Q(Query);

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// What `core` reports about one search (from the returned `SearchStats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    pub candidates: u64,
    pub tables_scored: u64,
    pub tables_pruned: u64,
    pub sigma_computed: u64,
    pub sigma_cached: u64,
    pub mapping_ns: u64,
    pub agg_ns: u64,
    pub scoring_ns: u64,
    pub degraded: bool,
}

/// A ranking as `(table id, score bits)` plus the engine's own account.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    pub ranked: Vec<(u64, u64)>,
    pub stats: CoreStats,
}

impl From<SearchResult> for Answer {
    fn from(r: SearchResult) -> Self {
        let t = r.stats.timings;
        Self {
            ranked: r
                .ranked
                .iter()
                .map(|&(id, score)| (id.0 as u64, score.to_bits()))
                .collect(),
            stats: CoreStats {
                candidates: r.stats.candidates as u64,
                tables_scored: r.stats.tables_scored as u64,
                tables_pruned: t.tables_pruned as u64,
                sigma_computed: t.sigma_computed,
                sigma_cached: t.sigma_cached,
                mapping_ns: t.mapping_nanos,
                agg_ns: t.agg_nanos,
                scoring_ns: t.scoring_nanos,
                degraded: r.stats.degraded,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// `SearchOptions::top(10)`: memoize + prune, the default path.
    Default,
    /// `SearchOptions::exhaustive(10)`: the reference path.
    Exhaustive,
}

fn options(path: Scoring, threads: usize) -> SearchOptions {
    let base = match path {
        Scoring::Default => SearchOptions::top(K),
        Scoring::Exhaustive => SearchOptions::exhaustive(K),
    };
    SearchOptions { threads, ..base }
}

// ---------------------------------------------------------------------------
// World: KG + lake, and the set-up steps over them
// ---------------------------------------------------------------------------

pub struct World {
    graph: KnowledgeGraph,
    lake: DataLake,
}

/// Trained entity embeddings.
#[derive(Clone)]
pub struct Embeddings(EmbeddingStore);

impl World {
    /// `datalake`: links every text cell that equals an entity label.
    pub fn link(&mut self) {
        let mut linker = ExactLabelLinker::new(&self.graph);
        for table in self.lake.tables_mut() {
            linker.link_table(table);
        }
    }

    /// `datalake`: postings and per-table digests.
    pub fn index(&mut self) {
        self.lake.rebuild_postings();
    }

    /// `embedding`: RDF2Vec over the KG. Two walks per entity and one
    /// SGNS epoch instead of the defaults' eight and three: training is
    /// set-up every run pays three times over, and the benchmark needs
    /// vectors that order entities by topic, not the best ones. Single
    /// threaded, so the same KG gives the same vectors.
    pub fn train(&self) -> Embeddings {
        let config = Rdf2VecConfig {
            walks: WalkConfig {
                walks_per_entity: 2,
                ..WalkConfig::default()
            },
            sgns: SgnsConfig {
                epochs: 1,
                ..SgnsConfig::default()
            },
            threads: 1,
        };
        Embeddings(Rdf2Vec::new(config).train(&self.graph))
    }

    /// `core`: a brute-force engine with type-Jaccard σ over this lake
    /// (`ThetisEngine::new` derives informativeness from the postings).
    pub fn scan_engine(&self) -> ScanEngine<'_> {
        ScanEngine(ThetisEngine::new(
            &self.graph,
            &self.lake,
            TypeJaccard::new(&self.graph),
        ))
    }

    /// The server's request path rebuilt from public calls: reference for
    /// the output checks, and the thing a traced run replays ops on.
    pub fn layers<'w>(&'w self, store: Option<&'w Embeddings>, tr: &mut Tracer) -> Layers<'w> {
        let sim: Box<dyn EntitySimilarity + Send + Sync + 'w> = match store {
            Some(s) => Box::new(EmbeddingCosine::new(&s.0)),
            None => Box::new(TypeJaccard::new(&self.graph)),
        };
        let lsei = tr.span("lsh.build", 0, |_| build_lsei(&self.graph, &self.lake));
        let inform = tr.span("core.informativeness", 0, |_| {
            Informativeness::from_lake(&self.lake)
        });
        Layers {
            graph: &self.graph,
            sim,
            epochs: EpochLake::new(self.lake.clone()),
            inform,
            lsei,
        }
    }

    fn config(embeddings: bool, wal: Option<&Path>) -> ServerConfig {
        ServerConfig {
            sim: if embeddings {
                SimKind::Embeddings
            } else {
                SimKind::Types
            },
            wal: wal.map(Path::to_path_buf),
            ..ServerConfig::default()
        }
    }

    /// `serve`: `Server::new` + `serve()` on a loopback port. Everything
    /// but the similarity and the journal path is `ServerConfig::default()`.
    pub fn boot(self, store: Option<Embeddings>, wal: Option<&Path>) -> Result<Service, String> {
        let config = Self::config(store.is_some(), wal);
        let server = Server::new(self.graph, self.lake, store.map(|s| s.0), config);
        let running = serve(server).map_err(|e| format!("cannot bind the server: {e}"))?;
        Ok(Service { running })
    }

    /// `serve`: `Server::recover` from the journal and checkpoint at
    /// `wal`, with this world as the base the journal was started on.
    /// Returns the service and the epoch it recovered to.
    pub fn recover(self, wal: &Path) -> Result<(Service, u64), String> {
        let config = Self::config(false, Some(wal));
        let (server, report) = Server::recover(self.graph, self.lake, None, config)?;
        let running = serve(server).map_err(|e| format!("cannot bind the server: {e}"))?;
        Ok((Service { running }, report.recovered_epoch))
    }
}

/// The LSEI exactly as `Server` and `thetis-cli` construct it.
fn build_lsei<'g>(graph: &'g KnowledgeGraph, lake: &DataLake) -> Lsei<TypeSigner<'g>> {
    let cfg = LshConfig::recommended();
    let filter = TypeFilter::from_lake(lake, graph, 0.5);
    Lsei::build(
        lake,
        TypeSigner::new(graph, filter, cfg, 42),
        cfg,
        LseiMode::Entity,
    )
}

pub struct ScanEngine<'w>(ThetisEngine<'w, TypeJaccard<'w>>);

impl ScanEngine<'_> {
    /// `ThetisEngine::search` over the whole lake.
    pub fn search(&self, q: &Q, path: Scoring, threads: usize) -> Answer {
        self.0.search(&q.0, options(path, threads)).into()
    }
}

impl Embeddings {
    /// `embedding`: nanoseconds per σ pair of `sim_batch_kernel` under
    /// `kernel` ("f64", "f32", "i8") over a fixed sample — 64 left-hand
    /// entities against the first 4,096 — and the heap bytes of the slab
    /// that kernel built.
    pub fn sigma_ns_per_pair(&self, kernel: &str) -> (f64, usize) {
        let kernel = SigmaKernel::parse(kernel).expect("a kernel name");
        let cos = EmbeddingCosine::new(&self.0);
        cos.warm(kernel);
        let n = self.0.len().min(4096);
        let bs: Vec<EntityId> = (0..n as u32).map(EntityId).collect();
        let mut out = vec![0.0; n];
        let lefts = 64.min(n);
        let start = Instant::now();
        for a in 0..lefts {
            let a = EntityId((a * (n / lefts)) as u32);
            cos.sim_batch_kernel(kernel, black_box(a), black_box(&bs), &mut out);
            black_box(&out);
        }
        let ns = start.elapsed().as_nanos() as f64 / (lefts * n) as f64;
        (ns, cos.slab_bytes())
    }
}

// ---------------------------------------------------------------------------
// Layers: one request, one public call per layer
// ---------------------------------------------------------------------------

pub struct Layers<'w> {
    graph: &'w KnowledgeGraph,
    sim: Box<dyn EntitySimilarity + Send + Sync + 'w>,
    epochs: EpochLake,
    inform: Informativeness,
    lsei: Lsei<TypeSigner<'w>>,
}

/// What the LSEI did for one search.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prefiltered {
    pub candidates: u64,
    pub reduction: f64,
}

impl Layers<'_> {
    /// One search the way `Server::handle_search` runs it — decode and
    /// resolve the request, pin the epoch, build the engine over the pin,
    /// ask the LSEI for candidates, score them, encode the response —
    /// each step a span under one `op` span.
    pub fn search(&self, line: &str, op: u64, tr: &mut Tracer) -> (Answer, Prefiltered) {
        tr.span("op.search", op, |tr| {
            let query = tr.span("serve.parse", op, |_| {
                let req: Request = serde_json::from_str(line).expect("a request line");
                parse_query_spec(req.query.as_deref().unwrap_or(""), self.graph).0
            });
            let lake = tr.span("datalake.pin", op, |_| self.epochs.pin());
            // `handle_search` clones the weights into a fresh engine.
            let engine = tr.span("core.engine_new", op, |_| {
                ThetisEngine::with_informativeness(
                    self.graph,
                    &lake,
                    &*self.sim,
                    self.inform.clone(),
                )
            });
            let pre = tr.span("lsh.prefilter", op, |_| {
                self.lsei.prefilter(&query.distinct_entities(), 1)
            });
            let result = tr.span("core.search_among", op, |_| {
                engine.search_among(&query, options(Scoring::Default, 1), &pre.tables)
            });
            tr.span("serve.encode", op, |_| {
                black_box(encode_response(&result, &lake));
            });
            let prefiltered = Prefiltered {
                candidates: pre.tables.len() as u64,
                reduction: pre.reduction(lake.len()),
            };
            (result.into(), prefiltered)
        })
    }

    /// The reference answer for a wire query spec: same candidates and
    /// same scoring as the server, so score bits must match its reply.
    pub fn answer(&self, spec: &str) -> Answer {
        self.search(&search_line(spec), 0, &mut Tracer::disabled())
            .0
    }

    /// One `add_table` the way `Server::commit_locked` runs it: clone the
    /// LSEI and insert into the clone, journal, commit the epoch, rebuild
    /// informativeness. Returns the journaled bytes.
    pub fn add_table(
        &mut self,
        name: &str,
        csv: &str,
        journal: &mut Journal,
        op: u64,
        tr: &mut Tracer,
    ) -> u64 {
        tr.span("op.add_table", op, |tr| {
            let table = tr.span("datalake.parse_link", op, |_| {
                let mut table = read_csv(name, std::io::Cursor::new(csv.as_bytes()))
                    .expect("a well-formed ingest CSV");
                ExactLabelLinker::new(self.graph).link_table(&mut table);
                table
            });
            let mut lsei = tr.span("lsh.clone", op, |_| self.lsei.clone());
            let id = TableId::from_index(self.epochs.pin().len());
            tr.span("lsh.insert", op, |_| lsei.insert_table(id, &table));
            let before = journal.0.len();
            tr.span("datalake.wal_append", op, |_| {
                journal
                    .0
                    .append(&WalRecord {
                        epoch: self.epochs.epoch() + 1,
                        mutation: Mutation::Add(table.clone()),
                    })
                    .expect("journal append");
            });
            tr.span("datalake.commit", op, |_| {
                self.epochs.commit(vec![Mutation::Add(table)]);
            });
            let lake = self.epochs.pin();
            lsei.set_epoch(lake.epoch());
            self.inform = tr.span("core.informativeness", op, |_| {
                Informativeness::from_lake(&lake)
            });
            self.lsei = lsei;
            journal.0.len() - before
        })
    }

    /// Removes the table `add_table` put at `id`, timing the LSEI delta;
    /// the first prefilter afterwards pays the flat-bucket re-sort.
    pub fn remove_table(&mut self, id: u64, probe: &str, op: u64, tr: &mut Tracer) {
        let id = TableId(id as u32);
        tr.span("op.remove_table", op, |tr| {
            let pre = self.epochs.pin();
            tr.span("lsh.remove", op, |_| {
                self.lsei.remove_table(id, pre.table(id))
            });
            self.epochs.commit(vec![Mutation::Remove(id)]);
            let query = parse_query_spec(probe, self.graph).0;
            tr.span("lsh.first_prefilter", op, |_| {
                black_box(self.lsei.prefilter(&query.distinct_entities(), 1));
            });
        });
    }

    pub fn tables(&self) -> u64 {
        self.epochs.pin().len() as u64
    }

    /// `datalake`: a durable checkpoint of the published snapshot; bytes.
    pub fn checkpoint(&self, path: &Path) -> u64 {
        write_checkpoint(&self.epochs.pin(), path).expect("checkpoint write");
        file_len(path)
    }

    /// `lsh`: snapshot to `path` and back; `(bytes, save, load)`.
    pub fn lsei_roundtrip(&self, path: &Path) -> (u64, Duration, Duration) {
        let start = Instant::now();
        write_lsei_file(&self.lsei, path).expect("LSEI snapshot write");
        let save = start.elapsed();
        let cfg = LshConfig::recommended();
        let filter = TypeFilter::from_lake(&self.epochs.pin(), self.graph, 0.5);
        let signer = TypeSigner::new(self.graph, filter, cfg, 42);
        let start = Instant::now();
        black_box(read_lsei_file(path, signer, cfg).expect("LSEI snapshot read"));
        (file_len(path), save, start.elapsed())
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The response `handle_search` builds and serializes for a result.
fn encode_response(result: &SearchResult, lake: &DataLake) -> String {
    let ranked = result
        .ranked
        .iter()
        .map(|&(tid, score)| Hit {
            table: tid.0 as u64,
            name: lake.table(tid).name.clone(),
            score,
            score_bits: score.to_bits(),
        })
        .collect();
    let resp = Response {
        status: "ok".into(),
        epoch: Some(result.stats.lake_epoch),
        ranked: Some(ranked),
        degraded: Some(result.stats.degraded),
        degraded_reason: Some(Vec::new()),
        sigma_hit_rate: Some(result.stats.sigma_hit_rate()),
        candidates: Some(result.stats.candidates as u64),
        tables_scored: Some(result.stats.tables_scored as u64),
        micros: Some(result.stats.total_nanos / 1_000),
        query_id: Some(0),
        ..Response::default()
    };
    serde_json::to_string(&resp).expect("a serializable response")
}

/// `datalake`: an open mutation journal (fsync on every append).
pub struct Journal(Wal);

impl Journal {
    pub fn open(path: &Path) -> Self {
        Journal(Wal::recover(path).expect("journal open").0)
    }
}

/// `datalake`: what boot recovery does before the server exists — read
/// the checkpoint, scan the journal, replay it. `(read, replay, records)`.
pub fn replay(checkpoint: &Path, journal: &Path) -> (Duration, Duration, u64) {
    let start = Instant::now();
    let mut lake = read_checkpoint(checkpoint).expect("checkpoint read");
    let read = start.elapsed();
    let start = Instant::now();
    let (_, replay) = Wal::recover(journal).expect("journal scan");
    let outcome = apply_replay(&mut lake, &replay.records).expect("journal replay");
    (read, start.elapsed(), outcome.applied)
}

// ---------------------------------------------------------------------------
// Service: a booted server, its wire protocol, and its counters
// ---------------------------------------------------------------------------

pub struct Service {
    running: RunningServer,
}

/// The server's own counters (the `stats` op's payload).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    pub shed: u64,
    pub degraded: u64,
    pub memo_evictions: u64,
    pub memo_invalidations: u64,
}

/// A decoded request, for `Service::handle`.
pub struct Req(Request);

impl Service {
    pub fn addr(&self) -> SocketAddr {
        self.running.addr()
    }

    pub fn decode(line: &str) -> Req {
        Req(serde_json::from_str(line).expect("a request line"))
    }

    /// `Server::handle`, no socket: the reply and the call's duration.
    pub fn handle(&self, req: &Req) -> (Reply, Duration) {
        let start = Instant::now();
        let resp = self.running.server().handle(&req.0);
        let took = start.elapsed();
        (Reply::from(resp), took)
    }

    pub fn stats(&self) -> ServiceStats {
        let s = self.running.server().stats();
        ServiceStats {
            shed: s.shed,
            degraded: s.degraded,
            memo_evictions: s.cache_evictions,
            memo_invalidations: s.cache_invalidations,
        }
    }

    /// `lsh`: what `commit_locked` pays to clone the published LSEI
    /// (median of five clones).
    pub fn lsei_clone(&self) -> Duration {
        self.running.server().with_lsei(|lsei| {
            let mut took: Vec<Duration> = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    black_box(lsei.cloned());
                    start.elapsed()
                })
                .collect();
            took.sort();
            took[2]
        })
    }

    /// Graceful shutdown: drain, final checkpoint, join. Returns how long
    /// that took.
    pub fn shutdown(self) -> Duration {
        let start = Instant::now();
        self.running.shutdown();
        start.elapsed()
    }
}

/// Where a journal's checkpoint lives (same stem, `.ckpt`).
pub fn checkpoint_path(wal: &Path) -> PathBuf {
    wal.with_extension("ckpt")
}

/// One request line of the wire protocol, newline included.
fn line(req: &Request) -> String {
    let mut s = serde_json::to_string(req).expect("a serializable request");
    s.push('\n');
    s
}

pub fn search_line(spec: &str) -> String {
    line(&Request::search(spec))
}

pub fn add_table_line(name: &str, csv: &str) -> String {
    line(&Request {
        name: Some(name.into()),
        csv: Some(csv.into()),
        ..Request::op("add_table")
    })
}

pub fn remove_table_line(name: &str) -> String {
    line(&Request {
        name: Some(name.into()),
        ..Request::op("remove_table")
    })
}

/// One decoded response line.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// `status == "ok"`: not an error, not shed.
    pub ok: bool,
    pub degraded: bool,
    pub epoch: u64,
    pub ranked: Vec<(u64, u64)>,
    /// Server-side wall time of the request, microseconds.
    pub micros: u64,
    pub candidates: u64,
    pub tables_scored: u64,
    pub sigma_hit_rate: f64,
}

impl From<Response> for Reply {
    fn from(r: Response) -> Self {
        Self {
            ok: r.is_ok(),
            degraded: r.degraded.unwrap_or(false),
            epoch: r.epoch.unwrap_or(0),
            ranked: r
                .ranked
                .unwrap_or_default()
                .iter()
                .map(|h| (h.table, h.score_bits))
                .collect(),
            micros: r.micros.unwrap_or(0),
            candidates: r.candidates.unwrap_or(0),
            tables_scored: r.tables_scored.unwrap_or(0),
            sigma_hit_rate: r.sigma_hit_rate.unwrap_or(0.0),
        }
    }
}

impl Reply {
    pub fn decode(line: &str) -> Result<Self, String> {
        serde_json::from_str::<Response>(line)
            .map(Reply::from)
            .map_err(|e| format!("undecodable response: {e}"))
    }
}
