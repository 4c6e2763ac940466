//! Shared experiment context: corpora and embeddings are expensive to
//! build, so they are constructed once and cached per run.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use thetis::prelude::*;

/// A benchmark corpus plus everything derived from it that multiple
/// experiments share.
pub struct BenchData {
    /// The corpus, queries, and ground truth.
    pub bench: Benchmark,
    /// RDF2Vec embeddings trained on the corpus KG.
    pub store: EmbeddingStore,
}

impl BenchData {
    /// Builds a corpus and trains embeddings for it.
    pub fn build(kind: BenchmarkKind, scale: f64, n_queries: usize) -> Self {
        let config = BenchmarkConfig {
            kind,
            scale,
            n_queries,
            query_width: 3,
            seed: 0xBEEF,
        };
        let bench = Benchmark::build(&config);
        let store = Rdf2Vec::new(Rdf2VecConfig::default()).train(&bench.kg.graph);
        Self { bench, store }
    }
}

/// The run context: scale, query count, output directory, and a cache of
/// built corpora.
pub struct Ctx {
    /// Fraction of each paper corpus to generate (default 0.01).
    pub scale: f64,
    /// Queries per corpus (the paper uses 50).
    pub n_queries: usize,
    /// Directory for JSON result dumps, created by the first
    /// [`Ctx::write_json`].
    pub out_dir: PathBuf,
    /// Address of an already-running `thetis-cli serve` instance. When
    /// set, the `serve` experiment drives that server instead of booting
    /// one in-process (this is how the CI serve-smoke job runs it).
    pub connect: Option<String>,
    cache: Mutex<Vec<(BenchmarkKind, Arc<BenchData>)>>,
}

impl Ctx {
    /// Creates a context.
    pub fn new(scale: f64, n_queries: usize, out_dir: PathBuf) -> Self {
        Self {
            scale,
            n_queries,
            out_dir,
            connect: None,
            cache: Mutex::new(Vec::new()),
        }
    }

    /// Points the `serve` experiment at an external server.
    pub fn with_connect(mut self, connect: Option<String>) -> Self {
        self.connect = connect;
        self
    }

    /// Returns (building and caching on first use) the data for `kind`.
    pub fn data(&self, kind: BenchmarkKind) -> Arc<BenchData> {
        if let Some((_, d)) = self.cache.lock().unwrap().iter().find(|(k, _)| *k == kind) {
            return Arc::clone(d);
        }
        eprintln!(
            "[build] {kind:?} at scale {} ({} queries)...",
            self.scale, self.n_queries
        );
        let built = Arc::new(BenchData::build(kind, self.scale, self.n_queries));
        eprintln!(
            "[build] {kind:?}: {}",
            LakeStats::compute(&built.bench.lake)
        );
        self.cache.lock().unwrap().push((kind, Arc::clone(&built)));
        built
    }

    /// Writes a JSON result artifact, creating the output directory on
    /// first use (a run that writes nothing leaves no directory behind).
    pub fn write_json(&self, name: &str, value: &impl serde::Serialize) {
        std::fs::create_dir_all(&self.out_dir).expect("cannot create output directory");
        let path = self.out_dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serializable result");
        std::fs::write(&path, json).expect("cannot write result file");
        eprintln!("[out] wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_caches_corpora() {
        let dir = std::env::temp_dir().join("thetis-bench-test");
        let ctx = Ctx::new(0.0003, 2, dir);
        let a = ctx.data(BenchmarkKind::Wt2015);
        let b = ctx.data(BenchmarkKind::Wt2015);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn write_json_produces_file() {
        let dir = std::env::temp_dir().join("thetis-bench-test-json");
        let ctx = Ctx::new(0.001, 2, dir.clone());
        ctx.write_json("probe", &vec![1, 2, 3]);
        let content = std::fs::read_to_string(dir.join("probe.json")).unwrap();
        assert!(content.contains('1'));
    }
}
