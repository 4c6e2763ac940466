//! σ memoization: a directory of dense per-query-entity rows.
//!
//! Algorithm 1 needs `σ(e, ē)` for the same `(query entity, lake entity)`
//! pair many times in one search: once when bounding a table, again when
//! scoring it, and again for every other candidate table mentioning `ē`.
//! [`SimilarityCache`] memoizes σ as a directory of dense rows, one per
//! (query entity, [`SigmaKernel`]). A row has one cell per entity of the
//! knowledge graph, so a lookup is an array index rather than a hash probe,
//! and a row costs 8 bytes per graph entity whether it is filled or not.
//!
//! A cell holds `σ.to_bits() + 1` and 0 means unset, so a fresh row is one
//! zeroed allocation and every σ — 0.0, −0.0, negative cosines — stays
//! distinguishable from "unset". Cells are read and filled with relaxed
//! atomics: two workers racing to fill one cell compute the same σ and
//! store the same bits (σ is deterministic, see [`EntitySimilarity`]).
//!
//! A search resolves all of its rows once, under one directory lock, into
//! a [`MemoRows`]; [`SigmaRows::build`](crate::sigma::SigmaRows::build)
//! then gathers each table's values from those rows and fills the misses
//! with one batched kernel call per query entity. Rows are reference
//! counted: a row the directory drops (capacity eviction, epoch
//! invalidation) stays alive for the searches holding it, so a running
//! search never recomputes a pair, and is freed with the last of them.
//!
//! Every gathered cell counts either as computed (it was unset and got
//! filled) or as served (it was already filled), so the two counters sum
//! to the number of lookups. Two workers racing on one fresh cell both
//! count it as computed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use thetis_kg::EntityId;

use crate::similarity::{EntitySimilarity, SigmaKernel};

/// Time spent actually evaluating σ one pair at a time. Timed per call —
/// a clock read costs a few percent of one σ evaluation — and only while
/// metrics are enabled, so the disabled path stays clock-free.
static OBS_SIGMA: thetis_obs::Span = thetis_obs::Span::new("core.sigma");

/// Time spent in batched σ kernels (memo misses only); the count is the
/// number of pairs evaluated, so `nanos / count` is the amortized per-pair
/// cost the batching buys.
static OBS_SIGMA_BATCH: thetis_obs::Span = thetis_obs::Span::new("core.sigma_batch");

/// Evaluates `sim.sim_kernel(kernel, a, b)`, recording wall time into the
/// `core.sigma` span when metrics are enabled.
#[inline]
fn timed_sim(sim: &dyn EntitySimilarity, kernel: SigmaKernel, a: EntityId, b: EntityId) -> f64 {
    if !thetis_obs::enabled() {
        return sim.sim_kernel(kernel, a, b);
    }
    let start = std::time::Instant::now();
    let v = sim.sim_kernel(kernel, a, b);
    OBS_SIGMA.record_nanos(start.elapsed().as_nanos() as u64, 1);
    v
}

/// Evaluates `sim.sim_batch_kernel(kernel, a, bs, out)`, recording wall
/// time and pair count into the `core.sigma_batch` span when metrics are
/// enabled.
#[inline]
fn timed_sim_batch(
    sim: &dyn EntitySimilarity,
    kernel: SigmaKernel,
    a: EntityId,
    bs: &[EntityId],
    out: &mut [f64],
) {
    if !thetis_obs::enabled() {
        sim.sim_batch_kernel(kernel, a, bs, out);
        return;
    }
    let start = std::time::Instant::now();
    sim.sim_batch_kernel(kernel, a, bs, out);
    OBS_SIGMA_BATCH.record_nanos(start.elapsed().as_nanos() as u64, bs.len() as u64);
}

/// Counter snapshot of a [`SimilarityCache`] or of one search's
/// [`MemoRows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells filled: σ evaluations performed (memo misses).
    pub computed: u64,
    /// Cells read already filled (memo hits).
    pub served: u64,
}

impl CacheStats {
    /// Total σ lookups, hits plus misses.
    pub fn lookups(&self) -> u64 {
        self.computed + self.served
    }

    /// Fraction of lookups served from the memo (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.served as f64 / self.lookups() as f64
        }
    }

    /// Records this delta as a `sigma.cache` event on `trace` (a no-op for
    /// an inactive trace): how many σ evaluations the search performed, how
    /// many lookups the memo served, and the resulting hit rate. One summary
    /// event per search — per-lookup events would dominate the trace.
    pub fn record_trace_summary(&self, trace: &thetis_obs::QueryTrace) {
        trace.record_with("sigma.cache", || {
            thetis_obs::trace_attrs![
                ("computed", self.computed),
                ("served", self.served),
                ("hit_rate", self.hit_rate()),
            ]
        });
    }
}

/// One dense σ row of query entity `a`: cell `b` holds
/// `σ(a, b).to_bits() + 1`, and 0 means unset.
type Row = Arc<[AtomicU64]>;

/// An all-unset row of `cells` cells: one zeroed allocation, so the pages
/// of a row a search never touches are never written (a row filled with
/// `AtomicU64::new(0)` instead raised `serve-hot`'s peak RSS by 7.6 %).
fn zeroed_row(cells: usize) -> Row {
    // SAFETY: the all-zero bit pattern is a valid `AtomicU64` (the value 0).
    unsafe { Arc::<[AtomicU64]>::new_zeroed_slice(cells).assume_init() }
}

/// The memo's rows, keyed by `(query entity, kernel tag)`, and the cells
/// they hold in total.
#[derive(Default)]
struct Directory {
    rows: HashMap<(u32, u8), Row>,
    cells: usize,
}

/// A thread-safe σ memo: a directory of dense rows, one per
/// `(query entity, kernel)`.
///
/// Rows are directional — row `a` holds `σ(a, ·)` — so no symmetry is
/// assumed of the similarity. Rows are also keyed by the [`SigmaKernel`]
/// their values were computed under: a search running the f32 kernel never
/// reads an f64 σ (or vice versa), even when a long-lived shared cache
/// spans requests with different kernels.
///
/// The capacity counts σ cells of 8 bytes. When a new row would push the
/// directory past it, the whole directory is dropped first and one eviction
/// counted — no per-row recency is tracked. A directory therefore holds at
/// most `capacity` cells, or one row when a single row is larger.
///
/// Lock poisoning is recovered, not propagated: the directory lock is held
/// only to look up, insert or drop whole rows, so a poisoned directory is
/// never structurally torn.
pub struct SimilarityCache {
    dir: Mutex<Directory>,
    /// Cell budget (0 = unbounded).
    capacity: usize,
    computed: AtomicU64,
    served: AtomicU64,
    /// Directory drops forced by the capacity bound (or an explicit
    /// [`SimilarityCache::evict_entries`]).
    evictions: AtomicU64,
}

impl Default for SimilarityCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SimilarityCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty cache holding at most `cells` σ cells of 8 bytes
    /// (0 = unbounded). A row has one cell per graph entity, so the budget
    /// holds `cells / entity_count` rows.
    pub fn with_capacity(cells: usize) -> Self {
        Self {
            dir: Mutex::new(Directory::default()),
            capacity: cells,
            computed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cell budget this cache enforces (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Directory drops performed so far (capacity evictions plus explicit
    /// [`SimilarityCache::evict_entries`] calls on a non-empty cache).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn dir(&self) -> MutexGuard<'_, Directory> {
        self.dir.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The rows of `entities` under `kernel`, resolved under one directory
    /// lock: resident rows are shared, missing ones are allocated with
    /// `cells` cells (the graph's entity count) and entered into the
    /// directory. Misses gathered through the returned [`MemoRows`] are
    /// evaluated by `sim` under `kernel`.
    pub fn rows<'a>(
        &self,
        sim: &'a dyn EntitySimilarity,
        kernel: SigmaKernel,
        entities: Vec<EntityId>,
        cells: usize,
    ) -> MemoRows<'a> {
        // Declared before the guard, so dropped rows are freed after the
        // lock is released.
        let mut retired = HashMap::new();
        let mut dir = self.dir();
        let rows = entities
            .iter()
            .map(|&e| {
                let key = (e.0, kernel.tag());
                if let Some(row) = dir.rows.get(&key) {
                    return Arc::clone(row);
                }
                if self.capacity > 0 && dir.cells > 0 && dir.cells + cells > self.capacity {
                    retired = std::mem::take(&mut dir.rows);
                    dir.cells = 0;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let row = zeroed_row(cells);
                dir.cells += cells;
                dir.rows.insert(key, Arc::clone(&row));
                row
            })
            .collect();
        drop(dir);
        drop(retired);
        MemoRows {
            sim,
            kernel,
            entities,
            rows,
            computed: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// σ cells held by the directory's rows, filled or not.
    pub fn len(&self) -> usize {
        self.dir().cells
    }

    /// Whether the directory holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters of every search whose [`MemoRows`] was
    /// recorded here.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            computed: self.computed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
        }
    }

    /// Adds one search's counters to the cumulative ones.
    pub(crate) fn record(&self, search: CacheStats) {
        self.computed.fetch_add(search.computed, Ordering::Relaxed);
        self.served.fetch_add(search.served, Ordering::Relaxed);
    }

    /// Drops every row and resets the counters.
    pub fn clear(&self) {
        self.evict_entries();
        self.computed.store(0, Ordering::Relaxed);
        self.served.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drops every row but keeps the counters — the eviction primitive of
    /// a long-lived shared cache, whose counters are cumulative over all
    /// requests. A non-empty directory counts one eviction. The rows' memory
    /// is freed as soon as no running search holds them.
    pub fn evict_entries(&self) {
        let retired = std::mem::take(&mut *self.dir());
        if !retired.rows.is_empty() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The σ rows one search reads and fills, resolved once by
/// [`SimilarityCache::rows`]: row `i` belongs to `entities()[i]`.
///
/// Counts the search's own lookups, so concurrent searches sharing one
/// cache each report exact `sigma_computed` / `sigma_cached`.
pub struct MemoRows<'a> {
    sim: &'a dyn EntitySimilarity,
    kernel: SigmaKernel,
    entities: Vec<EntityId>,
    rows: Vec<Row>,
    computed: AtomicU64,
    served: AtomicU64,
}

impl MemoRows<'_> {
    /// The query entities, one per row.
    pub fn entities(&self) -> &[EntityId] {
        &self.entities
    }

    /// Writes `σ(entities()[i], b)` for every `b` of `bs` into `out`: filled
    /// cells are read, the rest are evaluated in one batched kernel call
    /// and filled. An entity beyond the row (not in the graph the row was
    /// sized for) is evaluated but not memoized.
    pub fn gather(&self, i: usize, bs: &[EntityId], out: &mut [f64]) {
        debug_assert_eq!(bs.len(), out.len());
        let row = &self.rows[i];
        let mut miss_idx: Vec<u32> = Vec::new();
        let mut miss_bs: Vec<EntityId> = Vec::new();
        for (j, &b) in bs.iter().enumerate() {
            match row.get(b.0 as usize).map(|c| c.load(Ordering::Relaxed)) {
                Some(bits) if bits != 0 => out[j] = f64::from_bits(bits - 1),
                _ => {
                    miss_idx.push(j as u32);
                    miss_bs.push(b);
                }
            }
        }
        self.served
            .fetch_add((bs.len() - miss_bs.len()) as u64, Ordering::Relaxed);
        if miss_bs.is_empty() {
            return;
        }
        let mut miss_out = vec![0.0f64; miss_bs.len()];
        timed_sim_batch(
            self.sim,
            self.kernel,
            self.entities[i],
            &miss_bs,
            &mut miss_out,
        );
        self.computed
            .fetch_add(miss_bs.len() as u64, Ordering::Relaxed);
        for ((&j, &b), &v) in miss_idx.iter().zip(&miss_bs).zip(&miss_out) {
            out[j as usize] = v;
            // The one NaN whose bits are all ones wraps to "unset": it is
            // recomputed on every lookup instead of being misread.
            if let Some(cell) = row.get(b.0 as usize) {
                cell.store(v.to_bits().wrapping_add(1), Ordering::Relaxed);
            }
        }
    }

    /// The memoized `σ(entities()[i], b)`, `None` while the cell is unset.
    pub fn cell(&self, i: usize, b: EntityId) -> Option<f64> {
        let bits = self.rows[i].get(b.0 as usize)?.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits - 1))
    }

    /// This search's counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            computed: self.computed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
        }
    }
}

/// A cross-query σ memo tagged with the lake epoch it was warmed on — the
/// resident-service promotion of [`SimilarityCache`].
///
/// A server shares one of these across every request. Before a request
/// uses the memo it calls [`SharedSimilarityCache::for_epoch`] with the
/// epoch of the lake snapshot it pinned; when the epoch has advanced past
/// the tag (an `add`/`remove`/`relink` committed), the rows are evicted
/// once and the tag moves forward. Eviction keeps the cumulative counters
/// (see [`SimilarityCache::evict_entries`]).
///
/// The eviction is *conservative*, not load-bearing for correctness: every
/// σ the engine ships (type Jaccard, predicate Jaccard, embedding cosine)
/// depends only on the knowledge graph and embedding store — which a lake
/// mutation never touches — so a request still pinned to an older snapshot
/// may keep filling the rows it holds and its values remain bit-exact for
/// any epoch. The tag exists so that a deployment whose σ *did* become
/// lake-dependent degrades to stale-row eviction instead of silently
/// serving wrong values, and so the rows of retired epochs are freed: an
/// evicted row's memory is returned as soon as the last search holding it
/// finishes.
pub struct SharedSimilarityCache {
    cache: SimilarityCache,
    /// The lake epoch the current rows were (first) warmed on.
    epoch: AtomicU64,
    /// Epoch advances that triggered an eviction.
    invalidations: AtomicU64,
}

impl SharedSimilarityCache {
    /// Wraps a [`SimilarityCache`] of `capacity` cells tagged at `epoch`.
    pub fn new(epoch: u64, capacity: usize) -> Self {
        Self {
            cache: SimilarityCache::with_capacity(capacity),
            epoch: AtomicU64::new(epoch),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Returns the memo for a request pinned at `epoch`, evicting stale
    /// rows first when the epoch advanced past the tag. Exactly one caller
    /// per advance performs the eviction (compare-exchange on the tag);
    /// requests pinned to *older* epochs never move the tag back.
    pub fn for_epoch(&self, epoch: u64) -> &SimilarityCache {
        let mut seen = self.epoch.load(Ordering::Acquire);
        while epoch > seen {
            match self
                .epoch
                .compare_exchange_weak(seen, epoch, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.cache.evict_entries();
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(now) => seen = now,
            }
        }
        &self.cache
    }

    /// The epoch the rows are currently tagged with.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// How many epoch advances evicted the memo so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// The underlying memo, without an epoch check (stats, tests).
    pub fn cache(&self) -> &SimilarityCache {
        &self.cache
    }
}

/// An [`EntitySimilarity`] that counts σ evaluations without memoizing —
/// the exhaustive reference path, which evaluates every σ it needs
/// directly so it stays independent of the memo it validates. It carries
/// the selected [`SigmaKernel`] and routes the plain `sim`/`sim_batch`
/// surface through it, so downstream code stays kernel-oblivious.
pub struct CountingSimilarity<'a> {
    inner: &'a dyn EntitySimilarity,
    computed: AtomicU64,
    kernel: SigmaKernel,
}

impl<'a> CountingSimilarity<'a> {
    /// Wraps `inner` under the reference kernel, counting every
    /// evaluation.
    pub fn new(inner: &'a dyn EntitySimilarity) -> Self {
        Self::with_kernel(inner, SigmaKernel::F64Exact)
    }

    /// Wraps `inner` so σ evaluates under `kernel`, counting every
    /// evaluation.
    pub fn with_kernel(inner: &'a dyn EntitySimilarity, kernel: SigmaKernel) -> Self {
        Self {
            inner,
            computed: AtomicU64::new(0),
            kernel,
        }
    }

    /// σ evaluations performed so far.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }
}

impl EntitySimilarity for CountingSimilarity<'_> {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        self.computed.fetch_add(1, Ordering::Relaxed);
        timed_sim(self.inner, self.kernel, a, b)
    }

    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        self.computed.fetch_add(bs.len() as u64, Ordering::Relaxed);
        timed_sim_batch(self.inner, self.kernel, a, bs, out);
    }

    fn sim_kernel(&self, kernel: SigmaKernel, a: EntityId, b: EntityId) -> f64 {
        self.computed.fetch_add(1, Ordering::Relaxed);
        timed_sim(self.inner, kernel, a, b)
    }

    fn sim_batch_kernel(&self, kernel: SigmaKernel, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        self.computed.fetch_add(bs.len() as u64, Ordering::Relaxed);
        timed_sim_batch(self.inner, kernel, a, bs, out);
    }

    fn slab_bytes(&self) -> usize {
        self.inner.slab_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::TypeJaccard;
    use thetis_kg::KgBuilder;

    fn graph() -> (thetis_kg::KnowledgeGraph, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let es = (0..4)
            .map(|i| b.add_entity(&format!("e{i}"), vec![p]))
            .collect();
        (b.freeze(), es)
    }

    /// The f64 rows of `entities`, one cell per entity of `g`.
    fn memo<'a>(
        cache: &SimilarityCache,
        sim: &'a dyn EntitySimilarity,
        g: &thetis_kg::KnowledgeGraph,
        entities: &[EntityId],
    ) -> MemoRows<'a> {
        cache.rows(
            sim,
            SigmaKernel::F64Exact,
            entities.to_vec(),
            g.entity_count(),
        )
    }

    /// σ of one pair through row `i`.
    fn one(rows: &MemoRows<'_>, i: usize, b: EntityId) -> f64 {
        let mut out = [0.0f64];
        rows.gather(i, &[b], &mut out);
        out[0]
    }

    #[test]
    fn second_lookup_is_served_from_the_memo() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es[..1]);
        assert_eq!(rows.cell(0, es[1]), None);
        let first = one(&rows, 0, es[1]);
        let second = one(&rows, 0, es[1]);
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(rows.cell(0, es[1]).map(f64::to_bits), Some(first.to_bits()));
        assert_eq!(
            rows.stats(),
            CacheStats {
                computed: 1,
                served: 1
            }
        );
        // One row of one cell per graph entity.
        assert_eq!(cache.len(), g.entity_count());
    }

    #[test]
    fn keys_are_directional() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es[..2]);
        one(&rows, 0, es[1]);
        one(&rows, 1, es[0]);
        assert_eq!(cache.len(), 2 * g.entity_count());
        assert_eq!(rows.stats().computed, 2);
        assert!(rows.cell(0, es[1]).is_some() && rows.cell(1, es[0]).is_some());
        assert_eq!(rows.cell(0, es[0]), None);
    }

    #[test]
    fn counters_sum_to_lookups() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es);
        let mut lookups = 0u64;
        for _ in 0..3 {
            for i in 0..es.len() {
                for &b in &es {
                    one(&rows, i, b);
                    lookups += 1;
                }
            }
        }
        let stats = rows.stats();
        assert_eq!(stats.lookups(), lookups);
        assert_eq!(stats.computed, 16);
        assert!(stats.hit_rate() > 0.6);
        // The cache's totals move only when a search is recorded.
        assert_eq!(cache.stats(), CacheStats::default());
        cache.record(stats);
        assert_eq!(cache.stats(), stats);
    }

    #[test]
    fn batch_lookups_keep_the_counter_invariant() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es[..1]);
        let mut out = vec![0.0f64; es.len()];
        // First batch: all misses, computed in one kernel call.
        rows.gather(0, &es, &mut out);
        assert_eq!(
            rows.stats(),
            CacheStats {
                computed: 4,
                served: 0
            }
        );
        // Second batch: all hits.
        rows.gather(0, &es, &mut out);
        assert_eq!(
            rows.stats(),
            CacheStats {
                computed: 4,
                served: 4
            }
        );
        // A reordered batch is served in its own order.
        let mixed = vec![es[1], es[2], es[3], es[0]];
        rows.gather(0, &mixed, &mut out);
        assert_eq!(rows.stats().lookups(), 12);
        // Batched values match the scalar path bit-for-bit.
        for (&b, &v) in mixed.iter().zip(&out) {
            assert_eq!(v.to_bits(), sim.sim(es[0], b).to_bits());
        }
    }

    #[test]
    fn counting_similarity_counts_batched_pairs() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let counting = CountingSimilarity::new(&sim);
        let mut out = vec![0.0f64; es.len()];
        counting.sim_batch(es[0], &es, &mut out);
        counting.sim(es[0], es[1]);
        assert_eq!(counting.computed(), es.len() as u64 + 1);
    }

    #[test]
    fn clear_resets_everything() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es[..1]);
        one(&rows, 0, es[1]);
        cache.record(rows.stats());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn concurrent_lookups_keep_the_invariant() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let rows = memo(&cache, &sim, &g, &es);
                    for _ in 0..50 {
                        for i in 0..es.len() {
                            for &b in &es {
                                one(&rows, i, b);
                            }
                        }
                    }
                    cache.record(rows.stats());
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 4 * 50 * 16);
        // At most one duplicated compute per cell per racing thread.
        assert!(stats.computed >= 16 && stats.computed <= 64, "{stats:?}");
        // Every searcher shared the same four rows.
        assert_eq!(cache.len(), 4 * g.entity_count());
    }

    #[test]
    fn capacity_bound_evicts_instead_of_growing() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let n = g.entity_count();
        // Room for two rows: the third wipes the directory.
        let cache = SimilarityCache::with_capacity(2 * n);
        assert_eq!(cache.capacity(), 2 * n);
        let first = memo(&cache, &sim, &g, &es[..2]);
        one(&first, 0, es[2]);
        assert_eq!(cache.len(), 2 * n);
        assert_eq!(cache.evictions(), 0);
        let second = memo(&cache, &sim, &g, &es[2..3]);
        assert_eq!(cache.len(), n, "directory dropped before the overflow row");
        assert_eq!(cache.evictions(), 1);
        // The evicted rows still serve the search that holds them.
        assert!(first.cell(0, es[2]).is_some());
        one(&first, 0, es[2]);
        assert_eq!(first.stats().served, 1);
        // Resolving a resident row again does not evict.
        drop(second);
        memo(&cache, &sim, &g, &es[2..3]);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn batched_inserts_respect_the_capacity_bound() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let n = g.entity_count();
        // Room for one row: resolving four evicts three times, but the
        // search still holds all four rows.
        let cache = SimilarityCache::with_capacity(n);
        let rows = memo(&cache, &sim, &g, &es);
        assert_eq!(cache.len(), n);
        assert_eq!(cache.evictions(), 3);
        let mut out = vec![0.0f64; es.len()];
        for (i, &a) in es.iter().enumerate() {
            rows.gather(i, &es, &mut out);
            rows.gather(i, &es, &mut out);
            // Values are still bit-identical to the unbounded path.
            for (&b, &v) in es.iter().zip(&out) {
                assert_eq!(v.to_bits(), sim.sim(a, b).to_bits());
            }
        }
        // No pair was computed twice.
        assert_eq!(rows.stats().computed, 16);
        assert_eq!(rows.stats().served, 16);
    }

    #[test]
    fn evict_entries_keeps_counters() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es[..1]);
        one(&rows, 0, es[1]);
        one(&rows, 0, es[1]);
        cache.record(rows.stats());
        let before = cache.stats();
        cache.evict_entries();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), before, "eviction never touches counters");
        assert_eq!(cache.evictions(), 1);
        // An empty directory evicts nothing.
        cache.evict_entries();
        assert_eq!(cache.evictions(), 1);
        // The pair recomputes in the next search's fresh row.
        let next = memo(&cache, &sim, &g, &es[..1]);
        one(&next, 0, es[1]);
        assert_eq!(next.stats().computed, 1);
    }

    #[test]
    fn evicted_rows_are_freed_with_their_last_search() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es[..2]);
        let held: Vec<_> = rows.rows.iter().map(Arc::downgrade).collect();
        cache.evict_entries();
        assert!(cache.is_empty());
        // The running search keeps its rows…
        assert!(held.iter().all(|w| w.upgrade().is_some()));
        one(&rows, 0, es[1]);
        // …and its end frees them.
        drop(rows);
        assert!(held.iter().all(|w| w.upgrade().is_none()));
    }

    #[test]
    fn shared_cache_invalidates_once_per_epoch_advance() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let n = g.entity_count();
        let shared = SharedSimilarityCache::new(3, 0);
        assert_eq!(shared.epoch(), 3);
        let rows = memo(shared.for_epoch(3), &sim, &g, &es[..1]);
        one(&rows, 0, es[1]);
        shared.cache().record(rows.stats());
        assert_eq!(shared.cache().len(), n);
        // A request pinned to an older snapshot neither evicts nor
        // rewinds the tag.
        shared.for_epoch(2);
        assert_eq!(shared.epoch(), 3);
        assert_eq!(shared.cache().len(), n);
        assert_eq!(shared.invalidations(), 0);
        // The epoch advancing evicts exactly once…
        shared.for_epoch(5);
        assert_eq!(shared.epoch(), 5);
        assert!(shared.cache().is_empty());
        assert_eq!(shared.invalidations(), 1);
        // …and repeated calls at the new epoch are free.
        shared.for_epoch(5);
        assert_eq!(shared.invalidations(), 1);
        // Counters survived the invalidation.
        assert_eq!(shared.cache().stats().computed, 1);
    }

    #[test]
    fn shared_cache_concurrent_epoch_advance_evicts_once() {
        let shared = SharedSimilarityCache::new(0, 0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for e in 1..=10u64 {
                        shared.for_epoch(e);
                    }
                });
            }
        });
        assert_eq!(shared.epoch(), 10);
        // One eviction per distinct advance at most — the CAS arbitrates,
        // but racing threads may skip intermediate epochs entirely.
        assert!(shared.invalidations() <= 10, "{}", shared.invalidations());
        assert!(shared.invalidations() >= 1);
    }

    #[test]
    fn kernel_tags_partition_the_memo() {
        use crate::similarity::EmbeddingCosine;
        let mut store = thetis_embedding::EmbeddingStore::zeros(3, 4);
        for i in 0..3u32 {
            let row = store.get_mut(EntityId(i));
            for (j, x) in row.iter_mut().enumerate() {
                *x = ((i as usize * 7 + j * 3) % 5) as f32 - 2.0;
            }
        }
        let sim = EmbeddingCosine::new(&store);
        let cache = SimilarityCache::new();
        let (a, b) = (EntityId(0), EntityId(1));
        let f64_rows = cache.rows(&sim, SigmaKernel::F64Exact, vec![a], 3);
        let f32_rows = cache.rows(&sim, SigmaKernel::F32, vec![a], 3);
        let exact = one(&f64_rows, 0, b);
        let quant = one(&f32_rows, 0, b);
        // Same pair, two kernels: two distinct rows, two computes.
        assert_eq!(cache.len(), 6);
        assert_eq!(f64_rows.stats().computed + f32_rows.stats().computed, 2);
        // Each kernel's rows serve its own value back.
        assert_eq!(one(&f64_rows, 0, b).to_bits(), exact.to_bits());
        assert_eq!(one(&f32_rows, 0, b).to_bits(), quant.to_bits());
        assert_eq!(exact.to_bits(), sim.sim(a, b).to_bits());
        assert_eq!(
            quant.to_bits(),
            sim.sim_kernel(SigmaKernel::F32, a, b).to_bits()
        );
    }

    /// A similarity whose σ to entity `b` is `SIGNED[b]`.
    struct Signed;
    const SIGNED: [f64; 5] = [0.0, -0.0, -0.75, 1.0, f64::from_bits(u64::MAX)];

    impl EntitySimilarity for Signed {
        fn sim(&self, _: EntityId, b: EntityId) -> f64 {
            SIGNED[b.0 as usize]
        }

        fn name(&self) -> &'static str {
            "signed"
        }
    }

    #[test]
    fn zero_and_negative_sigma_survive_the_encoding() {
        let cache = SimilarityCache::new();
        let rows = cache.rows(&Signed, SigmaKernel::F64Exact, vec![EntityId(0)], 5);
        let bs: Vec<EntityId> = (0..5).map(EntityId).collect();
        let mut out = [0.0f64; 5];
        rows.gather(0, &bs, &mut out);
        rows.gather(0, &bs, &mut out);
        for (&b, &v) in bs.iter().zip(&out) {
            assert_eq!(v.to_bits(), SIGNED[b.0 as usize].to_bits());
        }
        for &b in &bs[..4] {
            let cell = rows.cell(0, b).expect("filled");
            assert_eq!(cell.to_bits(), SIGNED[b.0 as usize].to_bits());
        }
        // The all-ones NaN is the one value that cannot be stored: it reads
        // as unset and is recomputed rather than misread.
        assert_eq!(rows.cell(0, bs[4]), None);
        assert_eq!(
            rows.stats(),
            CacheStats {
                computed: 6,
                served: 4
            }
        );
        // An entity beyond the row is evaluated, never stored.
        let mut far = [0.0f64];
        let short = cache.rows(&Signed, SigmaKernel::F32, vec![EntityId(0)], 2);
        short.gather(0, &bs[2..3], &mut far);
        assert_eq!(far[0], -0.75);
        assert_eq!(short.cell(0, bs[2]), None);
    }

    #[test]
    fn poisoned_directory_is_recovered_not_propagated() {
        let (g, es) = graph();
        let sim = TypeJaccard::new(&g);
        let cache = SimilarityCache::new();
        let rows = memo(&cache, &sim, &g, &es[..1]);
        let expect = one(&rows, 0, es[1]);

        // Poison the directory: panic while holding its lock.
        let join = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.dir.lock().unwrap();
                    panic!("poison the directory on purpose");
                })
                .join()
        });
        assert!(join.is_err());
        assert!(cache.dir.is_poisoned());

        // Every access path still works and the memo survived intact.
        let again = memo(&cache, &sim, &g, &es[..1]);
        assert_eq!(again.cell(0, es[1]), Some(expect));
        let other = memo(&cache, &sim, &g, &es[2..3]);
        assert_eq!(one(&other, 0, es[3]), sim.sim(es[2], es[3]));
        assert_eq!(cache.len(), 2 * g.entity_count());
        cache.clear();
        assert!(cache.is_empty());
    }
}
