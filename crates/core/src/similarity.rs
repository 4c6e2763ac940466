//! Entity similarity scores `σ : N × N → [0, 1]` (§5.2–5.3).
//!
//! Three instantiations — the paper's two plus the alternative it points
//! to as future work:
//!
//! * [`TypeJaccard`] — the *adjusted* Jaccard of entity-type sets (Eq. 4):
//!   `1` for identical entities, otherwise the type-set Jaccard **capped at
//!   0.95**, so exact entity matches always dominate type-level matches;
//! * [`EmbeddingCosine`] — cosine similarity of RDF2Vec-style vectors,
//!   clamped to `[0, 1]` (negative cosine means "unrelated", not
//!   "anti-relevant", for relevance purposes);
//! * [`PredicateJaccard`] — Jaccard over the predicate vocabulary around
//!   each entity (§5.3's "similarity based on the set of predicates").

use thetis_embedding::{EmbeddingStore, F32Slab, I8Slab};
use thetis_kg::{entity::type_jaccard, EntityId, KnowledgeGraph};

/// Which arithmetic the σ kernel runs in (§16).
///
/// `F64Exact` is the bit-identical reference: scalar f32 rows with f64
/// accumulation, exactly the arithmetic every release before quantization
/// used. `F32` and `I8` select the quantized SoA slabs
/// ([`thetis_embedding::F32Slab`] / [`thetis_embedding::I8Slab`]), which
/// trade bounded numeric error for autovectorized throughput. Similarities
/// without an embedding payload (type/predicate/neighborhood Jaccard) are
/// exact integer-ratio computations and return identical values under
/// every kernel.
///
/// The kernel is part of the memoization identity: cached σ values are
/// keyed by `(a, b, kernel)` so values computed under one kernel are never
/// served to a search running another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SigmaKernel {
    /// Scalar f64-accumulated reference (bit-identical across releases).
    #[default]
    F64Exact,
    /// f32 SoA slab with precomputed inverse norms (chunked `mul_add`).
    F32,
    /// i8-quantized slab with per-row scales (i32 accumulation).
    I8,
}

impl SigmaKernel {
    /// All kernels, in reference-first order.
    pub const ALL: [SigmaKernel; 3] = [SigmaKernel::F64Exact, SigmaKernel::F32, SigmaKernel::I8];

    /// A short stable name ("f64" / "f32" / "i8") — used in CLI flags,
    /// wire requests, and bench report columns.
    pub fn name(self) -> &'static str {
        match self {
            SigmaKernel::F64Exact => "f64",
            SigmaKernel::F32 => "f32",
            SigmaKernel::I8 => "i8",
        }
    }

    /// Parses a kernel name as produced by [`SigmaKernel::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f64" => Some(SigmaKernel::F64Exact),
            "f32" => Some(SigmaKernel::F32),
            "i8" => Some(SigmaKernel::I8),
            _ => None,
        }
    }

    /// A stable one-byte tag for cache keys.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            SigmaKernel::F64Exact => 0,
            SigmaKernel::F32 => 1,
            SigmaKernel::I8 => 2,
        }
    }
}

impl std::fmt::Display for SigmaKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An entity-to-entity semantic similarity in `[0, 1]` with `σ(e, e) = 1`.
///
/// Implementations must be cheap (`O(types)` or `O(dim)`) — Algorithm 1
/// evaluates `σ` once per (query entity, table cell) pair — and
/// **deterministic**: the engine memoizes values in the dense rows of a
/// [`SimilarityCache`](crate::cache::SimilarityCache), where two workers
/// may fill the same cell, so `sim(a, b)` must return the same value every
/// time for the same pair.
pub trait EntitySimilarity: Sync {
    /// The similarity of two entities.
    fn sim(&self, a: EntityId, b: EntityId) -> f64;

    /// The similarity of `a` against every entity of `bs`, written into
    /// `out` (`out.len() == bs.len()`). Must produce exactly the values
    /// [`EntitySimilarity::sim`] would — implementations may only hoist
    /// work common to `a` (its type set, its embedding row and norm), never
    /// change per-pair arithmetic, so batched and scalar paths stay
    /// bit-identical and cache-compatible.
    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        debug_assert_eq!(bs.len(), out.len());
        for (&b, o) in bs.iter().zip(out) {
            *o = self.sim(a, b);
        }
    }

    /// The similarity under an explicit [`SigmaKernel`]. Similarities
    /// without a quantizable payload ignore the kernel — their arithmetic
    /// is exact under every kernel — so the default forwards to
    /// [`EntitySimilarity::sim`]. [`EmbeddingCosine`] overrides this to
    /// dispatch into its quantized slabs.
    fn sim_kernel(&self, kernel: SigmaKernel, a: EntityId, b: EntityId) -> f64 {
        let _ = kernel;
        self.sim(a, b)
    }

    /// Batched form of [`EntitySimilarity::sim_kernel`]; the same
    /// bit-identity contract as [`EntitySimilarity::sim_batch`] holds
    /// *within* a kernel (batch bits == scalar bits for the same kernel).
    fn sim_batch_kernel(&self, kernel: SigmaKernel, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        let _ = kernel;
        self.sim_batch(a, bs, out);
    }

    /// Heap bytes held by quantized slabs this similarity has built
    /// (0 for similarities without one) — surfaced in serve `stats`.
    fn slab_bytes(&self) -> usize {
        0
    }

    /// A short human-readable name ("types" / "embeddings").
    fn name(&self) -> &'static str;
}

impl<S: EntitySimilarity + ?Sized> EntitySimilarity for Box<S> {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).sim(a, b)
    }

    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        (**self).sim_batch(a, bs, out);
    }

    fn sim_kernel(&self, kernel: SigmaKernel, a: EntityId, b: EntityId) -> f64 {
        (**self).sim_kernel(kernel, a, b)
    }

    fn sim_batch_kernel(&self, kernel: SigmaKernel, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        (**self).sim_batch_kernel(kernel, a, bs, out);
    }

    fn slab_bytes(&self) -> usize {
        (**self).slab_bytes()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<S: EntitySimilarity + ?Sized> EntitySimilarity for &S {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).sim(a, b)
    }

    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        (**self).sim_batch(a, bs, out);
    }

    fn sim_kernel(&self, kernel: SigmaKernel, a: EntityId, b: EntityId) -> f64 {
        (**self).sim_kernel(kernel, a, b)
    }

    fn sim_batch_kernel(&self, kernel: SigmaKernel, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        (**self).sim_batch_kernel(kernel, a, bs, out);
    }

    fn slab_bytes(&self) -> usize {
        (**self).slab_bytes()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Capped Jaccard of two sorted, deduplicated `u32` sets — the shared
/// kernel of [`PredicateJaccard`] and [`NeighborhoodJaccard`].
#[inline]
fn sorted_jaccard(sa: &[u32], sb: &[u32], cap: f64) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = sa.len() + sb.len() - inter;
    (inter as f64 / union as f64).min(cap)
}

/// Adjusted Jaccard similarity over entity-type sets (Eq. 4).
pub struct TypeJaccard<'a> {
    graph: &'a KnowledgeGraph,
    cap: f64,
}

impl<'a> TypeJaccard<'a> {
    /// The paper's cap for non-identical entities.
    pub const DEFAULT_CAP: f64 = 0.95;

    /// Creates the similarity with the default 0.95 cap.
    pub fn new(graph: &'a KnowledgeGraph) -> Self {
        Self {
            graph,
            cap: Self::DEFAULT_CAP,
        }
    }

    /// Creates the similarity with a custom cap in `[0, 1]`.
    pub fn with_cap(graph: &'a KnowledgeGraph, cap: f64) -> Self {
        assert!((0.0..=1.0).contains(&cap), "cap must be in [0, 1]");
        Self { graph, cap }
    }
}

impl EntitySimilarity for TypeJaccard<'_> {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        if a == b {
            return 1.0;
        }
        let j = type_jaccard(self.graph.types_of(a), self.graph.types_of(b));
        j.min(self.cap)
    }

    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        debug_assert_eq!(bs.len(), out.len());
        let ta = self.graph.types_of(a);
        for (&b, o) in bs.iter().zip(out) {
            *o = if a == b {
                1.0
            } else {
                type_jaccard(ta, self.graph.types_of(b)).min(self.cap)
            };
        }
    }

    fn name(&self) -> &'static str {
        "types"
    }
}

/// Jaccard similarity over the sets of *predicates* surrounding an entity
/// (its outgoing edge labels) — the alternative relevance signal §5.3
/// points to ([Mottin et al., exemplar queries]): two entities play a
/// similar role if the graph talks about them in the same vocabulary.
///
/// Precomputes each entity's sorted predicate set once; like
/// [`TypeJaccard`], non-identical entities are capped below 1.
pub struct PredicateJaccard {
    predicate_sets: Vec<Vec<u32>>,
    cap: f64,
}

impl PredicateJaccard {
    /// Builds the per-entity predicate sets from `graph`.
    pub fn new(graph: &KnowledgeGraph) -> Self {
        let mut predicate_sets = Vec::with_capacity(graph.entity_count());
        for e in graph.entity_ids() {
            let mut preds: Vec<u32> = graph
                .neighbors(e)
                .iter()
                .map(|edge| edge.predicate.0)
                .collect();
            preds.sort_unstable();
            preds.dedup();
            predicate_sets.push(preds);
        }
        Self {
            predicate_sets,
            cap: TypeJaccard::DEFAULT_CAP,
        }
    }
}

impl EntitySimilarity for PredicateJaccard {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        if a == b {
            return 1.0;
        }
        sorted_jaccard(
            &self.predicate_sets[a.index()],
            &self.predicate_sets[b.index()],
            self.cap,
        )
    }

    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        debug_assert_eq!(bs.len(), out.len());
        let sa = &self.predicate_sets[a.index()];
        for (&b, o) in bs.iter().zip(out) {
            *o = if a == b {
                1.0
            } else {
                sorted_jaccard(sa, &self.predicate_sets[b.index()], self.cap)
            };
        }
    }

    fn name(&self) -> &'static str {
        "predicates"
    }
}

/// Jaccard similarity over bounded graph neighborhoods: two entities are
/// similar when the graph connects them to the same entities (§3.3's
/// proximity-based relevance family). Neighborhoods are precomputed once
/// per entity (undirected, up to `depth` hops), so `σ` stays a linear
/// merge at query time.
pub struct NeighborhoodJaccard {
    neighborhoods: Vec<Vec<u32>>,
    cap: f64,
}

impl NeighborhoodJaccard {
    /// Precomputes all neighborhoods of `graph` up to `depth` hops.
    pub fn new(graph: &KnowledgeGraph, depth: u32) -> Self {
        let reverse = thetis_kg::paths::ReverseAdjacency::build(graph);
        let neighborhoods = graph
            .entity_ids()
            .map(|e| {
                let mut n: Vec<u32> = thetis_kg::paths::neighborhood(graph, &reverse, e, depth)
                    .into_iter()
                    .map(|x| x.0)
                    .collect();
                n.sort_unstable();
                n
            })
            .collect();
        Self {
            neighborhoods,
            cap: TypeJaccard::DEFAULT_CAP,
        }
    }
}

impl EntitySimilarity for NeighborhoodJaccard {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        if a == b {
            return 1.0;
        }
        sorted_jaccard(
            &self.neighborhoods[a.index()],
            &self.neighborhoods[b.index()],
            self.cap,
        )
    }

    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        debug_assert_eq!(bs.len(), out.len());
        let sa = &self.neighborhoods[a.index()];
        for (&b, o) in bs.iter().zip(out) {
            *o = if a == b {
                1.0
            } else {
                sorted_jaccard(sa, &self.neighborhoods[b.index()], self.cap)
            };
        }
    }

    fn name(&self) -> &'static str {
        "neighborhoods"
    }
}

/// Entities degraded to σ = 0 because the embedding store had no vector
/// for them (or the `embedding.missing` failpoint simulated that).
static OBS_EMBEDDING_MISSING: thetis_obs::Counter = thetis_obs::Counter::new("embedding.missing");

/// Cosine similarity of entity embeddings, clamped to `[0, 1]`.
///
/// An entity the store has no vector for — a KG newer than the embedding
/// snapshot — degrades every pair involving it to σ = 0 (the paper's
/// partial-mapping semantics: an unmatched position contributes nothing)
/// instead of indexing out of bounds. Identity still scores 1. Each
/// degraded lookup bumps the `embedding.missing` counter; the
/// `embedding.missing` failpoint simulates the condition in chaos runs.
pub struct EmbeddingCosine<'a> {
    store: &'a EmbeddingStore,
    /// Quantized slabs, built lazily on first use of the matching kernel
    /// and reused for the lifetime of this similarity. The store is
    /// immutable behind the shared borrow, so a slab never goes stale.
    f32_slab: std::sync::OnceLock<F32Slab>,
    i8_slab: std::sync::OnceLock<I8Slab>,
}

impl<'a> EmbeddingCosine<'a> {
    /// Creates the similarity over `store`.
    pub fn new(store: &'a EmbeddingStore) -> Self {
        Self {
            store,
            f32_slab: std::sync::OnceLock::new(),
            i8_slab: std::sync::OnceLock::new(),
        }
    }

    /// The f32 slab, built on first use.
    fn f32_slab(&self) -> &F32Slab {
        self.f32_slab
            .get_or_init(|| F32Slab::from_store(self.store))
    }

    /// The i8 slab, built on first use.
    fn i8_slab(&self) -> &I8Slab {
        self.i8_slab.get_or_init(|| I8Slab::from_store(self.store))
    }

    /// Eagerly builds the slabs a kernel needs (normally they build
    /// lazily on first σ; servers call this at startup so the first
    /// request doesn't pay the one-time cost).
    pub fn warm(&self, kernel: SigmaKernel) {
        match kernel {
            SigmaKernel::F64Exact => {}
            SigmaKernel::F32 => {
                self.f32_slab();
            }
            SigmaKernel::I8 => {
                self.i8_slab();
            }
        }
    }

    /// Whether `e` has a usable vector: present in the store and not
    /// knocked out by the `embedding.missing` failpoint.
    fn resolvable(&self, e: EntityId) -> bool {
        if !self.store.contains(e)
            || matches!(
                thetis_obs::faults::check("embedding.missing"),
                Some(thetis_obs::faults::FaultAction::Error)
                    | Some(thetis_obs::faults::FaultAction::Corrupt)
            )
        {
            if thetis_obs::enabled() {
                OBS_EMBEDDING_MISSING.inc();
            }
            return false;
        }
        true
    }
}

impl EntitySimilarity for EmbeddingCosine<'_> {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        if a == b {
            return 1.0;
        }
        if !self.resolvable(a) || !self.resolvable(b) {
            return 0.0;
        }
        self.store.cosine(a, b).max(0.0)
    }

    fn sim_batch(&self, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        debug_assert_eq!(bs.len(), out.len());
        // Fast path: the whole batch resolves, so the fused kernel's bits
        // are untouched on healthy runs.
        if self.resolvable(a) && bs.iter().all(|&b| self.resolvable(b)) {
            self.store.cosine_batch(a, bs, out);
            for (&b, o) in bs.iter().zip(out) {
                *o = if a == b { 1.0 } else { o.max(0.0) };
            }
            return;
        }
        for (&b, o) in bs.iter().zip(out) {
            *o = self.sim(a, b);
        }
    }

    fn sim_kernel(&self, kernel: SigmaKernel, a: EntityId, b: EntityId) -> f64 {
        if kernel == SigmaKernel::F64Exact {
            return self.sim(a, b);
        }
        // Identity, missing-vector degradation, and the failpoint behave
        // exactly like the reference kernel; only resolvable non-identical
        // pairs dispatch into the quantized slab.
        if a == b {
            return 1.0;
        }
        if !self.resolvable(a) || !self.resolvable(b) {
            return 0.0;
        }
        match kernel {
            SigmaKernel::F64Exact => unreachable!(),
            SigmaKernel::F32 => self.f32_slab().cosine(a, b).max(0.0),
            SigmaKernel::I8 => self.i8_slab().cosine(a, b).max(0.0),
        }
    }

    fn sim_batch_kernel(&self, kernel: SigmaKernel, a: EntityId, bs: &[EntityId], out: &mut [f64]) {
        if kernel == SigmaKernel::F64Exact {
            self.sim_batch(a, bs, out);
            return;
        }
        debug_assert_eq!(bs.len(), out.len());
        if self.resolvable(a) && bs.iter().all(|&b| self.resolvable(b)) {
            match kernel {
                SigmaKernel::F64Exact => unreachable!(),
                SigmaKernel::F32 => self.f32_slab().cosine_batch(a, bs, out),
                SigmaKernel::I8 => self.i8_slab().cosine_batch(a, bs, out),
            }
            for (&b, o) in bs.iter().zip(out) {
                *o = if a == b { 1.0 } else { o.max(0.0) };
            }
            return;
        }
        for (&b, o) in bs.iter().zip(out) {
            *o = self.sim_kernel(kernel, a, b);
        }
    }

    fn slab_bytes(&self) -> usize {
        self.f32_slab.get().map_or(0, F32Slab::bytes) + self.i8_slab.get().map_or(0, I8Slab::bytes)
    }

    fn name(&self) -> &'static str {
        "embeddings"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thetis_kg::KgBuilder;

    fn graph() -> (KnowledgeGraph, EntityId, EntityId, EntityId) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let player = b.add_type("BaseballPlayer", Some(thing));
        let actor = b.add_type("Actor", Some(thing));
        let p1 = b.add_entity("p1", vec![player]);
        let p2 = b.add_entity("p2", vec![player]);
        let a1 = b.add_entity("a1", vec![actor]);
        (b.freeze(), p1, p2, a1)
    }

    #[test]
    fn identical_entity_scores_one() {
        let (g, p1, _, _) = graph();
        let s = TypeJaccard::new(&g);
        assert_eq!(s.sim(p1, p1), 1.0);
    }

    #[test]
    fn same_types_cap_at_095() {
        let (g, p1, p2, _) = graph();
        let s = TypeJaccard::new(&g);
        // identical type sets → Jaccard 1.0 → capped
        assert_eq!(s.sim(p1, p2), 0.95);
    }

    #[test]
    fn related_types_score_between() {
        let (g, p1, _, a1) = graph();
        let s = TypeJaccard::new(&g);
        // share {Thing} of {Thing, Player} ∪ {Thing, Actor} → 1/3
        let v = s.sim(p1, a1);
        assert!((v - 1.0 / 3.0).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn custom_cap_applies() {
        let (g, p1, p2, _) = graph();
        let s = TypeJaccard::with_cap(&g, 0.5);
        assert_eq!(s.sim(p1, p2), 0.5);
        assert_eq!(s.sim(p1, p1), 1.0);
    }

    #[test]
    fn predicate_jaccard_uses_edge_vocabulary() {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let e1 = b.add_entity("e1", vec![thing]);
        let e2 = b.add_entity("e2", vec![thing]);
        let e3 = b.add_entity("e3", vec![thing]);
        let target = b.add_entity("t", vec![thing]);
        let plays = b.add_predicate("playsFor");
        let born = b.add_predicate("bornIn");
        let acts = b.add_predicate("actsIn");
        // e1, e2 share the {playsFor, bornIn} vocabulary; e3 differs.
        b.add_edge(e1, plays, target);
        b.add_edge(e1, born, target);
        b.add_edge(e2, plays, target);
        b.add_edge(e2, born, target);
        b.add_edge(e3, acts, target);
        let g = b.freeze();
        let s = PredicateJaccard::new(&g);
        assert_eq!(s.sim(e1, e1), 1.0);
        assert_eq!(s.sim(e1, e2), 0.95); // identical vocabulary, capped
        assert_eq!(s.sim(e1, e3), 0.0);
        // Entities with no edges are maximally uninformative.
        assert_eq!(s.sim(target, target), 1.0);
        assert_eq!(s.sim(target, e1), 0.0);
        assert_eq!(s.name(), "predicates");
    }

    #[test]
    fn neighborhood_jaccard_reflects_shared_context() {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p1 = b.add_entity("p1", vec![thing]);
        let p2 = b.add_entity("p2", vec![thing]);
        let p3 = b.add_entity("p3", vec![thing]);
        let team_a = b.add_entity("team_a", vec![thing]);
        let team_b = b.add_entity("team_b", vec![thing]);
        let plays = b.add_predicate("playsFor");
        // p1, p2 play for team_a; p3 for team_b.
        b.add_edge(p1, plays, team_a);
        b.add_edge(p2, plays, team_a);
        b.add_edge(p3, plays, team_b);
        let g = b.freeze();
        let s = NeighborhoodJaccard::new(&g, 1);
        // p1 and p2 share their whole 1-hop neighborhood {team_a}.
        assert_eq!(s.sim(p1, p2), 0.95);
        // p1 and p3 share nothing at depth 1.
        assert_eq!(s.sim(p1, p3), 0.0);
        // At depth 2, p1's neighborhood gains p2 (via team_a): sim drops
        // below the cap but stays positive against p2.
        let s2 = NeighborhoodJaccard::new(&g, 2);
        let v = s2.sim(p1, p2);
        assert!(v > 0.0 && v < 0.95, "depth-2 sim {v}");
        assert_eq!(s.name(), "neighborhoods");
    }

    fn assert_batch_matches_scalar<S: EntitySimilarity>(s: &S, n: u32) {
        let bs: Vec<EntityId> = (0..n).map(EntityId).collect();
        let mut out = vec![0.0f64; bs.len()];
        for a in 0..n {
            let a = EntityId(a);
            s.sim_batch(a, &bs, &mut out);
            for (&b, &got) in bs.iter().zip(&out) {
                assert_eq!(
                    got.to_bits(),
                    s.sim(a, b).to_bits(),
                    "{}: batch diverges at ({a:?}, {b:?})",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn sim_batch_is_bit_identical_to_scalar_for_all_similarities() {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let player = b.add_type("Player", Some(thing));
        let actor = b.add_type("Actor", Some(thing));
        let e0 = b.add_entity("e0", vec![player]);
        let e1 = b.add_entity("e1", vec![player, actor]);
        let e2 = b.add_entity("e2", vec![actor]);
        let e3 = b.add_entity("e3", vec![]);
        let plays = b.add_predicate("playsFor");
        let born = b.add_predicate("bornIn");
        b.add_edge(e0, plays, e3);
        b.add_edge(e1, plays, e3);
        b.add_edge(e1, born, e2);
        b.add_edge(e2, born, e0);
        let g = b.freeze();
        let n = g.entity_count() as u32;

        assert_batch_matches_scalar(&TypeJaccard::new(&g), n);
        assert_batch_matches_scalar(&PredicateJaccard::new(&g), n);
        assert_batch_matches_scalar(&NeighborhoodJaccard::new(&g, 2), n);

        let mut store = EmbeddingStore::zeros(n as usize, 3);
        for i in 0..n {
            let v = [(i as f32) - 1.5, 0.5, -(i as f32) * 0.25];
            store.get_mut(EntityId(i)).copy_from_slice(&v);
        }
        assert_batch_matches_scalar(&EmbeddingCosine::new(&store), n);
    }

    #[test]
    fn embedding_cosine_clamps_negative() {
        let mut store = EmbeddingStore::zeros(2, 2);
        store.get_mut(EntityId(0)).copy_from_slice(&[1.0, 0.0]);
        store.get_mut(EntityId(1)).copy_from_slice(&[-1.0, 0.0]);
        let s = EmbeddingCosine::new(&store);
        assert_eq!(s.sim(EntityId(0), EntityId(1)), 0.0);
        assert_eq!(s.sim(EntityId(0), EntityId(0)), 1.0);
    }

    #[test]
    fn kernel_names_roundtrip() {
        for k in SigmaKernel::ALL {
            assert_eq!(SigmaKernel::parse(k.name()), Some(k));
        }
        assert_eq!(SigmaKernel::parse("f16"), None);
        assert_eq!(SigmaKernel::default(), SigmaKernel::F64Exact);
        assert_eq!(format!("{}", SigmaKernel::F32), "f32");
    }

    fn kernel_test_store(n: u32, dim: usize) -> EmbeddingStore {
        let mut store = EmbeddingStore::zeros(n as usize, dim);
        for i in 0..n {
            let row = store.get_mut(EntityId(i));
            for (j, x) in row.iter_mut().enumerate() {
                *x = (((i as usize * 31 + j * 17) % 23) as f32 - 11.0) / 7.0;
            }
        }
        store
    }

    #[test]
    fn f64_kernel_is_bit_identical_to_plain_sim() {
        let store = kernel_test_store(6, 13);
        let s = EmbeddingCosine::new(&store);
        for a in 0..6u32 {
            for b in 0..6u32 {
                let (a, b) = (EntityId(a), EntityId(b));
                assert_eq!(
                    s.sim_kernel(SigmaKernel::F64Exact, a, b).to_bits(),
                    s.sim(a, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn quantized_kernels_track_reference_within_bounds() {
        let dim = 13;
        let store = kernel_test_store(6, dim);
        let s = EmbeddingCosine::new(&store);
        let i8_bound = 4.0 * (dim as f64).sqrt() / 254.0 + 1e-3;
        for a in 0..6u32 {
            for b in 0..6u32 {
                let (a, b) = (EntityId(a), EntityId(b));
                let want = s.sim(a, b);
                let f = s.sim_kernel(SigmaKernel::F32, a, b);
                let q = s.sim_kernel(SigmaKernel::I8, a, b);
                assert!((f - want).abs() < 1e-5, "f32 {f} vs {want}");
                assert!((q - want).abs() <= i8_bound, "i8 {q} vs {want}");
            }
        }
    }

    #[test]
    fn kernel_batches_are_bit_identical_to_kernel_scalars() {
        let store = kernel_test_store(6, 13);
        let s = EmbeddingCosine::new(&store);
        let bs: Vec<EntityId> = (0..6u32).map(EntityId).collect();
        let mut out = vec![0.0f64; bs.len()];
        for k in SigmaKernel::ALL {
            for a in 0..6u32 {
                let a = EntityId(a);
                s.sim_batch_kernel(k, a, &bs, &mut out);
                for (&b, &got) in bs.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        s.sim_kernel(k, a, b).to_bits(),
                        "kernel {k} diverges at ({a:?}, {b:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_kernels_degrade_missing_entities_like_reference() {
        let store = kernel_test_store(2, 4);
        let s = EmbeddingCosine::new(&store);
        let missing = EntityId(7);
        for k in [SigmaKernel::F32, SigmaKernel::I8] {
            assert_eq!(s.sim_kernel(k, EntityId(0), missing), 0.0);
            assert_eq!(s.sim_kernel(k, missing, EntityId(0)), 0.0);
            assert_eq!(s.sim_kernel(k, missing, missing), 1.0);
            let bs = [EntityId(1), missing, EntityId(0)];
            let mut out = [f64::NAN; 3];
            s.sim_batch_kernel(k, EntityId(0), &bs, &mut out);
            assert_eq!(
                out[0].to_bits(),
                s.sim_kernel(k, EntityId(0), EntityId(1)).to_bits()
            );
            assert_eq!(out[1], 0.0);
            assert_eq!(out[2], 1.0);
        }
    }

    #[test]
    fn slab_bytes_counts_only_built_slabs() {
        let store = kernel_test_store(4, 8);
        let s = EmbeddingCosine::new(&store);
        assert_eq!(s.slab_bytes(), 0);
        s.warm(SigmaKernel::F32);
        let f32_bytes = 4 * 8 * 4 + 4 * 4;
        assert_eq!(s.slab_bytes(), f32_bytes);
        s.warm(SigmaKernel::I8);
        assert_eq!(s.slab_bytes(), f32_bytes + 4 * 8 + 4 * 8);
        // Non-embedding similarities hold no slab under any kernel.
        let (g, p1, p2, _) = graph();
        let tj = TypeJaccard::new(&g);
        assert_eq!(tj.slab_bytes(), 0);
        assert_eq!(
            tj.sim_kernel(SigmaKernel::I8, p1, p2).to_bits(),
            tj.sim(p1, p2).to_bits()
        );
    }

    #[test]
    fn embedding_cosine_degrades_missing_entities_to_zero() {
        // A KG newer than the embedding snapshot: entity 5 has no vector.
        let mut store = EmbeddingStore::zeros(2, 2);
        store.get_mut(EntityId(0)).copy_from_slice(&[1.0, 0.0]);
        store.get_mut(EntityId(1)).copy_from_slice(&[1.0, 0.0]);
        let s = EmbeddingCosine::new(&store);
        let missing = EntityId(5);
        assert_eq!(s.sim(EntityId(0), missing), 0.0);
        assert_eq!(s.sim(missing, EntityId(0)), 0.0);
        // Identity degrades gracefully too, but still scores 1: the entity
        // is "itself" regardless of whether a vector exists for it.
        assert_eq!(s.sim(missing, missing), 1.0);
        // Batch with a missing entity mixed in: present pairs keep their
        // exact bits, the missing one degrades to 0.
        let bs = [EntityId(1), missing, EntityId(0)];
        let mut out = [f64::NAN; 3];
        s.sim_batch(EntityId(0), &bs, &mut out);
        assert_eq!(out[0].to_bits(), s.sim(EntityId(0), EntityId(1)).to_bits());
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 1.0);
    }
}
