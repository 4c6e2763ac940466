//! The Locality-Sensitive Entity Index (LSEI) of §6.
//!
//! The LSEI couples a banded LSH index over entity signatures with the
//! entity→table postings of the lake. Before running the (expensive) table
//! scoring of Algorithm 1, the engine looks up every query entity, gathers
//! the tables of all colliding entities, applies a *voting threshold* on
//! table multiplicity, and scores only the surviving tables.
//!
//! Two index granularities are supported:
//!
//! * [`LseiMode::Entity`] — one signature per distinct lake entity (the
//!   default in the paper);
//! * [`LseiMode::Column`] — one aggregated signature per table column
//!   (the space-saving variant of §6.2: merged type sets, or averaged
//!   embedding vectors).
//!
//! Query-side aggregation ([`Lsei::prefilter_aggregated`]) merges all query
//! entities into a single lookup, trading accuracy for fewer probes.

use std::collections::HashMap;

use thetis_datalake::{DataLake, TableId};
use thetis_embedding::EmbeddingStore;
use thetis_kg::{EntityId, KnowledgeGraph, TypeId};

use crate::config::LshConfig;
use crate::hyperplane::{mean_vector, RandomHyperplanes};
use crate::index::LshIndex;
use crate::minhash::MinHasher;
use crate::shingle::{merged_type_shingles, type_pair_shingles, TypeFilter};
use crate::signature::Signature;

/// Whole-index construction (signing + banding).
static OBS_BUILD: thetis_obs::Span = thetis_obs::Span::new("lsh.build");
/// Signature hashing during construction.
static OBS_BUILD_SIGN: thetis_obs::Span = thetis_obs::Span::new("lsh.build.sign");
/// One prefilter lookup end to end.
static OBS_QUERY: thetis_obs::Span = thetis_obs::Span::new("lsh.query");
/// Query-side signature hashing.
static OBS_QUERY_SIGN: thetis_obs::Span = thetis_obs::Span::new("lsh.query.sign");
/// Voting: multiplicity counting + threshold.
static OBS_QUERY_VOTE: thetis_obs::Span = thetis_obs::Span::new("lsh.query.vote");
static OBS_SIGNATURES: thetis_obs::Counter = thetis_obs::Counter::new("lsh.signatures_computed");
static OBS_RAW_CANDIDATES: thetis_obs::Counter = thetis_obs::Counter::new("lsh.raw_candidates");
static OBS_CANDIDATES_OUT: thetis_obs::Counter = thetis_obs::Counter::new("lsh.candidates_out");
static OBS_TABLES_INSERTED: thetis_obs::Counter = thetis_obs::Counter::new("lsh.tables_inserted");
static OBS_TABLES_REMOVED: thetis_obs::Counter = thetis_obs::Counter::new("lsh.tables_removed");
static OBS_TABLES_RELINKED: thetis_obs::Counter = thetis_obs::Counter::new("lsh.tables_relinked");
static OBS_QUERY_LATENCY: thetis_obs::Histogram = thetis_obs::Histogram::new("lsh.query_latency");

/// Computes LSH signatures for entities and entity groups.
pub trait EntitySigner {
    /// Signature of a single entity.
    fn sign_entity(&self, e: EntityId) -> Signature;

    /// Signature of an aggregated entity group (column aggregation, §6.2).
    fn sign_group(&self, entities: &[EntityId]) -> Signature;

    /// Signatures of many entities at once, aligned with `entities` and
    /// bitwise equal to calling [`EntitySigner::sign_entity`] on each. A
    /// signer whose entities share signatures overrides this to hash each
    /// distinct one once.
    fn sign_entities(&self, entities: &[EntityId]) -> Vec<Signature> {
        entities.iter().map(|&e| self.sign_entity(e)).collect()
    }
}

/// Signer over type-pair shingles (the "LSEI for Entity Types" of §6.1).
#[derive(Clone)]
pub struct TypeSigner<'a> {
    graph: &'a KnowledgeGraph,
    filter: TypeFilter,
    hasher: MinHasher,
}

impl<'a> TypeSigner<'a> {
    /// Creates a signer with `config.num_vectors` permutations.
    pub fn new(
        graph: &'a KnowledgeGraph,
        filter: TypeFilter,
        config: LshConfig,
        seed: u64,
    ) -> Self {
        Self {
            graph,
            filter,
            hasher: MinHasher::new(config.num_vectors, seed),
        }
    }
}

impl EntitySigner for TypeSigner<'_> {
    fn sign_entity(&self, e: EntityId) -> Signature {
        let shingles = type_pair_shingles(self.graph.types_of(e), &self.filter);
        self.hasher.sign(&shingles)
    }

    fn sign_group(&self, entities: &[EntityId]) -> Signature {
        let shingles = merged_type_shingles(
            entities.iter().map(|&e| self.graph.types_of(e).to_vec()),
            &self.filter,
        );
        self.hasher.sign(&shingles)
    }

    /// A signature depends only on the entity's *filtered* type list, and
    /// a lake has far fewer of those than entities: each is hashed once.
    fn sign_entities(&self, entities: &[EntityId]) -> Vec<Signature> {
        let mut by_types: HashMap<Vec<TypeId>, Signature> = HashMap::new();
        entities
            .iter()
            .map(|&e| {
                let kept: Vec<TypeId> = self.filter.apply(self.graph.types_of(e)).collect();
                by_types
                    .entry(kept)
                    .or_insert_with(|| self.sign_entity(e))
                    .clone()
            })
            .collect()
    }
}

/// Signer over embedding vectors (the "LSEI for Entity Embeddings" of §6.1).
pub struct EmbeddingSigner<'a> {
    store: &'a EmbeddingStore,
    planes: RandomHyperplanes,
}

impl<'a> EmbeddingSigner<'a> {
    /// Creates a signer with `config.num_vectors` projections.
    pub fn new(store: &'a EmbeddingStore, config: LshConfig, seed: u64) -> Self {
        Self {
            store,
            planes: RandomHyperplanes::new(store.dim(), config.num_vectors, seed),
        }
    }
}

impl EntitySigner for EmbeddingSigner<'_> {
    fn sign_entity(&self, e: EntityId) -> Signature {
        // An entity the embedding snapshot predates gets the all-zero
        // signature — it lands in one arbitrary bucket instead of
        // panicking the build or lookup. Its tables still surface through
        // their other entities.
        match self.store.try_get(e) {
            Some(v) => self.planes.sign(v),
            None => Signature::zeros(self.planes.num_vectors()),
        }
    }

    fn sign_group(&self, entities: &[EntityId]) -> Signature {
        let vectors: Vec<&[f32]> = entities
            .iter()
            .filter_map(|&e| self.store.try_get(e))
            .collect();
        match mean_vector(&vectors) {
            Some(mean) => self.planes.sign(&mean),
            None => Signature::zeros(self.planes.num_vectors()),
        }
    }
}

/// Index granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LseiMode {
    /// One signature per distinct lake entity.
    Entity,
    /// One aggregated signature per table column.
    Column,
}

/// What an LSEI lookup returned.
#[derive(Debug, Clone)]
pub struct PrefilterResult {
    /// Surviving candidate tables, sorted and deduplicated.
    pub tables: Vec<TableId>,
    /// Size of the raw candidate bag before voting (a work measure).
    pub raw_candidates: usize,
}

/// Why the LSEI admitted one table for one query: the per-entity vote
/// breakdown behind a [`Lsei::prefilter`] decision (provenance for the
/// `explain` surface — not computed on the search hot path).
#[derive(Debug, Clone)]
pub struct AdmissionEvidence {
    /// The admitted table.
    pub table: TableId,
    /// The voting threshold the lookup ran with.
    pub votes_required: usize,
    /// Per query entity, the votes this table collected (entities that
    /// contributed no vote are included with an empty band list, so the
    /// caller sees the full query).
    pub entity_votes: Vec<EntityVotes>,
}

/// One query entity's contribution to a table's admission.
#[derive(Debug, Clone)]
pub struct EntityVotes {
    /// The query entity that was looked up.
    pub entity: EntityId,
    /// Votes this table collected from the entity's lookup (its
    /// multiplicity in the post-banding candidate bag).
    pub votes: usize,
    /// Signature bands whose buckets contributed at least one of those
    /// votes, in band order.
    pub bands: Vec<usize>,
}

impl AdmissionEvidence {
    /// Total votes across all query entities.
    pub fn total_votes(&self) -> usize {
        self.entity_votes.iter().map(|v| v.votes).sum()
    }

    /// Whether any single entity cleared the voting threshold (the
    /// admission rule of §6.2: voting is per lookup, results are merged).
    pub fn admitted(&self) -> bool {
        self.entity_votes
            .iter()
            .any(|v| v.votes >= self.votes_required.max(1))
    }
}

impl PrefilterResult {
    /// Search-space reduction relative to a lake of `total` tables, as a
    /// fraction in `[0, 1]` (Table 4 of the paper).
    pub fn reduction(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            1.0 - self.tables.len() as f64 / total as f64
        }
    }
}

/// The Locality-Sensitive Entity Index.
///
/// ```
/// use thetis_datalake::{CellValue, DataLake, Table};
/// use thetis_kg::KgBuilder;
/// use thetis_lsh::lsei::{Lsei, LseiMode, TypeSigner};
/// use thetis_lsh::{LshConfig, TypeFilter};
///
/// let mut b = KgBuilder::new();
/// let ty = b.add_type("Player", None);
/// let e = b.add_entity("Ron Santo", vec![ty]);
/// let graph = b.freeze();
///
/// let mut table = Table::new("t", vec!["p".into()]);
/// table.push_row(vec![CellValue::LinkedEntity {
///     mention: "Ron Santo".into(),
///     entity: e,
/// }]);
/// let lake = DataLake::from_tables(vec![table]);
///
/// let cfg = LshConfig::recommended();
/// let signer = TypeSigner::new(&graph, TypeFilter::none(), cfg, 42);
/// let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
/// // Identical entities always collide: the table survives prefiltering.
/// assert_eq!(lsei.prefilter(&[e], 1).tables.len(), 1);
/// ```
pub struct Lsei<S> {
    signer: S,
    mode: LseiMode,
    /// In `Entity` mode items are entity ids; in `Column` mode, table ids.
    index: LshIndex<u32>,
    postings: HashMap<EntityId, Vec<TableId>>,
    n_tables: usize,
    /// The lake epoch this index describes: copied from the lake at build
    /// time and bumped once per delta mutation, mirroring the lake's own
    /// counter so a persisted index can be checked for staleness.
    epoch: u64,
}

impl<S: Clone> Clone for Lsei<S> {
    fn clone(&self) -> Self {
        Self {
            signer: self.signer.clone(),
            mode: self.mode,
            index: self.index.clone(),
            postings: self.postings.clone(),
            n_tables: self.n_tables,
            epoch: self.epoch,
        }
    }
}

/// The decomposed index, as returned by [`Lsei::parts`]: `(config, mode,
/// bucket index, postings, n_tables, epoch)`.
pub type LseiParts<'a> = (
    LshConfig,
    LseiMode,
    &'a LshIndex<u32>,
    &'a HashMap<EntityId, Vec<TableId>>,
    usize,
    u64,
);

impl<S> Lsei<S> {
    /// Decomposes the index for persistence: `(config, mode, bucket index,
    /// postings, n_tables, epoch)`.
    pub fn parts(&self) -> LseiParts<'_> {
        (
            *self.index.config(),
            self.mode,
            &self.index,
            &self.postings,
            self.n_tables,
            self.epoch,
        )
    }

    /// Reassembles an index from persisted parts plus a fresh signer (must
    /// be configured identically to the one used at build time).
    pub fn from_parts(
        signer: S,
        mode: LseiMode,
        index: LshIndex<u32>,
        postings: HashMap<EntityId, Vec<TableId>>,
        n_tables: usize,
        epoch: u64,
    ) -> Self {
        Self {
            signer,
            mode,
            index,
            postings,
            n_tables,
            epoch,
        }
    }

    /// The lake epoch this index describes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-anchors the recorded epoch (after resynchronizing with a lake).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }
}

impl<S: EntitySigner> Lsei<S> {
    /// Builds the index over every linked entity (or column) of `lake`.
    ///
    /// The lake's postings must be fresh (see
    /// [`DataLake::rebuild_postings`]); [`DataLake::from_tables`] and
    /// linking via `link_lake` leave them fresh.
    pub fn build(lake: &DataLake, signer: S, config: LshConfig, mode: LseiMode) -> Self {
        let _build = OBS_BUILD.start();
        let mut index = LshIndex::new(config);
        let mut postings = HashMap::new();
        match mode {
            LseiMode::Entity => {
                postings = lake.postings().clone();
                let entities: Vec<EntityId> = postings.keys().copied().collect();
                let signatures = {
                    let _sign = OBS_BUILD_SIGN.start();
                    signer.sign_entities(&entities)
                };
                OBS_SIGNATURES.add(signatures.len() as u64);
                for (e, sig) in entities.iter().zip(&signatures) {
                    index.insert(sig, e.0);
                }
            }
            LseiMode::Column => {
                let fresh = lake.digests_fresh();
                for (tid, table) in lake.iter() {
                    // A fresh digest already lists each column's linked
                    // cells in row order, so the group reconstructed from
                    // it is the exact multiset the raw row walk yields
                    // (group signatures are duplicate- and
                    // order-sensitive); unlinked tables skip the row walk
                    // entirely.
                    let digest = if fresh { lake.digest(tid) } else { None };
                    if fresh && digest.is_none() {
                        continue;
                    }
                    for col in 0..table.n_cols() {
                        let entities: Vec<EntityId> = match digest {
                            Some(d) => d.columns[col]
                                .cells
                                .iter()
                                .map(|&idx| d.distinct[idx as usize])
                                .collect(),
                            None => table.entities_in_column(col).collect(),
                        };
                        if entities.is_empty() {
                            continue;
                        }
                        let sig = {
                            let _sign = OBS_BUILD_SIGN.start();
                            signer.sign_group(&entities)
                        };
                        OBS_SIGNATURES.inc();
                        index.insert(&sig, tid.0);
                    }
                }
            }
        }
        Self {
            signer,
            mode,
            index,
            postings,
            n_tables: lake.len(),
            epoch: lake.epoch(),
        }
    }

    /// Incrementally indexes one new table (dynamic-lake ingestion: the
    /// paper's §2.3 argues a semantic data lake must admit new datasets
    /// without global recomputation, and the LSEI supports exactly that).
    ///
    /// `table_id` must be the id the table has (or will have) in the lake;
    /// entities already indexed only gain a posting, new entities are
    /// signed and inserted into the buckets. Bumps the recorded epoch,
    /// mirroring [`thetis_datalake::DataLake::add_table`].
    pub fn insert_table(&mut self, table_id: TableId, table: &thetis_datalake::Table) {
        OBS_TABLES_INSERTED.inc();
        self.insert_entries(table_id, table);
        self.epoch += 1;
    }

    /// Incrementally de-indexes one table. `table` must be the content the
    /// index was built with (the table returned by
    /// [`thetis_datalake::DataLake::remove_table`]): its entity set drives
    /// which postings shrink, and an entity left with no tables at all is
    /// re-signed and evicted from every band bucket — exactly the state a
    /// rebuild without the table produces.
    pub fn remove_table(&mut self, table_id: TableId, table: &thetis_datalake::Table) {
        OBS_TABLES_REMOVED.inc();
        self.remove_entries(table_id, table);
        self.epoch += 1;
    }

    /// Incrementally re-indexes one table whose content changed from `old`
    /// to `new` (the re-linking path). In `Entity` mode only the entity-set
    /// difference is touched, so unchanged entities keep their bucket
    /// entries; in `Column` mode the old column groups are evicted and the
    /// new ones inserted.
    pub fn relink_table(
        &mut self,
        table_id: TableId,
        old: &thetis_datalake::Table,
        new: &thetis_datalake::Table,
    ) {
        OBS_TABLES_RELINKED.inc();
        match self.mode {
            LseiMode::Entity => {
                let old_set: std::collections::BTreeSet<EntityId> =
                    old.distinct_entities().into_iter().collect();
                let new_set: std::collections::BTreeSet<EntityId> =
                    new.distinct_entities().into_iter().collect();
                for &e in old_set.difference(&new_set) {
                    self.remove_posting(e, table_id);
                }
                for &e in new_set.difference(&old_set) {
                    self.insert_posting(e, table_id);
                }
            }
            LseiMode::Column => {
                self.remove_entries(table_id, old);
                self.insert_entries(table_id, new);
            }
        }
        self.epoch += 1;
    }

    fn insert_entries(&mut self, table_id: TableId, table: &thetis_datalake::Table) {
        match self.mode {
            LseiMode::Entity => {
                for e in table.distinct_entities() {
                    self.insert_posting(e, table_id);
                }
            }
            LseiMode::Column => {
                for col in 0..table.n_cols() {
                    let entities: Vec<EntityId> = table.entities_in_column(col).collect();
                    if entities.is_empty() {
                        continue;
                    }
                    let sig = self.signer.sign_group(&entities);
                    self.index.insert(&sig, table_id.0);
                }
            }
        }
        self.n_tables = self.n_tables.max(table_id.index() + 1);
    }

    fn remove_entries(&mut self, table_id: TableId, table: &thetis_datalake::Table) {
        match self.mode {
            LseiMode::Entity => {
                for e in table.distinct_entities() {
                    self.remove_posting(e, table_id);
                }
            }
            LseiMode::Column => {
                for col in 0..table.n_cols() {
                    let entities: Vec<EntityId> = table.entities_in_column(col).collect();
                    if entities.is_empty() {
                        continue;
                    }
                    let sig = self.signer.sign_group(&entities);
                    self.index.remove(&sig, table_id.0);
                }
            }
        }
    }

    /// Adds `table_id` to entity `e`'s posting list in sorted position
    /// (rebuilds produce ascending lists; deltas must too). A first-time
    /// entity is signed and inserted into the band buckets.
    fn insert_posting(&mut self, e: EntityId, table_id: TableId) {
        match self.postings.entry(e) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let list = o.get_mut();
                if let Err(pos) = list.binary_search(&table_id) {
                    list.insert(pos, table_id);
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let sig = self.signer.sign_entity(e);
                self.index.insert(&sig, e.0);
                v.insert(vec![table_id]);
            }
        }
    }

    /// Drops `table_id` from entity `e`'s posting list; an entity with no
    /// remaining tables leaves the postings *and* the band buckets.
    fn remove_posting(&mut self, e: EntityId, table_id: TableId) {
        if let Some(list) = self.postings.get_mut(&e) {
            if let Ok(pos) = list.binary_search(&table_id) {
                list.remove(pos);
            }
            if list.is_empty() {
                self.postings.remove(&e);
                let sig = self.signer.sign_entity(e);
                self.index.remove(&sig, e.0);
            }
        }
    }

    /// The number of tables the index was built over.
    pub fn n_tables(&self) -> usize {
        self.n_tables
    }

    /// The index granularity.
    pub fn mode(&self) -> LseiMode {
        self.mode
    }

    /// Tables colliding with one signature, as a multiplicity bag.
    fn table_bag(&self, sig: &Signature) -> Vec<TableId> {
        let mut bag = Vec::new();
        match self.mode {
            LseiMode::Entity => {
                for raw in self.index.query_bag(sig) {
                    if let Some(tables) = self.postings.get(&EntityId(raw)) {
                        bag.extend_from_slice(tables);
                    }
                }
            }
            LseiMode::Column => {
                bag.extend(self.index.query_bag(sig).into_iter().map(TableId));
            }
        }
        bag
    }

    /// Like [`Lsei::table_bag`], but keeps band identity: also returns the
    /// band indices whose buckets contributed at least one table. Bag
    /// contents and order are identical to `table_bag` (bands are expanded
    /// in band order either way).
    fn table_bag_banded(&self, sig: &Signature) -> (Vec<TableId>, Vec<usize>) {
        let mut bag = Vec::new();
        let mut bands = Vec::new();
        for (band, bucket) in self.index.query_by_band(sig) {
            let before = bag.len();
            match self.mode {
                LseiMode::Entity => {
                    for &raw in bucket {
                        if let Some(tables) = self.postings.get(&EntityId(raw)) {
                            bag.extend_from_slice(tables);
                        }
                    }
                }
                LseiMode::Column => {
                    bag.extend(bucket.iter().copied().map(TableId));
                }
            }
            if bag.len() > before {
                bands.push(band);
            }
        }
        (bag, bands)
    }

    /// Per-table multiplicities of a candidate bag (the vote counts the
    /// threshold is applied to).
    fn vote_counts(bag: &[TableId]) -> HashMap<TableId, usize> {
        let mut counts: HashMap<TableId, usize> = HashMap::new();
        for &t in bag {
            *counts.entry(t).or_insert(0) += 1;
        }
        counts
    }

    /// Applies the voting threshold to a bag and returns the sorted
    /// surviving table set.
    fn vote(bag: &[TableId], votes: usize) -> Vec<TableId> {
        let _vote = OBS_QUERY_VOTE.start();
        let mut out: Vec<TableId> = Self::vote_counts(bag)
            .into_iter()
            .filter(|&(_, c)| c >= votes.max(1))
            .map(|(t, _)| t)
            .collect();
        out.sort_unstable();
        out
    }

    /// The prefilter of §6.2: each query entity is looked up individually,
    /// voting is applied per lookup, and the per-entity results are merged.
    pub fn prefilter(&self, query_entities: &[EntityId], votes: usize) -> PrefilterResult {
        self.prefilter_traced(query_entities, votes, &thetis_obs::QueryTrace::disabled())
    }

    /// [`Lsei::prefilter`] with a flight recorder attached: an active trace
    /// receives one `lsei.lookup` event per query entity (raw bag size,
    /// which signature bands matched, how many tables survived voting) and
    /// one `lsei.admit` event per admitted table with its vote count. An
    /// inactive trace costs one branch per entity and changes nothing.
    pub fn prefilter_traced(
        &self,
        query_entities: &[EntityId],
        votes: usize,
        trace: &thetis_obs::QueryTrace,
    ) -> PrefilterResult {
        let started = thetis_obs::enabled().then(std::time::Instant::now);
        let _query = OBS_QUERY.start();
        let mut phase = trace.phase("lsei.prefilter");
        let mut raw = 0usize;
        let mut merged: Vec<TableId> = Vec::new();
        for &e in query_entities {
            let sig = {
                let _sign = OBS_QUERY_SIGN.start();
                self.signer.sign_entity(e)
            };
            if trace.is_verbose() {
                let (bag, bands) = self.table_bag_banded(&sig);
                raw += bag.len();
                let admitted = {
                    let _vote = OBS_QUERY_VOTE.start();
                    let counts = Self::vote_counts(&bag);
                    let mut admitted: Vec<(TableId, usize)> = counts
                        .into_iter()
                        .filter(|&(_, c)| c >= votes.max(1))
                        .collect();
                    admitted.sort_unstable_by_key(|&(t, _)| t);
                    admitted
                };
                trace.record(
                    "lsei.lookup",
                    thetis_obs::trace_attrs![
                        ("entity", e.0),
                        ("raw_candidates", bag.len()),
                        ("bands_matched", bands.len()),
                        ("bands", render_band_list(&bands)),
                        ("admitted", admitted.len()),
                    ],
                );
                for &(t, c) in &admitted {
                    trace.record(
                        "lsei.admit",
                        thetis_obs::trace_attrs![
                            ("entity", e.0),
                            ("table", t.0),
                            ("votes", c),
                            ("votes_required", votes.max(1)),
                        ],
                    );
                }
                merged.extend(admitted.into_iter().map(|(t, _)| t));
            } else {
                let bag = self.table_bag(&sig);
                raw += bag.len();
                merged.extend(Self::vote(&bag, votes));
            }
        }
        merged.sort_unstable();
        merged.dedup();
        OBS_RAW_CANDIDATES.add(raw as u64);
        OBS_CANDIDATES_OUT.add(merged.len() as u64);
        if let Some(started) = started {
            OBS_QUERY_LATENCY.observe_since(started);
        }
        phase.attr("entities", query_entities.len());
        phase.attr("raw_candidates", raw);
        phase.attr("candidates_out", merged.len());
        drop(phase);
        PrefilterResult {
            tables: merged,
            raw_candidates: raw,
        }
    }

    /// Reconstructs the admission evidence for one table: per query entity,
    /// how many votes the table collected and which signature bands the
    /// collisions came from. This re-runs the lookups, so it belongs on the
    /// explain surface, not the search hot path.
    pub fn admission_evidence(
        &self,
        query_entities: &[EntityId],
        votes: usize,
        table: TableId,
    ) -> AdmissionEvidence {
        let mut entity_votes = Vec::with_capacity(query_entities.len());
        for &e in query_entities {
            let sig = self.signer.sign_entity(e);
            let mut count = 0usize;
            let mut bands = Vec::new();
            for (band, bucket) in self.index.query_by_band(&sig) {
                let before = count;
                match self.mode {
                    LseiMode::Entity => {
                        for &raw in bucket {
                            if let Some(tables) = self.postings.get(&EntityId(raw)) {
                                count += tables.iter().filter(|&&t| t == table).count();
                            }
                        }
                    }
                    LseiMode::Column => {
                        count += bucket.iter().filter(|&&t| TableId(t) == table).count();
                    }
                }
                if count > before {
                    bands.push(band);
                }
            }
            entity_votes.push(EntityVotes {
                entity: e,
                votes: count,
                bands,
            });
        }
        AdmissionEvidence {
            table,
            votes_required: votes,
            entity_votes,
        }
    }

    /// Query-side aggregation (§6.2): the entities of each query *column*
    /// (same tuple position across tuples) merge into one signature, so a
    /// multi-tuple query costs as many lookups as a 1-tuple query.
    pub fn prefilter_aggregated(
        &self,
        query_columns: &[Vec<EntityId>],
        votes: usize,
    ) -> PrefilterResult {
        let started = thetis_obs::enabled().then(std::time::Instant::now);
        let _query = OBS_QUERY.start();
        let mut raw = 0usize;
        let mut merged: Vec<TableId> = Vec::new();
        for group in query_columns {
            if group.is_empty() {
                continue;
            }
            let sig = {
                let _sign = OBS_QUERY_SIGN.start();
                self.signer.sign_group(group)
            };
            let bag = self.table_bag(&sig);
            raw += bag.len();
            merged.extend(Self::vote(&bag, votes));
        }
        merged.sort_unstable();
        merged.dedup();
        OBS_RAW_CANDIDATES.add(raw as u64);
        OBS_CANDIDATES_OUT.add(merged.len() as u64);
        if let Some(started) = started {
            OBS_QUERY_LATENCY.observe_since(started);
        }
        PrefilterResult {
            tables: merged,
            raw_candidates: raw,
        }
    }
}

/// Band indices as a compact comma list (e.g. `"0,3,7"`), for trace attrs.
fn render_band_list(bands: &[usize]) -> String {
    let mut out = String::new();
    for (i, b) in bands.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&b.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use thetis_datalake::{CellValue, Table};
    use thetis_kg::KgBuilder;

    /// Two topic clusters with distinct fine types; one table per topic.
    fn fixture() -> (KnowledgeGraph, DataLake, Vec<EntityId>, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let baseball = b.add_type("BaseballPlayer", Some(thing));
        let volleyball = b.add_type("VolleyballPlayer", Some(thing));
        let bb: Vec<EntityId> = (0..8)
            .map(|i| b.add_entity(&format!("bb{i}"), vec![baseball]))
            .collect();
        let vb: Vec<EntityId> = (0..8)
            .map(|i| b.add_entity(&format!("vb{i}"), vec![volleyball]))
            .collect();
        let g = b.freeze();

        let mk = |name: &str, es: &[EntityId], g: &KnowledgeGraph| {
            let mut t = Table::new(name, vec!["p".into()]);
            for &e in es {
                t.push_row(vec![CellValue::LinkedEntity {
                    mention: g.label(e).to_string(),
                    entity: e,
                }]);
            }
            t
        };
        let lake = DataLake::from_tables(vec![
            mk("bb_a", &bb[0..4], &g),
            mk("bb_b", &bb[4..8], &g),
            mk("vb_a", &vb[0..4], &g),
            mk("vb_b", &vb[4..8], &g),
        ]);
        (g, lake, bb, vb)
    }

    #[test]
    fn entity_mode_finds_same_type_tables() {
        let (g, lake, bb, _vb) = fixture();
        let signer = TypeSigner::new(&g, TypeFilter::none(), LshConfig::new(32, 8), 1);
        let lsei = Lsei::build(&lake, signer, LshConfig::new(32, 8), LseiMode::Entity);
        // Query with a baseball entity: both baseball tables must be found
        // (identical type sets ⇒ identical signatures ⇒ guaranteed collision).
        let res = lsei.prefilter(&[bb[0]], 1);
        assert!(res.tables.contains(&TableId(0)));
        assert!(res.tables.contains(&TableId(1)));
    }

    #[test]
    fn column_mode_digest_and_raw_builds_agree() {
        // A fresh lake builds column groups from the digests; a stale one
        // falls back to the raw row walk. Both must produce the same
        // signatures, hence the same prefilter behavior.
        let (g, lake, bb, vb) = fixture();
        let cfg = LshConfig::new(32, 8);
        assert!(lake.digests_fresh());
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let from_digest = Lsei::build(&lake, signer, cfg, LseiMode::Column);

        let mut stale = lake.clone();
        let _ = stale.table_mut(TableId(0)); // marks digests stale, no change
        assert!(!stale.digests_fresh());
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let from_raw = Lsei::build(&stale, signer, cfg, LseiMode::Column);

        for &e in bb.iter().chain(&vb) {
            assert_eq!(
                from_digest.prefilter(&[e], 1).tables,
                from_raw.prefilter(&[e], 1).tables,
                "prefilter diverged for {e:?}"
            );
        }
    }

    #[test]
    fn voting_restricts_the_result() {
        let (g, lake, bb, _vb) = fixture();
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let loose = lsei.prefilter(&[bb[0]], 1);
        let strict = lsei.prefilter(&[bb[0]], 1000);
        assert!(strict.tables.len() <= loose.tables.len());
        assert!(strict.tables.is_empty());
    }

    #[test]
    fn reduction_is_fraction_of_lake() {
        let res = PrefilterResult {
            tables: vec![TableId(0)],
            raw_candidates: 10,
        };
        assert!((res.reduction(4) - 0.75).abs() < 1e-12);
        assert_eq!(res.reduction(0), 0.0);
    }

    #[test]
    fn column_mode_returns_tables_directly() {
        let (g, lake, bb, vb) = fixture();
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Column);
        let res = lsei.prefilter(&[bb[0]], 1);
        // Baseball tables collide (identical merged type sets).
        assert!(res.tables.contains(&TableId(0)));
        assert!(res.tables.contains(&TableId(1)));
        // A volleyball query should not pull in baseball tables more often
        // than chance; with disjoint singleton type sets the signatures
        // differ with overwhelming probability.
        let res_v = lsei.prefilter(&[vb[0]], 1);
        assert!(res_v.tables.contains(&TableId(2)));
    }

    #[test]
    fn aggregated_prefilter_uses_one_lookup_per_column() {
        let (g, lake, bb, _vb) = fixture();
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        // One query column holding three same-type entities: merging their
        // identical type sets is lossless, so baseball tables are found.
        let res = lsei.prefilter_aggregated(&[bb[0..3].to_vec()], 1);
        assert!(res.tables.contains(&TableId(0)));
        // Empty groups are skipped gracefully.
        let res = lsei.prefilter_aggregated(&[vec![], bb[0..1].to_vec()], 1);
        assert!(res.tables.contains(&TableId(0)));
    }

    #[test]
    fn type_signer_batch_signatures_equal_per_entity_ones() {
        // `common` is on three of four tables (banned at 0.5), `rare` on
        // one: the entities cover an all-banned type list, a partly banned
        // one, an untouched one, no types at all, and one outside the lake.
        let mut b = KgBuilder::new();
        let common = b.add_type("Common", None);
        let rare = b.add_type("Rare", None);
        let all_banned = b.add_entity("all_banned", vec![common]);
        let partly = b.add_entity("partly", vec![common, rare]);
        let untouched = b.add_entity("untouched", vec![rare]);
        let untyped = b.add_entity("untyped", vec![]);
        let outside = b.add_entity("outside", vec![common, rare]);
        let g = b.freeze();
        let mk = |es: &[EntityId]| {
            let mut t = Table::new("t", vec!["a".into()]);
            for &entity in es {
                t.push_row(vec![CellValue::LinkedEntity {
                    mention: "m".into(),
                    entity,
                }]);
            }
            t
        };
        let lake = DataLake::from_tables(vec![
            mk(&[all_banned, untyped]),
            mk(&[all_banned]),
            mk(&[partly]),
            mk(&[untyped]),
        ]);
        let filter = TypeFilter::from_lake(&lake, &g, 0.5);
        assert!(filter.is_banned(common) && !filter.is_banned(rare));

        let signer = TypeSigner::new(&g, filter, LshConfig::new(32, 8), 1);
        // Repeats and interleaving: the cache must not misalign outputs.
        let entities = [
            partly, all_banned, untyped, untouched, outside, all_banned, partly,
        ];
        let one_by_one: Vec<Signature> = entities.iter().map(|&e| signer.sign_entity(e)).collect();
        assert_eq!(signer.sign_entities(&entities), one_by_one);
        assert!(signer.sign_entities(&[]).is_empty());
    }

    #[test]
    fn embedding_signer_batch_signatures_equal_per_entity_ones() {
        let mut store = EmbeddingStore::zeros(3, 4);
        store
            .get_mut(EntityId(0))
            .copy_from_slice(&[1.0, -0.5, 0.25, 0.0]);
        store
            .get_mut(EntityId(2))
            .copy_from_slice(&[-1.0, 0.5, 0.0, 2.0]);
        let signer = EmbeddingSigner::new(&store, LshConfig::new(32, 8), 5);
        // Entity 7 is missing from the store: the zero signature, both ways.
        let entities = [EntityId(2), EntityId(7), EntityId(0), EntityId(1)];
        let one_by_one: Vec<Signature> = entities.iter().map(|&e| signer.sign_entity(e)).collect();
        assert_eq!(signer.sign_entities(&entities), one_by_one);
        assert_eq!(one_by_one[1], Signature::zeros(32));
    }

    #[test]
    fn incremental_insert_matches_batch_build() {
        let (g, lake, bb, vb) = fixture();
        let cfg = LshConfig::new(32, 8);
        let mk_signer = || TypeSigner::new(&g, TypeFilter::none(), cfg, 1);

        // Batch build over the full lake.
        let batch = Lsei::build(&lake, mk_signer(), cfg, LseiMode::Entity);

        // Incremental: start from the first two tables, then ingest the rest.
        let partial = DataLake::from_tables(lake.tables()[0..2].to_vec());
        let mut incr = Lsei::build(&partial, mk_signer(), cfg, LseiMode::Entity);
        for (tid, table) in lake.iter().skip(2) {
            incr.insert_table(tid, table);
        }
        assert_eq!(incr.n_tables(), lake.len());

        for &probe in bb.iter().chain(&vb) {
            let a = batch.prefilter(&[probe], 1);
            let b = incr.prefilter(&[probe], 1);
            assert_eq!(a.tables, b.tables, "divergence for {probe:?}");
        }
    }

    /// Bucket groups in canonical form (key-sorted maps of sorted item
    /// lists): `HashMap` iteration order makes even two identical rebuilds
    /// differ in bucket item order, so equivalence is up to this form.
    fn canonical_buckets<S>(lsei: &Lsei<S>) -> Vec<std::collections::BTreeMap<u64, Vec<u32>>> {
        lsei.parts()
            .2
            .groups()
            .iter()
            .map(|g| {
                g.iter()
                    .map(|(&k, items)| {
                        let mut v = items.clone();
                        v.sort_unstable();
                        (k, v)
                    })
                    .collect()
            })
            .collect()
    }

    fn canonical_postings<S>(lsei: &Lsei<S>) -> std::collections::BTreeMap<EntityId, Vec<TableId>> {
        lsei.parts()
            .3
            .iter()
            .map(|(&e, ts)| (e, ts.clone()))
            .collect()
    }

    #[test]
    fn incremental_remove_matches_batch_build() {
        for mode in [LseiMode::Entity, LseiMode::Column] {
            let (g, lake, _, _) = fixture();
            let cfg = LshConfig::new(32, 8);
            let mk_signer = || TypeSigner::new(&g, TypeFilter::none(), cfg, 1);

            let mut mutated = Lsei::build(&lake, mk_signer(), cfg, mode);
            let victim = TableId(1);
            mutated.remove_table(victim, lake.table(victim));

            // The ground truth: rebuild over the lake with the table
            // tombstoned (ids keep their positions).
            let mut tombstoned = lake.clone();
            tombstoned.remove_table(victim);
            let rebuilt = Lsei::build(&tombstoned, mk_signer(), cfg, mode);

            assert_eq!(
                canonical_buckets(&mutated),
                canonical_buckets(&rebuilt),
                "bucket divergence in {mode:?} mode"
            );
            if mode == LseiMode::Entity {
                assert_eq!(canonical_postings(&mutated), canonical_postings(&rebuilt));
            }
        }
    }

    #[test]
    fn incremental_relink_matches_batch_build() {
        for mode in [LseiMode::Entity, LseiMode::Column] {
            let (g, lake, _, vb) = fixture();
            let cfg = LshConfig::new(32, 8);
            let mk_signer = || TypeSigner::new(&g, TypeFilter::none(), cfg, 1);

            // Relink table 0 from baseball entities to volleyball ones.
            let mut new_content = Table::new("bb_a", vec!["p".into()]);
            for &e in &vb[0..4] {
                new_content.push_row(vec![CellValue::LinkedEntity {
                    mention: g.label(e).to_string(),
                    entity: e,
                }]);
            }

            let mut mutated = Lsei::build(&lake, mk_signer(), cfg, mode);
            mutated.relink_table(TableId(0), lake.table(TableId(0)), &new_content);

            let mut relinked = lake.clone();
            let replacement = new_content.clone();
            relinked.relink_table(TableId(0), move |t| *t = replacement);
            let rebuilt = Lsei::build(&relinked, mk_signer(), cfg, mode);

            assert_eq!(
                canonical_buckets(&mutated),
                canonical_buckets(&rebuilt),
                "bucket divergence in {mode:?} mode"
            );
            if mode == LseiMode::Entity {
                assert_eq!(canonical_postings(&mutated), canonical_postings(&rebuilt));
            }
        }
    }

    #[test]
    fn mutations_bump_the_epoch() {
        let (g, lake, _, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let mut lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        assert_eq!(lsei.epoch(), lake.epoch(), "build copies the lake epoch");
        let e0 = lsei.epoch();
        let t = lake.table(TableId(0)).clone();
        lsei.remove_table(TableId(0), &t);
        assert_eq!(lsei.epoch(), e0 + 1);
        lsei.insert_table(TableId(0), &t);
        assert_eq!(lsei.epoch(), e0 + 2);
        lsei.relink_table(TableId(0), &t, &t);
        assert_eq!(lsei.epoch(), e0 + 3);
    }

    #[test]
    fn incremental_insert_is_idempotent_per_posting() {
        let (g, lake, bb, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let mut lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let before = lsei.prefilter(&[bb[0]], 1);
        // Re-inserting an already-indexed table must not duplicate postings
        // (the voting threshold would otherwise be distorted).
        lsei.insert_table(TableId(0), lake.table(TableId(0)));
        let after = lsei.prefilter(&[bb[0]], 1);
        assert_eq!(before.tables, after.tables);
        assert_eq!(before.raw_candidates, after.raw_candidates);
    }

    #[test]
    fn traced_prefilter_matches_untraced_and_records_provenance() {
        let (g, lake, bb, _vb) = fixture();
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);

        let plain = lsei.prefilter(&[bb[0], bb[5]], 1);
        let trace = thetis_obs::QueryTrace::forced(99);
        let traced = lsei.prefilter_traced(&[bb[0], bb[5]], 1, &trace);
        assert_eq!(plain.tables, traced.tables);
        assert_eq!(plain.raw_candidates, traced.raw_candidates);

        let events = trace.events();
        let lookups: Vec<_> = events.iter().filter(|e| e.name == "lsei.lookup").collect();
        assert_eq!(lookups.len(), 2, "one lookup event per query entity");
        assert!(lookups[0].attr_u64("bands_matched").unwrap() > 0);
        assert!(!lookups[0].attr_str("bands").unwrap().is_empty());
        let admits: Vec<_> = events.iter().filter(|e| e.name == "lsei.admit").collect();
        assert!(!admits.is_empty(), "admitted tables must leave evidence");
        for admit in &admits {
            assert!(admit.attr_u64("votes").unwrap() >= admit.attr_u64("votes_required").unwrap());
        }
        assert!(events.iter().any(|e| e.name == "lsei.prefilter"));

        // An inactive trace records nothing and changes nothing.
        let off = thetis_obs::QueryTrace::disabled();
        let silent = lsei.prefilter_traced(&[bb[0], bb[5]], 1, &off);
        assert_eq!(silent.tables, plain.tables);
        assert!(off.is_empty());
    }

    #[test]
    fn admission_evidence_agrees_with_prefilter() {
        let (g, lake, bb, _vb) = fixture();
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 1);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let query = &bb[0..2];
        let res = lsei.prefilter(query, 1);
        for &t in &res.tables {
            let ev = lsei.admission_evidence(query, 1, t);
            assert!(ev.admitted(), "{t:?} was admitted, evidence must agree");
            assert_eq!(ev.entity_votes.len(), query.len());
            assert!(ev.total_votes() > 0);
            // Votes come from somewhere: a voting entity names its bands.
            for v in ev.entity_votes.iter().filter(|v| v.votes > 0) {
                assert!(!v.bands.is_empty());
            }
        }
        // A table the prefilter rejected yields non-admitted evidence.
        let rejected: Vec<TableId> = (0..lake.len() as u32)
            .map(TableId)
            .filter(|t| !res.tables.contains(t))
            .collect();
        for &t in &rejected {
            assert!(!lsei.admission_evidence(query, 1, t).admitted());
        }
    }

    #[test]
    fn embedding_signer_clusters_by_vector() {
        let (_g, lake, bb, vb) = fixture();
        // Hand-crafted embeddings: baseball near +x, volleyball near +y.
        let n = 16;
        let mut store = EmbeddingStore::zeros(n, 4);
        for &e in &bb {
            store.get_mut(e).copy_from_slice(&[1.0, 0.05, 0.0, 0.0]);
        }
        for &e in &vb {
            store.get_mut(e).copy_from_slice(&[0.05, 1.0, 0.0, 0.0]);
        }
        let cfg = LshConfig::new(32, 8);
        let signer = EmbeddingSigner::new(&store, cfg, 5);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let res = lsei.prefilter(&[bb[0]], 1);
        assert!(res.tables.contains(&TableId(0)));
        assert!(res.tables.contains(&TableId(1)));
        // Identical vectors collide everywhere; orthogonal ones almost never.
        assert!(!res.tables.contains(&TableId(2)) || !res.tables.contains(&TableId(3)));
    }
}
