//! The data lake container: tables plus entity→table postings.
//!
//! The lake is *mutable in place*: [`DataLake::add_table`],
//! [`DataLake::remove_table`] and [`DataLake::relink_table`] apply delta
//! updates to the postings and the per-table digests instead of forcing a
//! full [`DataLake::rebuild_postings`]. Every delta path is proven
//! bit-identical to a rebuild from scratch (see
//! `crates/datalake/tests/incremental.rs`), which rests on two invariants:
//!
//! * posting lists are kept **ascending by table id** (a rebuild pushes
//!   ids in `0..n` order, so deltas insert in sorted position);
//! * a removed table becomes a **tombstone** (its slot keeps the name and
//!   schema but loses all rows), so table ids never shift and a rebuild
//!   over the mutated table vector reproduces the delta state exactly.
//!
//! Staleness is tracked per table: [`DataLake::table_mut`] marks only the
//! touched table stale, and the next posting access refreshes exactly
//! those tables ([`DataLake::digest_fresh`] is the per-table probe the
//! scorer uses). Only the bulk surface [`DataLake::tables_mut`] still
//! degrades to a full rebuild, because the mutation scope is unknown.
//!
//! Each successful state transition bumps the lake's [`LakeEpoch`]; see
//! [`crate::epoch`] for the snapshot store that lets readers pin one.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use thetis_kg::EntityId;

use crate::digest::TableDigest;
use crate::table::{Table, TableId};

/// One full postings rebuild (corpus ingestion's dominant index cost).
static OBS_REBUILD: thetis_obs::Span = thetis_obs::Span::new("datalake.rebuild_postings");
static OBS_TABLES_ADDED: thetis_obs::Counter = thetis_obs::Counter::new("datalake.tables_added");
/// Delta mutations applied in place (as opposed to full rebuilds).
static OBS_DELTA_ADDS: thetis_obs::Counter = thetis_obs::Counter::new("lake.delta_adds");
static OBS_DELTA_REMOVES: thetis_obs::Counter = thetis_obs::Counter::new("lake.delta_removes");
static OBS_DELTA_RELINKS: thetis_obs::Counter = thetis_obs::Counter::new("lake.delta_relinks");

/// The lake's generation counter: bumped once per successful state
/// transition (delta mutation or full rebuild). Readers that pin an epoch
/// (see [`crate::epoch::EpochLake`]) observe one consistent generation.
pub type LakeEpoch = u64;

/// A data lake `D = {T1, ..., Tn}`.
///
/// Besides the tables themselves, the lake maintains an inverse of the
/// entity-linking function `Φ⁻¹`: for each entity, the list of tables it
/// appears in. This posting list powers both the informativeness weights
/// `I(e)` (inverse table frequency) and the LSEI prefilter.
#[derive(Debug, Clone, Default)]
pub struct DataLake {
    tables: Vec<Table>,
    postings: HashMap<EntityId, Vec<TableId>>,
    digests: Vec<Option<Arc<TableDigest>>>,
    /// Tables mutated through [`DataLake::table_mut`] whose postings and
    /// digest still describe the pre-mutation state.
    stale: BTreeSet<TableId>,
    /// Set by bulk mutation ([`DataLake::tables_mut`]) or a delta that
    /// unwound mid-flight; only a full rebuild clears it.
    bulk_dirty: bool,
    /// Tombstoned slots: ids stay allocated, rows are gone.
    removed: BTreeSet<TableId>,
    epoch: LakeEpoch,
}

impl DataLake {
    /// Creates an empty lake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a lake from a checkpoint image: the full table vector
    /// (tombstones included, so ids never shift), the tombstone set, and
    /// the epoch the image described. Postings and digests are rebuilt
    /// eagerly — a rebuild over the tombstoned table vector reproduces
    /// the delta state exactly (the invariant `incremental.rs` proves) —
    /// and the epoch is pinned to the recorded value afterwards, since
    /// the rebuild itself bumps it.
    pub fn from_snapshot(
        tables: Vec<Table>,
        removed: impl IntoIterator<Item = TableId>,
        epoch: LakeEpoch,
    ) -> Self {
        let mut lake = Self::from_tables(tables);
        lake.removed = removed.into_iter().collect();
        lake.pin_epoch(epoch);
        lake
    }

    /// The starting point of the next snapshot: the same lake, holding the
    /// same cells. Every table's rows are shared with `self` (digests
    /// already are); names, schemas, the posting map and the bookkeeping
    /// sets are copied, so the cost is O(tables + posting entries), not
    /// O(cells). Whatever is then done to the fork never shows through
    /// `self`: the delta paths replace tables whole ([`DataLake::add_table`]
    /// pushes, [`DataLake::remove_table`] swaps in a tombstone), and a write
    /// through [`DataLake::table_mut`], [`DataLake::tables_mut`] or
    /// [`DataLake::relink_table`] copies that one table's rows first.
    ///
    /// [`Clone`] remains the deep copy (every cell duplicated) for callers
    /// that want an independent lake to link or mutate at no deferred cost.
    pub fn fork(&self) -> Self {
        Self {
            tables: self.tables.iter().map(Table::share).collect(),
            postings: self.postings.clone(),
            digests: self.digests.clone(),
            stale: self.stale.clone(),
            bulk_dirty: self.bulk_dirty,
            removed: self.removed.clone(),
            epoch: self.epoch,
        }
    }

    /// Builds a lake from tables, computing postings eagerly.
    pub fn from_tables(tables: Vec<Table>) -> Self {
        let mut lake = Self {
            tables,
            postings: HashMap::new(),
            digests: Vec::new(),
            stale: BTreeSet::new(),
            bulk_dirty: true,
            removed: BTreeSet::new(),
            epoch: 0,
        };
        lake.rebuild_postings();
        lake
    }

    /// Adds a table, returning its id.
    ///
    /// On a fresh lake this is a *delta*: the new table's postings and
    /// digest land immediately and the epoch bumps — no rebuild. On a
    /// bulk-dirty lake the table is only pushed; the pending rebuild will
    /// cover it.
    pub fn add_table(&mut self, table: Table) -> TableId {
        OBS_TABLES_ADDED.inc();
        let id = TableId::from_index(self.tables.len());
        if self.bulk_dirty {
            self.tables.push(table);
            return id;
        }
        self.flush_stale();
        OBS_DELTA_ADDS.inc();
        // Poison-on-unwind: a panic below (including the injected
        // `lake.delta` failpoint) leaves the lake marked for rebuild
        // instead of half-updated.
        self.bulk_dirty = true;
        thetis_obs::faults::maybe_panic("lake.delta");
        let digest = TableDigest::build(&table);
        if let Some(d) = &digest {
            // The new id is the maximum, so pushing keeps every posting
            // list ascending — exactly what a rebuild produces.
            for &e in &d.distinct {
                self.postings.entry(e).or_default().push(id);
            }
        }
        self.tables.push(table);
        self.digests.push(digest.map(Arc::new));
        self.bulk_dirty = false;
        self.epoch += 1;
        id
    }

    /// Removes table `id`, returning its final content. The slot becomes a
    /// tombstone (same name and schema, zero rows) so ids never shift;
    /// postings and the digest are delta-updated to exactly the state a
    /// rebuild over the tombstoned table vector would produce.
    ///
    /// # Panics
    /// Panics if `id` was already removed.
    pub fn remove_table(&mut self, id: TableId) -> Table {
        assert!(
            !self.removed.contains(&id),
            "table {id:?} was already removed"
        );
        let tombstone = Table::new(
            self.tables[id.index()].name.clone(),
            self.tables[id.index()].columns.clone(),
        );
        if self.bulk_dirty {
            self.removed.insert(id);
            return std::mem::replace(&mut self.tables[id.index()], tombstone);
        }
        OBS_DELTA_REMOVES.inc();
        self.bulk_dirty = true;
        thetis_obs::faults::maybe_panic("lake.delta");
        // The digest's distinct list is exactly the entity set the
        // postings currently attribute to this table (they move in
        // lockstep), even when the table itself was mutated afterwards.
        if let Some(d) = self.digests[id.index()].take() {
            for &e in &d.distinct {
                Self::remove_posting(&mut self.postings, e, id);
            }
        }
        self.stale.remove(&id);
        self.removed.insert(id);
        let old = std::mem::replace(&mut self.tables[id.index()], tombstone);
        self.bulk_dirty = false;
        self.epoch += 1;
        old
    }

    /// Mutates table `id` through `f` and immediately delta-refreshes its
    /// postings and digest (the re-linking path: only the entity-set
    /// difference touches the posting map).
    ///
    /// # Panics
    /// Panics if `id` was removed.
    pub fn relink_table(&mut self, id: TableId, f: impl FnOnce(&mut Table)) {
        assert!(!self.removed.contains(&id), "table {id:?} was removed");
        f(&mut self.tables[id.index()]);
        if self.bulk_dirty {
            return;
        }
        OBS_DELTA_RELINKS.inc();
        self.bulk_dirty = true;
        thetis_obs::faults::maybe_panic("lake.delta");
        self.refresh_table(id);
        self.bulk_dirty = false;
        self.epoch += 1;
    }

    /// Delta-refreshes one table whose content changed: diffs the old
    /// entity set (the stored digest) against the new one, patches only
    /// the differing posting lists (sorted insertion keeps them
    /// ascending), and rebuilds the one digest.
    fn refresh_table(&mut self, id: TableId) {
        let old: Vec<EntityId> = self.digests[id.index()]
            .as_ref()
            .map(|d| d.distinct.clone())
            .unwrap_or_default();
        let digest = TableDigest::build(&self.tables[id.index()]);
        let empty: &[EntityId] = &[];
        let new: &[EntityId] = digest.as_ref().map_or(empty, |d| &d.distinct);
        // Both sides are sorted and deduplicated: a two-pointer sweep
        // yields the symmetric difference.
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            match (old.get(i), new.get(j)) {
                (Some(&o), Some(&n)) if o == n => {
                    i += 1;
                    j += 1;
                }
                (Some(&o), Some(&n)) if o < n => {
                    Self::remove_posting(&mut self.postings, o, id);
                    i += 1;
                }
                (Some(_), Some(&n)) => {
                    Self::insert_posting(&mut self.postings, n, id);
                    j += 1;
                }
                (Some(&o), None) => {
                    Self::remove_posting(&mut self.postings, o, id);
                    i += 1;
                }
                (None, Some(&n)) => {
                    Self::insert_posting(&mut self.postings, n, id);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.digests[id.index()] = digest.map(Arc::new);
        self.stale.remove(&id);
    }

    /// Refreshes every table marked stale by [`DataLake::table_mut`].
    /// Bumps the epoch once for the batch.
    fn flush_stale(&mut self) {
        if self.stale.is_empty() {
            return;
        }
        let pending: Vec<TableId> = self.stale.iter().copied().collect();
        self.bulk_dirty = true;
        for id in pending {
            self.refresh_table(id);
        }
        self.bulk_dirty = false;
        self.epoch += 1;
    }

    fn remove_posting(postings: &mut HashMap<EntityId, Vec<TableId>>, e: EntityId, id: TableId) {
        if let Some(list) = postings.get_mut(&e) {
            if let Ok(pos) = list.binary_search(&id) {
                list.remove(pos);
            }
            // A rebuild has no entry at all for an entity with no tables.
            if list.is_empty() {
                postings.remove(&e);
            }
        }
    }

    fn insert_posting(postings: &mut HashMap<EntityId, Vec<TableId>>, e: EntityId, id: TableId) {
        let list = postings.entry(e).or_default();
        if let Err(pos) = list.binary_search(&id) {
            list.insert(pos, id);
        }
    }

    /// Number of tables (tombstoned slots included — ids never shift).
    #[inline]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the lake is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The table with the given id.
    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Whether `id` was tombstoned by [`DataLake::remove_table`].
    #[inline]
    pub fn is_removed(&self, id: TableId) -> bool {
        self.removed.contains(&id)
    }

    /// All tombstoned ids in ascending order (the checkpoint writer
    /// persists these: tombstones alone cannot distinguish a removed
    /// table from one that merely has no rows yet).
    pub fn removed_ids(&self) -> impl Iterator<Item = TableId> + '_ {
        self.removed.iter().copied()
    }

    /// The current generation. Bumped once per successful mutation or
    /// rebuild; never by reads.
    #[inline]
    pub fn epoch(&self) -> LakeEpoch {
        self.epoch
    }

    /// Overrides the generation counter (used when re-anchoring a freshly
    /// loaded lake to the epoch a persisted index recorded).
    pub fn pin_epoch(&mut self, epoch: LakeEpoch) {
        self.epoch = epoch;
    }

    /// Mutable access to a table. The table is marked stale and its
    /// postings/digest delta-refresh on the next posting access.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        self.stale.insert(id);
        &mut self.tables[id.index()]
    }

    /// All tables in id order.
    #[inline]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Mutable access to all tables (bulk linking). The mutation scope is
    /// unknown, so this degrades to a full rebuild on next access.
    pub fn tables_mut(&mut self) -> &mut [Table] {
        self.bulk_dirty = true;
        &mut self.tables
    }

    /// Iterates over `(id, table)` pairs (tombstones included).
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId::from_index(i), t))
    }

    /// Rebuilds the per-table columnar digests from scratch — the one pass
    /// over the cells — and derives the entity→tables postings from them.
    /// The delta paths are proven equivalent to this; it remains the
    /// recovery point for bulk mutation ([`DataLake::tables_mut`]) and for
    /// a delta that unwound mid-flight.
    pub fn rebuild_postings(&mut self) {
        let _rebuild = OBS_REBUILD.start();
        self.digests = TableDigest::build_all(&self.tables);
        self.postings.clear();
        // A digest's `distinct` is the table's entity set; visiting tables
        // in id order keeps every posting list ascending.
        for (i, digest) in self.digests.iter().enumerate() {
            let id = TableId::from_index(i);
            for &e in digest.iter().flat_map(|d| &d.distinct) {
                self.postings.entry(e).or_default().push(id);
            }
        }
        self.stale.clear();
        self.bulk_dirty = false;
        self.epoch += 1;
    }

    fn ensure_postings(&mut self) {
        if self.bulk_dirty {
            self.rebuild_postings();
        } else {
            self.flush_stale();
        }
    }

    /// Tables containing entity `e` (each at most once, in id order).
    pub fn tables_with_entity(&mut self, e: EntityId) -> &[TableId] {
        self.ensure_postings();
        self.postings.get(&e).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Read-only posting access; requires postings to be fresh.
    ///
    /// # Panics
    /// Panics if tables were mutated since the last rebuild or refresh.
    pub fn postings(&self) -> &HashMap<EntityId, Vec<TableId>> {
        assert!(
            !self.bulk_dirty && self.stale.is_empty(),
            "postings are stale; call rebuild_postings() after mutating tables"
        );
        &self.postings
    }

    /// Number of tables containing entity `e` (the raw signal behind the
    /// informativeness weight `I(e)`).
    pub fn table_frequency(&mut self, e: EntityId) -> usize {
        self.tables_with_entity(e).len()
    }

    /// Whether every precomputed digest reflects the current tables.
    /// Prefer the per-table probe [`DataLake::digest_fresh`]: one stale
    /// table no longer invalidates the whole lake.
    pub fn digests_fresh(&self) -> bool {
        !self.bulk_dirty && self.stale.is_empty()
    }

    /// Whether the digest of table `id` reflects its current content (the
    /// per-table replacement for the old lake-global freshness flag).
    pub fn digest_fresh(&self, id: TableId) -> bool {
        !self.bulk_dirty && !self.stale.contains(&id)
    }

    /// The precomputed columnar digest of table `id`, or `None` when the
    /// table has no entity links.
    ///
    /// # Panics
    /// Panics if *this* table's digest is stale (check
    /// [`DataLake::digest_fresh`] and build an ad-hoc [`TableDigest`] for
    /// one-off scoring of a mutated table).
    pub fn digest(&self, id: TableId) -> Option<&TableDigest> {
        assert!(
            self.digest_fresh(id),
            "digest of {id:?} is stale; call rebuild_postings() after mutating tables"
        );
        self.digests[id.index()].as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;

    fn linked(m: &str, e: u32) -> CellValue {
        CellValue::LinkedEntity {
            mention: m.into(),
            entity: EntityId(e),
        }
    }

    fn lake() -> DataLake {
        let mut t1 = Table::new("t1", vec!["a".into()]);
        t1.push_row(vec![linked("x", 1)]);
        t1.push_row(vec![linked("x", 1)]); // duplicate entity, one posting
        let mut t2 = Table::new("t2", vec!["a".into()]);
        t2.push_row(vec![linked("y", 2)]);
        t2.push_row(vec![linked("x", 1)]);
        DataLake::from_tables(vec![t1, t2])
    }

    #[test]
    fn postings_dedup_within_table() {
        let mut lake = lake();
        assert_eq!(
            lake.tables_with_entity(EntityId(1)),
            &[TableId(0), TableId(1)]
        );
        assert_eq!(lake.tables_with_entity(EntityId(2)), &[TableId(1)]);
        assert_eq!(lake.tables_with_entity(EntityId(99)), &[] as &[TableId]);
    }

    #[test]
    fn table_frequency_counts_tables() {
        let mut lake = lake();
        assert_eq!(lake.table_frequency(EntityId(1)), 2);
        assert_eq!(lake.table_frequency(EntityId(2)), 1);
    }

    #[test]
    fn add_table_is_a_delta_on_a_fresh_lake() {
        let mut lake = lake();
        let before = lake.epoch();
        let mut t3 = Table::new("t3", vec!["a".into()]);
        t3.push_row(vec![linked("z", 3)]);
        let id = lake.add_table(t3);
        // No rebuild happened: the lake stays fresh and the delta is live.
        assert!(lake.digests_fresh());
        assert_eq!(lake.epoch(), before + 1);
        assert_eq!(lake.postings()[&EntityId(3)], vec![id]);
        assert_eq!(lake.digest(id).unwrap().distinct, vec![EntityId(3)]);
    }

    #[test]
    fn remove_table_tombstones_the_slot() {
        let mut lake = lake();
        let old = lake.remove_table(TableId(0));
        assert_eq!(old.n_rows(), 2);
        assert!(lake.is_removed(TableId(0)));
        assert_eq!(lake.len(), 2, "ids never shift");
        assert_eq!(lake.table(TableId(0)).n_rows(), 0);
        // t1's postings are gone; shared entity 1 keeps t2's posting.
        assert_eq!(lake.postings()[&EntityId(1)], vec![TableId(1)]);
        assert!(lake.digest(TableId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut lake = lake();
        lake.remove_table(TableId(0));
        lake.remove_table(TableId(0));
    }

    #[test]
    fn relink_table_patches_only_the_difference() {
        let mut lake = lake();
        // t1: entity 1 → entity 5.
        lake.relink_table(TableId(0), |t| {
            t.rows_mut()[0][0] = linked("q", 5);
            t.rows_mut()[1][0] = linked("q", 5);
        });
        assert!(lake.digests_fresh());
        assert_eq!(lake.postings()[&EntityId(1)], vec![TableId(1)]);
        assert_eq!(lake.postings()[&EntityId(5)], vec![TableId(0)]);
        assert_eq!(lake.digest(TableId(0)).unwrap().distinct, vec![EntityId(5)]);
    }

    #[test]
    fn table_mut_marks_one_table_stale() {
        let mut lake = lake();
        lake.table_mut(TableId(0)).rows_mut()[0][0] = linked("z", 9);
        assert!(!lake.digest_fresh(TableId(0)));
        assert!(lake.digest_fresh(TableId(1)), "staleness is per table");
        // The next posting access refreshes the stale table as a delta.
        assert_eq!(lake.tables_with_entity(EntityId(9)), &[TableId(0)]);
        assert!(lake.digests_fresh());
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_posting_access_panics() {
        let mut lake = lake();
        let _ = lake.tables_mut();
        let _ = lake.postings();
    }

    #[test]
    fn digests_build_with_postings() {
        let lake = lake();
        assert!(lake.digests_fresh());
        let d = lake.digest(TableId(0)).expect("t1 is linked");
        assert_eq!(d.distinct, vec![EntityId(1)]);
        assert_eq!(d.columns[0].counts, vec![2]);
        let d2 = lake.digest(TableId(1)).expect("t2 is linked");
        assert_eq!(d2.distinct, vec![EntityId(1), EntityId(2)]);
    }

    #[test]
    fn bulk_mutation_invalidates_until_rebuild() {
        let mut lake = lake();
        let _ = lake.tables_mut();
        assert!(!lake.digests_fresh());
        assert!(!lake.digest_fresh(TableId(0)));
        lake.rebuild_postings();
        assert!(lake.digests_fresh());
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_digest_access_panics() {
        let mut lake = lake();
        lake.table_mut(TableId(0)).rows_mut()[0][0] = linked("z", 9);
        let _ = lake.digest(TableId(0));
    }

    #[test]
    fn epoch_advances_once_per_mutation() {
        let mut lake = lake();
        let e0 = lake.epoch();
        let mut t3 = Table::new("t3", vec!["a".into()]);
        t3.push_row(vec![linked("z", 3)]);
        let id = lake.add_table(t3);
        assert_eq!(lake.epoch(), e0 + 1);
        lake.relink_table(id, |t| t.rows_mut()[0][0] = linked("w", 4));
        assert_eq!(lake.epoch(), e0 + 2);
        lake.remove_table(id);
        assert_eq!(lake.epoch(), e0 + 3);
        let _ = lake.postings(); // reads never bump
        assert_eq!(lake.epoch(), e0 + 3);
    }
}
