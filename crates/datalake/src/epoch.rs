//! Epoch-pinned lake snapshots: the writer/reader seam for a resident
//! search service.
//!
//! [`EpochLake`] publishes the lake as an immutable [`Arc`] snapshot.
//! Readers [`EpochLake::pin`] the snapshot their search starts on and keep
//! reading a consistent epoch-N view no matter how many mutations land
//! concurrently; writers fork the current snapshot, apply a [`Mutation`]
//! batch to the fork, and atomically swap it in (classic copy-on-write /
//! RCU). A panic mid-batch — including the injected `lake.delta`
//! failpoint — unwinds on the private fork *before* the swap, so the
//! previously published epoch stays readable and exact.
//!
//! The cells of the lake exist once: [`DataLake::fork`] shares every
//! table's rows (and digests) with the snapshot it starts from, and the
//! batch then replaces whole tables, so successive snapshots differ only in
//! the tables the batch touched. A commit is therefore O(cells of the
//! changed tables) + O(index entries) — it is *not* O(table) end to end:
//! the fork still copies every table's name and schema and the whole
//! entity→tables posting map, and the serving layer above copies the LSEI
//! and recomputes informativeness per commit. The `delta-maintenance`
//! microbench reports that cost (`mean_commit_seconds`) beside the
//! in-place delta and the full rebuild.

use std::sync::{Arc, Mutex, RwLock};

use crate::lake::{DataLake, LakeEpoch};
use crate::table::{Table, TableId};

/// Snapshot swaps published by [`EpochLake::commit`].
static OBS_COMMITS: thetis_obs::Counter = thetis_obs::Counter::new("lake.epoch_commits");

/// One lake mutation, applied through the delta paths of [`DataLake`].
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Ingest a new table (its id is assigned on apply).
    Add(Table),
    /// Tombstone an existing table.
    Remove(TableId),
    /// Replace the content of an existing table (the re-linking path).
    Relink(TableId, Table),
}

impl Mutation {
    /// Applies the mutation to `lake`, returning the affected table id.
    pub fn apply(self, lake: &mut DataLake) -> TableId {
        match self {
            Mutation::Add(t) => lake.add_table(t),
            Mutation::Remove(id) => {
                lake.remove_table(id);
                id
            }
            Mutation::Relink(id, t) => {
                lake.relink_table(id, move |dst| *dst = t);
                id
            }
        }
    }
}

/// A concurrently readable lake with generation-stamped snapshots.
pub struct EpochLake {
    current: RwLock<Arc<DataLake>>,
    /// Serializes committers: the copy-on-write cycle (pin → fork → apply
    /// → swap) is not atomic on its own, so without this two concurrent
    /// commits could fork the same base and one batch would be lost.
    writer: Mutex<()>,
}

impl EpochLake {
    /// Wraps `lake` as the initial published snapshot.
    pub fn new(lake: DataLake) -> Self {
        Self {
            current: RwLock::new(Arc::new(lake)),
            writer: Mutex::new(()),
        }
    }

    /// Pins the current snapshot: the returned lake is immutable and stays
    /// valid (same epoch, same contents) for as long as the caller holds
    /// the [`Arc`], regardless of concurrent commits.
    pub fn pin(&self) -> Arc<DataLake> {
        self.read_guard().clone()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> LakeEpoch {
        self.read_guard().epoch()
    }

    /// Applies a mutation batch copy-on-write and publishes the result,
    /// returning the new epoch. Readers pinned to the previous snapshot
    /// are unaffected; a panic while applying the batch leaves the
    /// published snapshot untouched.
    pub fn commit(&self, batch: Vec<Mutation>) -> LakeEpoch {
        // One committer at a time; readers stay lock-free on this path. A
        // poisoned guard only means an earlier batch panicked mid-apply —
        // it never published, so the current snapshot is still the base.
        let _writing = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut next = self.pin().fork();
        for m in batch {
            m.apply(&mut next);
        }
        let epoch = next.epoch();
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        OBS_COMMITS.inc();
        epoch
    }

    fn read_guard(&self) -> std::sync::RwLockReadGuard<'_, Arc<DataLake>> {
        // Lock poisoning cannot leave a half-written Arc (the swap is a
        // single assignment), so a poisoned lock is still a valid snapshot.
        self.current.read().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;
    use thetis_kg::EntityId;

    fn linked(e: u32) -> CellValue {
        CellValue::LinkedEntity {
            mention: format!("e{e}"),
            entity: EntityId(e),
        }
    }

    fn one_table(e: u32) -> Table {
        let mut t = Table::new(format!("t{e}"), vec!["a".into()]);
        t.push_row(vec![linked(e)]);
        t
    }

    #[test]
    fn pinned_snapshot_survives_commits() {
        let store = EpochLake::new(DataLake::from_tables(vec![one_table(1)]));
        let pinned = store.pin();
        let e0 = pinned.epoch();

        let e1 = store.commit(vec![Mutation::Add(one_table(2))]);
        assert_eq!(e1, e0 + 1);
        // The pin still sees the old world…
        assert_eq!(pinned.epoch(), e0);
        assert_eq!(pinned.len(), 1);
        assert!(!pinned.postings().contains_key(&EntityId(2)));
        // …while a fresh pin sees the new one.
        let fresh = store.pin();
        assert_eq!(fresh.epoch(), e1);
        assert_eq!(fresh.postings()[&EntityId(2)], vec![TableId(1)]);
    }

    #[test]
    fn batch_commit_bumps_epoch_per_mutation() {
        let store = EpochLake::new(DataLake::from_tables(vec![one_table(1)]));
        let e0 = store.epoch();
        let e1 = store.commit(vec![
            Mutation::Add(one_table(2)),
            Mutation::Relink(TableId(0), one_table(7)),
            Mutation::Remove(TableId(1)),
        ]);
        assert_eq!(e1, e0 + 3);
        let lake = store.pin();
        assert!(lake.is_removed(TableId(1)));
        assert_eq!(lake.postings()[&EntityId(7)], vec![TableId(0)]);
    }
}
