//! Concurrency proof for epoch-pinned snapshots: a reader pinned to epoch
//! N never observes epoch N+1, no matter how the writer's commit is
//! scheduled against it.
//!
//! Structure per round: readers pin the published snapshot and record its
//! observable state (epoch, postings, digests), then a barrier releases
//! the writer. After the writer has published the next epoch (second
//! barrier), every reader re-reads its pinned snapshot and asserts it is
//! byte-for-byte what it was before the commit — while a *fresh* pin
//! observes the new epoch. Repeated for many rounds so the interleaving
//! around the publish gets exercised under real thread scheduling.
//!
//! The last two tests are the regression guard on *how* a commit keeps
//! that promise: it forks the snapshot — sharing the cells of every table
//! the batch does not touch — instead of copying the lake, checked by
//! allocation address, never by a timer.

use std::sync::{Arc, Barrier};
use std::thread;

use thetis_datalake::{CellValue, DataLake, EpochLake, Mutation, Table, TableId};
use thetis_kg::EntityId;

const READERS: usize = 4;
const ROUNDS: usize = 32;

fn linked(e: u32) -> CellValue {
    CellValue::LinkedEntity {
        mention: format!("e{e}"),
        entity: EntityId(e),
    }
}

fn table(name: &str, entities: &[u32]) -> Table {
    let mut t = Table::new(name, vec!["a".into()]);
    for &e in entities {
        t.push_row(vec![linked(e)]);
    }
    t
}

/// Everything a reader can observe about a snapshot, captured eagerly:
/// epoch, sorted postings, and the per-table digests (removed slots
/// excluded), rendered for cheap equality.
type Observation = (u64, Vec<(EntityId, Vec<TableId>)>, Vec<Option<String>>);

fn observe(lake: &DataLake) -> Observation {
    let mut postings: Vec<_> = lake
        .postings()
        .iter()
        .map(|(&e, ts)| (e, ts.clone()))
        .collect();
    postings.sort_unstable_by_key(|&(e, _)| e);
    let digests = lake
        .iter()
        .filter(|&(id, _)| !lake.is_removed(id))
        .map(|(id, _)| lake.digest(id).map(|d| format!("{d:?}")))
        .collect();
    (lake.epoch(), postings, digests)
}

#[test]
fn pinned_readers_never_observe_a_later_epoch() {
    for round in 0..ROUNDS {
        let seed = round as u32;
        let store = Arc::new(EpochLake::new(DataLake::from_tables(vec![
            table("base0", &[seed, seed + 1]),
            table("base1", &[seed + 1, seed + 2]),
        ])));
        let pinned_go = Arc::new(Barrier::new(READERS + 1));
        let published = Arc::new(Barrier::new(READERS + 1));

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let store = Arc::clone(&store);
                let pinned_go = Arc::clone(&pinned_go);
                let published = Arc::clone(&published);
                thread::spawn(move || {
                    let pinned = store.pin();
                    let before = observe(&pinned);
                    pinned_go.wait(); // release the writer
                    published.wait(); // writer has swapped in epoch N+k
                                      // The pin is frozen at epoch N: identical observation.
                    assert_eq!(observe(&pinned), before, "pinned snapshot drifted");
                    // A fresh pin observes the committed world.
                    let fresh = store.pin();
                    assert!(
                        fresh.epoch() > before.0,
                        "fresh pin stuck at epoch {}",
                        before.0
                    );
                    assert!(fresh.is_removed(TableId(0)));
                    before.0
                })
            })
            .collect();

        pinned_go.wait();
        let new_epoch = store.commit(vec![
            Mutation::Add(table("added", &[seed + 3])),
            Mutation::Remove(TableId(0)),
            Mutation::Relink(TableId(1), table("base1", &[seed + 4])),
        ]);
        published.wait();

        for r in readers {
            let pinned_epoch = r.join().expect("reader panicked");
            assert_eq!(new_epoch, pinned_epoch + 3, "three mutations, three bumps");
        }
    }
}

/// Writers racing each other: commits serialize through the store, every
/// published epoch is observed monotonically by a polling reader, and the
/// final lake accounts for every committed mutation exactly once.
#[test]
fn concurrent_commits_serialize_and_epochs_stay_monotonic() {
    const WRITERS: usize = 4;
    const COMMITS_PER_WRITER: usize = 8;

    let store = Arc::new(EpochLake::new(DataLake::from_tables(vec![table(
        "base",
        &[0],
    )])));
    let start = Arc::new(Barrier::new(WRITERS + 1));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..COMMITS_PER_WRITER {
                    let e = (w * COMMITS_PER_WRITER + i) as u32 + 100;
                    store.commit(vec![Mutation::Add(table(&format!("w{w}i{i}"), &[e]))]);
                }
            })
        })
        .collect();

    start.wait();
    let mut last = store.epoch();
    while store.pin().len() < 1 + WRITERS * COMMITS_PER_WRITER {
        let now = store.epoch();
        assert!(now >= last, "epoch went backwards: {last} -> {now}");
        last = now;
        thread::yield_now();
    }
    for w in writers {
        w.join().expect("writer panicked");
    }

    let lake = store.pin();
    assert_eq!(lake.len(), 1 + WRITERS * COMMITS_PER_WRITER);
    // Exactly one posting per added entity — nothing lost, nothing doubled.
    for e in 100..(100 + (WRITERS * COMMITS_PER_WRITER) as u32) {
        assert_eq!(
            lake.postings()[&EntityId(e)].len(),
            1,
            "entity {e} posting count"
        );
    }
}

/// Where a table's cells live: two tables that report the same address
/// read the same allocation. (Row-less tables — tombstones — all report
/// the dangling address of an empty `Vec`, which compares equal to itself
/// and to nothing allocated.)
fn cells_at(lake: &DataLake, i: usize) -> *const Vec<CellValue> {
    lake.tables()[i].rows().as_ptr()
}

/// The cells of a resident lake exist once: a commit publishes a snapshot
/// that shares the rows of every table the batch did not touch with the
/// snapshot before it, and replaces — never writes through — the ones it
/// did. Exact and timing-free: addresses, not durations.
#[test]
fn commit_shares_untouched_tables_and_replaces_touched_ones() {
    let store = EpochLake::new(DataLake::from_tables(vec![
        table("keep0", &[1, 2]),
        table("gone", &[2, 3]),
        table("relinked", &[3, 4]),
        table("keep1", &[4, 5]),
    ]));
    for (mutation, touched) in [
        (Mutation::Add(table("added", &[6])), None),
        (Mutation::Remove(TableId(1)), Some(1)),
        (
            Mutation::Relink(TableId(2), table("relinked", &[7, 8])),
            Some(2),
        ),
    ] {
        let pinned = store.pin();
        let before = observe(&pinned);
        let cells_before = pinned.tables().to_vec();
        store.commit(vec![mutation]);
        let next = store.pin();
        for i in 0..pinned.len() {
            if touched == Some(i) {
                assert_ne!(cells_at(&next, i), cells_at(&pinned, i), "slot {i}");
            } else {
                assert_eq!(cells_at(&next, i), cells_at(&pinned, i), "slot {i}");
            }
        }
        if touched.is_none() {
            assert_eq!(next.len(), pinned.len() + 1, "the add landed in a new slot");
        }
        assert_eq!(observe(&pinned), before, "pinned snapshot drifted");
        assert_eq!(pinned.tables(), cells_before, "pinned cells changed");
    }
}

/// `Table::clone` is a deep copy and `DataLake::fork` a shared one, and
/// neither lets a write reach the snapshot it came from.
#[test]
fn writes_to_a_clone_or_a_fork_never_reach_the_pinned_snapshot() {
    let store = EpochLake::new(DataLake::from_tables(vec![
        table("a", &[1, 2]),
        table("b", &[2, 3]),
    ]));
    let pinned = store.pin();
    let before = observe(&pinned);
    let cells_before = pinned.tables().to_vec();

    let mut copy = pinned.table(TableId(0)).clone();
    assert_eq!(&copy, pinned.table(TableId(0)));
    assert_ne!(copy.rows().as_ptr(), cells_at(&pinned, 0), "clone is deep");
    copy.rows_mut()[0][0] = linked(99);
    assert_eq!(pinned.table(TableId(0)).cell(0, 0), &linked(1));

    let mut fork = pinned.fork();
    for i in 0..pinned.len() {
        assert_eq!(cells_at(&fork, i), cells_at(&pinned, i), "fork shares");
    }
    fork.table_mut(TableId(0)).rows_mut()[0][0] = linked(99);
    fork.table_mut(TableId(0)).push_row(vec![linked(98)]);
    assert_eq!(fork.table(TableId(0)).cell(0, 0), &linked(99));
    assert_eq!(fork.table(TableId(0)).n_rows(), 3);
    // The write copied that one table and nothing else.
    assert_ne!(cells_at(&fork, 0), cells_at(&pinned, 0));
    assert_eq!(cells_at(&fork, 1), cells_at(&pinned, 1));

    assert_eq!(observe(&pinned), before, "pinned snapshot drifted");
    assert_eq!(pinned.tables(), cells_before, "pinned cells changed");
}
