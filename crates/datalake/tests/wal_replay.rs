//! The replay-equivalence proof for the mutation journal.
//!
//! [`Wal`] + [`apply_replay`] claim that a lake recovered from a
//! checkpoint plus journal replay is *exactly* the lake that applied the
//! same mutations directly — not "equivalent", bit-identical. This suite
//! drives arbitrary add/remove/relink sequences through both paths (every
//! record journaled to a real file on disk, a mid-sequence checkpoint
//! taken without rotation so replay must exercise its skip path) and
//! compares, at the end:
//!
//! * every table, cell by cell, with `Number` compared on `f64::to_bits`
//!   (so NaN payloads and -0.0 survive the codec bit-exactly);
//! * the tombstone set and the lake epoch;
//! * entity→table postings and per-table digests;
//! * LSEI band buckets built over both lakes, in canonical form;
//! * top-k rankings, bit-identical scores (`f64::to_bits`) in order.
//!
//! The vendored proptest runner is deterministic (seeded from the test
//! name); [`PINNED_SEEDS`] additionally pins explicit RNG seeds replayed
//! forever in CI, as in the incremental-mutation suite.

use std::path::PathBuf;

use proptest::prelude::*;
use thetis_core::{Query, SearchOptions, ThetisEngine, TypeJaccard};
use thetis_datalake::{
    apply_replay, read_checkpoint, write_checkpoint, CellValue, DataLake, Mutation, Table, TableId,
    Wal, WalRecord,
};
use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};
use thetis_lsh::lsei::{Lsei, LseiMode, TypeSigner};
use thetis_lsh::{LshConfig, TypeFilter};

/// Entity pool size, as in the incremental suite: small enough for heavy
/// sharing, large enough for distinct type signatures.
const POOL: u8 = 16;

fn graph() -> (KnowledgeGraph, Vec<EntityId>) {
    let mut b = KgBuilder::new();
    let thing = b.add_type("Thing", None);
    let types: Vec<_> = (0..4)
        .map(|i| b.add_type(&format!("T{i}"), Some(thing)))
        .collect();
    let pool: Vec<EntityId> = (0..POOL)
        .map(|i| b.add_entity(&format!("e{i}"), vec![types[i as usize % types.len()]]))
        .collect();
    (b.freeze(), pool)
}

/// A cell selector. `Entity` links into the pool; `Number` carries raw
/// f64 bits (NaN payloads included) to stress codec bit-exactness.
#[derive(Debug, Clone)]
enum Cell {
    Entity(u8),
    Text,
    Number(u64),
    Null,
}

/// One mutation of the sequence. Table selectors are raw bytes resolved
/// against the live table set at execution time.
#[derive(Debug, Clone)]
enum Op {
    Add(Vec<(Cell, Cell)>),
    Remove(u8),
    Relink(u8, Vec<(Cell, Cell)>),
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    (0u8..POOL + 6, any::<u64>()).prop_map(|(d, bits)| match d {
        d if d < POOL => Cell::Entity(d),
        d if d == POOL || d == POOL + 1 => Cell::Text,
        d if d == POOL + 2 || d == POOL + 3 => Cell::Number(bits),
        _ => Cell::Null,
    })
}

fn arb_rows() -> impl Strategy<Value = Vec<(Cell, Cell)>> {
    proptest::collection::vec((arb_cell(), arb_cell()), 0..6)
}

/// Weighted 4:3:3 over Add/Remove/Relink via a discriminant draw (the
/// vendored proptest has no `prop_oneof!`).
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..10, arb_rows(), any::<u8>()).prop_map(|(d, rows, sel)| match d {
        0..=3 => Op::Add(rows),
        4..=6 => Op::Remove(sel),
        _ => Op::Relink(sel, rows),
    })
}

fn cell(pool: &[EntityId], c: &Cell) -> CellValue {
    match c {
        Cell::Entity(i) => CellValue::LinkedEntity {
            mention: format!("e{i}"),
            entity: pool[*i as usize],
        },
        Cell::Text => CellValue::Text("unlinked".into()),
        Cell::Number(bits) => CellValue::Number(f64::from_bits(*bits)),
        Cell::Null => CellValue::Null,
    }
}

fn build_table(pool: &[EntityId], name: String, rows: &[(Cell, Cell)]) -> Table {
    let mut t = Table::new(name, vec!["a".into(), "b".into()]);
    for (a, b) in rows {
        t.push_row(vec![cell(pool, a), cell(pool, b)]);
    }
    t
}

/// Bucket groups in canonical form: per band, a key-sorted map of sorted
/// item lists (bucket item order is implementation noise).
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

/// `Table: PartialEq` treats NaN as unequal to itself, so bit-identity is
/// checked cell by cell with `Number` compared on its bits.
fn assert_tables_bit_equal(a: &Table, b: &Table) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.name, &b.name);
    prop_assert_eq!(&a.columns, &b.columns);
    prop_assert_eq!(a.rows().len(), b.rows().len(), "row count of {}", a.name);
    for (ra, rb) in a.rows().iter().zip(b.rows()) {
        prop_assert_eq!(ra.len(), rb.len());
        for (ca, cb) in ra.iter().zip(rb) {
            let same = match (ca, cb) {
                (CellValue::Number(x), CellValue::Number(y)) => x.to_bits() == y.to_bits(),
                (x, y) => x == y,
            };
            prop_assert!(same, "cell divergence in {}: {ca:?} vs {cb:?}", a.name);
        }
    }
    Ok(())
}

fn temp_path(tag: &str, case: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "thetis-wal-replay-{}-{tag}-{case}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("ckpt"));
    path
}

/// Case counter so concurrent proptest cases in one process never share a
/// journal file.
fn next_case() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CASE: AtomicUsize = AtomicUsize::new(0);
    CASE.fetch_add(1, Ordering::Relaxed)
}

/// The case body: journal + apply each op directly, checkpoint (without
/// rotation) halfway, then recover from checkpoint + journal and compare
/// everything that matters, bit for bit.
fn run_ops(ops: &[Op]) -> Result<(), TestCaseError> {
    let (graph, pool) = graph();
    let case = next_case();
    let wal_path = temp_path("case", case);
    let ckpt_path = wal_path.with_extension("ckpt");

    // The direct path: a lake that applies every mutation in-process, and
    // the journal that records each one *as a batch of one* first.
    let mut direct = DataLake::new();
    let base_epoch = direct.epoch();
    let (mut wal, replay) = Wal::recover(&wal_path).map_err(TestCaseError::Fail)?;
    prop_assert!(replay.records.is_empty());

    let mut live: Vec<TableId> = Vec::new();
    let mut next_name = 0usize;
    let mut checkpointed = false;
    for (i, op) in ops.iter().enumerate() {
        // Halfway through, checkpoint without rotating: replay must skip
        // the already-checkpointed prefix of the journal.
        if i == ops.len() / 2 && i > 0 {
            write_checkpoint(&direct, &ckpt_path).map_err(TestCaseError::Fail)?;
            checkpointed = true;
        }
        let mutation = match op {
            Op::Add(rows) => {
                let name = format!("t{next_name}");
                next_name += 1;
                Mutation::Add(build_table(&pool, name, rows))
            }
            Op::Remove(sel) => {
                if live.is_empty() {
                    continue;
                }
                Mutation::Remove(live[*sel as usize % live.len()])
            }
            Op::Relink(sel, rows) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[*sel as usize % live.len()];
                let name = direct.table(id).name.clone();
                Mutation::Relink(id, build_table(&pool, name, rows))
            }
        };
        wal.append(&WalRecord {
            epoch: direct.epoch() + 1,
            mutation: mutation.clone(),
        })
        .map_err(TestCaseError::Fail)?;
        let id = mutation.apply(&mut direct);
        match op {
            Op::Add(_) => live.push(id),
            Op::Remove(_) => live.retain(|&t| t != id),
            Op::Relink(..) => {}
        }
    }
    drop(wal);

    // The recovery path: last checkpoint (or the empty base), then replay.
    let mut recovered = if checkpointed {
        read_checkpoint(&ckpt_path).map_err(TestCaseError::Fail)?
    } else {
        DataLake::new()
    };
    prop_assert!(recovered.epoch() >= base_epoch);
    let ckpt_epoch = recovered.epoch();
    let (_wal, replay) = Wal::recover(&wal_path).map_err(TestCaseError::Fail)?;
    prop_assert!(!replay.torn, "an intact journal has no torn tail");
    let outcome = apply_replay(&mut recovered, &replay.records).map_err(TestCaseError::Fail)?;
    prop_assert_eq!(
        outcome.applied + outcome.skipped,
        replay.records.len() as u64
    );
    // Replay skips exactly the records the checkpoint already covers.
    let want_skipped = replay
        .records
        .iter()
        .filter(|r| r.epoch <= ckpt_epoch)
        .count() as u64;
    prop_assert_eq!(outcome.skipped, want_skipped);

    // Bit-identity, layer by layer.
    prop_assert_eq!(recovered.epoch(), direct.epoch());
    prop_assert_eq!(recovered.tables().len(), direct.tables().len());
    for (a, b) in recovered.tables().iter().zip(direct.tables()) {
        assert_tables_bit_equal(a, b)?;
    }
    let removed = |l: &DataLake| -> Vec<TableId> { l.removed_ids().collect() };
    prop_assert_eq!(removed(&recovered), removed(&direct));
    prop_assert_eq!(recovered.postings(), direct.postings());
    for (id, _) in direct.iter() {
        prop_assert_eq!(
            recovered.digest(id),
            direct.digest(id),
            "digest of {:?}",
            id
        );
    }

    let cfg = LshConfig::new(32, 8);
    let mk = || TypeSigner::new(&graph, TypeFilter::none(), cfg, 7);
    let lsei_recovered = Lsei::build(&recovered, mk(), cfg, LseiMode::Entity);
    let lsei_direct = Lsei::build(&direct, mk(), cfg, LseiMode::Entity);
    prop_assert_eq!(lsei_recovered.parts().3, lsei_direct.parts().3);
    prop_assert_eq!(
        canonical_buckets(&lsei_recovered),
        canonical_buckets(&lsei_direct)
    );

    let query = Query::single(vec![pool[0], pool[5]]);
    let options = SearchOptions {
        threads: 1,
        ..SearchOptions::top(5)
    };
    let bits = |lake: &DataLake| -> Vec<(TableId, u64)> {
        ThetisEngine::new(&graph, lake, TypeJaccard::new(&graph))
            .search(&query, options)
            .ranked
            .iter()
            .map(|&(t, s)| (t, s.to_bits()))
            .collect()
    };
    prop_assert_eq!(bits(&recovered), bits(&direct));

    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary mutation sequences: checkpoint + journal replay is
    /// bit-identical to direct application.
    #[test]
    fn replay_is_bit_identical_to_direct_mutation(
        ops in proptest::collection::vec(arb_op(), 1..14),
    ) {
        run_ops(&ops)?;
    }
}

/// Seeds pinned for CI, as in the incremental suite: append any seed that
/// ever surfaces a divergence.
const PINNED_SEEDS: &[u64] = &[
    0x0000_0000_0000_0011,
    0x5EED_0000_0000_0012,
    0x5EED_CAFE_F00D_0013,
    0xDEAD_BEEF_0000_0014,
    0xFFFF_FFFF_FFFF_FFEE,
];

#[test]
fn pinned_seeds_replay() {
    use proptest::test_runner::TestRng;
    use rand::SeedableRng;
    let strat = proptest::collection::vec(arb_op(), 1..14);
    for &seed in PINNED_SEEDS {
        let mut rng = TestRng::seed_from_u64(seed);
        let ops = strat.generate(&mut rng);
        if let Err(e) = run_ops(&ops) {
            panic!("pinned seed {seed:#x} diverged: {e:?}\nops: {ops:?}");
        }
    }
}

/// A deterministic smoke case: NaN and -0.0 number cells, churn through
/// all three mutation kinds, recover, compare.
#[test]
fn nan_and_negative_zero_survive_the_journal() {
    let nan = Cell::Number(f64::NAN.to_bits() | 0xDEAD); // payload bits set
    let neg_zero = Cell::Number((-0.0f64).to_bits());
    let ops = vec![
        Op::Add(vec![
            (Cell::Entity(0), nan.clone()),
            (neg_zero.clone(), Cell::Null),
        ]),
        Op::Add(vec![(Cell::Entity(3), Cell::Entity(7))]),
        Op::Relink(0, vec![(nan, Cell::Entity(1))]),
        Op::Remove(1),
        Op::Add(vec![(Cell::Text, neg_zero)]),
    ];
    run_ops(&ops).unwrap();
}
