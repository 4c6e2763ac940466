//! The rebuild-equivalence proof for incremental lake mutation.
//!
//! The delta paths — [`DataLake::add_table`], [`DataLake::remove_table`],
//! [`DataLake::relink_table`] and their LSEI mirrors `Lsei::insert_table`
//! / `remove_table` / `relink_table` — claim to produce *exactly* the
//! state a rebuild from scratch produces. This suite drives arbitrary
//! interleavings of add/remove/relink/search and checks, **after every
//! single step**:
//!
//! * entity→table postings: exactly equal (posting lists are ascending on
//!   both sides, so plain `HashMap` equality applies), and the rebuild's
//!   digest-derived postings exactly equal to a raw `distinct_entities()`
//!   walk over the same tables;
//! * per-table digests: exactly equal (`TableDigest: PartialEq`);
//! * LSEI band buckets: equal in canonical form (per band, key-sorted
//!   buckets of sorted items — `HashMap` iteration order makes even two
//!   identical rebuilds shuffle bucket *item order*, so equivalence is up
//!   to that order and nothing else), in both Entity and Column modes;
//! * top-k rankings: bit-identical scores (`f64::to_bits`) in the same
//!   order.
//!
//! Before each step the same op is also applied to a [`DataLake::fork`] of
//! the lake and to a deep clone of it: the fork must come out equal to the
//! clone, and the lake it was forked from must not have moved (the
//! copy-on-write guarantee `EpochLake::commit` publishes snapshots on).
//!
//! The vendored proptest runner is fully deterministic (seeded from the
//! test name), so the random cases themselves replay identically on every
//! run. On top of that, [`PINNED_SEEDS`] pins a set of explicit RNG seeds
//! that `pinned_seeds_replay` drives through the same harness in CI —
//! seeds that once exposed a divergence get appended there and are then
//! re-checked forever.

use std::collections::HashMap;

use proptest::prelude::*;
use thetis_core::{Query, SearchOptions, ThetisEngine, TypeJaccard};
use thetis_datalake::{CellValue, DataLake, Table, TableId};
use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};
use thetis_lsh::lsei::{Lsei, LseiMode, TypeSigner};
use thetis_lsh::{LshConfig, TypeFilter};

/// Entity pool size: small enough that tables share entities constantly
/// (posting lists shrink, grow, and empty out), large enough for distinct
/// type signatures.
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

/// One mutation or probe of the interleaving. Table selectors are drawn
/// as raw bytes and resolved against the *live* (non-tombstoned) table
/// set at execution time, so every generated sequence is applicable.
#[derive(Debug, Clone)]
enum Op {
    Add(Vec<(Option<u8>, Option<u8>)>),
    Remove(u8),
    Relink(u8, Vec<(Option<u8>, Option<u8>)>),
    Search(Vec<u8>),
}

/// A cell selector: `POOL` is the sentinel for an unlinked (text) cell,
/// anything below picks a pool entity.
fn arb_cell() -> impl Strategy<Value = Option<u8>> {
    (0u8..=POOL).prop_map(|v| (v < POOL).then_some(v))
}

fn arb_rows() -> impl Strategy<Value = Vec<(Option<u8>, Option<u8>)>> {
    proptest::collection::vec((arb_cell(), arb_cell()), 0..6)
}

/// Weighted 3:2:3:2 over Add/Remove/Relink/Search via a discriminant draw
/// (the vendored proptest has no `prop_oneof!`).
fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        arb_rows(),
        any::<u8>(),
        proptest::collection::vec(0u8..POOL, 1..4),
    )
        .prop_map(|(d, rows, sel, q)| match d {
            0..=2 => Op::Add(rows),
            3..=4 => Op::Remove(sel),
            5..=7 => Op::Relink(sel, rows),
            _ => Op::Search(q),
        })
}

fn cell(pool: &[EntityId], e: Option<u8>) -> CellValue {
    match e {
        Some(i) => CellValue::LinkedEntity {
            mention: format!("e{i}"),
            entity: pool[i as usize],
        },
        None => CellValue::Text("unlinked".into()),
    }
}

fn build_table(pool: &[EntityId], name: String, rows: &[(Option<u8>, Option<u8>)]) -> Table {
    let mut t = Table::new(name, vec!["a".into(), "b".into()]);
    for &(a, b) in rows {
        t.push_row(vec![cell(pool, a), cell(pool, b)]);
    }
    t
}

/// Two lakes a reader cannot tell apart: tables, postings, every digest,
/// epoch and tombstones.
fn assert_same_lake(a: &DataLake, b: &DataLake) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.tables(), b.tables());
    prop_assert_eq!(a.postings(), b.postings());
    for (id, _) in a.iter() {
        prop_assert_eq!(a.digest(id), b.digest(id), "digest divergence at {:?}", id);
    }
    prop_assert_eq!(a.epoch(), b.epoch());
    prop_assert_eq!(
        a.removed_ids().collect::<Vec<_>>(),
        b.removed_ids().collect::<Vec<_>>()
    );
    Ok(())
}

/// Bucket groups in canonical form: per band, a key-sorted map of sorted
/// item lists.
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

struct Harness<'g> {
    graph: &'g KnowledgeGraph,
    pool: &'g [EntityId],
    cfg: LshConfig,
    lake: DataLake,
    entity_lsei: Lsei<TypeSigner<'g>>,
    column_lsei: Lsei<TypeSigner<'g>>,
    live: Vec<TableId>,
    next_name: usize,
}

impl<'g> Harness<'g> {
    fn new(graph: &'g KnowledgeGraph, pool: &'g [EntityId]) -> Self {
        let cfg = LshConfig::new(32, 8);
        let lake = DataLake::new();
        let mk = || TypeSigner::new(graph, TypeFilter::none(), cfg, 7);
        let entity_lsei = Lsei::build(&lake, mk(), cfg, LseiMode::Entity);
        let column_lsei = Lsei::build(&lake, mk(), cfg, LseiMode::Column);
        Self {
            graph,
            pool,
            cfg,
            lake,
            entity_lsei,
            column_lsei,
            live: Vec::new(),
            next_name: 0,
        }
    }

    fn signer(&self) -> TypeSigner<'g> {
        TypeSigner::new(self.graph, TypeFilter::none(), self.cfg, 7)
    }

    /// Resolves a raw selector to a live table id, if any table is live.
    fn pick(&self, sel: u8) -> Option<TableId> {
        if self.live.is_empty() {
            None
        } else {
            Some(self.live[sel as usize % self.live.len()])
        }
    }

    /// The lake half of `op` on `lake`, which must be in the harness
    /// lake's state. A relink writes *in place* (`rows_mut`, `push_row`)
    /// where [`Harness::apply`] replaces the table whole: on a fork that
    /// is the write that has to copy the shared rows first.
    fn apply_to(&self, lake: &mut DataLake, op: &Op) {
        match op {
            Op::Add(rows) => {
                let name = format!("t{}", self.next_name);
                lake.add_table(build_table(self.pool, name, rows));
            }
            Op::Remove(sel) => {
                if let Some(id) = self.pick(*sel) {
                    lake.remove_table(id);
                }
            }
            Op::Relink(sel, rows) => {
                if let Some(id) = self.pick(*sel) {
                    let new = build_table(self.pool, String::new(), rows);
                    lake.relink_table(id, |dst| {
                        for (old, new) in dst.rows_mut().iter_mut().zip(new.rows()) {
                            old.clone_from(new);
                        }
                        for extra in new.rows().iter().skip(dst.n_rows()) {
                            dst.push_row(extra.clone());
                        }
                    });
                }
            }
            Op::Search(_) => {}
        }
    }

    /// `op` on a fork of the lake equals `op` on a deep clone of it, and
    /// leaves the lake itself exactly as a deep clone taken beforehand.
    fn check_fork(&self, op: &Op) -> Result<(), TestCaseError> {
        let mut deep = self.lake.clone();
        let mut fork = self.lake.fork();
        self.apply_to(&mut fork, op);
        assert_same_lake(&self.lake, &deep)?;
        self.apply_to(&mut deep, op);
        assert_same_lake(&fork, &deep)
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        self.check_fork(op)?;
        match op {
            Op::Add(rows) => {
                let name = format!("t{}", self.next_name);
                self.next_name += 1;
                let t = build_table(self.pool, name, rows);
                let id = self.lake.add_table(t.clone());
                self.entity_lsei.insert_table(id, &t);
                self.column_lsei.insert_table(id, &t);
                self.live.push(id);
            }
            Op::Remove(sel) => {
                let Some(id) = self.pick(*sel) else {
                    return Ok(());
                };
                let old = self.lake.remove_table(id);
                self.entity_lsei.remove_table(id, &old);
                self.column_lsei.remove_table(id, &old);
                self.live.retain(|&t| t != id);
            }
            Op::Relink(sel, rows) => {
                let Some(id) = self.pick(*sel) else {
                    return Ok(());
                };
                let old = self.lake.table(id).clone();
                let new = build_table(self.pool, old.name.clone(), rows);
                let replacement = new.clone();
                self.lake.relink_table(id, move |dst| *dst = replacement);
                self.entity_lsei.relink_table(id, &old, &new);
                self.column_lsei.relink_table(id, &old, &new);
            }
            Op::Search(entities) => {
                self.check_search(entities)?;
            }
        }
        self.check_equivalence()
    }

    /// The heart of the proof: a lake rebuilt from scratch over the very
    /// same table vector must be indistinguishable from the delta state.
    fn check_equivalence(&self) -> Result<(), TestCaseError> {
        let rebuilt = DataLake::from_tables(self.lake.tables().to_vec());
        prop_assert_eq!(self.lake.postings(), rebuilt.postings());
        // A rebuild derives postings from the digests; the reference is
        // the raw cell walk it replaced (`distinct_entities()` per table,
        // ids pushed in `0..n` order) over the same unlinked tables,
        // tombstones and duplicate cells.
        let mut raw_walk: HashMap<EntityId, Vec<TableId>> = HashMap::new();
        for (id, table) in rebuilt.iter() {
            for e in table.distinct_entities() {
                raw_walk.entry(e).or_default().push(id);
            }
        }
        prop_assert_eq!(rebuilt.postings(), &raw_walk);
        for (id, _) in self.lake.iter() {
            prop_assert_eq!(
                self.lake.digest(id),
                rebuilt.digest(id),
                "digest divergence at {:?}",
                id
            );
        }
        let entity_rebuilt = Lsei::build(&rebuilt, self.signer(), self.cfg, LseiMode::Entity);
        prop_assert_eq!(self.entity_lsei.parts().3, entity_rebuilt.parts().3);
        prop_assert_eq!(
            canonical_buckets(&self.entity_lsei),
            canonical_buckets(&entity_rebuilt)
        );
        let column_rebuilt = Lsei::build(&rebuilt, self.signer(), self.cfg, LseiMode::Column);
        prop_assert_eq!(
            canonical_buckets(&self.column_lsei),
            canonical_buckets(&column_rebuilt)
        );
        Ok(())
    }

    fn check_search(&self, entities: &[u8]) -> Result<(), TestCaseError> {
        let rebuilt = DataLake::from_tables(self.lake.tables().to_vec());
        let query = Query::single(
            entities
                .iter()
                .map(|&i| self.pool[i as usize % self.pool.len()])
                .collect(),
        );
        let options = SearchOptions {
            threads: 1,
            ..SearchOptions::top(5)
        };
        let sim = TypeJaccard::new(self.graph);
        let delta_rank = ThetisEngine::new(self.graph, &self.lake, sim).search(&query, options);
        let sim = TypeJaccard::new(self.graph);
        let rebuilt_rank = ThetisEngine::new(self.graph, &rebuilt, sim).search(&query, options);
        // Bit-identical: same tables, same order, same score bits.
        let bits = |r: &thetis_core::SearchResult| -> Vec<(TableId, u64)> {
            r.ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
        };
        prop_assert_eq!(bits(&delta_rank), bits(&rebuilt_rank));

        // The prefilters agree too (delta vs rebuilt index).
        let entity_rebuilt = Lsei::build(&rebuilt, self.signer(), self.cfg, LseiMode::Entity);
        let q: Vec<EntityId> = query.tuples[0].clone();
        prop_assert_eq!(
            self.entity_lsei.prefilter(&q, 1).tables,
            entity_rebuilt.prefilter(&q, 1).tables
        );
        Ok(())
    }
}

/// Shared case body: drive one op sequence through the harness, checking
/// rebuild equivalence after every step and once more at the end.
fn run_ops(ops: &[Op]) -> Result<(), TestCaseError> {
    let (graph, pool) = graph();
    let mut h = Harness::new(&graph, &pool);
    for op in ops {
        h.apply(op)?;
    }
    // One final probe regardless of how the sequence ended.
    h.check_search(&[0, 5])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of add/remove/relink/search: the delta
    /// state is bit-identical to rebuild-from-scratch after every step.
    #[test]
    fn interleaved_mutation_is_bit_identical_to_rebuild(
        ops in proptest::collection::vec(arb_op(), 1..14),
    ) {
        run_ops(&ops)?;
    }
}

/// Seeds pinned for CI: each drives a deterministic op sequence through
/// the full equivalence check. Append the offending seed here whenever a
/// run ever surfaces a divergence, so it stays covered.
const PINNED_SEEDS: &[u64] = &[
    0x0000_0000_0000_0001,
    0x5EED_0000_0000_0002,
    0x5EED_CAFE_F00D_0003,
    0xDEAD_BEEF_0000_0004,
    0xFFFF_FFFF_FFFF_FFFE,
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

/// A deterministic smoke case (fast, no proptest machinery): grow, churn,
/// shrink to empty, grow again.
#[test]
fn churn_to_empty_and_back() {
    let (graph, pool) = graph();
    let mut h = Harness::new(&graph, &pool);
    let rows = |xs: &[u8]| -> Vec<(Option<u8>, Option<u8>)> {
        xs.iter().map(|&x| (Some(x), Some(x % 4))).collect()
    };
    h.apply(&Op::Add(rows(&[0, 1, 2]))).unwrap();
    h.apply(&Op::Add(rows(&[2, 3]))).unwrap();
    h.apply(&Op::Relink(0, rows(&[7, 8]))).unwrap();
    h.apply(&Op::Search(vec![2, 7])).unwrap();
    h.apply(&Op::Remove(0)).unwrap();
    h.apply(&Op::Remove(0)).unwrap();
    assert!(h.live.is_empty());
    h.apply(&Op::Search(vec![1])).unwrap();
    h.apply(&Op::Add(rows(&[4, 5, 6]))).unwrap();
    h.apply(&Op::Search(vec![4])).unwrap();
}
