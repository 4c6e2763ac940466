//! Property-based tests for the LSH layer: the statistical contracts that
//! make prefiltering sound.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use thetis_datalake::{CellValue, DataLake, Table, TableId};
use thetis_kg::{KgBuilder, TypeId};
use thetis_lsh::bands::band_keys;
use thetis_lsh::hyperplane::RandomHyperplanes;
use thetis_lsh::index::LshIndex;
use thetis_lsh::minhash::MinHasher;
use thetis_lsh::shingle::{type_pair_shingles, TypeFilter};
use thetis_lsh::{LshConfig, Signature};

proptest! {
    /// Identical inputs always produce identical signatures, and identical
    /// signatures always collide in every band.
    #[test]
    fn identical_items_always_collide(
        shingles in proptest::collection::btree_set(0u64..1000, 1..20),
        seed in 0u64..100,
    ) {
        let cfg = LshConfig::new(32, 8);
        let hasher = MinHasher::new(cfg.num_vectors, seed);
        let s: Vec<u64> = shingles.into_iter().collect();
        let sig = hasher.sign(&s);
        let mut index = LshIndex::new(cfg);
        index.insert(&sig, 1u32);
        let bag = index.query_bag(&hasher.sign(&s));
        prop_assert_eq!(bag.len(), cfg.bands());
    }

    /// Band keys partition the signature: reassembling them recovers it.
    #[test]
    fn band_keys_partition_signature(bits in proptest::collection::vec(any::<bool>(), 30)) {
        let cfg = LshConfig::new(30, 10);
        let sig = Signature::from_bits(&bits);
        let keys = band_keys(&sig, &cfg);
        prop_assert_eq!(keys.len(), 3);
        for (band, key) in keys.iter().enumerate() {
            for bit in 0..10 {
                let expected = bits[band * 10 + bit];
                prop_assert_eq!((key >> bit) & 1 == 1, expected);
            }
        }
    }

    /// Subsets shingle to subsets: shingles(A) ⊆ shingles(A ∪ B).
    #[test]
    fn shingles_are_monotone_in_the_type_set(
        a in proptest::collection::btree_set(0u32..30, 1..8),
        b in proptest::collection::btree_set(0u32..30, 0..8),
    ) {
        let ta: Vec<TypeId> = a.iter().copied().map(TypeId).collect();
        let mut tu: Vec<TypeId> = a.union(&b).copied().map(TypeId).collect();
        tu.sort_unstable();
        let f = TypeFilter::none();
        let sa: std::collections::HashSet<u64> =
            type_pair_shingles(&ta, &f).into_iter().collect();
        let su: std::collections::HashSet<u64> =
            type_pair_shingles(&tu, &f).into_iter().collect();
        prop_assert!(sa.is_subset(&su));
    }

    /// Hyperplane signatures are invariant under positive scaling.
    #[test]
    fn hyperplane_scale_invariance(
        v in proptest::collection::vec(-1.0f32..1.0, 8),
        scale in 0.1f32..100.0,
        seed in 0u64..50,
    ) {
        let h = RandomHyperplanes::new(8, 64, seed);
        let scaled: Vec<f32> = v.iter().map(|x| x * scale).collect();
        prop_assert_eq!(h.sign(&v), h.sign(&scaled));
    }

    /// Signature agreement of minhash never exceeds 1 and is reflexive.
    #[test]
    fn minhash_agreement_reflexive(
        s in proptest::collection::btree_set(0u64..500, 1..15),
        seed in 0u64..50,
    ) {
        let h = MinHasher::new(128, seed);
        let shingles: Vec<u64> = s.into_iter().collect();
        let sig = h.sign(&shingles);
        prop_assert_eq!(sig.matching_bits(&sig), 128);
    }

    /// `TypeFilter::from_lake` counts types over the digests with a
    /// per-type last-table stamp; it must ban exactly what the naive
    /// reference — one type set per table from the raw cells — bans, over
    /// unlinked cells and tables, duplicate cells, untyped entities and a
    /// tombstone.
    #[test]
    fn type_filter_matches_naive_per_table_type_sets(
        tables in proptest::collection::vec(proptest::collection::vec(0u8..=12, 0..8), 1..8),
        tombstone in 0u8..16,
        percent in 0u32..=100,
    ) {
        // Entity `i` carries the types whose bit is set in `i` (entity 0
        // has none); the selector 12 is an unlinked cell.
        let mut b = KgBuilder::new();
        let types: Vec<TypeId> = (0..4).map(|i| b.add_type(&format!("T{i}"), None)).collect();
        let pool: Vec<_> = (0..12usize)
            .map(|i| {
                let own = (0..4).filter(|bit| i >> bit & 1 == 1).map(|bit| types[bit]);
                b.add_entity(&format!("e{i}"), own.collect())
            })
            .collect();
        let graph = b.freeze();
        let mut lake = DataLake::from_tables(
            tables
                .iter()
                .map(|cells| {
                    let mut t = Table::new("t", vec!["a".into()]);
                    for &c in cells {
                        t.push_row(vec![match pool.get(c as usize) {
                            Some(&entity) => CellValue::LinkedEntity { mention: "m".into(), entity },
                            None => CellValue::Text("unlinked".into()),
                        }]);
                    }
                    t
                })
                .collect(),
        );
        if (tombstone as usize) < lake.len() {
            lake.remove_table(TableId(tombstone as u32));
        }
        let threshold = f64::from(percent) / 100.0;

        let mut table_count: HashMap<TypeId, usize> = HashMap::new();
        for table in lake.tables() {
            let seen: HashSet<TypeId> = table
                .distinct_entities()
                .into_iter()
                .flat_map(|e| graph.types_of(e).iter().copied())
                .collect();
            for t in seen {
                *table_count.entry(t).or_insert(0) += 1;
            }
        }
        let naive: HashSet<TypeId> = table_count
            .into_iter()
            .filter(|&(_, c)| c as f64 / lake.len() as f64 > threshold)
            .map(|(t, _)| t)
            .collect();

        let filter = TypeFilter::from_lake(&lake, &graph, threshold);
        prop_assert_eq!(filter.banned_count(), naive.len());
        for &t in &types {
            prop_assert_eq!(filter.is_banned(t), naive.contains(&t), "type {:?}", t);
        }
    }
}
