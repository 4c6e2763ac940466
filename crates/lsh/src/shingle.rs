//! Type-pair shingling with frequent-type filtering (§6.1).
//!
//! The paper represents an entity by a conceptual bit vector of size
//! `|T| × |T|` whose set positions correspond to *pairs* of the entity's
//! types (a pair with type indices 24 and 48 occupies position "2448").
//! We materialize only the set positions as `u64` shingle ids.
//!
//! Types that occur in more than a configurable fraction of all tables
//! (50% in the paper — think `owl:Thing`) are filtered out before shingling
//! because a type describing more than half the corpus cannot discriminate.

use std::collections::{HashMap, HashSet};

use thetis_datalake::{DataLake, TableId};
use thetis_kg::{KnowledgeGraph, TypeId};

/// A filter suppressing overly frequent types.
#[derive(Debug, Clone, Default)]
pub struct TypeFilter {
    banned: HashSet<TypeId>,
}

impl TypeFilter {
    /// A filter that bans nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a filter from corpus statistics: a type is banned when the
    /// fraction of tables containing at least one entity with that type
    /// exceeds `threshold` (the paper uses `0.5`). Counts over the lake's
    /// digests, so no cell is walked again.
    ///
    /// # Panics
    /// Panics if tables were mutated since the last rebuild or refresh
    /// (the same condition as [`DataLake::postings`]).
    pub fn from_lake(lake: &DataLake, graph: &KnowledgeGraph, threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        let n_tables = lake.len();
        if n_tables == 0 {
            return Self::none();
        }
        assert!(
            lake.digests_fresh(),
            "digests are stale; call rebuild_postings() after mutating tables"
        );
        // Per type: (tables counted so far, id of the last table counted),
        // so a type shared by many entities of one table counts once.
        let mut table_count: HashMap<TypeId, (usize, TableId)> = HashMap::new();
        for (id, _) in lake.iter() {
            let Some(digest) = lake.digest(id) else {
                continue;
            };
            for &e in &digest.distinct {
                for &t in graph.types_of(e) {
                    let slot = table_count.entry(t).or_insert((0, id));
                    if slot.0 == 0 || slot.1 != id {
                        *slot = (slot.0 + 1, id);
                    }
                }
            }
        }
        let banned = table_count
            .into_iter()
            .filter(|&(_, (c, _))| c as f64 / n_tables as f64 > threshold)
            .map(|(t, _)| t)
            .collect();
        Self { banned }
    }

    /// Whether `t` is filtered out.
    #[inline]
    pub fn is_banned(&self, t: TypeId) -> bool {
        self.banned.contains(&t)
    }

    /// Number of banned types.
    pub fn banned_count(&self) -> usize {
        self.banned.len()
    }

    /// Applies the filter to a type set, preserving order.
    pub fn apply<'a>(&'a self, types: &'a [TypeId]) -> impl Iterator<Item = TypeId> + 'a {
        types.iter().copied().filter(move |&t| !self.is_banned(t))
    }
}

/// Produces the type-pair shingle set of a (sorted) type list after
/// filtering. Pairs are unordered `(a, b)` with `a ≤ b`; the diagonal
/// `(a, a)` is included so single-type entities still produce a signature.
pub fn type_pair_shingles(types: &[TypeId], filter: &TypeFilter) -> Vec<u64> {
    let kept: Vec<TypeId> = filter.apply(types).collect();
    let mut shingles = Vec::with_capacity(kept.len() * (kept.len() + 1) / 2);
    for (i, &a) in kept.iter().enumerate() {
        for &b in &kept[i..] {
            shingles.push(pair_id(a, b));
        }
    }
    shingles
}

/// The shingle id of an unordered type pair: position in the conceptual
/// `|T| × |T|` bit matrix, flattened with 32-bit coordinates.
#[inline]
fn pair_id(a: TypeId, b: TypeId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    (u64::from(lo) << 32) | u64::from(hi)
}

/// Merges the filtered type sets of several entities into one shingle set —
/// the column-aggregation variant of §6.2.
pub fn merged_type_shingles(
    type_sets: impl IntoIterator<Item = Vec<TypeId>>,
    filter: &TypeFilter,
) -> Vec<u64> {
    let mut merged: Vec<TypeId> = type_sets.into_iter().flatten().collect();
    merged.sort_unstable();
    merged.dedup();
    type_pair_shingles(&merged, filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thetis_datalake::{CellValue, Table};
    use thetis_kg::KgBuilder;

    fn tys(ids: &[u32]) -> Vec<TypeId> {
        ids.iter().copied().map(TypeId).collect()
    }

    #[test]
    fn shingles_are_all_unordered_pairs() {
        let s = type_pair_shingles(&tys(&[1, 2, 3]), &TypeFilter::none());
        assert_eq!(s.len(), 6); // (1,1)(1,2)(1,3)(2,2)(2,3)(3,3)
        assert!(s.contains(&pair_id(TypeId(1), TypeId(3))));
        assert_eq!(pair_id(TypeId(3), TypeId(1)), pair_id(TypeId(1), TypeId(3)));
    }

    #[test]
    fn single_type_entities_get_diagonal_shingle() {
        let s = type_pair_shingles(&tys(&[7]), &TypeFilter::none());
        assert_eq!(s, vec![pair_id(TypeId(7), TypeId(7))]);
    }

    #[test]
    fn filter_from_lake_bans_ubiquitous_types() {
        // KG: Thing (on everything), Rare (on one entity).
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let rare = b.add_type("Rare", Some(thing));
        let e1 = b.add_entity("e1", vec![rare]);
        let e2 = b.add_entity("e2", vec![thing]);
        let g = b.freeze();

        let mk = |e: thetis_kg::EntityId| {
            let mut t = Table::new("t", vec!["a".into()]);
            t.push_row(vec![CellValue::LinkedEntity {
                mention: "m".into(),
                entity: e,
            }]);
            t
        };
        // 3 tables: Thing appears in all 3 (>50%), Rare in 1 of 3.
        let lake = DataLake::from_tables(vec![mk(e1), mk(e2), mk(e2)]);
        let f = TypeFilter::from_lake(&lake, &g, 0.5);
        assert!(f.is_banned(thing));
        assert!(!f.is_banned(rare));
        assert_eq!(f.banned_count(), 1);
    }

    #[test]
    fn filtered_types_do_not_shingle() {
        let mut f = TypeFilter::none();
        f.banned.insert(TypeId(1));
        let s = type_pair_shingles(&tys(&[1, 2]), &f);
        assert_eq!(s, vec![pair_id(TypeId(2), TypeId(2))]);
    }

    #[test]
    fn merged_shingles_union_type_sets() {
        let s = merged_type_shingles(vec![tys(&[1, 2]), tys(&[2, 3])], &TypeFilter::none());
        // merged set {1,2,3} → 6 pairs
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn empty_type_set_yields_no_shingles() {
        assert!(type_pair_shingles(&[], &TypeFilter::none()).is_empty());
    }
}
