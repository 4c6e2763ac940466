//! Per-table σ rows: the batched similarity kernel feeding Algorithm 1.
//!
//! For one (query, table) pair every score the engine needs — the §5.1
//! column-relevance matrix, the row aggregation, and the pruning upper
//! bound — draws from the same value set `σ(e, ē)` for query entities `e`
//! and *distinct* table entities `ē`. [`SigmaRows`] materializes that set
//! once per table, one batched lookup per distinct query entity, so σ is
//! consulted once per (query entity, distinct entity) pair instead of once
//! per cell occurrence, and every later consumer is a plain array index.

use thetis_datalake::TableDigest;
use thetis_kg::EntityId;

use crate::cache::MemoRows;
use crate::query::Query;
use crate::similarity::EntitySimilarity;

/// Where one search's σ values come from.
#[derive(Clone, Copy)]
pub enum SigmaSource<'a> {
    /// Evaluate every σ through the similarity, one
    /// [`EntitySimilarity::sim_batch`] call per query entity and table —
    /// the exhaustive reference path.
    Direct(&'a dyn EntitySimilarity),
    /// Gather from the search's memo rows, filling the unset cells (see
    /// [`MemoRows::gather`]). The rows must have been resolved for the
    /// query being scored.
    Memo(&'a MemoRows<'a>),
}

/// The σ values of every distinct query entity against every distinct
/// entity of one table digest: `row(e)[j] = σ(e, digest.distinct[j])`.
#[derive(Debug, Clone)]
pub struct SigmaRows {
    entities: Vec<EntityId>,
    rows: Vec<Vec<f64>>,
}

impl SigmaRows {
    /// Looks up σ for all of `query`'s distinct entities against all of
    /// `digest`'s distinct entities, one batched call per query entity.
    pub fn build(query: &Query, digest: &TableDigest, sigma: SigmaSource<'_>) -> Self {
        // Chaos-testing hook: an armed `sigma` failpoint panics here, which
        // the per-table isolation in `search.rs` must contain.
        thetis_obs::faults::maybe_panic("sigma");
        let n = digest.distinct.len();
        match sigma {
            SigmaSource::Direct(sim) => {
                let entities = query.distinct_entities();
                let rows = entities
                    .iter()
                    .map(|&e| {
                        let mut row = vec![0.0f64; n];
                        sim.sim_batch(e, &digest.distinct, &mut row);
                        row
                    })
                    .collect();
                Self { entities, rows }
            }
            SigmaSource::Memo(memo) => {
                debug_assert_eq!(memo.entities(), query.distinct_entities());
                let rows = (0..memo.entities().len())
                    .map(|i| {
                        let mut row = vec![0.0f64; n];
                        memo.gather(i, &digest.distinct, &mut row);
                        row
                    })
                    .collect();
                Self {
                    entities: memo.entities().to_vec(),
                    rows,
                }
            }
        }
    }

    /// The σ row of query entity `e` (indexed like `digest.distinct`).
    ///
    /// # Panics
    /// Panics if `e` is not a query entity.
    #[inline]
    pub fn row(&self, e: EntityId) -> &[f64] {
        let i = self
            .entities
            .iter()
            .position(|&x| x == e)
            .expect("entity is not part of the query");
        &self.rows[i]
    }

    /// `max_ē σ(e, ē)` over the table's distinct entities, capped at 1 —
    /// the per-entity coordinate of the pruning upper bound. Identical to
    /// folding the scalar σ over the table's entity pool (max is
    /// order-independent).
    pub fn bound_of(&self, e: EntityId) -> f64 {
        self.row(e).iter().copied().fold(0.0f64, f64::max).min(1.0)
    }

    /// The distinct query entities, in first-occurrence order.
    pub fn entities(&self) -> &[EntityId] {
        &self.entities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::TypeJaccard;
    use thetis_datalake::{CellValue, Table};
    use thetis_kg::KgBuilder;

    #[test]
    fn rows_match_scalar_sigma_bitwise() {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let es: Vec<EntityId> = (0..4)
            .map(|i| b.add_entity(&format!("e{i}"), vec![p]))
            .collect();
        let g = b.freeze();
        let sim = TypeJaccard::new(&g);

        let mut t = Table::new("t", vec!["a".into()]);
        for &e in &es[1..] {
            t.push_row(vec![CellValue::LinkedEntity {
                mention: "m".into(),
                entity: e,
            }]);
        }
        let digest = TableDigest::build(&t).unwrap();
        let q = Query::new(vec![vec![es[0], es[1]], vec![es[0]]]);
        let rows = SigmaRows::build(&q, &digest, SigmaSource::Direct(&sim));

        assert_eq!(rows.entities(), &[es[0], es[1]]);
        for &e in rows.entities() {
            for (j, &target) in digest.distinct.iter().enumerate() {
                assert_eq!(rows.row(e)[j].to_bits(), sim.sim(e, target).to_bits());
            }
        }
        // e1 is in the table: its bound is the exact-match 1.0.
        assert_eq!(rows.bound_of(es[1]), 1.0);
        // e0 is not: its best is the same-type cap.
        assert_eq!(rows.bound_of(es[0]), 0.95);
    }

    #[test]
    fn memo_rows_match_direct_rows_bitwise() {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let es: Vec<EntityId> = (0..4)
            .map(|i| b.add_entity(&format!("e{i}"), vec![p]))
            .collect();
        let g = b.freeze();
        let sim = TypeJaccard::new(&g);
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        for &e in &es {
            t.push_row(vec![
                CellValue::LinkedEntity {
                    mention: "m".into(),
                    entity: e,
                },
                CellValue::LinkedEntity {
                    mention: "m".into(),
                    entity: es[0],
                },
            ]);
        }
        let digest = TableDigest::build(&t).unwrap();
        let q = Query::new(vec![vec![es[2], es[0]], vec![es[3]]]);
        let direct = SigmaRows::build(&q, &digest, SigmaSource::Direct(&sim));
        let cache = crate::cache::SimilarityCache::new();
        let memo = cache.rows(
            &sim,
            crate::similarity::SigmaKernel::F64Exact,
            q.distinct_entities(),
            g.entity_count(),
        );
        // Cold and warm gathers both match the direct evaluation.
        for _ in 0..2 {
            let rows = SigmaRows::build(&q, &digest, SigmaSource::Memo(&memo));
            assert_eq!(rows.entities(), direct.entities());
            for &e in direct.entities() {
                let bits = |r: &SigmaRows| r.row(e).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rows), bits(&direct));
            }
        }
        let lookups = (q.distinct_entities().len() * digest.distinct.len()) as u64;
        assert_eq!(memo.stats().computed, lookups);
        assert_eq!(memo.stats().served, lookups);
    }

    #[test]
    #[should_panic(expected = "not part of the query")]
    fn foreign_entity_panics() {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let e0 = b.add_entity("e0", vec![thing]);
        let e1 = b.add_entity("e1", vec![thing]);
        let g = b.freeze();
        let sim = TypeJaccard::new(&g);
        let mut t = Table::new("t", vec!["a".into()]);
        t.push_row(vec![CellValue::LinkedEntity {
            mention: "m".into(),
            entity: e1,
        }]);
        let digest = TableDigest::build(&t).unwrap();
        let rows = SigmaRows::build(&Query::single(vec![e1]), &digest, SigmaSource::Direct(&sim));
        let _ = rows.row(e0);
    }
}
