//! The SemRel relevance score (§4.1, §5.2 — Eq. 1–3).
//!
//! A target tuple is mapped to a point `p_T = ⟨x_1, ..., x_m⟩` in `[0,1]^m`
//! (one dimension per query entity, `x_i = σ(e_i, μ(e_i))`, 0 when
//! unmapped); relevance is the informativeness-weighted Euclidean distance
//! from the perfect match `⟨1, ..., 1⟩` converted into a similarity:
//!
//! ```text
//! D_I(p_Q, p_T) = sqrt( Σ_i I(e_i) · (1 − x_i)² )        (Eq. 2)
//! SemRel(t_Q, t_T) = 1 / (D_I + 1)                        (Eq. 3)
//! ```
//!
//! For a whole table, per-row scores are aggregated per query entity with
//! either the maximum or the average ([`RowAgg`]; the paper finds max up to
//! 5× better, which our ablation experiment reproduces), and the final
//! query score averages over query tuples (Eq. 1, `SemRel_MAX`).

use thetis_datalake::{Table, TableDigest};

use crate::hungarian::max_assignment;
use crate::mapping::ColumnMapping;
use crate::query::EntityTuple;
use crate::sigma::SigmaRows;
use crate::similarity::EntitySimilarity;

/// How per-row similarity scores are aggregated across table rows
/// (Algorithm 1, line 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowAgg {
    /// Maximum similarity over rows — amplifies the best-matching tuple.
    #[default]
    Max,
    /// Average similarity over rows.
    Avg,
}

/// Converts per-query-entity aggregated similarities `x_i` into the SemRel
/// score via the weighted distance of Eq. 2–3, where `w_i` is the
/// informativeness weight `I(e_i)` of the same query entity (see
/// [`Informativeness::query_weights`](crate::Informativeness::query_weights)).
pub fn distance_score(x: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), w.len());
    let mut sum = 0.0;
    for (&xi, &wi) in x.iter().zip(w) {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&xi), "x_i out of range: {xi}");
        let d = 1.0 - xi;
        sum += wi * d * d;
    }
    1.0 / (sum.sqrt() + 1.0)
}

/// Scores one query tuple against a whole table, given the column mapping
/// `τ` (lines 6–14 of Algorithm 1) and the tuple's weights `w` (one per
/// entity, as for [`distance_score`]), by walking the raw rows — the
/// reference the digest path is checked against. Returns the score
/// together with the per-query-entity aggregated similarities
/// `⟨x_1, ..., x_m⟩` that entered Eq. 2 (the coordinates of the tuple's
/// point in the SemRel space — what a flight recorder or explanation wants).
pub fn tuple_table_score(
    tuple: &EntityTuple,
    table: &Table,
    mapping: &ColumnMapping,
    sim: &dyn EntitySimilarity,
    w: &[f64],
    agg: RowAgg,
) -> (f64, Vec<f64>) {
    let m = tuple.len();
    let mut acc = vec![0.0f64; m];
    let n_rows = table.n_rows();
    for row in table.rows() {
        for (i, &e) in tuple.iter().enumerate() {
            let s = match mapping.columns[i] {
                Some(col) => match row[col].entity() {
                    Some(target) => sim.sim(e, target),
                    None => 0.0,
                },
                None => 0.0,
            };
            match agg {
                RowAgg::Max => {
                    if s > acc[i] {
                        acc[i] = s;
                    }
                }
                RowAgg::Avg => acc[i] += s,
            }
        }
    }
    if agg == RowAgg::Avg && n_rows > 0 {
        for a in &mut acc {
            *a /= n_rows as f64;
        }
    }
    let score = distance_score(&acc, w);
    (score, acc)
}

/// [`tuple_table_score`] over a table digest and precomputed σ
/// rows — bit-identical output without touching raw rows.
///
/// [`RowAgg::Max`] folds over the mapped column's *distinct* entities (the
/// maximum of a multiset ignores multiplicity). [`RowAgg::Avg`] replays the
/// mapped column's linked cells in row order — the digest stores them in
/// exactly the order the raw walk visits them, and the unlinked cells the
/// raw walk adds contribute `+0.0`, which is a bitwise no-op on the
/// non-negative accumulator — then divides by the full row count.
pub fn tuple_table_score_digest(
    tuple: &EntityTuple,
    digest: &TableDigest,
    mapping: &ColumnMapping,
    sigma: &SigmaRows,
    w: &[f64],
    agg: RowAgg,
) -> (f64, Vec<f64>) {
    let mut acc = vec![0.0f64; tuple.len()];
    for (i, &e) in tuple.iter().enumerate() {
        let Some(col) = mapping.columns[i] else {
            continue;
        };
        let col = &digest.columns[col];
        let row = sigma.row(e);
        match agg {
            RowAgg::Max => {
                let mut best = 0.0f64;
                for &idx in &col.entities {
                    let s = row[idx as usize];
                    if s > best {
                        best = s;
                    }
                }
                acc[i] = best;
            }
            RowAgg::Avg => {
                let mut sum = 0.0f64;
                for &idx in &col.cells {
                    sum += row[idx as usize];
                }
                acc[i] = sum;
            }
        }
    }
    if agg == RowAgg::Avg && digest.n_rows > 0 {
        for a in &mut acc {
            *a /= digest.n_rows as f64;
        }
    }
    let score = distance_score(&acc, w);
    (score, acc)
}

/// SemRel between two entity tuples (§4.1): the target tuple is treated as
/// a one-row table and the relevant mapping `μ` is the injective assignment
/// maximizing the summed similarity. `w` weighs the query's entities, as
/// for [`distance_score`].
pub fn tuple_tuple_semrel(
    query: &EntityTuple,
    target: &EntityTuple,
    sim: &dyn EntitySimilarity,
    w: &[f64],
) -> f64 {
    let matrix: Vec<Vec<f64>> = query
        .iter()
        .map(|&eq| target.iter().map(|&et| sim.sim(eq, et)).collect())
        .collect();
    let (assign, _) = max_assignment(&matrix);
    let x: Vec<f64> = assign
        .iter()
        .enumerate()
        .map(|(i, a)| a.map_or(0.0, |j| matrix[i][j]))
        .collect();
    distance_score(&x, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::TypeJaccard;
    use thetis_datalake::CellValue;
    use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};

    fn graph() -> (KnowledgeGraph, Vec<EntityId>, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let t = b.add_type("Team", Some(thing));
        let players = (0..3)
            .map(|i| b.add_entity(&format!("p{i}"), vec![p]))
            .collect();
        let teams = (0..3)
            .map(|i| b.add_entity(&format!("t{i}"), vec![t]))
            .collect();
        (b.freeze(), players, teams)
    }

    #[test]
    fn perfect_match_scores_one() {
        let (g, players, _) = graph();
        let sim = TypeJaccard::new(&g);
        let q = vec![players[0]];
        let s = tuple_tuple_semrel(&q, &q, &sim, &[1.0]);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn exact_beats_related_beats_unrelated() {
        let (g, players, teams) = graph();
        let sim = TypeJaccard::new(&g);
        let w = [1.0; 2];
        let q = vec![players[0], teams[0]];
        let exact = tuple_tuple_semrel(&q, &vec![players[0], teams[0]], &sim, &w);
        let related = tuple_tuple_semrel(&q, &vec![players[1], teams[1]], &sim, &w);
        let partial = tuple_tuple_semrel(&q, &vec![players[0]], &sim, &w);
        assert!(exact > related, "{exact} vs {related}");
        assert!(exact > partial, "{exact} vs {partial}");
        assert!(related > 0.0 && partial > 0.0);
    }

    #[test]
    fn asymmetry_favors_smaller_query() {
        // t2 ⊂ t1: SemRel(t1, t2) ≤ SemRel(t2, t1) (§4.1 consistency).
        let (g, players, teams) = graph();
        let sim = TypeJaccard::new(&g);
        let t1 = vec![players[0], teams[0]];
        let t2 = vec![teams[0]];
        let big_to_small = tuple_tuple_semrel(&t1, &t2, &sim, &[1.0; 2]);
        let small_to_big = tuple_tuple_semrel(&t2, &t1, &sim, &[1.0]);
        assert!(big_to_small <= small_to_big);
        assert_eq!(small_to_big, 1.0);
    }

    fn one_col_table(entities: &[EntityId]) -> Table {
        let mut t = Table::new("t", vec!["c".into()]);
        for &e in entities {
            t.push_row(vec![CellValue::LinkedEntity {
                mention: "m".into(),
                entity: e,
            }]);
        }
        t
    }

    #[test]
    fn max_agg_amplifies_best_row() {
        let (g, players, teams) = graph();
        let sim = TypeJaccard::new(&g);
        // Table rows: the exact player + two teams (poor matches).
        let table = one_col_table(&[players[0], teams[0], teams[1]]);
        let mapping = ColumnMapping {
            columns: vec![Some(0)],
        };
        let q = vec![players[0]];
        let max_s = tuple_table_score(&q, &table, &mapping, &sim, &[1.0], RowAgg::Max).0;
        let avg_s = tuple_table_score(&q, &table, &mapping, &sim, &[1.0], RowAgg::Avg).0;
        assert_eq!(max_s, 1.0); // best row is the exact match
        assert!(avg_s < max_s);
    }

    #[test]
    fn digest_tuple_score_is_bit_identical_to_raw() {
        let (g, players, teams) = graph();
        let sim = TypeJaccard::new(&g);
        // A table with an unlinked row and a mixed column, the shapes the
        // digest compresses away.
        let mut table = Table::new("t", vec!["a".into(), "b".into()]);
        let link = |e: EntityId| CellValue::LinkedEntity {
            mention: "m".into(),
            entity: e,
        };
        table.push_row(vec![link(players[0]), link(teams[0])]);
        table.push_row(vec![CellValue::Text("x".into()), link(teams[1])]);
        table.push_row(vec![CellValue::Null, CellValue::Null]);
        table.push_row(vec![link(players[1]), CellValue::Text("y".into())]);
        let digest = thetis_datalake::TableDigest::build(&table).unwrap();

        let tuple = vec![players[0], teams[1]];
        let w = [0.25, 0.75];
        let query = crate::query::Query::single(tuple.clone());
        let sigma = SigmaRows::build(&query, &digest, crate::sigma::SigmaSource::Direct(&sim));
        for mapping in [
            ColumnMapping {
                columns: vec![Some(0), Some(1)],
            },
            ColumnMapping {
                columns: vec![Some(1), None],
            },
        ] {
            for agg in [RowAgg::Max, RowAgg::Avg] {
                let (raw, raw_xs) = tuple_table_score(&tuple, &table, &mapping, &sim, &w, agg);
                let (fast, fast_xs) =
                    tuple_table_score_digest(&tuple, &digest, &mapping, &sigma, &w, agg);
                assert_eq!(raw.to_bits(), fast.to_bits(), "{agg:?} {mapping:?}");
                for (r, f) in raw_xs.iter().zip(&fast_xs) {
                    assert_eq!(r.to_bits(), f.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_table_scores_at_floor() {
        let (g, players, _) = graph();
        let sim = TypeJaccard::new(&g);
        let table = one_col_table(&[]);
        let mapping = ColumnMapping {
            columns: vec![Some(0)],
        };
        let q = vec![players[0]];
        let s = tuple_table_score(&q, &table, &mapping, &sim, &[1.0], RowAgg::Avg).0;
        assert_eq!(s, 0.5); // x = 0 → D = 1 → 1/(1+1)
    }

    #[test]
    fn unmapped_entities_count_as_zero() {
        let (g, players, teams) = graph();
        let sim = TypeJaccard::new(&g);
        let table = one_col_table(&[players[0]]);
        let mapping = ColumnMapping {
            columns: vec![Some(0), None],
        };
        let q = vec![players[0], teams[0]];
        let s = tuple_table_score(&q, &table, &mapping, &sim, &[1.0; 2], RowAgg::Max).0;
        // x = (1, 0) → D = 1 → 0.5
        assert_eq!(s, 0.5);
    }

    #[test]
    fn informativeness_weights_shift_scores() {
        let (g, players, teams) = graph();
        let sim = TypeJaccard::new(&g);
        let q = vec![players[0], teams[0]];
        // Uniform: missing the team costs sqrt(1).
        let s_uniform = tuple_tuple_semrel(&q, &vec![players[0]], &sim, &[1.0, 1.0]);
        assert!((s_uniform - 0.5).abs() < 1e-12);
        // A weight that discounts the team (a ubiquitous entity) makes the
        // same miss cheaper: sqrt(0.25) = 0.5.
        let s_weighted = tuple_tuple_semrel(&q, &vec![players[0]], &sim, &[1.0, 0.25]);
        assert!((s_weighted - 1.0 / 1.5).abs() < 1e-12);
        assert_eq!(distance_score(&[1.0, 0.0], &[1.0, 0.25]), s_weighted);
    }
}
