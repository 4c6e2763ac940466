//! Query-tuple → table-column mapping `τ` (§5.1).
//!
//! The column-relevance of query entity `e_i` and column `C_j` is
//! `score(e_i, C_j) = Σ_{ē ∈ C_j} σ(e_i, ē)`; the Hungarian method then
//! assigns each query entity to a distinct column maximizing the summed
//! score. The mapping is computed once per (query tuple, table) and reused
//! for every row.

use thetis_datalake::{Table, TableDigest};

use crate::hungarian::max_assignment;
use crate::query::EntityTuple;
use crate::sigma::SigmaRows;
use crate::similarity::EntitySimilarity;

/// The column assignment of one query tuple in one table:
/// `columns[i]` is the column index of query entity `i`, or `None` when the
/// table has fewer columns than the tuple has entities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMapping {
    /// Per-query-entity column assignment.
    pub columns: Vec<Option<usize>>,
}

/// Builds the score matrix `S` of §5.1 for one tuple and one table.
pub fn score_matrix(
    tuple: &EntityTuple,
    table: &Table,
    sim: &dyn EntitySimilarity,
) -> Vec<Vec<f64>> {
    let n_cols = table.n_cols();
    let mut matrix = vec![vec![0.0f64; n_cols]; tuple.len()];
    // Iterate row-major over the table once; cells without links contribute 0.
    for row in table.rows() {
        for (j, cell) in row.iter().enumerate() {
            if let Some(target) = cell.entity() {
                for (i, &e) in tuple.iter().enumerate() {
                    matrix[i][j] += sim.sim(e, target);
                }
            }
        }
    }
    matrix
}

/// Builds the same score matrix as [`score_matrix`] from a precomputed
/// table digest and σ rows, without touching raw rows or evaluating σ.
///
/// Each column's linked cells are replayed **in row order** (the digest
/// stores them that way), so every `S[i][j]` accumulates the exact same
/// floating-point additions as the raw row walk — the matrices are
/// bit-identical, and so is everything downstream of the Hungarian step.
pub fn score_matrix_digest(
    tuple: &EntityTuple,
    digest: &TableDigest,
    sigma: &SigmaRows,
) -> Vec<Vec<f64>> {
    let n_cols = digest.columns.len();
    let mut matrix = vec![vec![0.0f64; n_cols]; tuple.len()];
    for (i, &e) in tuple.iter().enumerate() {
        let row = sigma.row(e);
        for (j, col) in digest.columns.iter().enumerate() {
            let mut acc = 0.0f64;
            for &idx in &col.cells {
                acc += row[idx as usize];
            }
            matrix[i][j] = acc;
        }
    }
    matrix
}

/// [`map_tuple_to_columns`] over a digest and precomputed σ rows:
/// identical mapping and relevance, no raw-row work.
pub fn map_tuple_to_columns_digest(
    tuple: &EntityTuple,
    digest: &TableDigest,
    sigma: &SigmaRows,
) -> (ColumnMapping, Vec<f64>) {
    assign(&score_matrix_digest(tuple, digest, sigma))
}

/// Computes the optimal column mapping `τ` for `tuple` in `table` by
/// walking the raw rows — the reference the digest path is checked
/// against. Returns the mapping plus, per query entity, the
/// column-relevance score `S[i][τ(i)]` of its assigned column (0 when
/// unassigned) — the evidence behind the Hungarian step's choice.
pub fn map_tuple_to_columns(
    tuple: &EntityTuple,
    table: &Table,
    sim: &dyn EntitySimilarity,
) -> (ColumnMapping, Vec<f64>) {
    assign(&score_matrix(tuple, table, sim))
}

/// The Hungarian assignment over `matrix` plus each assigned pair's
/// column-relevance.
fn assign(matrix: &[Vec<f64>]) -> (ColumnMapping, Vec<f64>) {
    let (columns, _) = max_assignment(matrix);
    let relevance = columns
        .iter()
        .enumerate()
        .map(|(i, c)| c.map_or(0.0, |j| matrix[i][j]))
        .collect();
    (ColumnMapping { columns }, relevance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thetis_datalake::CellValue;
    use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};

    /// KG with players (type P) and teams (type T); a table with a player
    /// column and a team column.
    fn fixture() -> (KnowledgeGraph, Table, Vec<EntityId>, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let t = b.add_type("Team", Some(thing));
        let players: Vec<EntityId> = (0..3)
            .map(|i| b.add_entity(&format!("p{i}"), vec![p]))
            .collect();
        let teams: Vec<EntityId> = (0..3)
            .map(|i| b.add_entity(&format!("t{i}"), vec![t]))
            .collect();
        let g = b.freeze();

        let mut table = Table::new("roster", vec!["Player".into(), "Team".into()]);
        for i in 0..3 {
            table.push_row(vec![
                CellValue::LinkedEntity {
                    mention: format!("p{i}"),
                    entity: players[i],
                },
                CellValue::LinkedEntity {
                    mention: format!("t{i}"),
                    entity: teams[i],
                },
            ]);
        }
        (g, table, players, teams)
    }

    #[test]
    fn entities_map_to_their_semantic_columns() {
        let (g, table, players, teams) = fixture();
        let sim = crate::similarity::TypeJaccard::new(&g);
        // Query (team, player) in *reversed* order: mapping must cross.
        let tuple = vec![teams[0], players[0]];
        let (m, _) = map_tuple_to_columns(&tuple, &table, &sim);
        assert_eq!(m.columns, vec![Some(1), Some(0)]);
    }

    #[test]
    fn score_matrix_sums_column_similarities() {
        let (g, table, players, _) = fixture();
        let sim = crate::similarity::TypeJaccard::new(&g);
        let m = score_matrix(&vec![players[0]], &table, &sim);
        // Column 0 contains p0 (σ=1) and two same-type players (σ=0.95 each).
        assert!((m[0][0] - (1.0 + 0.95 + 0.95)).abs() < 1e-9);
        // Column 1 contains 3 teams sharing only Thing: 3 × 1/3.
        assert!((m[0][1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_entities_than_columns_leaves_some_unmapped() {
        let (g, table, players, teams) = fixture();
        let sim = crate::similarity::TypeJaccard::new(&g);
        let tuple = vec![players[0], teams[0], players[1]];
        let (m, _) = map_tuple_to_columns(&tuple, &table, &sim);
        assert_eq!(m.columns.iter().flatten().count(), 2);
        // The two mapped entities occupy distinct columns.
        let mut used: Vec<usize> = m.columns.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 2);
    }

    #[test]
    fn digest_matrix_is_bit_identical_to_raw() {
        let (g, table, players, teams) = fixture();
        let sim = crate::similarity::TypeJaccard::new(&g);
        let digest = thetis_datalake::TableDigest::build(&table).unwrap();
        let tuple = vec![teams[1], players[2]];
        let query = crate::query::Query::single(tuple.clone());
        let sigma = crate::sigma::SigmaRows::build(
            &query,
            &digest,
            crate::sigma::SigmaSource::Direct(&sim),
        );

        let raw = score_matrix(&tuple, &table, &sim);
        let fast = score_matrix_digest(&tuple, &digest, &sigma);
        for (ri, fi) in raw.iter().zip(&fast) {
            for (r, f) in ri.iter().zip(fi) {
                assert_eq!(r.to_bits(), f.to_bits());
            }
        }
        let (m_raw, rel_raw) = map_tuple_to_columns(&tuple, &table, &sim);
        let (m_fast, rel_fast) = map_tuple_to_columns_digest(&tuple, &digest, &sigma);
        assert_eq!(m_raw, m_fast);
        assert_eq!(rel_raw, rel_fast);
    }

    #[test]
    fn unlinked_table_maps_to_zero_scores() {
        let (g, _, players, _) = fixture();
        let sim = crate::similarity::TypeJaccard::new(&g);
        let mut table = Table::new("text", vec!["a".into()]);
        table.push_row(vec![CellValue::Text("no links".into())]);
        let m = score_matrix(&vec![players[0]], &table, &sim);
        assert_eq!(m, vec![vec![0.0]]);
    }
}
