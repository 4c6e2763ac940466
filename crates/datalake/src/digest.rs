//! Columnar entity digests: the per-table scoring summary.
//!
//! Algorithm 1's inner loop only ever needs the *linked* structure of a
//! table — which entities appear in which column, how often, and in which
//! row order — yet the raw representation forces every score to re-walk all
//! rows and re-touch every unlinked cell. A [`TableDigest`] precomputes
//! that structure once per table (at lake build, invalidated together with
//! the postings on any mutation):
//!
//! * the table-wide **sorted distinct linked entities** (the σ batch axis:
//!   one similarity evaluation per distinct entity instead of one per cell
//!   occurrence);
//! * per column, the distinct entities **with multiplicities** plus the
//!   column's linked cells in row order as indices into the distinct list
//!   (so column-relevance sums replay the exact floating-point addition
//!   order of the raw row walk — scoring through the digest is
//!   bit-identical to scoring through the rows).
//!
//! Tables without a single linked cell have no digest at all
//! ([`TableDigest::build`] returns `None`), which is exactly the set of
//! tables Algorithm 1 rejects up front — the scorer skips them without
//! walking any rows.

use thetis_kg::EntityId;

use crate::table::Table;

/// Wall time spent building digests (one entry per full lake rebuild).
static OBS_DIGEST: thetis_obs::Span = thetis_obs::Span::new("datalake.digest");
/// Tables that received a digest (linked tables).
static OBS_DIGESTED: thetis_obs::Counter = thetis_obs::Counter::new("datalake.digest_tables");

/// The columnar summary of one table column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDigest {
    /// Distinct entities appearing in this column, as ascending indices
    /// into [`TableDigest::distinct`].
    pub entities: Vec<u32>,
    /// Multiplicity of each entry of `entities` (how many cells of this
    /// column link to it).
    pub counts: Vec<u32>,
    /// Every linked cell of the column in **row order**, as indices into
    /// [`TableDigest::distinct`]. Summing σ values through this list
    /// reproduces the raw row walk's addition order exactly.
    pub cells: Vec<u32>,
}

/// The precomputed scoring summary of one linked table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDigest {
    /// All distinct linked entities of the table, sorted ascending by id.
    pub distinct: Vec<EntityId>,
    /// One digest per table column (in schema order).
    pub columns: Vec<ColumnDigest>,
    /// Total rows in the source table (linked or not) — the divisor of the
    /// average row aggregation.
    pub n_rows: usize,
    /// Total linked cells across the table.
    pub linked_cells: u64,
}

impl TableDigest {
    /// Builds the digest of `table`, or `None` when the table has no
    /// linked cell (such tables are irrelevant under SemRel §4.2 and the
    /// scorer must skip them without walking rows).
    pub fn build(table: &Table) -> Option<Self> {
        let mut distinct: Vec<EntityId> = table
            .rows()
            .iter()
            .flatten()
            .filter_map(|cell| cell.entity())
            .collect();
        if distinct.is_empty() {
            return None;
        }
        let linked_cells = distinct.len() as u64;
        distinct.sort_unstable();
        distinct.dedup();

        let idx_of = |e: EntityId| -> u32 {
            distinct
                .binary_search(&e)
                .expect("digest entity vanished from its own distinct list") as u32
        };
        let mut columns: Vec<ColumnDigest> = (0..table.n_cols())
            .map(|_| ColumnDigest {
                entities: Vec::new(),
                counts: Vec::new(),
                cells: Vec::new(),
            })
            .collect();
        for row in table.rows() {
            for (ci, cell) in row.iter().enumerate() {
                if let Some(e) = cell.entity() {
                    columns[ci].cells.push(idx_of(e));
                }
            }
        }
        let mut sorted: Vec<u32> = Vec::new();
        for col in &mut columns {
            sorted.clear();
            sorted.extend_from_slice(&col.cells);
            sorted.sort_unstable();
            for &idx in &sorted {
                match col.entities.last() {
                    Some(&last) if last == idx => *col.counts.last_mut().unwrap() += 1,
                    _ => {
                        col.entities.push(idx);
                        col.counts.push(1);
                    }
                }
            }
        }

        OBS_DIGESTED.inc();
        Some(Self {
            distinct,
            columns,
            n_rows: table.n_rows(),
            linked_cells,
        })
    }

    /// Builds digests for a whole slice of tables (`None` for unlinked
    /// tables), timing the pass under the `datalake.digest` span.
    pub fn build_all(tables: &[Table]) -> Vec<Option<std::sync::Arc<Self>>> {
        let _span = OBS_DIGEST.start();
        tables
            .iter()
            .map(|t| Self::build(t).map(std::sync::Arc::new))
            .collect()
    }

    /// Position of `e` in [`TableDigest::distinct`], if linked anywhere in
    /// the table.
    pub fn index_of(&self, e: EntityId) -> Option<usize> {
        self.distinct.binary_search(&e).ok()
    }

    /// Number of distinct linked entities.
    pub fn n_distinct(&self) -> usize {
        self.distinct.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;

    fn linked(e: u32) -> CellValue {
        CellValue::LinkedEntity {
            mention: "m".into(),
            entity: EntityId(e),
        }
    }

    fn sample() -> Table {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push_row(vec![linked(5), linked(2)]);
        t.push_row(vec![CellValue::Text("plain".into()), linked(5)]);
        t.push_row(vec![CellValue::Null, CellValue::Null]);
        t.push_row(vec![linked(2), linked(2)]);
        t
    }

    #[test]
    fn distinct_is_sorted_and_deduped() {
        let d = TableDigest::build(&sample()).unwrap();
        assert_eq!(d.distinct, vec![EntityId(2), EntityId(5)]);
        assert_eq!(d.n_distinct(), 2);
        assert_eq!(d.index_of(EntityId(5)), Some(1));
        assert_eq!(d.index_of(EntityId(9)), None);
    }

    #[test]
    fn column_cells_preserve_row_order() {
        let d = TableDigest::build(&sample()).unwrap();
        // Column 0: e5 (row 0), e2 (row 3) → indices [1, 0].
        assert_eq!(d.columns[0].cells, vec![1, 0]);
        // Column 1: e2, e5, e2 → indices [0, 1, 0].
        assert_eq!(d.columns[1].cells, vec![0, 1, 0]);
    }

    #[test]
    fn multiplicities_count_cell_occurrences() {
        let d = TableDigest::build(&sample()).unwrap();
        assert_eq!(d.columns[1].entities, vec![0, 1]);
        assert_eq!(d.columns[1].counts, vec![2, 1]);
        assert_eq!(d.linked_cells, 5);
        assert_eq!(d.n_rows, 4);
    }

    #[test]
    fn unlinked_table_has_no_digest() {
        let mut t = Table::new("u", vec!["a".into()]);
        t.push_row(vec![CellValue::Text("x".into())]);
        assert!(TableDigest::build(&t).is_none());
        assert!(TableDigest::build(&Table::new("e", vec!["a".into()])).is_none());
    }

    #[test]
    fn build_all_aligns_with_tables() {
        let mut unlinked = Table::new("u", vec!["a".into()]);
        unlinked.push_row(vec![CellValue::Null]);
        let digests = TableDigest::build_all(&[sample(), unlinked]);
        assert_eq!(digests.len(), 2);
        assert!(digests[0].is_some());
        assert!(digests[1].is_none());
    }
}
