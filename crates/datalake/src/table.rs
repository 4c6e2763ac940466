//! Tables: fixed-schema collections of rows.

use std::sync::Arc;

use thetis_kg::EntityId;

use crate::value::CellValue;

/// Identifier of a table within its [`DataLake`](crate::DataLake).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

impl TableId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a `usize` index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Self(u32::try_from(i).expect("table id overflow"))
    }
}

/// A data-lake table: a name, a list of column names, and rows of cells.
///
/// All rows share the schema (same arity); [`Table::push_row`] enforces it.
///
/// The rows sit behind an [`Arc`] so that successive lake snapshots can
/// hold one table's cells once ([`DataLake::fork`](crate::DataLake::fork));
/// a write through [`Table::push_row`] or [`Table::rows_mut`] copies them
/// first if another snapshot still reads them.
#[derive(Debug, PartialEq)]
pub struct Table {
    /// Human-readable table name (file name in a real lake).
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    rows: Arc<Vec<Vec<CellValue>>>,
}

/// A deep, independent copy — cells included, paid here and now. A derived
/// (shallow) clone would defer the copy to the clone's first write, moving
/// it from where callers expect it (outside their timers) to wherever they
/// first link or mutate the copy.
impl Clone for Table {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows: Arc::new(Vec::clone(&self.rows)),
        }
    }
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(name: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            name: name.into(),
            columns,
            rows: Arc::default(),
        }
    }

    /// A second handle on the same cells: name and schema are copied, the
    /// rows are not. Only [`DataLake::fork`](crate::DataLake::fork) uses
    /// this, so everywhere else a `Table` value owns what it reads.
    pub(crate) fn share(&self) -> Self {
        Self {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows: Arc::clone(&self.rows),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row arity does not match the schema.
    pub fn push_row(&mut self, row: Vec<CellValue>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} does not match schema arity {} in table {:?}",
            row.len(),
            self.columns.len(),
            self.name
        );
        Arc::make_mut(&mut self.rows).push(row);
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// All rows.
    #[inline]
    pub fn rows(&self) -> &[Vec<CellValue>] {
        &self.rows
    }

    /// Mutable access to rows (used by linkers to attach entity links).
    /// Copies the rows first when a forked snapshot shares them.
    #[inline]
    pub fn rows_mut(&mut self) -> &mut [Vec<CellValue>] {
        Arc::make_mut(&mut self.rows).as_mut_slice()
    }

    /// The cell at `(row, col)`.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> &CellValue {
        &self.rows[row][col]
    }

    /// Iterates over the entities linked in column `col`.
    pub fn entities_in_column(&self, col: usize) -> impl Iterator<Item = EntityId> + '_ {
        self.rows.iter().filter_map(move |r| r[col].entity())
    }

    /// Iterates over all distinct entities linked anywhere in the table, in
    /// first-occurrence order.
    pub fn distinct_entities(&self) -> Vec<EntityId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for row in self.rows.iter() {
            for cell in row {
                if let Some(e) = cell.entity() {
                    if seen.insert(e) {
                        out.push(e);
                    }
                }
            }
        }
        out
    }

    /// Entity-link coverage: fraction of non-null cells carrying a link.
    pub fn link_coverage(&self) -> f64 {
        let mut cells = 0usize;
        let mut linked = 0usize;
        for row in self.rows.iter() {
            for cell in row {
                if !cell.is_null() {
                    cells += 1;
                    if cell.is_linked() {
                        linked += 1;
                    }
                }
            }
        }
        if cells == 0 {
            0.0
        } else {
            linked as f64 / cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linked(m: &str, e: u32) -> CellValue {
        CellValue::LinkedEntity {
            mention: m.into(),
            entity: EntityId(e),
        }
    }

    fn sample() -> Table {
        let mut t = Table::new("players", vec!["Player".into(), "Team".into()]);
        t.push_row(vec![linked("Ron Santo", 1), linked("Chicago Cubs", 2)]);
        t.push_row(vec![CellValue::Text("Unknown".into()), linked("Cubs", 2)]);
        t.push_row(vec![CellValue::Null, CellValue::Number(1960.0)]);
        t
    }

    #[test]
    fn arity_is_enforced() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.push_row(vec![CellValue::Null]);
        assert_eq!(t.n_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn wrong_arity_panics() {
        let mut t = Table::new("t", vec!["a".into()]);
        t.push_row(vec![CellValue::Null, CellValue::Null]);
    }

    #[test]
    fn entities_in_column_skips_unlinked() {
        let t = sample();
        let col0: Vec<_> = t.entities_in_column(0).collect();
        assert_eq!(col0, vec![EntityId(1)]);
        let col1: Vec<_> = t.entities_in_column(1).collect();
        assert_eq!(col1, vec![EntityId(2), EntityId(2)]);
    }

    #[test]
    fn distinct_entities_dedup_in_order() {
        let t = sample();
        assert_eq!(t.distinct_entities(), vec![EntityId(1), EntityId(2)]);
    }

    #[test]
    fn coverage_counts_non_null_cells() {
        let t = sample();
        // non-null cells: 5 (one Null), linked: 3 → 0.6
        assert!((t.link_coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_empty_table_is_zero() {
        let t = Table::new("t", vec!["a".into()]);
        assert_eq!(t.link_coverage(), 0.0);
    }
}
