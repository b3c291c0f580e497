//! Catalog: table schemas and their bound data.
//!
//! A registered table is immutable: its data sits behind an `Arc` that the
//! catalog never mutates, and registering a table under the same name
//! replaces the whole registration. Beside the data each registration keeps
//! a [`CutMemo`], empty at registration: the first ProgXe query that reads
//! the table unfiltered at a slice count cuts its rows into the input grid
//! there, and every later one — any engine configuration with the same
//! effective slice count, any weights or preferences — only signs the cut
//! with its own join keys. Replacing the table drops its memo.

use progxe_core::grid::CutMemo;
use progxe_core::source::SourceData;
use std::collections::HashMap;
use std::sync::Arc;

/// Schema of one table: ordered column names. By convention every column is
/// numeric (`f64`) except the join key, which is an integer column stored
/// separately (see [`BoundTable`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (matched case-insensitively in FROM clauses).
    pub name: String,
    /// Numeric attribute columns, in storage order.
    pub columns: Vec<String>,
    /// Name of the integer join-key column.
    pub key_column: String,
}

impl TableSchema {
    /// Creates a schema.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<String>,
        key_column: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            columns,
            key_column: key_column.into(),
        }
    }

    /// Index of a numeric column.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }

    /// Whether `column` is the join-key column.
    pub fn is_key(&self, column: &str) -> bool {
        self.key_column == column
    }
}

/// A schema together with its tuples.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// The schema.
    pub schema: TableSchema,
    /// The data: attributes (matching `schema.columns`) + join keys, shared
    /// with every plan that reads it unfiltered.
    pub data: Arc<SourceData>,
    /// The input-grid row cuts of `data`, shared likewise.
    pub(crate) cuts: Arc<CutMemo>,
}

impl BoundTable {
    /// The table's input-grid row cuts: empty until a query reads the table
    /// unfiltered, then one per effective slice count.
    pub fn cuts(&self) -> &CutMemo {
        &self.cuts
    }
}

/// A schema registered for streaming ingestion: no materialized rows, but
/// declared per-column value bounds. The bounds fix the streaming input
/// grid's geometry before any row arrives (see `progxe_core::ingest`);
/// rows pushed outside them are rejected.
#[derive(Debug, Clone)]
pub struct StreamTable {
    /// The schema.
    pub schema: TableSchema,
    /// Declared per-column lower bounds (aligned with `schema.columns`).
    pub lo: Vec<f64>,
    /// Declared per-column upper bounds (aligned with `schema.columns`).
    pub hi: Vec<f64>,
}

/// A set of named tables available to queries.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, BoundTable>,
    streams: HashMap<String, StreamTable>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table, with an empty row-cut memo.
    ///
    /// # Panics
    /// Panics when the data's attribute arity differs from the schema.
    pub fn register(&mut self, schema: TableSchema, data: SourceData) {
        assert_eq!(
            schema.columns.len(),
            if data.is_empty() {
                schema.columns.len()
            } else {
                data.attrs.dims()
            },
            "data arity must match schema {:?}",
            schema.name
        );
        self.tables.insert(
            schema.name.to_ascii_lowercase(),
            BoundTable {
                schema,
                data: Arc::new(data),
                cuts: Arc::default(),
            },
        );
    }

    /// Looks up a table case-insensitively.
    pub fn table(&self, name: &str) -> Option<&BoundTable> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Registers (or replaces) a streaming table: a schema whose rows will
    /// arrive incrementally through a
    /// [`StreamingQuery`](crate::exec::StreamingQuery), plus declared
    /// per-column value bounds.
    ///
    /// # Panics
    /// Panics when the bounds' arity differs from the schema, or a bound
    /// pair is non-finite / inverted.
    pub fn register_streaming(&mut self, schema: TableSchema, lo: Vec<f64>, hi: Vec<f64>) {
        assert_eq!(
            schema.columns.len(),
            lo.len(),
            "declared bounds arity must match schema {:?}",
            schema.name
        );
        assert_eq!(lo.len(), hi.len(), "bounds must be parallel");
        for (l, h) in lo.iter().zip(&hi) {
            assert!(
                l.is_finite() && h.is_finite() && l <= h,
                "streaming bounds must be finite with lo <= hi ({:?})",
                schema.name
            );
        }
        self.streams.insert(
            schema.name.to_ascii_lowercase(),
            StreamTable { schema, lo, hi },
        );
    }

    /// Looks up a streaming table case-insensitively.
    pub fn streaming(&self, name: &str) -> Option<&StreamTable> {
        self.streams.get(&name.to_ascii_lowercase())
    }

    /// Registered table names (lower-cased), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Registered streaming-table names (lower-cased), sorted.
    pub fn streaming_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.streams.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "Suppliers",
            vec!["uPrice".into(), "manTime".into()],
            "country",
        )
    }

    #[test]
    fn column_lookup() {
        let s = schema();
        assert_eq!(s.column_index("manTime"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert!(s.is_key("country"));
        assert!(!s.is_key("uPrice"));
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut cat = Catalog::new();
        let data = SourceData::from_rows(2, &[(&[1.0, 2.0], 0)]);
        cat.register(schema(), data);
        assert!(cat.table("suppliers").is_some());
        assert!(cat.table("SUPPLIERS").is_some());
        assert!(cat.table("transporters").is_none());
        assert_eq!(cat.table_names(), vec!["suppliers".to_string()]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut cat = Catalog::new();
        let data = SourceData::from_rows(1, &[(&[1.0], 0)]);
        cat.register(schema(), data);
    }
}
