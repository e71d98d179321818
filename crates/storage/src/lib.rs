//! # eii-storage
//!
//! A small but real in-memory relational storage engine. In the reproduction
//! it plays the role of every relational enterprise source (the "very
//! carefully tuned data sources" of Halevy's introduction), the staging area
//! and warehouse tables of the ETL substrate, and the backing store for
//! materialized views.
//!
//! Features: typed tables with primary-key and not-null constraints, hash and
//! ordered secondary indexes, predicate scans (the engine a wrapper pushes
//! component queries into), table statistics for the federated cost model,
//! and a change log that drives incremental ETL refresh and change
//! notification (Rosenthal's auto-generated `Notify` methods).

pub mod changelog;
pub mod database;
pub mod index;
pub mod stats;
pub mod table;

pub use changelog::{Change, ChangeLog, ChangeOp};
pub use database::Database;
pub use index::{HashIndex, OrderedIndex};
pub use stats::{ColumnStats, TableStats};
pub use table::{Built, RowId, Table, TableDef};
