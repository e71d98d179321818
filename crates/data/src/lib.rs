//! # eii-data
//!
//! Core data model shared by every crate of the `eii` platform: dynamically
//! typed [`Value`]s, [`Row`]s and [`Batch`]es, [`Schema`] metadata, the common
//! [`EiiError`] error type, and a deterministic simulated clock used for
//! staleness accounting in the warehouse/materialized-view experiments.
//!
//! Everything here is deliberately independent of the query engine so that
//! storage engines, wrappers, and the EAI substrate can share one vocabulary.

pub mod batch;
pub mod clock;
pub mod columnar;
pub mod deadline;
pub mod error;
pub mod keys;
pub mod row;
pub mod schema;
pub mod value;

pub use batch::Batch;
pub use columnar::{Column, ColumnBuilder, ColumnData, ColumnarBatch, NullBitmap, NO_ROW};
pub use clock::SimClock;
pub use deadline::{CancelToken, Deadline, Priority};
pub use error::{EiiError, Result};
pub use row::Row;
pub use schema::{DataType, Field, Schema, SchemaRef};
pub use value::Value;
