//! # eii-expr
//!
//! Scalar expressions for the `eii` platform: the [`Expr`] AST shared by the
//! SQL front end and the planner, SQL three-valued evaluation over columns
//! (one kernel per operator, [`vector`]), type inference, constant folding,
//! and the predicate utilities (conjunction splitting, column-reference
//! analysis) that the federated planner's pushdown rules are built on.

pub mod ast;
pub mod eval;
pub mod fold;
pub mod functions;
pub mod typecheck;
pub mod vector;

pub use ast::{AggFunc, BinaryOp, Expr, ScalarFunc, UnaryOp};
pub use eval::{bind, BoundExpr};
pub use vector::{eval_column, eval_filter, first_failing_row};
pub use fold::{conjuncts, conjoin, fold_constants, referenced_columns, ColumnRef};
pub use typecheck::infer_type;

// The scalar oracle the kernels are tested against names this crate
// `eii_expr`, as every other suite that includes it does.
#[cfg(test)]
extern crate self as eii_expr;
#[cfg(test)]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;
