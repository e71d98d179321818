//! Expression simplification and predicate analysis utilities.
//!
//! These are the building blocks of the planner's rewrite rules: constant
//! folding, conjunction splitting/joining (for predicate pushdown), and
//! column-reference collection (for projection pruning and for deciding
//! which source a predicate can be pushed to).

use std::collections::BTreeSet;
use std::sync::Arc;

use eii_data::{ColumnarBatch, Schema, Value};

use crate::ast::{BinaryOp, Expr};
use crate::eval::bind;
use crate::vector::eval_column;

/// A (relation, column) reference appearing in an expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnRef {
    pub relation: Option<String>,
    pub name: String,
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.relation {
            Some(r) => write!(f, "{r}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Collect every column reference in the expression (deduplicated, ordered).
pub fn referenced_columns(expr: &Expr) -> BTreeSet<ColumnRef> {
    let mut out = BTreeSet::new();
    expr.visit(&mut |e| {
        if let Expr::Column { relation, name } = e {
            out.insert(ColumnRef {
                relation: relation.clone(),
                name: name.clone(),
            });
        }
    });
    out
}

/// Split a predicate into its top-level AND conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn rec(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                rec(left, out);
                rec(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    rec(expr, &mut out);
    out
}

/// Combine conjuncts back into a single predicate; `None` when empty.
pub fn conjoin(mut preds: Vec<Expr>) -> Option<Expr> {
    let first = if preds.is_empty() {
        return None;
    } else {
        preds.remove(0)
    };
    Some(preds.into_iter().fold(first, Expr::and))
}

/// Fold constant sub-expressions to literals and apply cheap logical
/// simplifications (`TRUE AND p → p`, `FALSE AND p → FALSE`, double
/// negation, ...). The result is semantically equivalent under SQL
/// three-valued logic.
pub fn fold_constants(expr: Expr) -> Expr {
    expr.transform(|e| {
        // First: evaluate fully-constant subtrees, by the kernels over one
        // row of no columns; one that errs stays as it is.
        if e.is_constant() && !matches!(e, Expr::Literal(_)) {
            let one_row = ColumnarBatch::new(Arc::new(Schema::empty()), vec![], 1);
            if let Ok(c) = bind(&e, one_row.schema()).and_then(|b| eval_column(&b, &one_row)) {
                return Expr::Literal(c.value(0));
            }
            return e;
        }
        // Then: logical identities that need only one constant side. These
        // are exactly the Kleene-safe ones (TRUE AND p ≡ p even when p is
        // NULL, etc.).
        match e {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => match (*left, *right) {
                (Expr::Literal(Value::Bool(true)), p) | (p, Expr::Literal(Value::Bool(true))) => p,
                (Expr::Literal(Value::Bool(false)), _) | (_, Expr::Literal(Value::Bool(false))) => {
                    Expr::Literal(Value::Bool(false))
                }
                (l, r) => l.and(r),
            },
            Expr::Binary {
                left,
                op: BinaryOp::Or,
                right,
            } => match (*left, *right) {
                (Expr::Literal(Value::Bool(false)), p)
                | (p, Expr::Literal(Value::Bool(false))) => p,
                (Expr::Literal(Value::Bool(true)), _) | (_, Expr::Literal(Value::Bool(true))) => {
                    Expr::Literal(Value::Bool(true))
                }
                (l, r) => l.or(r),
            },
            Expr::Unary {
                op: crate::ast::UnaryOp::Not,
                expr,
            } => match *expr {
                Expr::Unary {
                    op: crate::ast::UnaryOp::Not,
                    expr: inner,
                } => *inner,
                Expr::Literal(Value::Bool(b)) => Expr::Literal(Value::Bool(!b)),
                other => other.not(),
            },
            other => other,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use eii_data::{DataType, Field, Schema};
    use proptest::prelude::*;

    #[test]
    fn conjuncts_split_nested_ands() {
        let p = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit(2i64)))
            .and(Expr::col("c").eq(Expr::lit(3i64)));
        let cs = conjuncts(&p);
        assert_eq!(cs.len(), 3);
        // ORs are not split.
        let p = Expr::col("a")
            .eq(Expr::lit(1i64))
            .or(Expr::col("b").eq(Expr::lit(2i64)));
        assert_eq!(conjuncts(&p).len(), 1);
    }

    #[test]
    fn conjoin_round_trips() {
        let p = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit(2i64)));
        let rebuilt = conjoin(conjuncts(&p)).unwrap();
        assert_eq!(rebuilt, p);
        assert_eq!(conjoin(vec![]), None);
    }

    #[test]
    fn referenced_columns_dedup() {
        let p = Expr::col("a")
            .eq(Expr::qcol("t", "b"))
            .and(Expr::col("a").gt(Expr::lit(0i64)));
        let cols = referenced_columns(&p);
        assert_eq!(cols.len(), 2);
        assert!(cols.iter().any(|c| c.name == "a" && c.relation.is_none()));
        assert!(cols
            .iter()
            .any(|c| c.name == "b" && c.relation.as_deref() == Some("t")));
    }

    #[test]
    fn folds_constant_arithmetic() {
        let e = Expr::lit(2i64)
            .binary(BinaryOp::Plus, Expr::lit(3i64))
            .binary(BinaryOp::Multiply, Expr::lit(4i64));
        assert_eq!(fold_constants(e), Expr::lit(20i64));
    }

    #[test]
    fn true_and_p_simplifies() {
        let p = Expr::col("x").eq(Expr::lit(1i64));
        let e = Expr::lit(true).and(p.clone());
        assert_eq!(fold_constants(e), p);
        let e = p.clone().and(Expr::lit(1i64).lt(Expr::lit(2i64)));
        assert_eq!(fold_constants(e), p);
    }

    #[test]
    fn false_and_p_is_false() {
        let p = Expr::col("x").eq(Expr::lit(1i64));
        assert_eq!(
            fold_constants(Expr::lit(false).and(p)),
            Expr::lit(false)
        );
    }

    #[test]
    fn double_negation_removed() {
        let p = Expr::col("x").eq(Expr::lit(1i64));
        assert_eq!(fold_constants(p.clone().not().not()), p);
    }

    #[test]
    fn fold_keeps_division_by_zero_unfolded() {
        // 1/0 must stay an expression (it errors at runtime, not plan time).
        let e = Expr::lit(1i64).binary(BinaryOp::Divide, Expr::lit(0i64));
        assert!(matches!(fold_constants(e), Expr::Binary { .. }));
    }

    proptest! {
        /// Folding never changes the value of a predicate on random rows.
        #[test]
        fn folding_preserves_semantics(
            a in -5i64..5,
            b in -5i64..5,
            k in -5i64..5,
        ) {
            let schema = Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]);
            let row = eii_data::row![a, b];
            let exprs = [
                Expr::col("a").eq(Expr::lit(k)).and(Expr::lit(true)),
                Expr::col("a").lt(Expr::col("b")).or(Expr::lit(false)),
                Expr::lit(k).binary(BinaryOp::Plus, Expr::lit(1i64)).lt(Expr::col("a")),
                Expr::col("a").eq(Expr::lit(k)).not().not(),
            ];
            for e in exprs {
                let before = bind(&e, &schema).unwrap().eval(&row).unwrap();
                let folded = fold_constants(e);
                let after = bind(&folded, &schema).unwrap().eval(&row).unwrap();
                prop_assert_eq!(before, after);
            }
        }
    }
}
