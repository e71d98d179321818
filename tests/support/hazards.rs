//! The equality hazards: the one cell domain the property suites draw keys
//! and values from. A suite includes this file by path — `#[path = ".."]
//! mod hazards;` — from a module that has `Value` in scope, so the crate that
//! defines `Value` can include it too.
//!
//! Small domains (duplicates are the rule), NULL (a key like any other),
//! strings (the empty one too), `Int(1)`/`Float(1.0)`, the numerics at
//! 2^53 ± 1, where comparing through `f64` would fold distinct integers
//! together, the `i64` extremes beside the floats ±2^63 (`Int(i64::MIN)` is
//! `Float(-2^63)`, `Int(i64::MAX)` is no float), both zeros (`-0.0` is not
//! `0`) and a NaN.
//!
//! String cells ([`str_value`]): the empty string, text that differs only by
//! a prefix or its length, equal text in separate allocations and in one
//! shared allocation, and NULL.
//!
//! Whole key columns too ([`key_column`]): a dense Int run, which a key table
//! finds by index, the same run and a value past its span, empty and all-NULL
//! columns, and stray cells that turn a column `Mixed` mid-stream.

// Not every suite reads every item.
#![allow(dead_code)]

use proptest::prelude::*;

use super::Value;

/// 2^53: past it, not every integer is a float.
pub const P53: i64 = 1 << 53;

/// One cell of the domain; the five numerics at 2^53 ± 1 are two draws in
/// seven.
pub fn hazard_value() -> impl Strategy<Value = Value> {
    let at_2_53 = || {
        prop_oneof![
            (-1i64..2).prop_map(|d| Value::Int(P53 + d)),
            (-1i64..1).prop_map(|d| Value::Float((P53 + d) as f64)),
        ]
    };
    let edges = (0usize..8).prop_map(|e| match e {
        0 => Value::Int(i64::MIN),
        1 => Value::Int(i64::MAX),
        2 => Value::Float(i64::MIN as f64),
        3 => Value::Float(-(i64::MIN as f64)),
        4 => Value::Int(0),
        5 => Value::Float(0.0),
        6 => Value::Float(-0.0),
        _ => Value::Float(f64::NAN),
    });
    prop_oneof![
        at_2_53(),
        at_2_53(),
        edges,
        Just(Value::Null),
        Just(Value::Int(1)),
        Just(Value::Float(1.0)),
        (0usize..3).prop_map(|i| Value::str(["", "s0", "s1"][i])),
    ]
}

/// A hazard, or a Bool or a Timestamp: any of them lands in a column declared
/// something else, so a column of these turns `Mixed`.
pub fn stray_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        hazard_value(),
        hazard_value(),
        hazard_value(),
        any::<bool>().prop_map(Value::Bool),
        (0i64..3).prop_map(Value::Timestamp),
    ]
}

/// A dense Int run: cells of `lo..lo + k`, repeated and out of order, with
/// `lo` near zero, far below it, or at either end of `i64`.
pub fn dense_run() -> impl Strategy<Value = Vec<Value>> {
    let lo = prop_oneof![-3i64..3, Just(-1_000), Just(i64::MIN), Just(i64::MAX - 64)];
    (lo, 1i64..48, proptest::collection::vec(0i64..64, 0..24))
        .prop_map(|(lo, k, picks)| picks.iter().map(|p| Value::Int(lo + p % k)).collect())
}

/// A dense run, then an Int far from it (at least two of the three breakers
/// are far from any run).
pub fn span_breaker() -> impl Strategy<Value = Vec<Value>> {
    (dense_run(), 0usize..3).prop_map(|(mut run, far)| {
        run.push(Value::Int([P53 + 1, i64::MIN, i64::MAX][far]));
        run
    })
}

/// One chunk of a key column: a dense run, a run and its span breaker, an
/// empty or all-NULL column, or stray cells — so that a sequence of them
/// reaches a key table's direct index, breaks it, and turns `Mixed`.
pub fn key_column() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        dense_run(),
        dense_run(),
        span_breaker(),
        (0usize..6).prop_map(|n| vec![Value::Null; n]),
        proptest::collection::vec(stray_value(), 0..12),
    ]
}

/// Text that differs from its neighbours only by a prefix or by its length,
/// and the empty string.
pub const STR_HAZARDS: [&str; 6] = ["", "a", "ab", "abb", "b", "bab"];

/// One string cell, a third each: text of [`STR_HAZARDS`] in an allocation of
/// its own (equal text, separate allocations), in the one allocation every
/// such draw of that text shares, or NULL.
pub fn str_value() -> impl Strategy<Value = Value> {
    static SHARED: std::sync::OnceLock<Vec<Value>> = std::sync::OnceLock::new();
    let shared = || SHARED.get_or_init(|| STR_HAZARDS.iter().map(|s| Value::str(*s)).collect());
    prop_oneof![
        (0..STR_HAZARDS.len()).prop_map(|i| Value::str(STR_HAZARDS[i])),
        (0..STR_HAZARDS.len()).prop_map(move |i| shared()[i].clone()),
        Just(Value::Null),
    ]
}
