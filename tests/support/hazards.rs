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
