//! Dynamically typed scalar values.
//!
//! [`Value`] is the unit of data flowing between sources, wrappers, the
//! federated executor, and the warehouse. It supports total ordering and
//! hashing (so it can key hash joins and aggregations), lossy-free size
//! accounting (for the bytes-shipped experiments), and SQL-style `NULL`
//! semantics at the comparison layer of the expression crate.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;


use crate::schema::DataType;

/// A dynamically typed scalar value.
///
/// `Float` uses total ordering (via `f64::total_cmp`) for `Ord`/`Hash` so that
/// values can be used as join and group-by keys; SQL `NULL` comparison
/// semantics are implemented in `eii-expr`, not here.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string. `Arc<str>` keeps row cloning cheap during joins.
    Str(Arc<str>),
    /// Milliseconds since an arbitrary epoch of the simulated clock.
    Timestamp(i64),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value, or `None` for `Null` (which inhabits
    /// every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness for WHERE clauses: only `Bool(true)` passes.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Interpret as i64 where possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Interpret as f64 where possible (ints widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interpret as &str where possible.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as bool where possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Size of the value in bytes when shipped over the simulated network in
    /// the native (binary) representation. This drives the bytes-shipped
    /// metrics of experiments E3/E11.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Timestamp(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        }
    }

    /// Attempt to cast this value to `ty`, mirroring permissive SQL casts.
    /// Returns `None` when the cast is not meaningful.
    pub fn cast(&self, ty: DataType) -> Option<Value> {
        if self.is_null() {
            return Some(Value::Null);
        }
        match (self, ty) {
            (v, t) if v.data_type() == Some(t) => Some(v.clone()),
            (Value::Int(i), DataType::Float) => Some(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Int) => Some(Value::Int(*f as i64)),
            (Value::Int(i), DataType::Timestamp) => Some(Value::Timestamp(*i)),
            (Value::Timestamp(t), DataType::Int) => Some(Value::Int(*t)),
            (Value::Bool(b), DataType::Int) => Some(Value::Int(i64::from(*b))),
            (Value::Int(i), DataType::Str) => Some(Value::str(i.to_string())),
            (Value::Float(f), DataType::Str) => Some(Value::str(f.to_string())),
            (Value::Bool(b), DataType::Str) => Some(Value::str(b.to_string())),
            (Value::Timestamp(t), DataType::Str) => Some(Value::str(format!("@{t}"))),
            (Value::Str(s), DataType::Int) => s.trim().parse::<i64>().ok().map(Value::Int),
            (Value::Str(s), DataType::Float) => s.trim().parse::<f64>().ok().map(Value::Float),
            (Value::Str(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "1" | "y" | "yes" => Some(Value::Bool(true)),
                "false" | "f" | "0" | "n" | "no" => Some(Value::Bool(false)),
                _ => None,
            },
            (Value::Str(s), DataType::Timestamp) => {
                let body = s.strip_prefix('@').unwrap_or(s);
                body.trim().parse::<i64>().ok().map(Value::Timestamp)
            }
            _ => None,
        }
    }

    /// Rank used to order values of *different* types deterministically, so
    /// that sorting heterogeneous columns (schema-less sources!) is total.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numerics compare with each other
            Value::Str(_) => 3,
            Value::Timestamp(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Numerics hash through `f64` bits: an Int equal to a Float is
            // exactly that float, so equal values hash alike. (Ints past
            // ±2^53 that round to one float merely share a bucket.)
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Timestamp(t) => {
                4u8.hash(state);
                t.hash(state);
            }
        }
    }
}

/// 2^63 as an `f64`: the first float above every `i64`.
const I64_END: f64 = 9_223_372_036_854_775_808.0;

/// The integer a float is exactly equal to, if any. `-0.0` has none: the
/// total order puts it strictly below `+0.0`, which is `Int(0)`.
pub fn float_as_int(f: f64) -> Option<i64> {
    // `as` saturates, and `i64::MAX` is no `f64`: reaching it means `f` was
    // 2^63 or more.
    let i = f as i64;
    let exact = i as f64 == f && i != i64::MAX && (i != 0 || f.is_sign_positive());
    exact.then_some(i)
}

/// Order an `i64` against an `f64` exactly — no rounding of the integer to
/// the nearest float, so the order stays transitive past ±2^53. NaNs and
/// `-0.0` sit where `f64::total_cmp` puts them.
pub fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return if f.is_sign_negative() { Ordering::Greater } else { Ordering::Less };
    }
    if f >= I64_END {
        return Ordering::Less;
    }
    if f < -I64_END {
        return Ordering::Greater;
    }
    // In range, so the truncation is exact; a tie is broken by what was cut
    // off (`0 as f64` is `+0.0`, above `-0.0`).
    let t = f.trunc() as i64;
    i.cmp(&t).then_with(|| (t as f64).total_cmp(&f))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    const P53: i64 = 1 << 53;

    #[test]
    fn int_float_comparison_is_exact_past_2_pow_53() {
        let f53 = Value::Float(P53 as f64);
        assert_eq!(Value::Int(P53), f53);
        assert!(Value::Int(P53 + 1) > f53);
        assert!(Value::Int(P53 - 1) < f53);
        assert!(Value::Int(i64::MAX) < Value::Float(I64_END));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-I64_END));
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
        // Signed zeros stay where `total_cmp` puts them.
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Int(0) > Value::Float(-0.0));
        assert!(Value::Int(-2) > Value::Float(-2.5) && Value::Int(-3) < Value::Float(-2.5));
    }

    /// A set keyed on `Value` holds the same members whatever order they
    /// arrive in — what `COUNT(DISTINCT)`, `GROUP BY`, hash joins and the
    /// storage indexes rely on.
    #[test]
    fn sets_of_values_do_not_depend_on_insertion_order() {
        use std::collections::{BTreeSet, HashSet};
        let vals = [Value::Int(P53), Value::Float(P53 as f64), Value::Int(P53 + 1)];
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let hashed: HashSet<&Value> = order.iter().map(|&i| &vals[i]).collect();
            let sorted: BTreeSet<&Value> = order.iter().map(|&i| &vals[i]).collect();
            assert_eq!((hashed.len(), sorted.len()), (2, 2), "order {order:?}");
        }
    }

    #[test]
    fn heterogeneous_ordering_is_total_and_stable() {
        let mut vals = [
            Value::str("abc"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Timestamp(5),
            Value::Float(0.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert!(matches!(vals[1], Value::Bool(_)));
        assert!(matches!(vals.last(), Some(Value::Timestamp(_))));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::str("42").cast(DataType::Int),
            Some(Value::Int(42))
        );
        assert_eq!(
            Value::Int(3).cast(DataType::Float),
            Some(Value::Float(3.0))
        );
        assert_eq!(Value::str("nope").cast(DataType::Int), None);
        assert_eq!(Value::Null.cast(DataType::Int), Some(Value::Null));
        assert_eq!(
            Value::str("yes").cast(DataType::Bool),
            Some(Value::Bool(true))
        );
        assert_eq!(
            Value::str("@77").cast(DataType::Timestamp),
            Some(Value::Timestamp(77))
        );
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(7).wire_size(), 9);
        assert_eq!(Value::str("ab").wire_size(), 1 + 4 + 2);
    }

    #[test]
    fn display_round_trips_through_cast_for_ints() {
        let v = Value::Int(-91);
        let s = Value::str(v.to_string());
        assert_eq!(s.cast(DataType::Int), Some(v));
    }

    /// Half of all draws are the five numerics at ±2^53 ± 1; the rest are
    /// signed zeros, NaNs, infinities, the `i64` extremes and the floats
    /// beside them, small integers and halves, and random values.
    fn numeric() -> impl Strategy<Value = Value> {
        let at_2_53 = || {
            (any::<bool>(), any::<bool>(), -1i64..2).prop_map(|(float, negative, d)| {
                let i = if negative { -P53 + d } else { P53 + d };
                if float {
                    Value::Float(i as f64)
                } else {
                    Value::Int(i)
                }
            })
        };
        let edges = || {
            (0usize..11).prop_map(|e| match e {
                0 => Value::Float(0.0),
                1 => Value::Float(-0.0),
                2 => Value::Float(f64::NAN),
                3 => Value::Float(-f64::NAN),
                4 => Value::Float(f64::INFINITY),
                5 => Value::Float(f64::NEG_INFINITY),
                6 => Value::Int(i64::MAX),
                7 => Value::Int(i64::MIN),
                8 => Value::Float(I64_END),
                9 => Value::Float(-I64_END),
                _ => Value::Float(9_223_372_036_854_774_784.0), // largest f64 below 2^63
            })
        };
        prop_oneof![
            at_2_53(),
            at_2_53(),
            at_2_53(),
            at_2_53(),
            edges(),
            (-3i64..4).prop_map(Value::Int),
            (-6i64..7).prop_map(|h| Value::Float(h as f64 / 2.0)),
            any::<i64>().prop_map(Value::Int),
            any::<i64>().prop_map(|i| Value::Float(i as f64)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn numeric_order_is_a_total_order(a in numeric(), b in numeric(), c in numeric()) {
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
            if a == b && b == c {
                prop_assert!(a == c, "{:?} == {:?} == {:?}", a, b, c);
            }
            if a <= b && b <= c {
                prop_assert!(a <= c, "{:?} <= {:?} <= {:?}", a, b, c);
            }
            if a == b {
                prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?}", a, b);
            }
        }
    }

    proptest! {
        #[test]
        fn ord_is_antisymmetric(a in any::<i64>(), b in any::<i64>()) {
            let (x, y) = (Value::Int(a), Value::Int(b));
            prop_assert_eq!(x.cmp(&y), y.cmp(&x).reverse());
        }

        #[test]
        fn eq_implies_same_hash(a in any::<i64>()) {
            let (x, y) = (Value::Int(a), Value::Float(a as f64));
            if x == y {
                prop_assert_eq!(hash_of(&x), hash_of(&y));
            }
        }

        #[test]
        fn int_string_cast_roundtrip(a in any::<i64>()) {
            let v = Value::Int(a);
            let s = v.cast(DataType::Str).unwrap();
            prop_assert_eq!(s.cast(DataType::Int), Some(v));
        }

        #[test]
        fn float_total_order_is_transitive(a in any::<f64>(), b in any::<f64>(), c in any::<f64>()) {
            let (x, y, z) = (Value::Float(a), Value::Float(b), Value::Float(c));
            if x <= y && y <= z {
                prop_assert!(x <= z);
            }
        }
    }
}
