//! Implementations of built-in scalar functions and SQL LIKE matching.

use eii_data::{EiiError, Result, Value};

use crate::ast::ScalarFunc;

/// Evaluate a scalar function over already-evaluated arguments.
///
/// NULL handling follows SQL: most functions are strict (NULL in → NULL out);
/// `COALESCE` and `CONCAT` have their usual special semantics.
pub fn eval_scalar(func: ScalarFunc, args: &[Value]) -> Result<Value> {
    match func {
        ScalarFunc::Coalesce => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        ScalarFunc::Concat => {
            let mut out = String::new();
            for a in args {
                if !a.is_null() {
                    out.push_str(&a.to_string());
                }
            }
            Ok(Value::str(out))
        }
        _ if args.iter().any(Value::is_null) => Ok(Value::Null),
        ScalarFunc::Lower => str_arg(func, args, 0).map(|s| Value::str(s.to_lowercase())),
        ScalarFunc::Upper => str_arg(func, args, 0).map(|s| Value::str(s.to_uppercase())),
        ScalarFunc::Trim => str_arg(func, args, 0).map(|s| Value::str(s.trim())),
        ScalarFunc::Length => {
            str_arg(func, args, 0).map(|s| Value::Int(s.chars().count() as i64))
        }
        ScalarFunc::Abs => match args.first() {
            Some(Value::Int(i)) => Ok(Value::Int(i.wrapping_abs())),
            Some(Value::Float(f)) => Ok(Value::Float(f.abs())),
            _ => Err(arg_error(func, "numeric argument")),
        },
        ScalarFunc::Round => {
            let x = args
                .first()
                .and_then(Value::as_float)
                .ok_or_else(|| arg_error(func, "numeric argument"))?;
            let digits = match args.get(1) {
                None => 0,
                Some(v) => v.as_int().ok_or_else(|| arg_error(func, "integer digits"))? as i32,
            };
            let scale = 10f64.powi(digits);
            Ok(Value::Float((x * scale).round() / scale))
        }
        ScalarFunc::Substr => {
            let s = str_arg(func, args, 0)?;
            let start = args
                .get(1)
                .and_then(Value::as_int)
                .ok_or_else(|| arg_error(func, "integer start"))?;
            let chars: Vec<char> = s.chars().collect();
            // SQL 1-based start; clamp out-of-range.
            let begin = (start.max(1) - 1).min(chars.len() as i64) as usize;
            let end = match args.get(2) {
                None => chars.len(),
                Some(v) => {
                    let len = v.as_int().ok_or_else(|| arg_error(func, "integer length"))?;
                    (begin + len.max(0) as usize).min(chars.len())
                }
            };
            Ok(Value::str(chars[begin..end].iter().collect::<String>()))
        }
    }
}

fn str_arg(func: ScalarFunc, args: &[Value], i: usize) -> Result<&str> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| arg_error(func, "string argument"))
}

fn arg_error(func: ScalarFunc, want: &str) -> EiiError {
    EiiError::Type(format!("{} expects {want}", func.name()))
}

/// SQL LIKE matching: `%` matches any sequence, `_` any single character.
/// Matching is case-sensitive, per the SQL standard.
///
/// One walk over the bytes that backtracks only to the last `%`: a literal
/// character matches byte for byte (no UTF-8 sequence holds the byte of `%`
/// or `_`, so both strings stay on character boundaries), while `_`, and a
/// `%` taking one more character, step over a whole character of `text`.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    let char_len = |at: usize| text[at..].chars().next().map_or(1, char::len_utf8);
    let (mut ti, mut pi) = (0, 0);
    // The last `%`: the pattern after it, and where in `text` its match ends.
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                star = Some((pi, ti));
            }
            Some(b'_') => {
                pi += 1;
                ti += char_len(ti);
            }
            Some(&b) if b == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => match star {
                Some((after, end)) => {
                    let end = end + char_len(end);
                    (star, pi, ti) = (Some((after, end)), after, end);
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&b| b == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The matcher `like_match` replaced: every split point of every `%`
    /// tried, recursively, over `char`s.
    fn like_by_recursion(text: &str, pattern: &str) -> bool {
        fn rec(t: &[char], p: &[char]) -> bool {
            match p.split_first() {
                None => t.is_empty(),
                Some(('%', rest)) => (0..=t.len()).any(|i| rec(&t[i..], rest)),
                Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
                Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
            }
        }
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        rec(&t, &p)
    }

    /// ASCII, two-, three- and four-byte characters, and the wildcards
    /// themselves, which a text may hold as plain characters.
    const ALPHABET: [char; 7] = ['a', 'b', 'é', '日', '🦀', '%', '_'];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `like_match` ≡ the recursive matcher, on texts and patterns over
        /// [`ALPHABET`] — `%`, `_`, `%%` and a trailing `_` among them — and on
        /// each text against itself and against its own prefix and suffix
        /// under a `%`.
        #[test]
        fn the_walk_matches_as_the_recursion_did(
            text in proptest::collection::vec(0usize..7, 0..10),
            pattern in proptest::collection::vec(0usize..7, 0..8),
            cut in 0usize..10,
        ) {
            let text: String = text.iter().map(|&c| ALPHABET[c]).collect();
            let pattern: String = pattern.iter().map(|&c| ALPHABET[c]).collect();
            let (head, tail) = text.split_at(text.char_indices().nth(cut).map_or(text.len(), |(at, _)| at));
            for pattern in [pattern.clone(), format!("{pattern}_"), format!("%%{pattern}"), text.clone(),
                            format!("{head}%"), format!("%{tail}"), format!("{head}_%{tail}")] {
                prop_assert_eq!(like_match(&text, &pattern), like_by_recursion(&text, &pattern),
                    "{:?} LIKE {:?}", text, pattern);
            }
        }
    }

    #[test]
    fn like_basic() {
        assert!(like_match("alice", "alice"));
        assert!(like_match("alice", "a%"));
        assert!(like_match("alice", "%ice"));
        assert!(like_match("alice", "%lic%"));
        assert!(like_match("alice", "_lice"));
        assert!(!like_match("alice", "b%"));
        assert!(!like_match("alice", "alice_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn like_multiple_wildcards() {
        assert!(like_match("a-b-c", "%-%-%"));
        assert!(like_match("abc", "%%%"));
        assert!(!like_match("ab", "a_c"));
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let v = eval_scalar(
            ScalarFunc::Coalesce,
            &[Value::Null, Value::Int(2), Value::Int(3)],
        )
        .unwrap();
        assert_eq!(v, Value::Int(2));
        assert_eq!(
            eval_scalar(ScalarFunc::Coalesce, &[Value::Null]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn strict_functions_propagate_null() {
        assert_eq!(
            eval_scalar(ScalarFunc::Lower, &[Value::Null]).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Abs, &[Value::Null]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn substr_is_one_based_and_clamped() {
        let s = Value::str("hello");
        assert_eq!(
            eval_scalar(ScalarFunc::Substr, &[s.clone(), Value::Int(2), Value::Int(3)]).unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Substr, &[s.clone(), Value::Int(1)]).unwrap(),
            Value::str("hello")
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Substr, &[s.clone(), Value::Int(99)]).unwrap(),
            Value::str("")
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Substr, &[s, Value::Int(0), Value::Int(2)]).unwrap(),
            Value::str("he")
        );
    }

    #[test]
    fn concat_skips_nulls() {
        let v = eval_scalar(
            ScalarFunc::Concat,
            &[Value::str("a"), Value::Null, Value::Int(1)],
        )
        .unwrap();
        assert_eq!(v, Value::str("a1"));
    }

    #[test]
    fn round_with_digits() {
        assert_eq!(
            eval_scalar(ScalarFunc::Round, &[Value::Float(1.23456), Value::Int(2)]).unwrap(),
            Value::Float(1.23)
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Round, &[Value::Float(2.5)]).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn length_counts_chars() {
        assert_eq!(
            eval_scalar(ScalarFunc::Length, &[Value::str("héllo")]).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn type_errors_are_reported() {
        let err = eval_scalar(ScalarFunc::Lower, &[Value::Int(1)]).unwrap_err();
        assert_eq!(err.kind(), "type");
    }
}
