//! Canonical hand-rolled JSON rendering for xtask report artifacts.
//!
//! Reports under `results/` are committed, so two runs over the same
//! sources must produce byte-identical files. This module guarantees that
//! structurally: object keys render in sorted order (a [`BTreeMap`] is the
//! only object representation), floats render via Rust's shortest-roundtrip
//! `{}` formatting (deterministic, locale-free), and indentation is fixed
//! at two spaces. xtask stays dependency-free, so this is the one JSON
//! serializer every report goes through.

use std::collections::BTreeMap;

/// A JSON value with deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null` (JSON has no ±∞/NaN).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array, in insertion order.
    Arr(Vec<Json>),
    /// An object; keys render sorted because the map is ordered.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object builder from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| ≤ 2^53).
    #[allow(clippy::cast_precision_loss)]
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Renders the value as a pretty-printed document with a trailing
    /// newline — the canonical byte form of every committed report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Canonical float formatting: integral values render without a fraction,
/// everything else uses the shortest-roundtrip `{}` form; non-finite
/// values become `null`.
#[allow(clippy::float_cmp)]
fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v == v.trunc() && v.abs() < 1e15 {
        // |v| < 1e15 keeps the cast exact, well inside i64 range.
        #[allow(clippy::cast_possible_truncation)]
        let n = v as i64;
        out.push_str(&n.to_string());
    } else {
        out.push_str(&v.to_string());
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_sorted_regardless_of_insertion_order() {
        let a = Json::obj(vec![("zeta", Json::int(1)), ("alpha", Json::int(2))]);
        let b = Json::obj(vec![("alpha", Json::int(2)), ("zeta", Json::int(1))]);
        assert_eq!(a.render(), b.render());
        assert!(a.render().find("alpha") < a.render().find("zeta"));
    }

    #[test]
    fn floats_render_canonically() {
        let mut s = String::new();
        write_num(&mut s, 0.7407);
        assert_eq!(s, "0.7407");
        s.clear();
        write_num(&mut s, 27.0);
        assert_eq!(s, "27");
        s.clear();
        write_num(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        let j = Json::str("a\"b\\c\nd");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn rendering_is_reproducible() {
        let j = Json::obj(vec![
            ("ratio", Json::Num(0.8148)),
            ("items", Json::Arr(vec![Json::str("x"), Json::Null])),
        ]);
        assert_eq!(j.render(), j.render());
    }
}
