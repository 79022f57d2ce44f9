//! Result serialization, canonical JSON rendering, and plain-text tables.
//!
//! Two JSON paths live here. [`write_json`] serializes through serde for
//! the figure/table experiment artifacts. [`Json`] is the *canonical*
//! renderer (same contract as `xtask/src/jsonout.rs`, which bench cannot
//! depend on): sorted object keys, shortest-roundtrip float formatting,
//! fixed two-space indentation, trailing newline. The campaign engine's
//! checkpoints and `results/campaign_report.json` go through [`Json`]
//! because resume-bit-identity needs a byte-stable encoding whose floats
//! parse back to the exact same `f64` bits.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Serializes `value` as pretty JSON into `<dir>/<name>.json`, creating the
/// directory if needed. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem and serialization errors.
pub fn write_json<T: Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
) -> Result<PathBuf, Box<dyn std::error::Error>> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

/// Removes the file at `path` if there is one. A missing file is not an
/// error; any other failure is, since a stale checkpoint left in place
/// would be resumed instead of started fresh.
///
/// # Errors
///
/// Propagates every filesystem error except `NotFound`.
pub fn remove_if_present(path: &Path) -> std::io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// A JSON value with deterministic, byte-stable rendering.
///
/// Object keys render sorted (the [`BTreeMap`] is the only object
/// representation), floats use Rust's shortest-roundtrip `{}` formatting
/// (integral values render without a fraction; non-finite become `null`),
/// and indentation is fixed at two spaces — so two renders of the same
/// value are byte-identical on every platform.
///
/// ```
/// use bench::output::Json;
///
/// let doc = Json::obj(vec![
///     ("zeta", Json::int(1)),
///     ("alpha", Json::Num(0.5)),
/// ]);
/// assert_eq!(doc.render(), "{\n  \"alpha\": 0.5,\n  \"zeta\": 1\n}\n");
/// ```
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

    /// A `u64` rendered as a fixed-width hex string — the canonical form
    /// for FNV-1a digests, which do not fit an `f64` exactly.
    pub fn hex(n: u64) -> Json {
        Json::Str(format!("{n:016x}"))
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

/// A minimal fixed-width text table for terminal output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(["site", "kWh"]);
        t.row(["AZ", "6.1"]).row(["Golden, CO", "5.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("site"));
        assert!(lines[2].starts_with("AZ"));
        assert!(lines[3].starts_with("Golden, CO"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn canonical_keys_render_sorted_regardless_of_insertion_order() {
        let a = Json::obj(vec![("zeta", Json::int(1)), ("alpha", Json::int(2))]);
        let b = Json::obj(vec![("alpha", Json::int(2)), ("zeta", Json::int(1))]);
        assert_eq!(a.render(), b.render());
        assert!(a.render().find("alpha") < a.render().find("zeta"));
    }

    #[test]
    fn canonical_floats_round_trip_exactly() {
        // Shortest-roundtrip rendering followed by a parse must recover
        // the exact bits — the property checkpoint/resume relies on.
        for v in [0.7407, 1.0 / 3.0, 77.65432109876, f64::MIN_POSITIVE] {
            let mut s = String::new();
            write_num(&mut s, v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let mut s = String::new();
        write_num(&mut s, 27.0);
        assert_eq!(s, "27");
        s.clear();
        write_num(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }

    #[test]
    fn hex_digests_are_fixed_width() {
        assert_eq!(Json::hex(0x1f).render(), "\"000000000000001f\"\n");
        assert_eq!(Json::hex(u64::MAX).render(), "\"ffffffffffffffff\"\n");
    }

    #[test]
    fn canonical_strings_escape_controls_and_quotes() {
        let j = Json::str("a\"b\\c\nd");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn write_json_roundtrips() {
        let dir = std::env::temp_dir().join("solarcore_bench_test");
        let path = write_json(&dir, "t", &vec![1, 2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains('1'));
        std::fs::remove_file(path).unwrap();
    }
}
