//! The repo-specific lint driver: walks workspace sources, runs each pass,
//! and applies the waiver mechanisms.
//!
//! Two passes enforce invariants the compiler cannot see:
//!
//! * [`rawf64`] — public APIs of the physics crates must use `pv::units`
//!   newtypes for physical quantities instead of raw `f64`;
//! * [`casts`] — conversion-heavy modules must not use unchecked `as`
//!   numeric casts that can truncate silently.
//!
//! Two waiver mechanisms exist, both explicit and reviewable:
//!
//! * an inline marker on the offending line:
//!   `// lint:allow(<pass>): <reason>`;
//! * a workspace allowlist file `xtask/lint-allow.txt` with
//!   `<pass> <path-prefix> [# comment]` lines for whole files/directories.
//!
//! Panic freedom is not a pass here: the library crates deny clippy's
//! `unwrap_used`/`expect_used`/`panic`, and the telemetry crate forbids
//! them, so the compiler rejects any `#[allow]` there.

pub mod casts;
pub mod rawf64;

use std::fmt;
use std::fs;
use std::path::Path;

use crate::syntax::files;
use crate::syntax::source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which pass produced the finding (`raw-f64`, `cast`, `dim`, ...).
    pub pass: &'static str,
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.pass, self.message
        )
    }
}

/// Outcome of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving (non-waived) violations.
    pub violations: Vec<Violation>,
    /// Number of files scanned by at least one pass.
    pub files_scanned: usize,
    /// Findings suppressed by inline markers or the allowlist.
    pub waivers_used: usize,
}

/// The passes `cargo xtask lint` runs (analyze has its own set); used to
/// scope unused-waiver accounting so each command only polices its own
/// markers and allowlist entries.
pub const PASSES: &[&str] = &["raw-f64", "cast"];

/// One `<pass> <path-prefix>` allowlist entry, with usage tracking.
#[derive(Debug)]
struct AllowEntry {
    pass: String,
    prefix: String,
    /// 1-based line in `lint-allow.txt`.
    line: usize,
    /// Set once a finding was suppressed through this entry.
    used: bool,
}

/// A parsed `xtask/lint-allow.txt`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Loads the allowlist; a missing file is an empty allowlist.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("xtask").join("lint-allow.txt");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let mut entries = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(pass), Some(prefix)) => {
                    entries.push(AllowEntry {
                        pass: pass.to_owned(),
                        prefix: prefix.to_owned(),
                        line: n + 1,
                        used: false,
                    });
                }
                _ => {
                    return Err(format!(
                        "lint-allow.txt:{}: expected `<pass> <path-prefix>`",
                        n + 1
                    ))
                }
            }
        }
        Ok(Self { entries })
    }

    /// `true` if `pass` findings in `path` are waived wholesale; marks the
    /// matching entry as used.
    pub fn allows(&mut self, pass: &str, path: &str) -> bool {
        let mut hit = false;
        for e in &mut self.entries {
            if e.pass == pass && path.starts_with(e.prefix.as_str()) {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Stale entries for the given pass set: never matched a finding during
    /// this run, so they allow nothing and must be pruned.
    pub fn unused(&self, passes: &[&str]) -> Vec<Violation> {
        self.entries
            .iter()
            .filter(|e| !e.used && passes.contains(&e.pass.as_str()))
            .map(|e| Violation {
                pass: "waiver",
                path: "xtask/lint-allow.txt".to_owned(),
                line: e.line,
                message: format!(
                    "stale allowlist entry `{} {}`: no finding matches it any more — \
                     remove the line",
                    e.pass, e.prefix
                ),
            })
            .collect()
    }
}

/// Applies both waiver mechanisms to one file's findings, feeding `report`;
/// also flags reason-less and unused inline markers belonging to `passes`.
pub fn apply_file_waivers(
    allow: &mut Allowlist,
    src: &SourceFile,
    findings: Vec<Violation>,
    passes: &[&str],
    report: &mut Report,
) {
    let mut inline_hits: Vec<(usize, &'static str)> = Vec::new();
    for v in findings {
        if allow.allows(v.pass, &src.path) {
            report.waivers_used += 1;
        } else if src.has_waiver(v.line, v.pass) {
            report.waivers_used += 1;
            inline_hits.push((v.line, v.pass));
        } else {
            report.violations.push(v);
        }
    }
    for m in src.waiver_markers() {
        if !passes.contains(&m.pass.as_str()) {
            continue;
        }
        if !m.has_reason {
            report.violations.push(Violation {
                pass: "waiver",
                path: src.path.clone(),
                line: m.line,
                message: format!(
                    "waiver `lint:allow({})` has no reason — write \
                     `// lint:allow({}): <why>`",
                    m.pass, m.pass
                ),
            });
            continue;
        }
        // A marker covers its own line and, as a comment-only line, the
        // line below (matching `SourceFile::has_waiver`).
        let used = inline_hits
            .iter()
            .any(|(l, p)| *p == m.pass && (*l == m.line || *l == m.line + 1));
        if !used {
            report.violations.push(Violation {
                pass: "waiver",
                path: src.path.clone(),
                line: m.line,
                message: format!(
                    "unused waiver `lint:allow({})`: the finding it suppressed no \
                     longer fires — remove the marker",
                    m.pass
                ),
            });
        }
    }
}

/// Runs every pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let mut allow = Allowlist::load(root)?;
    let mut report = Report::default();

    // Experiment binaries are top-level executables where fail-fast on
    // I/O errors is the desired behaviour, so they are out of scope.
    let files = files::collect_crate_sources(root, false)?;
    report.files_scanned = files.len();

    for path in &files {
        let rel = files::relative(root, path);
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let src = SourceFile::parse(&rel, &text);

        let mut findings = Vec::new();
        if rawf64::applies_to(&rel) {
            findings.extend(rawf64::check(&src));
        }
        if casts::applies_to(&rel) {
            findings.extend(casts::check(&src));
        }

        apply_file_waivers(&mut allow, &src, findings, PASSES, &mut report);
    }
    report.violations.extend(allow.unused(PASSES));

    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}
