//! `cargo xtask analyze`: token-level static analysis the compiler cannot
//! do for us.
//!
//! Two passes run over every crate source, experiment binaries included:
//!
//! * [`dims`] — dimensional analysis: learns the unit algebra from
//!   `crates/pv/src/units.rs` and shadows it through arithmetic, catching
//!   cross-unit `+`/`-`, undeclared product dimensions, and `.0` unit
//!   laundering even after values pass through raw `f64` locals;
//! * [`exhaustive`] — wildcard/catch-all arms on the state-machine enums
//!   of `solarcore::{controller,policy}` and `archsim::dvfs`, plus
//!   dead (never-referenced) states.
//!
//! Determinism hazards (hash-ordered collections, ambient time,
//! completion-order receives) are not a pass here: the root `clippy.toml`
//! lists them as `disallowed-types` / `disallowed-methods`.
//!
//! Findings use the same waiver machinery as `cargo xtask lint`: inline
//! `// lint:allow(<pass>): <reason>` markers and `xtask/lint-allow.txt`
//! path prefixes — and like lint, an unused waiver is itself an error.

pub mod dims;
pub mod exhaustive;
pub mod units;

use std::fs;
use std::path::Path;

use crate::lint::{self, Report, Violation};
use crate::syntax::files;
use crate::syntax::source::SourceFile;

/// The passes `cargo xtask analyze` runs; scopes unused-waiver accounting.
pub const PASSES: &[&str] = &[dims::PASS, exhaustive::PASS];

/// Runs the two analysis passes over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let mut allow = lint::Allowlist::load(root)?;
    let algebra = units::UnitAlgebra::learn(root)?;
    if algebra.unit_count() == 0 {
        return Err(
            "no unit newtypes learned from crates/pv/src/units.rs — dimensional \
                    analysis would be vacuous"
                .to_owned(),
        );
    }
    let enums = exhaustive::Enums::learn(root)?;
    let mut report = Report::default();

    // Unlike lint, the experiment binaries are included: their unit
    // arithmetic and enum matches are as much in scope as the libraries'.
    let files = files::collect_crate_sources(root, true)?;
    report.files_scanned = files.len();

    // Two-stage run: per-file findings are buffered so the whole-workspace
    // dead-variant pass can append to the declaring files before waiver
    // accounting (a waiver for a dead state must count as used).
    let mut buffered: Vec<(SourceFile, Vec<Violation>)> = Vec::new();
    let mut mentioned: Vec<(String, String)> = Vec::new();

    for path in &files {
        let rel = files::relative(root, path);
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let src = SourceFile::parse(&rel, &text);

        let mut findings = Vec::new();
        if dims::applies_to(&rel) {
            findings.extend(dims::check(&src, &algebra));
        }
        if exhaustive::applies_to(&rel) {
            findings.extend(exhaustive::check(&src, &enums));
            for (e, v) in exhaustive::mentions(&src, &enums) {
                let declared_here = enums.defs.iter().any(|d| d.name == e && d.path == rel);
                if !declared_here {
                    mentioned.push((e, v));
                }
            }
        }
        buffered.push((src, findings));
    }

    for dead in exhaustive::dead_variants(&enums, &mentioned) {
        if let Some((_, findings)) = buffered.iter_mut().find(|(s, _)| s.path == dead.path) {
            findings.push(dead);
        } else {
            report.violations.push(dead);
        }
    }

    for (src, findings) in buffered {
        lint::apply_file_waivers(&mut allow, &src, findings, PASSES, &mut report);
    }
    report.violations.extend(allow.unused(PASSES));

    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: the analyzer must run clean on the real workspace —
    /// this is the same gate `ci.sh` enforces.
    #[test]
    fn workspace_analyzes_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let report = run(root).unwrap();
        assert!(
            report.violations.is_empty(),
            "analyze found {} violation(s):\n{}",
            report.violations.len(),
            report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned > 0);
    }
}
