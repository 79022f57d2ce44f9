//! Repo automation library for the SolarCore workspace.
//!
//! The `cargo xtask` binary is a thin dispatcher over this crate; the
//! passes live here so their unit tests and the fixture-based ui tests
//! under `xtask/tests/` can drive them directly against small seeded
//! inputs.
//!
//! Module map:
//!
//! * [`syntax`] — the shared dependency-free source model: comment/string
//!   masking, waiver markers, the token lexer and the workspace walker.
//! * [`lint`] — line-level policy passes (raw `f64` discipline,
//!   unchecked casts) plus the waiver machinery every other command
//!   reuses.
//! * [`analyze`] — token-level passes: dimensional analysis, enum
//!   exhaustiveness/dead states.
//! * [`flow`] — dataflow passes over a per-function AST: interval/range
//!   analysis of physical quantities and telemetry schema conformance.
//! * [`docs`] — documentation cross-reference pass: DESIGN.md §-anchors,
//!   the EXPERIMENTS.md artifact catalog and the README crate map.
//! * [`jsonout`] — the canonical sorted-key JSON renderer of
//!   `results/flow_report.json`.
//! * [`bench`](mod@bench) — the criterion harness driver and
//!   `BENCH_pr3.json` collector.

pub mod analyze;
pub mod bench;
pub mod docs;
pub mod flow;
pub mod jsonout;
pub mod lint;
pub mod syntax;
