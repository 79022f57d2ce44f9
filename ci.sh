#!/usr/bin/env sh
# Full local CI gate, in order: invariant lints (cargo xtask lint:
# unit-newtype discipline, unchecked casts), documentation
# cross-references (cargo xtask docs: every §N pointer resolves to a
# DESIGN.md heading, every committed results/*.json is catalogued in
# EXPERIMENTS.md, every crate has a README crate-map row), clippy
# -D warnings (panic freedom, no dropped Results, no unsafe, and the
# determinism fence of the root clippy.toml: no HashMap/HashSet, ambient
# clocks or completion-order receives), static analysis (cargo xtask
# analyze: dimensional / exhaustiveness passes), dataflow analysis
# (cargo xtask flow: interval/range proofs over the sanitizer sites, with
# a *ratchet* on the proven-checks ratio: it may never drop below the
# baseline recorded in the committed results/flow_report.json, and
# `cargo xtask flow --bless` is the only way to advance it; plus
# telemetry schema conformance and the dead-schema audit), rustdoc with
# RUSTDOCFLAGS="-D warnings" (cargo doc --no-deps — the telemetry
# schema in solarcore::schema is rustdoc, so doc rot fails CI), release build,
# workspace tests, the bitwise-reproducibility harness (cargo xtask
# determinism — now also proves traced runs are bit-transparent and
# their JSONL byte-identical, and that a sharded campaign digests
# identically across thread counts and a kill/resume cycle), the golden
# telemetry day (cargo xtask trace: the stream reproduces Table 7 and no
# tracking call ends at the max_rounds cap), the chaos
# smoke gate (cargo xtask chaos --smoke), the campaign smoke gate
# (cargo xtask campaign --smoke: four shards, byte-identity across
# 1/N threads and kill+resume, DESIGN.md §18), the profile smoke gate
# (cargo xtask profile --smoke), a tdiff self-check, a benchmark smoke
# run (cargo xtask bench --smoke) that validates every bench target
# and archives BENCH_pr3.json at the repo root, and the tests of the
# standalone perfbench package (outside the workspace, so the build and
# test steps above never compile it).
#
# Exits non-zero on the first failing gate. See DESIGN.md §11 for the
# invariant catalog, §12 for the static analysis passes, §13 for the
# caching/benchmark layer, §14 for the observability contract, §15 for
# the dataflow passes and the proven-ratio ratchet, §17 for fault
# injection, §18 for the campaign engine, and §19 for profiling;
# docs/HANDBOOK.md is the operator-facing walkthrough of this gate order.
#
# Note on proptest regressions: the vendored proptest stub does not read
# tests/tests/properties.proptest-regressions. The corpus is replayed as
# explicit tests in tests/tests/regressions.rs (covered by the workspace
# test step); see DESIGN.md §13 for the workflow when adding a new seed.
set -eu
cd "$(dirname "$0")"
exec cargo xtask ci
