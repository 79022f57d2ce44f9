//! Repo automation for the SolarCore workspace (`cargo xtask <command>`).
//!
//! Commands:
//!
//! * `lint` — repo-specific static-analysis passes the compiler cannot
//!   express: unit-newtype discipline on public APIs and unchecked-cast
//!   detection in conversion-heavy modules.
//! * `analyze` — token-level analysis passes: dimensional consistency of
//!   unit arithmetic, and exhaustiveness/dead states of the controller
//!   and policy enums.
//! * `flow` — dataflow analysis over a per-function AST: interval/range
//!   analysis of physical quantities (proving runtime sanitizer checks
//!   statically dischargeable) and telemetry schema conformance. The
//!   proven fraction is held to a ratchet: it may never drop below the
//!   baseline in the committed `results/flow_report.json`; `--bless`
//!   rewrites the report to advance the baseline.
//! * `determinism` — dynamic bitwise-reproducibility harness: runs the
//!   policy-grid day simulations at 1 thread, N threads, and with shuffled
//!   input order and compares canonical `f64::to_bits` hashes.
//! * `bench` — runs the criterion suite and collects median ns/iter per
//!   benchmark into `BENCH_pr3.json`; `--smoke` shrinks sample counts so
//!   CI can verify the harness without a full measurement run.
//! * `trace` — runs the golden telemetry day (Golden CO / Jan / HM2 /
//!   MPPT&Opt), writes its JSONL stream under `results/`, renders the
//!   per-period tracking timeline and cross-checks the stream's
//!   tracking-error aggregate against the committed Table 7 artifact;
//!   fails if any tracking call on the day ended at the `max_rounds` cap.
//! * `chaos` — runs the differential fault-injection campaign over every
//!   scenario under `scenarios/`, enforcing the soundness gates (control
//!   rows bit-transparent, zero false degradation trips) and rewriting
//!   `results/chaos_report.json`; `--smoke` runs a two-scenario subset
//!   with the same gates and writes nothing.
//! * `campaign` — runs the year-scale sharded campaign engine on the
//!   committed `campaigns/year_fleet.toml` spec, proves the report is
//!   byte-identical across thread counts and across a kill/resume cycle,
//!   and rewrites `results/campaign_report.json`; `--smoke` runs a
//!   four-shard inline spec through the same gates and writes nothing.
//! * `profile` — runs the year-scale campaign under the hierarchical
//!   wall-clock profiler and writes `results/profile_report.json`
//!   (deterministic structural section + machine-dependent wall section)
//!   plus flamegraph/Chrome-trace renders under `target/`; `--smoke`
//!   proves structural byte-stability and bit-transparency on the
//!   four-shard spec and writes nothing.
//! * `tdiff` — schema-aware diff of two telemetry/profile/campaign
//!   artifacts: counters by relative delta, histograms by quantile
//!   profile, span trees structurally and by wall-time thresholds;
//!   non-zero exit on any regression.
//! * `docs` — documentation cross-reference pass: every `§N` pointer
//!   resolves to a DESIGN.md heading, every committed `results/*.json`
//!   is catalogued in EXPERIMENTS.md, and the README crate map covers
//!   every workspace crate.
//! * `ci`   — the one-command verification gate, in dependency order:
//!   lint → docs → clippy → analyze → flow → doc → build → test →
//!   determinism → trace → chaos smoke → campaign smoke → profile smoke →
//!   tdiff self-check → bench smoke → perfbench tests.
//!
//! Guarantees the toolchain already gives are configured there, not
//! re-proved here: `unsafe_code = "forbid"` and the must-use lints in the
//! root `Cargo.toml`, the determinism fence (hash-ordered collections,
//! ambient time, completion-order receives) in the root `clippy.toml`,
//! and panic freedom as per-crate clippy `deny`/`forbid` attributes —
//! all enforced by the `clippy -D warnings` step of `ci`.
//!
//! Exit status is non-zero when any pass finds a violation, so all
//! commands can gate CI directly.
//!
//! The passes themselves live in the `xtask` library crate (see
//! `src/lib.rs`) so their unit tests and the fixture ui tests can drive
//! them directly.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use xtask::{analyze, bench, docs, flow, lint};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("analyze") => run_analyze(),
        Some("flow") => run_flow(args.iter().any(|a| a == "--bless")),
        Some("determinism") => run_determinism(),
        Some("bench") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            bench::run(&workspace_root(), smoke)
        }
        Some("trace") => run_trace(),
        Some("chaos") => run_chaos(args.iter().any(|a| a == "--smoke")),
        Some("campaign") => run_campaign(args.iter().any(|a| a == "--smoke")),
        Some("profile") => run_profile(args.iter().any(|a| a == "--smoke")),
        Some("tdiff") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => run_tdiff(a, b),
            _ => {
                eprintln!("usage: cargo xtask tdiff <a.json> <b.json>");
                ExitCode::FAILURE
            }
        },
        Some("docs") => run_docs(),
        Some("ci") => run_ci(),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
        None => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <lint | docs | analyze | flow [--bless] | determinism | \
         bench [--smoke] | trace | chaos [--smoke] | campaign [--smoke] | profile [--smoke] | \
         tdiff <a> <b> | ci>"
    );
    eprintln!("  lint         run the repo-specific static-analysis passes");
    eprintln!("  analyze      run dimensional and exhaustiveness analysis");
    eprintln!("  flow         run the interval and schema-conformance dataflow passes");
    eprintln!("               (--bless rewrites results/flow_report.json, advancing the ratchet)");
    eprintln!("  determinism  verify bit-identical day-sim output across thread counts");
    eprintln!("  bench        run the criterion suite and write BENCH_pr3.json");
    eprintln!("  trace        run the golden telemetry day and render its timeline");
    eprintln!(
        "  chaos        run the fault-injection campaign and write results/chaos_report.json"
    );
    eprintln!("               (--smoke runs a two-scenario subset and writes nothing)");
    eprintln!(
        "  campaign     run the year-scale sharded campaign and write \
         results/campaign_report.json"
    );
    eprintln!("               (--smoke runs a four-shard inline spec and writes nothing)");
    eprintln!(
        "  profile      run the year-scale campaign profiled and write \
         results/profile_report.json"
    );
    eprintln!("               (--smoke proves byte-stability/transparency and writes nothing)");
    eprintln!("  tdiff        schema-aware diff of two telemetry/profile/campaign artifacts");
    eprintln!("  docs         check DESIGN.md anchors, the EXPERIMENTS.md catalog, the crate map");
    eprintln!(
        "  ci           lint, docs, clippy, analyze, flow, doc, build, test, determinism, \
         chaos smoke, campaign smoke, profile smoke, tdiff self-check, bench smoke, \
         perfbench tests"
    );
}

/// Locates the workspace root (the directory holding the top Cargo.toml).
fn workspace_root() -> PathBuf {
    // cargo sets CARGO_MANIFEST_DIR to <root>/xtask when running this bin.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_owned());
    let dir = PathBuf::from(manifest);
    dir.parent().map(PathBuf::from).unwrap_or(dir)
}

/// Prints a report and converts it to an exit code, shared by the
/// static-analysis commands.
fn finish(command: &str, result: Result<lint::Report, String>) -> ExitCode {
    match result {
        Ok(report) => {
            if report.violations.is_empty() {
                println!(
                    "xtask {command}: clean ({} files scanned, {} waivers in effect)",
                    report.files_scanned, report.waivers_used
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!(
                    "xtask {command}: {} violation(s) in {} file(s) scanned",
                    report.violations.len(),
                    report.files_scanned
                );
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("xtask {command}: error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint() -> ExitCode {
    finish("lint", lint::run(&workspace_root()))
}

fn run_docs() -> ExitCode {
    finish("docs", docs::run(&workspace_root()))
}

fn run_analyze() -> ExitCode {
    finish("analyze", analyze::run(&workspace_root()))
}

fn run_flow(bless: bool) -> ExitCode {
    let root = workspace_root();
    match flow::run(&root) {
        Ok(outcome) => {
            println!("{}", outcome.summary());
            // Gate order: findings, then the ratchet, then artifact
            // freshness — so the most actionable failure prints first.
            let proven_ratio = outcome.proven_ratio;
            let baseline = outcome.baseline;
            let gate_passed = outcome.proof_gate_passed;
            let rendered = flow::report_json(&outcome).render();
            let code = finish("flow", Ok(outcome.report));
            if code != ExitCode::SUCCESS {
                return code;
            }
            if !gate_passed {
                eprintln!(
                    "xtask flow: proven-invariant ratio {:.2}% dropped below the ratchet \
                     baseline {:.2}% (results/flow_report.json); prove more, don't regress",
                    proven_ratio * 100.0,
                    baseline * 100.0
                );
                return ExitCode::FAILURE;
            }
            let report_path = root.join("results").join("flow_report.json");
            if bless {
                let write = std::fs::create_dir_all(root.join("results"))
                    .and_then(|()| std::fs::write(&report_path, &rendered));
                if let Err(err) = write {
                    eprintln!("xtask flow: cannot write {}: {err}", report_path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "xtask flow: report blessed at {} (ratchet now {:.2}%)",
                    report_path.display(),
                    proven_ratio * 100.0
                );
            } else if std::fs::read_to_string(&report_path).ok().as_deref() != Some(&rendered) {
                eprintln!(
                    "xtask flow: {} is stale (the analysis moved); run `cargo xtask flow \
                     --bless` and commit the report",
                    report_path.display()
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("xtask flow: error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the dynamic reproducibility harness (a bench binary, so xtask does
/// not link the simulation crates).
fn run_determinism() -> ExitCode {
    let root = workspace_root();
    println!("xtask determinism: running determinism_check (release)");
    let status = Command::new("cargo")
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "bench",
            "--bin",
            "determinism_check",
        ])
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("xtask determinism: divergence detected (see output above)");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask determinism: could not spawn cargo: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the golden-day telemetry report (a bench binary, so xtask does not
/// link the simulation crates).
fn run_trace() -> ExitCode {
    let root = workspace_root();
    println!("xtask trace: running trace_report (release)");
    let status = Command::new("cargo")
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "bench",
            "--bin",
            "trace_report",
        ])
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("xtask trace: golden-day cross-check failed (see output above)");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask trace: could not spawn cargo: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the differential chaos campaign (a bench binary, so xtask does
/// not link the simulation crates).
fn run_chaos(smoke: bool) -> ExitCode {
    let root = workspace_root();
    let mode = if smoke { " --smoke" } else { "" };
    println!("xtask chaos: running chaos_check{mode} (release)");
    let mut args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "bench",
        "--bin",
        "chaos_check",
    ];
    if smoke {
        args.extend(["--", "--smoke"]);
    }
    let status = Command::new("cargo")
        .args(&args)
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("xtask chaos: campaign gate failed (see output above)");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask chaos: could not spawn cargo: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the sharded campaign engine (a bench binary, so xtask does not
/// link the simulation crates).
fn run_campaign(smoke: bool) -> ExitCode {
    let root = workspace_root();
    let mode = if smoke { " --smoke" } else { "" };
    println!("xtask campaign: running campaign{mode} (release)");
    let mut args = vec!["run", "--release", "-q", "-p", "bench", "--bin", "campaign"];
    if smoke {
        args.extend(["--", "--smoke"]);
    }
    let status = Command::new("cargo")
        .args(&args)
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("xtask campaign: determinism/resume gate failed (see output above)");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask campaign: could not spawn cargo: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the wall-clock profile report (a bench binary, so xtask does not
/// link the simulation crates).
fn run_profile(smoke: bool) -> ExitCode {
    let root = workspace_root();
    let mode = if smoke { " --smoke" } else { "" };
    println!("xtask profile: running profile_report{mode} (release)");
    let mut args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "bench",
        "--bin",
        "profile_report",
    ];
    if smoke {
        args.extend(["--", "--smoke"]);
    }
    let status = Command::new("cargo")
        .args(&args)
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("xtask profile: transparency/stability gate failed (see output above)");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask profile: could not spawn cargo: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Diffs two artifacts via the bench `tdiff` binary; non-zero exit on
/// any regression.
fn run_tdiff(a: &str, b: &str) -> ExitCode {
    let root = workspace_root();
    println!("xtask tdiff: comparing {a} vs {b} (release)");
    let status = Command::new("cargo")
        .args([
            "run", "--release", "-q", "-p", "bench", "--bin", "tdiff", "--", a, b,
        ])
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("xtask tdiff: regressions found (see output above)");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask tdiff: could not spawn cargo: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_ci() -> ExitCode {
    let root = workspace_root();

    // Static gates first: they are cheap and fail fast.
    println!("xtask ci: running xtask lint");
    if run_lint() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    println!("xtask ci: running xtask docs");
    if run_docs() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    let clippy: &[&str] = &[
        "clippy",
        "--workspace",
        "--all-targets",
        "--",
        "-D",
        "warnings",
    ];
    println!("xtask ci: running cargo {}", clippy.join(" "));
    if !run_cargo_step(&root, "clippy", clippy) {
        return ExitCode::FAILURE;
    }

    println!("xtask ci: running xtask analyze");
    if run_analyze() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    println!("xtask ci: running xtask flow");
    if run_flow(false) != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    // Rustdoc gate: crate-level docs and doc links must stay warning-free
    // (the observability contract in `solarcore::telemetry` is rustdoc).
    let doc: &[&str] = &["doc", "--no-deps", "--workspace"];
    println!(
        "xtask ci: running cargo {} (RUSTDOCFLAGS=-D warnings)",
        doc.join(" ")
    );
    let doc_status = Command::new("cargo")
        .args(doc)
        .env("RUSTDOCFLAGS", "-D warnings")
        .current_dir(&root)
        .status();
    match doc_status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("xtask ci: step `doc` failed with {s}");
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("xtask ci: could not spawn cargo for `doc`: {err}");
            return ExitCode::FAILURE;
        }
    }

    let build_test: [(&str, &[&str]); 2] = [
        ("build", &["build", "--release", "--workspace"]),
        ("test", &["test", "-q", "--workspace"]),
    ];
    for (name, args) in build_test {
        println!("xtask ci: running cargo {}", args.join(" "));
        if !run_cargo_step(&root, name, args) {
            return ExitCode::FAILURE;
        }
    }

    println!("xtask ci: running xtask determinism");
    if run_determinism() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    // Golden-day trace: the stream reproduces Table 7 and no tracking
    // call ends at the round cap (DESIGN.md §8).
    println!("xtask ci: running xtask trace");
    if run_trace() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    // Chaos smoke: proves the fault-injection campaign's soundness gates
    // (control transparency, zero false trips) on a two-scenario subset.
    println!("xtask ci: running xtask chaos --smoke");
    if run_chaos(true) != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    // Campaign smoke: proves the sharded campaign engine's determinism
    // and kill/resume gates on a four-shard inline spec.
    println!("xtask ci: running xtask campaign --smoke");
    if run_campaign(true) != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    // Profile smoke: proves the wall-clock profiler's structural section
    // is byte-stable across thread counts and that profiling leaves the
    // campaign report bytes untouched.
    println!("xtask ci: running xtask profile --smoke");
    if run_profile(true) != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    // tdiff self-check: the committed campaign report diffed against
    // itself must report zero findings — proves the comparison engine
    // parses the real artifact and that "identical" means identical.
    println!("xtask ci: running xtask tdiff (campaign report self-check)");
    if run_tdiff("results/campaign_report.json", "results/campaign_report.json")
        != ExitCode::SUCCESS
    {
        return ExitCode::FAILURE;
    }

    // Benchmark smoke: proves every bench target runs to completion and
    // emits a well-formed BENCH_pr3.json; does not assert timing.
    println!("xtask ci: running xtask bench --smoke");
    if bench::run(&root, true) != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    // perfbench lives outside the workspace (its own lockfile), so the
    // workspace build and test steps never compile it; its tests catch an
    // API break in the bench crate before a benchmark run does.
    let perfbench: &[&str] = &[
        "test",
        "--release",
        "--offline",
        "--locked",
        "--manifest-path",
        "perfbench/Cargo.toml",
    ];
    println!("xtask ci: running cargo {}", perfbench.join(" "));
    if !run_cargo_step(&root, "perfbench test", perfbench) {
        return ExitCode::FAILURE;
    }

    println!("xtask ci: all gates passed");
    ExitCode::SUCCESS
}

/// Spawns one cargo step; `true` on success.
fn run_cargo_step(root: &std::path::Path, name: &str, args: &[&str]) -> bool {
    match Command::new("cargo").args(args).current_dir(root).status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask ci: step `{name}` failed with {s}");
            false
        }
        Err(err) => {
            eprintln!("xtask ci: could not spawn cargo for `{name}`: {err}");
            false
        }
    }
}
