//! Wall-clock profile runner (`cargo xtask profile`).
//!
//! Full mode executes `campaigns/year_fleet.toml` once, profiled, at N
//! threads, and writes `results/profile_report.json` — two strictly
//! separated sections:
//!
//! - `structural`: the merged span tree's *shape* (names, call counts,
//!   simulated minutes). Deterministic: byte-identical at any thread
//!   count, so the artifact diffs cleanly across commits.
//! - `machine`: everything wall-clock — per-span nanoseconds, per-wave
//!   pool analysis (utilization, critical path), collapsed flamegraph
//!   stacks. Machine-dependent by nature; `tdiff` compares it with
//!   thresholds instead of bytes.
//!
//! The run's campaign digest must equal the pinned golden digest — the
//! profiler is bit-transparent or the run fails. Full mode also writes
//! two render-only artifacts under `target/`: `profile.folded`
//! (collapsed stacks for any flamegraph tool) and `profile_trace.json`
//! (Chrome `about:tracing` / Perfetto trace of one instrumented day).
//!
//! `--smoke` runs the four-shard smoke spec profiled at 1 and N threads,
//! proves the structural section is byte-identical across thread counts
//! and that profiling leaves the report bytes unchanged, and writes
//! nothing — the CI-sized variant wired into `cargo xtask ci`.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::campaign::{run, CampaignOutcome, CampaignSpec, RunOptions};
use bench::output::Json;
use bench::parallel::default_threads;
use bench::profile::{chrome_trace, collapse_lines, parse_collapsed, stack_of, structural_json};
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use telemetry::Profiler;
use workloads::Mix;

/// The campaign digest `bench/tests/campaign_golden.rs` pins; the
/// profiled full run must reproduce it exactly.
const PINNED_CAMPAIGN_DIGEST: u64 = 0xfa32_d2b2_c908_ec78;

/// The same four-shard smoke spec the campaign runner uses.
const SMOKE_SPEC: &str = r#"
[campaign]
name = "smoke"
sites = "AZ,TN"
months = "Jan"
days_per_month = 1
mixes = "HM2"
policies = "MPPT&Opt"
scenarios = "none,10_stuck_noon.toml"
checkpoint_every = 1
"#;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    match drive(smoke) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("profile: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

fn drive(smoke: bool) -> Result<bool, Box<dyn Error>> {
    if smoke {
        return smoke_gates();
    }

    let path = repo_path("campaigns/year_fleet.toml");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = CampaignSpec::parse(&text)?;
    let scenarios = repo_path("scenarios");
    let threads = default_threads().max(2);
    println!("profile: {} — profiled at {threads} threads", path.display());

    let outcome = run(&spec, &scenarios, &RunOptions {
        threads,
        profile: true,
        ..RunOptions::default()
    })?;
    let Some(profile) = &outcome.profile else {
        eprintln!("profile: FAIL — profiled run carried no profile");
        return Ok(false);
    };

    let mut ok = true;
    let digest = outcome.digest();
    println!("profile: campaign digest {digest:016x}");
    if digest != PINNED_CAMPAIGN_DIGEST {
        eprintln!(
            "profile: FAIL — profiled digest {digest:016x} != pinned {PINNED_CAMPAIGN_DIGEST:016x} \
             (the profiler must be bit-transparent)"
        );
        ok = false;
    }
    let structural = structural_json(&profile.tree);
    if structural.render() != structural_json(&profile.tree).render() {
        eprintln!("profile: FAIL — structural section renders unstably");
        ok = false;
    }
    if !ok {
        return Ok(false);
    }

    let doc = Json::obj(vec![
        ("campaign", Json::str(&outcome.name)),
        ("digest", Json::hex(digest)),
        ("structural", structural),
        ("machine", profile.machine_json()),
    ]);
    let dir = repo_path("results");
    std::fs::create_dir_all(&dir)?;
    let report_path = dir.join("profile_report.json");
    std::fs::write(&report_path, doc.render())?;
    println!("profile: wrote {}", report_path.display());
    #[allow(clippy::cast_precision_loss)] // display only
    let critical_secs = profile.critical_path_ns() as f64 / 1e9;
    println!(
        "profile: pool utilization {:.3}, critical path {critical_secs:.1}s over {} waves",
        profile.pool_utilization(),
        profile.waves.len()
    );

    // Render-only artifacts (machine-dependent, never committed).
    let target = repo_path("target");
    std::fs::create_dir_all(&target)?;
    let folded: Vec<String> = collapse_lines(&stack_of(&profile.tree));
    std::fs::write(target.join("profile.folded"), folded.join("\n") + "\n")?;
    println!("profile: wrote {}", target.join("profile.folded").display());

    // One instrumented day with the bounded trace log on, for Chrome's
    // about:tracing / Perfetto.
    let prof = Profiler::with_trace_log(4096);
    DaySimulation::builder()
        .site(Site::phoenix_az())
        .season(Season::Jul)
        .day(0)
        .mix(Mix::hm2())
        .policy(Policy::MpptOpt)
        .profiler(prof.clone())
        .build()?
        .run()?;
    let trace = chrome_trace(&prof.take_events());
    std::fs::write(target.join("profile_trace.json"), trace.render())?;
    println!(
        "profile: wrote {}",
        target.join("profile_trace.json").display()
    );
    Ok(true)
}

/// The CI-sized gates: structural byte-stability across thread counts,
/// report-byte transparency, sane pool analysis, flamegraph round-trip.
fn smoke_gates() -> Result<bool, Box<dyn Error>> {
    let spec = CampaignSpec::parse(SMOKE_SPEC)?;
    let scenarios = repo_path("scenarios");
    let threads = default_threads().max(2);

    let profiled = |threads: usize| -> Result<CampaignOutcome, Box<dyn Error>> {
        run(&spec, &scenarios, &RunOptions {
            threads,
            profile: true,
            ..RunOptions::default()
        })
    };
    let narrow = profiled(1)?;
    let wide = profiled(threads)?;
    let plain = run(&spec, &scenarios, &RunOptions {
        threads,
        ..RunOptions::default()
    })?;

    let mut ok = true;
    let (Some(narrow_prof), Some(wide_prof)) = (&narrow.profile, &wide.profile) else {
        eprintln!("profile: FAIL — profiled smoke runs carried no profile");
        return Ok(false);
    };
    let narrow_doc = structural_json(&narrow_prof.tree).render();
    let wide_doc = structural_json(&wide_prof.tree).render();
    if narrow_doc != wide_doc {
        eprintln!("profile: FAIL — structural section differs between 1 and {threads} threads");
        ok = false;
    }
    if wide.report_json().render() != plain.report_json().render() {
        eprintln!("profile: FAIL — profiling changed the campaign report bytes");
        ok = false;
    }
    if wide_prof.tree.node_count() == 0 {
        eprintln!("profile: FAIL — profiled smoke campaign recorded no spans");
        ok = false;
    }
    let util = wide_prof.pool_utilization();
    if !(util > 0.0 && util <= 1.0) {
        eprintln!("profile: FAIL — pool utilization {util} out of (0, 1]");
        ok = false;
    }
    let lines = collapse_lines(&stack_of(&wide_prof.tree));
    match parse_collapsed(&lines) {
        Ok(parsed) => {
            if collapse_lines(&parsed) != lines {
                eprintln!("profile: FAIL — flamegraph lines do not round-trip");
                ok = false;
            }
        }
        Err(e) => {
            eprintln!("profile: FAIL — emitted flamegraph lines unparseable: {e}");
            ok = false;
        }
    }
    if ok {
        println!(
            "profile: OK — structural bytes stable at 1/{threads} threads, report \
             bytes untouched, {} spans, pool utilization {util:.3}",
            wide_prof.tree.node_count()
        );
    }
    Ok(ok)
}
