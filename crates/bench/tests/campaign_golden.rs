//! Golden pins for the committed campaign artifact
//! (`results/campaign_report.json`).
//!
//! The year-fleet campaign digest is the repo's broadest determinism
//! anchor: it folds 96 shards × every minute-level record of each
//! simulated day, so any engine, controller, weather or policy change
//! moves it. These tests pin the digest and shard count, verify the
//! committed `determinism` section recorded kill/resume byte-identity,
//! and recompute one shard from scratch to prove the artifact still
//! matches the code.
//!
//! After an *intentional* behaviour change, regenerate with either
//! `BLESS=1 cargo test -p bench --test campaign_golden` or the full
//! `cargo xtask campaign`, then review the diff like any golden update.

use std::path::{Path, PathBuf};

use bench::campaign::{compose_report, run, run_shard, CampaignSpec, RunOptions};
use bench::output::remove_if_present;
use bench::parallel::default_threads;
use serde_json::Value;
use telemetry::Stopwatch;

/// The pinned campaign digest (also `determinism.digest` in the
/// artifact). Drift means a simulation-visible behaviour change.
const PINNED_DIGEST: &str = "fa32d2b2c908ec78";

/// Shards in the committed year-fleet campaign: 4 sites × 12 months ×
/// 1 mix × 2 policies × 1 scenario.
const PINNED_SHARDS: usize = 96;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// The committed campaign spec.
fn committed_spec() -> CampaignSpec {
    let text = std::fs::read_to_string(repo_path("campaigns/year_fleet.toml"))
        .expect("campaigns/year_fleet.toml is committed");
    CampaignSpec::parse(&text).expect("committed spec parses")
}

/// Loads the committed report, regenerating it first under `BLESS=1`
/// (a serial run, a wide run, and a kill/resume cycle — the same three
/// schedules `cargo xtask campaign` performs).
fn load_report() -> Value {
    let path = repo_path("results/campaign_report.json");
    if std::env::var_os("BLESS").is_some() {
        let spec = committed_spec();
        let scenarios = repo_path("scenarios");
        let time = |opts: &RunOptions| {
            let watch = Stopwatch::new();
            let outcome = run(&spec, &scenarios, opts).expect("campaign runs");
            (outcome, watch.elapsed_secs())
        };
        let (serial, serial_s) = time(&RunOptions::default());
        let threads = default_threads().max(2);
        let (wide, wide_s) = time(&RunOptions {
            threads,
            ..RunOptions::default()
        });
        assert_eq!(serial.digest(), wide.digest(), "bless run is nondeterministic");
        let checkpoint = std::env::temp_dir()
            .join(format!("solarcore_campaign_bless_{}.json", std::process::id()));
        remove_if_present(&checkpoint).expect("checkpoint removable");
        run(&spec, &scenarios, &RunOptions {
            threads,
            checkpoint: Some(checkpoint.clone()),
            kill_after: Some(serial.rows.len() / 2),
            ..RunOptions::default()
        })
        .expect("killed run returns");
        let resumed = run(&spec, &scenarios, &RunOptions {
            threads,
            checkpoint: Some(checkpoint.clone()),
            kill_after: None,
            ..RunOptions::default()
        })
        .expect("resume runs");
        remove_if_present(&checkpoint).expect("checkpoint removable");
        let shards = serial.rows.len();
        let report = compose_report(&serial, &resumed, &[(1, serial_s), (threads, wide_s)], shards);
        std::fs::write(&path, report.render()).expect("report written");
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}; run with BLESS=1 (or `cargo xtask campaign`) to create it",
            path.display()
        )
    });
    serde_json::from_str(&raw).expect("report parses")
}

#[test]
fn artifact_digest_and_shape_are_pinned() {
    let report = load_report();
    assert_eq!(
        report["digest"].as_str(),
        Some(PINNED_DIGEST),
        "campaign digest drifted — regenerate deliberately and re-pin"
    );
    assert_eq!(
        report["rows"].as_array().map(Vec::len),
        Some(PINNED_SHARDS),
        "campaign shard count changed"
    );
    assert_eq!(report["campaign"].as_str(), Some("year_fleet"));
}

#[test]
fn artifact_is_bound_to_the_committed_spec() {
    let report = load_report();
    let expected = format!("{:016x}", committed_spec().digest());
    assert_eq!(
        report["spec_digest"].as_str(),
        Some(expected.as_str()),
        "campaigns/year_fleet.toml no longer matches the committed report"
    );
}

#[test]
fn determinism_section_recorded_resume_agreement() {
    let report = load_report();
    let det = &report["determinism"];
    assert_eq!(
        det["byte_identical"].as_bool(),
        Some(true),
        "the committed artifact records a kill/resume byte divergence"
    );
    assert_eq!(det["digest"].as_str(), report["digest"].as_str());
    assert_eq!(det["resumed_digest"].as_str(), report["digest"].as_str());
}

#[test]
fn scaling_section_is_well_formed() {
    let report = load_report();
    let scaling = report["scaling"].as_array().expect("scaling is an array");
    assert!(scaling.len() >= 2, "scaling must cover 1 and N threads");
    assert_eq!(scaling[0]["threads"].as_u64(), Some(1));
    for entry in scaling {
        assert!(entry["seconds"].as_f64().is_some_and(|s| s > 0.0));
        assert!(entry["shards_per_second"].as_f64().is_some_and(|r| r > 0.0));
    }
}

/// Recomputes the first shard (AZ / Jan / HM2 / MPPT&Opt / none) from
/// scratch and checks its digest and scalars against the committed row —
/// proving the artifact still matches the code, not just itself.
#[test]
fn recomputed_shard_matches_committed_artifact() {
    let spec = committed_spec();
    let shards = spec.shards(&repo_path("scenarios")).expect("shards enumerate");
    let (fresh, _fold) = run_shard(&shards[0], spec.days_per_month).expect("shard runs");

    let report = load_report();
    let row = &report["rows"].as_array().expect("rows is an array")[0];
    assert_eq!(row["site"].as_str(), Some(fresh.site.as_str()));
    assert_eq!(row["month"].as_str(), Some(fresh.month.as_str()));
    assert_eq!(
        row["digest"].as_str(),
        Some(format!("{:016x}", fresh.digest).as_str()),
        "recomputed shard digest diverges from the committed artifact"
    );
    let committed_ptp = row["ptp"].as_f64().expect("ptp is a number");
    assert_eq!(
        committed_ptp.to_bits(),
        fresh.ptp.to_bits(),
        "recomputed PTP diverges bit-wise from the committed artifact"
    );
}
