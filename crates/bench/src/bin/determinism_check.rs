//! Bitwise-reproducibility harness (`cargo xtask determinism`).
//!
//! Proves the evaluation pipeline is bit-identical across everything the
//! thread scheduler can perturb:
//!
//! 1. a full NREL-trace day simulation, run twice — every per-minute
//!    record (budget, drawn power, bus voltage, chip power, PTP, per-core
//!    V/F digest) must hash identically;
//! 2. the policy-grid sweep at 1 thread vs N threads;
//! 3. the same sweep with the input cell order shuffled;
//! 4. the telemetry stream — instrumentation must be bitwise transparent
//!    (a traced day hashes identically to an untraced one) and two traced
//!    runs must emit **byte-identical** JSONL;
//! 5. the fault-injection seams — a run armed with an **empty**
//!    [`FaultPlan`] must hash identically to a fully disarmed run *and*
//!    to the pinned pre-fault-subsystem baseline, proving the injection
//!    plumbing costs exactly zero bits when nothing is scheduled;
//! 6. the campaign engine — a small sharded campaign must digest
//!    identically at 1 thread, at N threads, and across a
//!    kill-mid-campaign/resume-from-checkpoint cycle;
//! 7. the wall-clock profiler — arming it must not move a single bit:
//!    a profiled day hashes to the pinned baseline, a profiled campaign
//!    renders the same report bytes as an unprofiled one, and a profiled
//!    chaos cell digests identically to its unprofiled twin.
//!
//! Exit status is non-zero on any divergence, so CI can gate on it.

use std::cell::RefCell;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;

use bench::campaign::{run as run_campaign, CampaignSpec, RunOptions};
use bench::chaos::{
    load_scenarios, report_digest, run_cell, run_cell_profiled, scenarios_dir, sites_for,
    CAMPAIGN_POLICIES,
};
use bench::determinism::{day_hash, grid_hash};
use bench::grid::{GridConfig, PolicyGrid};
use bench::output::remove_if_present;
use bench::parallel::default_threads;
use faults::FaultPlan;
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use telemetry::{JsonlSink, Profiler, Telemetry};
use workloads::Mix;

/// Day hash of the canonical AZ/Jul/HM2/MPPT&Opt run — the
/// bit-transparency anchor, re-pinned when the MPPT tracker got its
/// limit-cycle stopping rule (DESIGN.md §8). Any engine change that moves
/// this moved *every* disarmed simulation.
const BASELINE_DAY_HASH: u64 = 0xd0c1_2c79_6242_4967;

fn main() -> ExitCode {
    let mut ok = true;

    // 1. Day-simulation repeatability: same configuration, two runs.
    let day = |label: &str| -> Option<u64> {
        let result = DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jul)
            .day(0)
            .mix(Mix::hm2())
            .policy(Policy::MpptOpt)
            .build()
            .ok()?
            .run()
            .ok()?;
        let h = day_hash(&result);
        println!("determinism: day-sim {label:<8} hash {h:016x}");
        Some(h)
    };
    let baseline = day("run #1");
    match (baseline, day("run #2")) {
        (Some(a), Some(b)) if a == b => {}
        (Some(_), Some(_)) => {
            eprintln!("determinism: FAIL — repeated day simulations diverge");
            ok = false;
        }
        _ => {
            eprintln!("determinism: FAIL — day simulation did not run");
            ok = false;
        }
    }

    // 2/3. Grid sweep: serial vs parallel vs shuffled input order.
    let config = GridConfig::quick();
    let n = default_threads().max(2);

    let serial = {
        let mut c = config.clone();
        c.threads = 1;
        grid_hash(&PolicyGrid::compute(&c))
    };
    println!("determinism: grid threads=1       hash {serial:016x}");

    let parallel = {
        let mut c = config.clone();
        c.threads = n;
        grid_hash(&PolicyGrid::compute(&c))
    };
    println!("determinism: grid threads={n:<7} hash {parallel:016x}");

    let shuffled = {
        let mut c = config;
        c.threads = n;
        grid_hash(&PolicyGrid::compute_shuffled(&c, 0x5eed_501a_c07e))
    };
    println!("determinism: grid shuffled input  hash {shuffled:016x}");

    if serial != parallel {
        eprintln!("determinism: FAIL — 1-thread vs {n}-thread grids diverge");
        ok = false;
    }
    if serial != shuffled {
        eprintln!("determinism: FAIL — shuffled input order diverges");
        ok = false;
    }

    // 4. Telemetry: the instrumented run must compute the same day
    //    (transparency) and two instrumented runs must serialize the same
    //    bytes (stream reproducibility).
    let traced_day = |label: &str| -> Option<(u64, String)> {
        let sink = Rc::new(RefCell::new(JsonlSink::new()));
        let result = DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jul)
            .day(0)
            .mix(Mix::hm2())
            .policy(Policy::MpptOpt)
            .telemetry(Telemetry::attached(sink.clone()))
            .build()
            .ok()?
            .run()
            .ok()?;
        let h = day_hash(&result);
        let stream = sink.borrow().buffer().to_string();
        println!(
            "determinism: traced day {label:<8} hash {h:016x} ({} records)",
            stream.lines().count()
        );
        Some((h, stream))
    };
    match (day("untraced"), traced_day("run #1"), traced_day("run #2")) {
        (Some(plain), Some((h1, s1)), Some((h2, s2))) => {
            if h1 != plain {
                eprintln!("determinism: FAIL — telemetry instrumentation changed the simulation");
                ok = false;
            }
            if h1 != h2 || s1 != s2 {
                eprintln!("determinism: FAIL — traced runs emit diverging JSONL streams");
                ok = false;
            }
            if s1.is_empty() {
                eprintln!("determinism: FAIL — traced run emitted an empty stream");
                ok = false;
            }
        }
        _ => {
            eprintln!("determinism: FAIL — traced day simulation did not run");
            ok = false;
        }
    }

    // 5. Fault-seam transparency: arming an empty plan (which also arms
    //    detection and the degradation FSM) must not move a single bit,
    //    and the disarmed hash must still match the pinned baseline.
    let armed_empty = DaySimulation::builder()
        .site(Site::phoenix_az())
        .season(Season::Jul)
        .day(0)
        .mix(Mix::hm2())
        .policy(Policy::MpptOpt)
        .fault_plan(FaultPlan::empty("control"))
        .build()
        .ok()
        .and_then(|sim| sim.run().ok())
        .map(|result| day_hash(&result));
    match (baseline, armed_empty) {
        (Some(plain), Some(armed)) => {
            println!("determinism: armed-empty plan   hash {armed:016x}");
            if armed != plain {
                eprintln!("determinism: FAIL — empty fault plan perturbed the simulation");
                ok = false;
            }
            if plain != BASELINE_DAY_HASH {
                eprintln!(
                    "determinism: FAIL — day hash {plain:016x} drifted from the \
                     pinned baseline {BASELINE_DAY_HASH:016x}"
                );
                ok = false;
            }
        }
        _ => {
            eprintln!("determinism: FAIL — armed-empty day simulation did not run");
            ok = false;
        }
    }

    // 6. Campaign engine: same spec, three execution schedules — serial,
    //    wide, and killed-then-resumed — must render identical bytes.
    if !campaign_agrees() {
        ok = false;
    }

    // 7. Profiler transparency: arming the wall-clock profiler must not
    //    move a single bit of any deterministic artifact.
    if !profiling_transparent() {
        ok = false;
    }

    if ok {
        println!(
            "determinism: OK — bit-identical across threads, input order, telemetry and resume"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs a three-shard campaign serial, wide, and killed+resumed; `true`
/// when all three render byte-identical reports.
fn campaign_agrees() -> bool {
    let spec_text = "[campaign]\nname = \"determinism\"\nsites = \"AZ,CO,NC\"\n\
                     months = \"Jan\"\ncheckpoint_every = 1\n";
    let spec = match CampaignSpec::parse(spec_text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("determinism: FAIL — campaign spec rejected: {e}");
            return false;
        }
    };
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let checkpoint = std::env::temp_dir()
        .join(format!("solarcore_determinism_{}.json", std::process::id()));
    if let Err(e) = remove_if_present(&checkpoint) {
        eprintln!("determinism: FAIL — cannot clear {}: {e}", checkpoint.display());
        return false;
    }
    let n = default_threads().max(2);

    let serial = run_campaign(&spec, &scenarios, &RunOptions {
        threads: 1,
        ..RunOptions::default()
    });
    let wide = run_campaign(&spec, &scenarios, &RunOptions {
        threads: n,
        ..RunOptions::default()
    });
    let killed = run_campaign(&spec, &scenarios, &RunOptions {
        threads: n,
        checkpoint: Some(checkpoint.clone()),
        // Two shards done before the abort: wave 1 checkpoints durably,
        // wave 2 is lost in flight — so the resume genuinely restores
        // rows *and* re-executes work.
        kill_after: Some(2),
        ..RunOptions::default()
    });
    let resumed = run_campaign(&spec, &scenarios, &RunOptions {
        threads: n,
        checkpoint: Some(checkpoint.clone()),
        kill_after: None,
        ..RunOptions::default()
    });
    if let Err(e) = remove_if_present(&checkpoint) {
        eprintln!("determinism: FAIL — cannot clear {}: {e}", checkpoint.display());
        return false;
    }

    let (Ok(serial), Ok(wide), Ok(killed), Ok(resumed)) = (serial, wide, killed, resumed) else {
        eprintln!("determinism: FAIL — campaign run errored");
        return false;
    };
    println!(
        "determinism: campaign serial    digest {:016x}",
        serial.digest()
    );
    println!(
        "determinism: campaign threads={n} digest {:016x}",
        wide.digest()
    );
    println!(
        "determinism: campaign resumed@{} digest {:016x}",
        killed.checkpointed,
        resumed.digest()
    );
    let reference = serial.report_json().render();
    let mut ok = true;
    if wide.report_json().render() != reference {
        eprintln!("determinism: FAIL — campaign diverges across thread counts");
        ok = false;
    }
    if resumed.report_json().render() != reference {
        eprintln!("determinism: FAIL — resumed campaign diverges from uninterrupted run");
        ok = false;
    }
    if killed.complete || !resumed.complete {
        eprintln!("determinism: FAIL — campaign kill/resume cycle misbehaved");
        ok = false;
    }
    ok
}

/// §7 — the wall-clock profiler must be bit-transparent at every layer:
/// day simulation (hash vs the pinned baseline), campaign engine (report
/// bytes vs an unprofiled run), and chaos cell (row digest vs its
/// unprofiled twin). Each profiled run must also actually record spans,
/// so transparency is never vacuous.
fn profiling_transparent() -> bool {
    let mut ok = true;

    // Day simulation under an armed profiler.
    let prof = Profiler::enabled();
    let profiled_day = DaySimulation::builder()
        .site(Site::phoenix_az())
        .season(Season::Jul)
        .day(0)
        .mix(Mix::hm2())
        .policy(Policy::MpptOpt)
        .profiler(prof.clone())
        .build()
        .ok()
        .and_then(|sim| sim.run().ok())
        .map(|result| day_hash(&result));
    match profiled_day {
        Some(h) => {
            println!("determinism: profiled day       hash {h:016x}");
            if h != BASELINE_DAY_HASH {
                eprintln!(
                    "determinism: FAIL — profiler perturbed the day simulation \
                     ({h:016x} vs baseline {BASELINE_DAY_HASH:016x})"
                );
                ok = false;
            }
            if prof.tree().node_count() == 0 {
                eprintln!("determinism: FAIL — armed profiler recorded no spans");
                ok = false;
            }
        }
        None => {
            eprintln!("determinism: FAIL — profiled day simulation did not run");
            ok = false;
        }
    }

    // Campaign engine with and without profiling.
    let spec_text = "[campaign]\nname = \"determinism\"\nsites = \"AZ,CO,NC\"\n\
                     months = \"Jan\"\ncheckpoint_every = 1\n";
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let n = default_threads().max(2);
    let outcomes = CampaignSpec::parse(spec_text).ok().and_then(|spec| {
        let plain = run_campaign(&spec, &dir, &RunOptions {
            threads: n,
            ..RunOptions::default()
        })
        .ok()?;
        let profiled = run_campaign(&spec, &dir, &RunOptions {
            threads: n,
            profile: true,
            ..RunOptions::default()
        })
        .ok()?;
        Some((plain, profiled))
    });
    match outcomes {
        Some((plain, profiled)) => {
            println!(
                "determinism: profiled campaign  digest {:016x}",
                profiled.digest()
            );
            if profiled.report_json().render() != plain.report_json().render() {
                eprintln!("determinism: FAIL — profiling changed the campaign report bytes");
                ok = false;
            }
            match &profiled.profile {
                Some(p) if p.tree.node_count() > 0 => {}
                _ => {
                    eprintln!("determinism: FAIL — profiled campaign carried no span tree");
                    ok = false;
                }
            }
        }
        None => {
            eprintln!("determinism: FAIL — profiled campaign comparison did not run");
            ok = false;
        }
    }

    // One chaos cell with and without profiling.
    let cell_prof = Profiler::enabled();
    let cells = load_scenarios(&scenarios_dir()).ok().and_then(|scenarios| {
        let scenario = scenarios.first()?;
        let site = *sites_for(scenario).first()?;
        let plain = run_cell(scenario, site, CAMPAIGN_POLICIES[0]).ok()?;
        let profiled = run_cell_profiled(scenario, site, CAMPAIGN_POLICIES[0], &cell_prof).ok()?;
        Some((plain, profiled))
    });
    match cells {
        Some((plain, profiled)) => {
            let (a, b) = (report_digest(&[plain]), report_digest(&[profiled]));
            println!("determinism: profiled chaos     digest {b:016x}");
            if a != b {
                eprintln!("determinism: FAIL — profiling changed a chaos cell ({a:016x} vs {b:016x})");
                ok = false;
            }
            if cell_prof.tree().node_count() == 0 {
                eprintln!("determinism: FAIL — profiled chaos cell recorded no spans");
                ok = false;
            }
        }
        None => {
            eprintln!("determinism: FAIL — profiled chaos comparison did not run");
            ok = false;
        }
    }

    if ok {
        println!("determinism: profiler is bit-transparent (day, campaign, chaos)");
    }
    ok
}
