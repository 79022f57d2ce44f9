//! End-to-end and per-layer benchmark of the SolarCore reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mppt_days|fixed_power_days|year_fleet|chaos_cells> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run sets the
//! workload up several times, then repeats whole passes of it for about
//! `--seconds`, untraced, and reports the end-to-end metrics. With
//! `--trace 1` it runs one untraced and one traced pass and reports the
//! per-layer metrics; the traced pass also leaves a collapsed-stack
//! flamegraph (and, where the benchmark owns the profiler, a Chrome trace)
//! under `.bench_out/`. Every pass checks its outputs. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

mod campaigns;
mod days;
mod layers;
mod stats;

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::output::{Json, TextTable};
use bench::profile::{chrome_trace, collapse_lines, stack_of};
use solarcore::ControllerConfig;
use telemetry::{ProfTree, Profiler, Stopwatch};

use campaigns::{Census, Chaos, Fleet};
use days::{DaySpec, Tracer};
use layers::{Degrade, Timings};
use stats::{median, quantile};

/// Set-ups timed per run: at least this many, and more while the set-ups
/// so far took under [`SETUP_MIN_S`]; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Host time below which another set-up is timed.
const SETUP_MIN_S: f64 = 1.0;

/// Most set-ups timed per run.
const SETUP_MAX_REPS: usize = 50;

/// Every end-to-end metric with its unit, in report order.
/// `BENCHMARK.json` lists the same names and units (a self-test holds
/// them together).
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ptp_tinstr", "Tinstr"),
];

/// Where traced runs leave their flamegraph and trace files, and the
/// campaign its checkpoint (relative to the working directory).
const OUT_DIR: &str = ".bench_out";

/// Simulated outcomes of one pass: exact for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Solar-powered instructions (PTP, Fig. 21).
    pub ptp: f64,
    /// Mean relative tracking error (Table 7).
    pub tracking_error: Option<f64>,
    /// Energy drawn over MPP energy available (Fig. 18).
    pub energy_utilization: Option<f64>,
    /// Lowest armed/clean PTP over chaos cells.
    pub retention_min: Option<f64>,
    /// False degradation trips over chaos cells.
    pub false_trips: Option<u64>,
}

/// One pass over a workload's inputs.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time of the pass.
    pub wall_s: f64,
    /// Host time of each unit of work, milliseconds.
    pub unit_ms: Vec<f64>,
    /// Digest of every output of the pass.
    pub digest: u64,
    /// The committed digest the pass must reproduce, if any.
    pub expected_digest: Option<u64>,
    /// Units attempted.
    pub attempted: u64,
    /// Units that returned an error or failed the output check.
    pub failed: u64,
    /// Those of [`Self::failed`] whose outputs are right but miss a quality
    /// floor (a chaos cell under the PTP-retention floor); they count as
    /// failed but leave the outputs correct.
    pub below_floor: u64,
    /// Simulated outcomes.
    pub sim: Sim,
    /// Host-time readings (filled in by traced passes).
    pub timings: Timings,
}

impl Pass {
    fn sound(&self) -> bool {
        self.failed == self.below_floor && self.expected_digest.is_none_or(|d| d == self.digest)
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MpptDays,
    FixedPowerDays,
    YearFleet,
    ChaosCells,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("mppt_days", Workload::MpptDays),
        ("fixed_power_days", Workload::FixedPowerDays),
        ("year_fleet", Workload::YearFleet),
        ("chaos_cells", Workload::ChaosCells),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("workload", |(n, _)| n)
    }

    /// What one latency sample of this workload times.
    fn unit(self) -> &'static str {
        match self {
            Workload::MpptDays | Workload::FixedPowerDays => "run_prepared day",
            Workload::YearFleet => "checkpoint wave",
            Workload::ChaosCells => "chaos cell",
        }
    }
}

/// A workload's loaded inputs.
#[derive(Debug)]
enum Inputs {
    Days(Vec<DaySpec>),
    Fleet(Fleet),
    Chaos(Chaos),
}

impl Inputs {
    /// Loads the inputs and sets every simulation of a pass up once
    /// (`build()` + `prepare()`); the timed unit of `setup_s`.
    fn set_up(workload: Workload, seed: u64, root: &Path) -> Result<Inputs, Box<dyn Error>> {
        let inputs = match workload {
            Workload::MpptDays => Inputs::Days(days::mppt_days(seed)),
            Workload::FixedPowerDays => Inputs::Days(days::fixed_power_days(seed)),
            Workload::YearFleet => Inputs::Fleet(Fleet::load(root, &root.join(OUT_DIR))?),
            Workload::ChaosCells => Inputs::Chaos(Chaos::load(root)?),
        };
        match &inputs {
            Inputs::Days(specs) => days::set_up(specs)?,
            Inputs::Fleet(fleet) => fleet.set_up()?,
            Inputs::Chaos(chaos) => chaos.set_up()?,
        }
        Ok(inputs)
    }

    /// Days one pass simulates.
    fn days(&self) -> u64 {
        match self {
            Inputs::Days(specs) => specs.len() as u64,
            Inputs::Fleet(fleet) => fleet.days(),
            Inputs::Chaos(chaos) => 2 * chaos.cells(),
        }
    }

    fn untraced_pass(&self) -> Result<Pass, Box<dyn Error>> {
        Ok(match self {
            Inputs::Days(specs) => days::pass(specs, None),
            Inputs::Fleet(fleet) => fleet.pass(false)?.0,
            Inputs::Chaos(chaos) => chaos.pass(&Profiler::disabled()).0,
        })
    }
}

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad seconds `{value}`"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(42),
            seconds: seconds.unwrap_or(20.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// A finished run: the correctness verdict and the named metrics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// The one-line result object.
    fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_owned(),
                    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        let doc = Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        // The canonical renderer pretty-prints; strings carry no raw
        // newlines, so dropping each line's indentation is lossless.
        doc.render().lines().map(str::trim_start).collect()
    }

    fn table(&self) -> String {
        let mut t = TextTable::new(["metric", "value", "unit"]);
        for &(name, value, unit) in &self.metrics {
            t.row([name.to_owned(), format!("{value:.6}"), unit.to_owned()]);
        }
        for (name, value) in &self.notes {
            t.row([name.clone(), value.clone(), String::new()]);
        }
        t.render()
    }
}

/// The end-to-end metrics of `--trace 0`, measured untraced.
fn end_to_end(args: &Args, root: &Path) -> Result<Report, Box<dyn Error>> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        let watch = Stopwatch::new();
        inputs = Some(Inputs::set_up(args.workload, args.seed, root)?);
        setup_s.push(watch.elapsed_secs());
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    let budget = Stopwatch::new();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = inputs.untraced_pass()?;
        let next_ends = budget.elapsed_secs() + pass.wall_s;
        passes.push(pass);
        if next_ends > args.seconds {
            break;
        }
    }
    let first = &passes[0];
    let repeatable = passes
        .iter()
        .all(|p| p.digest == first.digest && p.sim == first.sim);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let units: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.unit_ms.iter().copied())
        .collect();
    let p50 = quantile(&units, 0.5);
    let p90 = quantile(&units, 0.9);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    let mut notes = vec![
        ("workload".to_owned(), args.workload.name().to_owned()),
        ("passes".to_owned(), passes.len().to_string()),
        ("setups".to_owned(), setup_s.len().to_string()),
        (
            "unit".to_owned(),
            format!(
                "{} ({} samples; p90 has {} beyond it)",
                args.workload.unit(),
                p90.samples,
                p90.samples / 10
            ),
        ),
        ("digest".to_owned(), format!("{:016x}", first.digest)),
        (
            "failed_frac".to_owned(),
            format!("{}", stats::ratio(failed, attempted)),
        ),
    ];
    let sim = &first.sim;
    for (name, value) in [
        ("tracking_error", sim.tracking_error),
        ("energy_utilization", sim.energy_utilization),
        ("ptp_retention_min", sim.retention_min),
    ] {
        if let Some(v) = value {
            notes.push((name.to_owned(), format!("{v}")));
        }
    }
    if let Some(trips) = sim.false_trips {
        notes.push(("false_trips".to_owned(), trips.to_string()));
    }
    Ok(Report {
        correct: repeatable && passes.iter().all(Pass::sound),
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip([
                median(&walls),
                median(&setup_s),
                p50.value,
                p90.value,
                stats::peak_rss_mb().ok_or("VmHWM unreadable")?,
                sim.ptp / 1e12,
            ])
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        notes,
    })
}

/// The per-layer metrics of `--trace 1`: one untraced pass, one traced
/// pass, and for the campaign workloads a counting census of their days.
fn per_layer(args: &Args, root: &Path) -> Result<Report, Box<dyn Error>> {
    let out = root.join(OUT_DIR);
    let inputs = Inputs::set_up(args.workload, args.seed, root)?;
    let plain = inputs.untraced_pass()?;
    let tracer = Tracer::new();
    let (mut traced, tree, counts, degrade) = match &inputs {
        Inputs::Days(specs) => {
            let pass = days::pass(specs, Some(&tracer));
            let counts = tracer.counts.borrow().clone();
            (pass, tracer.prof.tree(), counts, Degrade::default())
        }
        Inputs::Fleet(fleet) => {
            let (mut pass, profile) = fleet.pass(true)?;
            let profile = profile.unwrap_or_default();
            pass.timings.pool_utilization = profile.pool_utilization();
            pass.timings.critical_path_ns = profile.critical_path_ns();
            pass.timings.shard_ms = profile
                .shard_walls
                .iter()
                .map(|&(_, ns)| stats::ms(ns))
                .collect();
            let census = checked(fleet.census(), &mut pass);
            pass.timings.build_ns = census.build_ns;
            pass.timings.prepare_ns = census.prepare_ns;
            (pass, profile.tree, census.counts, Degrade::default())
        }
        Inputs::Chaos(chaos) => {
            let (mut pass, rows) = chaos.pass(&tracer.prof);
            pass.timings.cell_ms = pass.unit_ms.clone();
            let census = checked(chaos.census(&rows), &mut pass);
            pass.timings.build_ns = census.build_ns;
            pass.timings.prepare_ns = census.prepare_ns;
            (
                pass,
                tracer.prof.tree(),
                census.counts,
                Chaos::degrade(&rows),
            )
        }
    };
    traced.timings.overhead = traced.wall_s / plain.wall_s;
    write_profile(&out, args.workload, &tree, &tracer.prof)?;

    let broken = counts.broken_identities(inputs.days());
    for b in &broken {
        eprintln!("perfbench: identity broken: {b}");
    }
    let values = layers::per_layer(
        &counts,
        &tree,
        &traced.timings,
        &degrade,
        ControllerConfig::paper_defaults().max_rounds,
    );
    let metrics = layers::PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    Ok(Report {
        correct: plain.sound()
            && traced.sound()
            && plain.digest == traced.digest
            && broken.is_empty(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes: vec![
            ("workload".to_owned(), args.workload.name().to_owned()),
            ("digest".to_owned(), format!("{:016x}", traced.digest)),
            ("untraced_wall_s".to_owned(), format!("{}", plain.wall_s)),
            ("traced_wall_s".to_owned(), format!("{}", traced.wall_s)),
        ],
    })
}

/// A census, or an empty one and a failed `pass` when it could not
/// reproduce the pass's outputs.
fn checked(census: Result<Census, Box<dyn Error>>, pass: &mut Pass) -> Census {
    census.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        pass.failed += 1;
        Census::default()
    })
}

/// Writes the traced pass's collapsed stacks and, where the benchmark's
/// own profiler logged span events, a Chrome trace.
fn write_profile(
    out: &Path,
    workload: Workload,
    tree: &ProfTree,
    prof: &Profiler,
) -> Result<(), Box<dyn Error>> {
    std::fs::create_dir_all(out)?;
    let name = workload.name();
    let folded: String = collapse_lines(&stack_of(tree))
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(out.join(format!("{name}.folded")), folded)?;
    let events = prof.take_events();
    if !events.is_empty() {
        std::fs::write(
            out.join(format!("{name}.trace.json")),
            chrome_trace(&events).render(),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let report = if args.trace {
        per_layer(&args, &root)
    } else {
        end_to_end(&args, &root)
    };
    match report {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(kind: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc[kind]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_owned(),
                    m["unit"].as_str().unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_print() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&layers::PER_LAYER));
    }

    /// Two seeded days, once untraced and once traced: same outputs, and
    /// the program's telemetry satisfies every identity.
    #[test]
    fn traced_pass_matches_untraced_and_keeps_the_identities() {
        let mut specs = days::mppt_days(5);
        specs.truncate(1);
        specs.extend(days::fixed_power_days(5).into_iter().take(1));
        let plain = days::pass(&specs, None);
        let tracer = Tracer::new();
        let traced = days::pass(&specs, Some(&tracer));
        assert!(plain.sound() && traced.sound());
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.sim, traced.sim);
        let counts = tracer.counts.borrow();
        assert_eq!(counts.broken_identities(2), Vec::<String>::new());
        assert!(counts.pv_evals > 0 && !counts.track_rounds.is_empty());
        assert_eq!(counts.minutes, 2 * days::MINUTES_PER_DAY as u64);
    }

    #[test]
    fn every_percentile_carries_its_sample_count() {
        let mut specs = days::fixed_power_days(9);
        specs.truncate(3);
        let pass = days::pass(&specs, None);
        let p90 = quantile(&pass.unit_ms, 0.9);
        assert_eq!(p90.samples, 3);
        assert!(p90.value > 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.25, "s")],
            notes: vec![],
        };
        let line = report.json_line();
        assert!(!line.contains('\n'));
        let doc = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["metrics"]["wall_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(doc["attempted"].as_u64(), Some(3));
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let a = args("--workload year_fleet --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Workload::YearFleet, 7, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2 --workload mppt_days").is_err());
        assert!(args("--seed 1").is_err());
    }
}
