//! The two day workloads: seed-drawn days of the 4 sites × 12 months,
//! each simulated cold through `builder()…build()` → `prepare()` →
//! `run_prepared()`.

use std::cell::RefCell;
use std::rc::Rc;

use bench::determinism::{day_hash, shuffle, CanonicalHasher};
use pv::units::Watts;
use solarcore::{CoreError, DayResult, DaySimulation, Policy};
use solarenv::{DayRange, Month, Site};
use telemetry::{Profiler, Stopwatch, Telemetry};
use workloads::Mix;

use crate::layers::Counts;
use crate::Pass;

/// Days drawn in each (site, month) block.
pub const DAYS_PER_BLOCK: usize = 3;

/// Fixed-Power budgets of `fixed_power_days`, watts.
pub const FIXED_BUDGETS_W: [f64; 3] = [40.0, 80.0, 120.0];

/// Records in one simulated day (06:00–16:00 at one-minute steps).
pub const MINUTES_PER_DAY: usize = 601;

/// One day simulation the benchmark runs.
#[derive(Debug, Clone)]
pub struct DaySpec {
    /// Site simulated.
    pub site: Site,
    /// Month; its anchor season drives the weather.
    pub month: Month,
    /// Realization index inside the month's block.
    pub day: u32,
    /// Workload mix.
    pub mix: Mix,
    /// Power-management policy.
    pub policy: Policy,
}

/// The seed's days: for every (site, month) block, [`DAYS_PER_BLOCK`]
/// distinct days of the month's realization block and one mix. Mixes are
/// dealt evenly over the blocks, so every seed runs each mix equally
/// often; the seed only decides which block gets which mix and days.
pub fn seeded_days(seed: u64, policy: Policy) -> Vec<DaySpec> {
    let sites = Site::all();
    let blocks = sites.len() * Month::ALL.len();
    let all_mixes = Mix::all();
    let mut mixes: Vec<Mix> = (0..blocks)
        .map(|i| all_mixes[i % all_mixes.len()].clone())
        .collect();
    shuffle(&mut mixes, seed);
    let mut specs = Vec::with_capacity(blocks * DAYS_PER_BLOCK);
    for (b, (site, month)) in sites
        .iter()
        .flat_map(|s| Month::ALL.iter().map(move |m| (s, *m)))
        .enumerate()
    {
        let mut days: Vec<u32> = DayRange::new(month, u32::MAX).day_indices().collect();
        shuffle(
            &mut days,
            seed ^ (b as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut drawn = days[..DAYS_PER_BLOCK].to_vec();
        drawn.sort_unstable();
        for day in drawn {
            specs.push(DaySpec {
                site: site.clone(),
                month,
                day,
                mix: mixes[b].clone(),
                policy,
            });
        }
    }
    specs
}

/// `mppt_days`: the seed's days under MPPT&Opt.
pub fn mppt_days(seed: u64) -> Vec<DaySpec> {
    seeded_days(seed, Policy::MpptOpt)
}

/// `fixed_power_days`: the same days under each Fixed-Power budget.
pub fn fixed_power_days(seed: u64) -> Vec<DaySpec> {
    FIXED_BUDGETS_W
        .iter()
        .flat_map(|&w| seeded_days(seed, Policy::FixedPower(Watts::new(w))))
        .collect()
}

/// The profiler and counting sink a traced pass attaches to every day.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Wall-clock span profiler with a bounded event log.
    pub prof: Profiler,
    /// Telemetry sink counting every record.
    pub counts: Rc<RefCell<Counts>>,
}

impl Tracer {
    /// Span events kept for the Chrome trace export.
    const TRACE_EVENTS: usize = 20_000;

    /// A fresh tracer.
    pub fn new() -> Tracer {
        Tracer {
            prof: Profiler::with_trace_log(Self::TRACE_EVENTS),
            counts: Rc::new(RefCell::new(Counts::default())),
        }
    }
}

/// The builder of one day, with the tracer's hooks attached when given.
pub fn builder(spec: &DaySpec, tracer: Option<&Tracer>) -> solarcore::engine::DaySimulationBuilder {
    let b = DaySimulation::builder()
        .site(spec.site.clone())
        .season(spec.month.anchor())
        .day(spec.day)
        .mix(spec.mix.clone())
        .policy(spec.policy);
    match tracer {
        Some(t) => b
            .telemetry(Telemetry::attached(t.counts.clone()))
            .profiler(t.prof.clone()),
        None => b,
    }
}

/// One cold day and the host time of its three stages.
struct DayRun {
    result: DayResult,
    build_ns: u64,
    prepare_ns: u64,
    run_ns: u64,
}

fn run_day(spec: &DaySpec, tracer: Option<&Tracer>) -> Result<DayRun, CoreError> {
    let watch = Stopwatch::new();
    let sim = builder(spec, tracer).build()?;
    let build_ns = watch.elapsed_ns();
    let watch = Stopwatch::new();
    let setup = sim.prepare();
    let prepare_ns = watch.elapsed_ns();
    let watch = Stopwatch::new();
    let result = sim.run_prepared(&setup)?;
    let run_ns = watch.elapsed_ns();
    if let Some(t) = tracer {
        let memo = setup.cache_stats();
        let mut counts = t.counts.borrow_mut();
        counts.memo_hits += memo.hits;
        counts.memo_misses += memo.misses;
    }
    Ok(DayRun {
        result,
        build_ns,
        prepare_ns,
        run_ns,
    })
}

/// The output check of one day: a full minute log, and no more energy
/// drawn than the sun offered.
pub fn day_is_sound(result: &DayResult) -> bool {
    result.records().len() == MINUTES_PER_DAY
        && result.energy_drawn().get() <= result.energy_available().get()
}

/// One set-up of every day of `specs`: `build()` and `prepare()`.
pub fn set_up(specs: &[DaySpec]) -> Result<(), CoreError> {
    for spec in specs {
        let _setup = builder(spec, None).build()?.prepare();
    }
    Ok(())
}

/// Runs every day of `specs` once, cold.
pub fn pass(specs: &[DaySpec], tracer: Option<&Tracer>) -> Pass {
    let watch = Stopwatch::new();
    let mut pass = Pass::default();
    let mut digest = CanonicalHasher::default();
    let (mut drawn, mut available, mut tracking) = (0.0, 0.0, 0.0);
    for spec in specs {
        pass.attempted += 1;
        match run_day(spec, tracer) {
            Ok(run) if day_is_sound(&run.result) => {
                let r = &run.result;
                digest.u64(day_hash(r));
                pass.unit_ms.push(crate::stats::ms(run.run_ns));
                pass.timings.build_ns += run.build_ns;
                pass.timings.prepare_ns += run.prepare_ns;
                pass.sim.ptp += r.solar_instructions();
                drawn += r.energy_drawn().get();
                available += r.energy_available().get();
                tracking += r.mean_tracking_error();
            }
            other => {
                if let Err(e) = other {
                    eprintln!(
                        "perfbench: day {} {} {}: {e}",
                        spec.site.code(),
                        spec.month.name(),
                        spec.day
                    );
                }
                pass.failed += 1;
                digest.u64(u64::MAX);
            }
        }
    }
    let days = specs.len().max(1) as f64;
    pass.sim.tracking_error = Some(tracking / days);
    pass.sim.energy_utilization = Some(drawn / available);
    pass.digest = digest.finish();
    pass.wall_s = watch.elapsed_secs();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_picks_days_and_mixes_evenly() {
        let a = mppt_days(7);
        assert_eq!(a.len(), 48 * DAYS_PER_BLOCK);
        let key = |s: &DaySpec| (s.site.code(), s.month, s.day, s.mix.name());
        let same: Vec<_> = mppt_days(7).iter().map(key).collect();
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            same,
            "same seed, same days"
        );
        let other: Vec<_> = mppt_days(8).iter().map(key).collect();
        assert_ne!(same, other, "another seed draws other days");
        for mix in Mix::all() {
            let n = a.iter().filter(|s| s.mix.name() == mix.name()).count();
            assert!((12..=15).contains(&n), "{} runs {n} days", mix.name());
        }
        for s in &a {
            let block: Vec<u32> = DayRange::new(s.month, u32::MAX).day_indices().collect();
            assert!(block.contains(&s.day), "day stays inside its month's block");
        }
    }

    #[test]
    fn fixed_power_runs_the_same_days_at_each_budget() {
        let days = mppt_days(3);
        let fixed = fixed_power_days(3);
        assert_eq!(fixed.len(), FIXED_BUDGETS_W.len() * days.len());
        for (f, d) in fixed.iter().zip(days.iter().cycle()) {
            assert_eq!(
                (f.site.code(), f.month, f.day),
                (d.site.code(), d.month, d.day)
            );
            assert!(matches!(f.policy, Policy::FixedPower(_)));
        }
    }
}
