//! The two committed-spec workloads: the `year_fleet` campaign and the
//! 24-cell chaos campaign. Their output check is the digest committed
//! under `results/`, read at run time.

use std::cell::RefCell;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Mutex;

use bench::campaign::{self, CampaignSpec, RunOptions, Shard, WaveProgress};
use bench::chaos::{self, ChaosCell, ChaosScenario, CAMPAIGN_POLICIES};
use bench::determinism::{day_hash, CanonicalHasher};
use bench::parallel::parallel_map;
use serde_json::Value;
use solarcore::engine::DaySimulationBuilder;
use solarcore::{DayResult, DaySimulation, Policy};
use solarenv::{DayRange, Season, Site};
use telemetry::{Profiler, Stopwatch, Telemetry};
use workloads::Mix;

use crate::layers::{Counts, Degrade};
use crate::{Pass, Sim};

/// Worker threads of the `year_fleet` run.
pub const FLEET_THREADS: usize = 2;

/// ROADMAP floor on every chaos cell's armed/clean PTP.
pub const RETENTION_FLOOR: f64 = 0.80;

type Res<T> = Result<T, Box<dyn Error>>;

fn read_json(path: &Path) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?)
}

fn hex_field(v: &Value, key: &str) -> Res<u64> {
    let s = v[key]
        .as_str()
        .ok_or_else(|| format!("no `{key}` string"))?;
    Ok(u64::from_str_radix(s, 16)?)
}

fn rows(v: &Value) -> Res<&Vec<Value>> {
    Ok(v["rows"].as_array().ok_or("no `rows` array")?)
}

// ---- year_fleet -------------------------------------------------------

/// The committed fleet campaign and its committed report.
#[derive(Debug)]
pub struct Fleet {
    spec: CampaignSpec,
    shards: Vec<Shard>,
    scenarios: PathBuf,
    checkpoint: PathBuf,
    digest: u64,
    row_digests: Vec<u64>,
}

impl Fleet {
    /// Parses `campaigns/year_fleet.toml`, plans its shards and reads the
    /// committed digests of `results/campaign_report.json`.
    pub fn load(root: &Path, out: &Path) -> Res<Fleet> {
        let text = std::fs::read_to_string(root.join("campaigns/year_fleet.toml"))?;
        let spec = CampaignSpec::parse(&text)?;
        let scenarios = root.join("scenarios");
        let shards = spec.shards(&scenarios)?;
        let report = read_json(&root.join("results/campaign_report.json"))?;
        std::fs::create_dir_all(out)?;
        let row_digests = rows(&report)?
            .iter()
            .map(|r| hex_field(r, "digest"))
            .collect::<Res<Vec<u64>>>()?;
        Ok(Fleet {
            spec,
            shards,
            scenarios,
            checkpoint: out.join(format!("year_fleet-{}.checkpoint", std::process::id())),
            digest: hex_field(&report, "digest")?,
            row_digests,
        })
    }

    fn day_builders(
        &self,
        shard: &Shard,
    ) -> impl Iterator<Item = (u32, DaySimulationBuilder)> + '_ {
        let shard = shard.clone();
        DayRange::new(shard.month, self.spec.days_per_month)
            .day_indices()
            .map(move |day| {
                let mut b = DaySimulation::builder()
                    .site(shard.site.clone())
                    .season(shard.month.anchor())
                    .day(day)
                    .mix(shard.mix.clone())
                    .policy(shard.policy);
                if let Some(plan) = &shard.plan {
                    b = b.fault_plan(plan.clone());
                }
                (day, b)
            })
    }

    /// One set-up of every shard's days: `build()` and `prepare()`.
    pub fn set_up(&self) -> Res<()> {
        for shard in &self.shards {
            for (_, b) in self.day_builders(shard) {
                let _setup = b.build()?.prepare();
            }
        }
        Ok(())
    }

    /// Days simulated by one run of the campaign.
    pub fn days(&self) -> u64 {
        self.shards.len() as u64 * u64::from(self.spec.days_per_month)
    }

    /// One run of the campaign through `bench::campaign::run`, from an
    /// empty checkpoint; `profile` arms its wall-clock profile.
    pub fn pass(&self, profile: bool) -> Res<(Pass, Option<bench::profile::CampaignProfile>)> {
        static WAVE_ENDS: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        fn note_wave(p: &WaveProgress) {
            WAVE_ENDS
                .lock()
                .expect("wave log poisoned by a panicking progress call")
                .push(p.elapsed_secs);
        }
        remove_if_present(&self.checkpoint)?;
        WAVE_ENDS
            .lock()
            .expect("wave log poisoned by a panicking progress call")
            .clear();
        let opts = RunOptions {
            threads: FLEET_THREADS,
            checkpoint: Some(self.checkpoint.clone()),
            profile,
            progress: Some(note_wave),
            ..RunOptions::default()
        };
        let watch = Stopwatch::new();
        let run = campaign::run(&self.spec, &self.scenarios, &opts);
        let wall_s = watch.elapsed_secs();
        remove_if_present(&self.checkpoint)?;

        let mut pass = Pass {
            wall_s,
            attempted: self.shards.len() as u64,
            ..Pass::default()
        };
        let outcome = match run {
            Ok(outcome) if outcome.complete => outcome,
            other => {
                if let Err(e) = other {
                    eprintln!("perfbench: year_fleet: {e}");
                }
                pass.failed = pass.attempted;
                return Ok((pass, None));
            }
        };
        let ends = WAVE_ENDS
            .lock()
            .expect("wave log poisoned by a panicking progress call")
            .clone();
        let mut last = 0.0;
        for end in ends {
            pass.unit_ms.push((end - last) * 1e3);
            last = end;
        }
        let matching = outcome
            .rows
            .iter()
            .filter(|r| self.row_digests.get(r.index) == Some(&r.digest))
            .count() as u64;
        pass.failed = pass.attempted - matching.min(pass.attempted);
        pass.digest = outcome.digest();
        pass.expected_digest = Some(self.digest);
        let (drawn, available): (f64, f64) = outcome
            .rows
            .iter()
            .map(|r| (r.energy_drawn_wh, r.energy_available_wh))
            .fold((0.0, 0.0), |(d, a), (rd, ra)| (d + rd, a + ra));
        let shards = outcome.rows.len().max(1) as f64;
        pass.sim = Sim {
            ptp: outcome.rows.iter().map(|r| r.ptp).sum(),
            tracking_error: Some(
                outcome.rows.iter().map(|r| r.tracking_error).sum::<f64>() / shards,
            ),
            energy_utilization: Some(drawn / available),
            ..Sim::default()
        };
        Ok((pass, outcome.profile))
    }

    /// Re-runs every shard's days, as `run_shard` does (one PV memo carried
    /// through the shard), with a counting sink attached. Fails unless
    /// each shard reproduces its committed digest.
    pub fn census(&self) -> Res<Census> {
        let per_shard = parallel_map(self.shards.clone(), FLEET_THREADS, |shard| {
            self.census_shard(shard).map_err(|e| e.to_string())
        });
        let mut total = Census::default();
        for (shard, result) in self.shards.iter().zip(per_shard) {
            let (census, digest) = result?;
            if self.row_digests.get(shard.index) != Some(&digest) {
                return Err(format!(
                    "census of shard {} does not reproduce its digest",
                    shard.index
                )
                .into());
            }
            total.absorb(&census);
        }
        Ok(total)
    }

    fn census_shard(&self, shard: &Shard) -> Res<(Census, u64)> {
        let mut census = Census::default();
        let mut cache = pv::ArrayCache::new();
        let mut h = CanonicalHasher::default();
        for (day, b) in self.day_builders(shard) {
            let (result, warm) = census.day(b, cache)?;
            cache = warm;
            h.u64(u64::from(day));
            h.u64(day_hash(&result));
        }
        Ok((census, h.finish()))
    }
}

/// What a census of a campaign's days gathers: their telemetry counts
/// and the host time of their set-up.
#[derive(Debug, Clone, Default)]
pub struct Census {
    /// Telemetry counts over every day.
    pub counts: Counts,
    /// Σ host time in `builder()…build()`.
    pub build_ns: u64,
    /// Σ host time in `prepare_with_cache()`.
    pub prepare_ns: u64,
}

impl Census {
    fn absorb(&mut self, other: &Census) {
        self.counts.absorb(&other.counts);
        self.build_ns += other.build_ns;
        self.prepare_ns += other.prepare_ns;
    }

    /// Runs one day with a counting sink attached, on `cache`, and hands
    /// the memo back for the next day.
    fn day(
        &mut self,
        b: DaySimulationBuilder,
        cache: pv::ArrayCache,
    ) -> Res<(DayResult, pv::ArrayCache)> {
        let counts = Rc::new(RefCell::new(Counts::default()));
        let watch = Stopwatch::new();
        let sim = b.telemetry(Telemetry::attached(counts.clone())).build()?;
        self.build_ns += watch.elapsed_ns();
        let watch = Stopwatch::new();
        let setup = sim.prepare_with_cache(cache);
        self.prepare_ns += watch.elapsed_ns();
        let before = setup.cache_stats();
        let result = sim.run_prepared(&setup)?;
        let after = setup.cache_stats();
        let mut day = counts.borrow().clone();
        day.memo_hits += after.hits - before.hits;
        day.memo_misses += after.misses - before.misses;
        self.counts.absorb(&day);
        Ok((result, setup.into_cache()))
    }
}

fn remove_if_present(path: &Path) -> Res<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

// ---- chaos_cells ------------------------------------------------------

/// One cell of the chaos campaign, in `run_campaign` order.
#[derive(Debug, Clone)]
struct Cell {
    scenario: usize,
    site: String,
    policy: Policy,
}

/// The committed chaos scenarios and report.
#[derive(Debug)]
pub struct Chaos {
    scenarios: Vec<ChaosScenario>,
    cells: Vec<Cell>,
    digest: u64,
    expected: Vec<Value>,
}

impl Chaos {
    /// Loads `scenarios/*.toml` and reads `results/chaos_report.json`.
    pub fn load(root: &Path) -> Res<Chaos> {
        let scenarios = chaos::load_scenarios(&root.join("scenarios"))?;
        let mut cells = Vec::new();
        for (i, s) in scenarios.iter().enumerate() {
            for site in chaos::sites_for(s) {
                for policy in CAMPAIGN_POLICIES {
                    cells.push(Cell {
                        scenario: i,
                        site: site.to_owned(),
                        policy,
                    });
                }
            }
        }
        let report = read_json(&root.join("results/chaos_report.json"))?;
        Ok(Chaos {
            scenarios,
            cells,
            digest: hex_field(&report, "digest")?,
            expected: rows(&report)?.clone(),
        })
    }

    /// The clean and armed builders of a cell, configured as `run_cell`
    /// configures them.
    fn builders(&self, cell: &Cell) -> Res<[DaySimulationBuilder; 2]> {
        let plan = &self.scenarios[cell.scenario].plan;
        let site = Site::all()
            .into_iter()
            .find(|s| s.code() == cell.site)
            .ok_or_else(|| format!("unknown site `{}`", cell.site))?;
        let hint = plan.season_hint().unwrap_or("Jul");
        let season = Season::ALL
            .into_iter()
            .find(|s| s.to_string() == hint)
            .ok_or_else(|| format!("unknown season `{hint}`"))?;
        let clean = DaySimulation::builder()
            .site(site)
            .season(season)
            .day(plan.day_hint().unwrap_or(0))
            .mix(Mix::hm2())
            .policy(cell.policy);
        let armed = clean.clone().fault_plan(plan.clone());
        Ok([clean, armed])
    }

    /// One set-up of every cell's clean and armed day.
    pub fn set_up(&self) -> Res<()> {
        for cell in &self.cells {
            for b in self.builders(cell)? {
                let _setup = b.build()?.prepare();
            }
        }
        Ok(())
    }

    /// Number of cells (each simulates a clean and an armed day).
    pub fn cells(&self) -> u64 {
        self.cells.len() as u64
    }

    fn matches_committed(&self, i: usize, row: &ChaosCell) -> bool {
        let Some(want) = self.expected.get(i) else {
            return false;
        };
        want["scenario"].as_str() == Some(row.scenario.as_str())
            && want["site"].as_str() == Some(row.site.as_str())
            && want["policy"].as_str() == Some(row.policy.as_str())
            && want["ptp_clean"].as_f64() == Some(row.ptp_clean)
            && want["ptp_chaos"].as_f64() == Some(row.ptp_chaos)
    }

    /// One run of the campaign, cell by cell through `run_cell_profiled`
    /// in `run_campaign` order, so each cell is timed. A cell fails on an
    /// error, a row that differs from the committed one, a false trip, or
    /// PTP retention under the floor; the last leaves the outputs correct.
    pub fn pass(&self, prof: &Profiler) -> (Pass, Vec<ChaosCell>) {
        let watch = Stopwatch::new();
        let mut pass = Pass::default();
        let mut rows = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            pass.attempted += 1;
            let cell_watch = Stopwatch::new();
            let row = chaos::run_cell_profiled(
                &self.scenarios[cell.scenario],
                &cell.site,
                cell.policy,
                prof,
            );
            pass.unit_ms.push(crate::stats::ms(cell_watch.elapsed_ns()));
            match row {
                Ok(row) => {
                    if !self.matches_committed(i, &row) || row.false_trips > 0 {
                        pass.failed += 1;
                    } else if row.ptp_retention < RETENTION_FLOOR {
                        eprintln!(
                            "perfbench: chaos cell {} {} {}: PTP retention {} is under the {RETENTION_FLOOR} floor",
                            row.scenario, row.site, row.policy, row.ptp_retention
                        );
                        pass.failed += 1;
                        pass.below_floor += 1;
                    }
                    rows.push(row);
                }
                Err(e) => {
                    eprintln!("perfbench: chaos cell {i}: {e}");
                    pass.failed += 1;
                }
            }
        }
        pass.wall_s = watch.elapsed_secs();
        pass.digest = chaos::report_digest(&rows);
        pass.expected_digest = Some(self.digest);
        pass.sim = Sim {
            ptp: rows.iter().map(|r| r.ptp_chaos).sum(),
            retention_min: rows.iter().map(|r| r.ptp_retention).reduce(f64::min),
            false_trips: Some(rows.iter().map(|r| r.false_trips).sum()),
            ..Sim::default()
        };
        (pass, rows)
    }

    /// Fault-handling outcomes summed over the cells.
    pub fn degrade(rows: &[ChaosCell]) -> Degrade {
        Degrade {
            fault_rejects: rows.iter().map(|r| r.fault_rejects).sum(),
            enters: rows.iter().map(|r| r.degrade_enters).sum(),
            false_trips: rows.iter().map(|r| r.false_trips).sum(),
            latency_min: rows
                .iter()
                .filter_map(|r| r.detection_latency_minutes.map(|m| m as f64))
                .collect(),
        }
    }

    /// Re-runs every cell's clean and armed day with a counting sink
    /// attached (`run_cell` streams telemetry from the armed day only).
    /// Fails unless each day reproduces its row's PTP, and each armed day
    /// its row's fault-event counts.
    pub fn census(&self, rows: &[ChaosCell]) -> Res<Census> {
        if rows.len() != self.cells.len() {
            return Err("a chaos cell failed to run, so there is no census".into());
        }
        let mut census = Census::default();
        for (cell, row) in self.cells.iter().zip(rows) {
            let [clean, armed] = self.builders(cell)?;
            let (clean, _) = census.day(clean, pv::ArrayCache::new())?;
            let (rejects, enters) = (census.counts.fault_rejects, census.counts.degrade_enters);
            let (armed, _) = census.day(armed, pv::ArrayCache::new())?;
            let faithful = clean.solar_instructions() == row.ptp_clean
                && armed.solar_instructions() == row.ptp_chaos
                && census.counts.fault_rejects - rejects == row.fault_rejects
                && census.counts.degrade_enters - enters == row.degrade_enters;
            if !faithful {
                return Err(
                    format!("census of cell {} does not reproduce its row", row.scenario).into(),
                );
            }
        }
        Ok(census)
    }
}
