//! Per-layer measurement from outside the program: a telemetry sink that
//! counts what each layer reports through the public builder hooks, the
//! profiler's span tree, and the benchmark's own stopwatches.

use solarcore::schema;
use telemetry::{ProfNode, ProfTree, Record, Sink, SinkError, Value};

use crate::days::MINUTES_PER_DAY;
use crate::stats::{ms, quantile, ratio};

/// Work counts gathered from one or more days' telemetry streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Records of every kind the streams carried.
    pub records: u64,
    /// `day_summary` events, one per simulated day.
    pub days: u64,
    /// `minute` events.
    pub minutes: u64,
    /// Rounds of every `track` span, in stream order.
    pub track_rounds: Vec<u64>,
    /// Direction reversals summed over `track` spans.
    pub reversals: u64,
    /// Observations in the `track_rounds` histogram snapshots.
    pub rounds_histogram_count: u64,
    /// The `pv_evals` counter: PV evaluations through the counting wrapper.
    pub pv_evals: u64,
    /// The `mpp_queries` counter.
    pub mpp_queries: u64,
    /// Operating-point solves (`day_summary.solves`).
    pub solves: u64,
    /// PV evaluations made by those solves (`day_summary.pv_evals`).
    pub solve_pv_evals: u64,
    /// Newton iterations of those solves (`day_summary.newton_iters_total`).
    pub newton_iters: u64,
    /// `tpr_alloc` events.
    pub tpr_events: u64,
    /// Moves summed over `tpr_alloc` events.
    pub tpr_moves: u64,
    /// `fault_reject` events.
    pub fault_rejects: u64,
    /// `degrade_enter` events.
    pub degrade_enters: u64,
    /// PV memo hits, from `SimSetup::cache_stats` around each run.
    pub memo_hits: u64,
    /// PV memo misses, likewise.
    pub memo_misses: u64,
}

impl Counts {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: &Counts) {
        self.records += other.records;
        self.days += other.days;
        self.minutes += other.minutes;
        self.track_rounds.extend_from_slice(&other.track_rounds);
        self.reversals += other.reversals;
        self.rounds_histogram_count += other.rounds_histogram_count;
        self.pv_evals += other.pv_evals;
        self.mpp_queries += other.mpp_queries;
        self.solves += other.solves;
        self.solve_pv_evals += other.solve_pv_evals;
        self.newton_iters += other.newton_iters;
        self.tpr_events += other.tpr_events;
        self.tpr_moves += other.tpr_moves;
        self.fault_rejects += other.fault_rejects;
        self.degrade_enters += other.degrade_enters;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }

    /// The identities the program's telemetry must satisfy over
    /// `expected_days` simulated days; one message per broken identity.
    pub fn broken_identities(&self, expected_days: u64) -> Vec<String> {
        let mut broken = Vec::new();
        let mut check = |holds: bool, what: String| {
            if !holds {
                broken.push(what);
            }
        };
        let lookups = self.memo_hits + self.memo_misses;
        check(
            self.pv_evals == lookups,
            format!("pv_evals {} != memo hits + misses {lookups}", self.pv_evals),
        );
        let tracks = self.track_rounds.len() as u64;
        check(
            tracks == self.rounds_histogram_count,
            format!(
                "track spans {tracks} != track_rounds count {}",
                self.rounds_histogram_count
            ),
        );
        check(
            self.days == expected_days,
            format!("day summaries {} != days run {expected_days}", self.days),
        );
        check(
            self.minutes == expected_days * MINUTES_PER_DAY as u64,
            format!(
                "minute events {} != {MINUTES_PER_DAY} x {expected_days} days",
                self.minutes
            ),
        );
        broken
    }
}

fn field_u64(fields: &[telemetry::Field], name: &str) -> u64 {
    fields
        .iter()
        .find(|f| f.name == name)
        .map_or(0, |f| match f.value {
            Value::U64(n) => n,
            Value::I64(n) => u64::try_from(n).unwrap_or(0),
            _ => 0,
        })
}

impl Sink for Counts {
    fn record(&mut self, record: &Record) -> Result<(), SinkError> {
        self.records += 1;
        match record {
            Record::Event(e) => match e.name {
                schema::EVENT_MINUTE => self.minutes += 1,
                schema::EVENT_DAY_SUMMARY => {
                    self.days += 1;
                    self.solves += field_u64(&e.fields, schema::SOLVES);
                    self.solve_pv_evals += field_u64(&e.fields, schema::PV_EVALS);
                    self.newton_iters += field_u64(&e.fields, schema::NEWTON_ITERS_TOTAL);
                }
                schema::EVENT_TPR_ALLOC => {
                    self.tpr_events += 1;
                    self.tpr_moves += field_u64(&e.fields, schema::MOVES);
                }
                schema::EVENT_FAULT_REJECT => self.fault_rejects += 1,
                schema::EVENT_DEGRADE_ENTER => self.degrade_enters += 1,
                _ => {}
            },
            Record::Span(s) if s.name == schema::SPAN_TRACK => {
                self.track_rounds.push(field_u64(&s.fields, schema::ROUNDS));
                self.reversals += field_u64(&s.fields, schema::REVERSALS);
            }
            Record::Counter(c) => match c.name {
                schema::COUNTER_PV_EVALS => self.pv_evals += c.value,
                schema::COUNTER_MPP_QUERIES => self.mpp_queries += c.value,
                _ => {}
            },
            Record::Histogram(h) if h.name == schema::HIST_TRACK_ROUNDS => {
                self.rounds_histogram_count += h.count;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Host-time readings of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Σ host time in `builder()…build()`.
    pub build_ns: u64,
    /// Σ host time in `prepare()`.
    pub prepare_ns: u64,
    /// Wall of the traced pass over the wall of the untraced one.
    pub overhead: f64,
    /// Pool utilization of a campaign run (0 elsewhere).
    pub pool_utilization: f64,
    /// Critical path of a campaign run, nanoseconds.
    pub critical_path_ns: u64,
    /// Host time of each campaign shard, milliseconds.
    pub shard_ms: Vec<f64>,
    /// Host time of each chaos cell, milliseconds.
    pub cell_ms: Vec<f64>,
}

/// Fault-handling outcomes of a chaos campaign.
#[derive(Debug, Clone, Default)]
pub struct Degrade {
    /// Σ `fault_reject` events over cells.
    pub fault_rejects: u64,
    /// Σ degradation entries over cells.
    pub enters: u64,
    /// Σ false trips over cells.
    pub false_trips: u64,
    /// Detection latency of each cell whose fault was detected, minutes.
    pub latency_min: Vec<f64>,
}

/// Every per-layer metric with its unit, in report order. `BENCHMARK.json`
/// lists the same names and units (a self-test holds them together).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("engine.build_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("engine.run_day_self_ms", "ms"),
    ("engine.minutes", "count"),
    ("controller.tracks", "count"),
    ("controller.tracks_per_day", "ratio"),
    ("controller.rounds_per_track", "ratio"),
    ("controller.rounds_p90", "rounds"),
    ("controller.cap_share", "ratio"),
    ("controller.reversals_per_track", "ratio"),
    ("controller.track_ms", "ms"),
    ("opsolve.solves_per_round", "ratio"),
    ("opsolve.pv_evals_per_solve", "ratio"),
    ("opsolve.newton_iters_per_solve", "ratio"),
    ("pv.evals", "count"),
    ("pv.memo_lookups", "count"),
    ("pv.memo_hit_ratio", "ratio"),
    ("pv.mpp_queries", "count"),
    ("pv.ns_per_eval", "ns"),
    ("tpr.alloc_calls", "count"),
    ("tpr.alloc_ms", "ms"),
    ("tpr.moves_per_alloc", "ratio"),
    ("degrade.fault_rejects", "count"),
    ("degrade.enters", "count"),
    ("degrade.false_trips", "count"),
    ("degrade.detection_latency_min", "min"),
    ("chaos.cells", "count"),
    ("chaos.cell_ms", "ms"),
    ("campaign.shards", "count"),
    ("campaign.pool_utilization", "ratio"),
    ("campaign.critical_path_s", "s"),
    ("campaign.shard_ms_p50", "ms"),
    ("campaign.shard_ms_max", "ms"),
    ("telemetry.records", "count"),
    ("telemetry.overhead", "ratio"),
];

/// Σ over every node named `name` anywhere in the tree of `f(node)`.
fn tree_sum(tree: &ProfTree, name: &str, f: fn(&ProfNode) -> u64) -> u64 {
    fn walk(node: &ProfNode, name: &str, f: fn(&ProfNode) -> u64) -> u64 {
        let own = if node.name == name { f(node) } else { 0 };
        own + node.children.iter().map(|c| walk(c, name, f)).sum::<u64>()
    }
    tree.roots.iter().map(|r| walk(r, name, f)).sum()
}

/// Derives every [`PER_LAYER`] metric, in order. A layer the workload
/// never entered reads 0. No metric uses the profiler's sim-minute
/// attribution, which charges pre-dawn minutes to `shard`.
pub fn per_layer(
    counts: &Counts,
    tree: &ProfTree,
    timings: &Timings,
    degrade: &Degrade,
    max_rounds: u32,
) -> Vec<f64> {
    let tracks = counts.track_rounds.len() as u64;
    let rounds: u64 = counts.track_rounds.iter().sum();
    let rounds_f: Vec<f64> = counts.track_rounds.iter().map(|&r| r as f64).collect();
    let at_cap = counts
        .track_rounds
        .iter()
        .filter(|&&r| r == u64::from(max_rounds))
        .count() as u64;
    let track_ns = tree_sum(tree, schema::PROF_MPPT_TRACK, |n| n.wall_ns);
    let lookups = counts.memo_hits + counts.memo_misses;
    let shard_max = timings.shard_ms.iter().copied().fold(0.0, f64::max);
    let values = [
        ms(timings.build_ns),
        ms(timings.prepare_ns),
        ms(tree_sum(tree, schema::PROF_RUN_DAY, ProfNode::self_ns)),
        counts.minutes as f64,
        tracks as f64,
        ratio(tracks, counts.days),
        ratio(rounds, tracks),
        quantile(&rounds_f, 0.9).value,
        ratio(at_cap, tracks),
        ratio(counts.reversals, tracks),
        ms(track_ns),
        ratio(counts.solves, rounds),
        ratio(counts.solve_pv_evals, counts.solves),
        ratio(counts.newton_iters, counts.solves),
        counts.pv_evals as f64,
        lookups as f64,
        ratio(counts.memo_hits, lookups),
        counts.mpp_queries as f64,
        ratio(track_ns, counts.pv_evals),
        tree_sum(tree, schema::PROF_TPR_ALLOC, |n| n.calls) as f64,
        ms(tree_sum(tree, schema::PROF_TPR_ALLOC, |n| n.wall_ns)),
        ratio(counts.tpr_moves, counts.tpr_events),
        degrade.fault_rejects as f64,
        degrade.enters as f64,
        degrade.false_trips as f64,
        quantile(&degrade.latency_min, 0.5).value,
        timings.cell_ms.len() as f64,
        quantile(&timings.cell_ms, 0.5).value,
        timings.shard_ms.len() as f64,
        timings.pool_utilization,
        timings.critical_path_ns as f64 / 1e9,
        quantile(&timings.shard_ms, 0.5).value,
        shard_max,
        counts.records as f64,
        timings.overhead,
    ];
    values.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use telemetry::{field, Counter, Histogram, Telemetry};

    #[test]
    fn sink_counts_what_the_engine_reports() {
        let counts = Rc::new(RefCell::new(Counts::default()));
        let tel = Telemetry::attached(counts.clone());
        tel.span(
            schema::SPAN_TRACK,
            500,
            vec![field(schema::ROUNDS, 60u32), field(schema::REVERSALS, 7u32)],
        )
        .unwrap();
        tel.event(schema::EVENT_MINUTE, vec![]).unwrap();
        let rounds = Histogram::new(
            schema::HIST_TRACK_ROUNDS,
            solarcore::telemetry::TRACK_BOUNDS,
        );
        rounds.record(60);
        tel.histogram(&rounds).unwrap();
        let evals = Counter::new(schema::COUNTER_PV_EVALS);
        evals.add(12);
        tel.counter(&evals).unwrap();
        tel.event(schema::EVENT_DAY_SUMMARY, vec![field(schema::SOLVES, 3u64)])
            .unwrap();
        let c = counts.borrow();
        assert_eq!(c.records, 5);
        assert_eq!(c.track_rounds, vec![60]);
        assert_eq!(
            (c.reversals, c.rounds_histogram_count, c.pv_evals),
            (7, 1, 12)
        );
        assert_eq!((c.days, c.minutes, c.solves), (1, 1, 3));
    }

    #[test]
    fn cap_share_counts_calls_that_hit_the_cap() {
        let counts = Counts {
            days: 2,
            track_rounds: vec![60, 10, 60, 20],
            ..Counts::default()
        };
        let m = per_layer(
            &counts,
            &ProfTree::default(),
            &Timings::default(),
            &Degrade::default(),
            60,
        );
        let get = |name: &str| m[PER_LAYER.iter().position(|(n, _)| *n == name).unwrap()];
        assert!((get("controller.cap_share") - 0.5).abs() < 1e-12);
        assert!((get("controller.tracks_per_day") - 2.0).abs() < 1e-12);
        assert!((get("controller.rounds_per_track") - 37.5).abs() < 1e-12);
        assert_eq!(m.len(), PER_LAYER.len());
    }
}
