//! Campaign telemetry: counters, phase timers and per-worker progress.
//!
//! The fuzzer pipeline is instrumented with a dependency-free registry of
//! atomic counters and log-bucket latency histograms. Instrumentation is
//! strictly *observational*: it never touches the RNG streams, the search or
//! the scheduler, so a campaign produces a byte-identical
//! [`crate::campaign::CampaignReport`] whether telemetry is on or off (a
//! guarantee covered by the campaign determinism tests).
//!
//! Design notes:
//!
//! * [`Telemetry`] is a cheap cloneable handle (an `Option<Arc<Registry>>`);
//!   [`Telemetry::off`] is a true no-op — disabled call sites cost one
//!   branch.
//! * Phase timings go through RAII [`SpanGuard`]s into per-phase atomic
//!   log-bucket histograms (bucket math shared with
//!   [`swarm_math::stats::LogHistogram`]).
//! * Simulation-loop counts arrive batched once per mission via the
//!   [`swarm_sim::SimObserver`] hook, keeping the mission-step hot path free
//!   of atomics (`benches/micro.rs` measures the overhead).
//! * [`Telemetry::snapshot`] freezes everything into a [`TelemetryReport`]
//!   with JSON (the crate's one codec, `crate::json`) and CSV writers, so
//!   reports land next to the `bench_results/` CSVs without a
//!   serialization dependency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use swarm_math::stats::{log_bucket_index, LogHistogram, LOG_HISTOGRAM_BUCKETS};
use swarm_sim::{RunStats, SimObserver};

use crate::json;

/// Instrumented pipeline phases, each backed by a latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The initial no-attack mission run.
    Baseline,
    /// Swarm Vulnerability Graph construction (per direction).
    SvgBuild,
    /// Centrality scoring (PageRank or an ablation alternative).
    Centrality,
    /// Seedpool construction and ordering.
    SeedSchedule,
    /// Gradient-guided window search (per seed).
    GradientSearch,
    /// Random window search (per seed).
    RandomSearch,
    /// One simulated attacked mission (one objective evaluation), run from
    /// scratch (snapshot forking off or no usable snapshot).
    MissionSim,
    /// Prefix-record reconstruction for a forked evaluation (the bookkeeping
    /// that replaces re-simulating `[0, t_s)`).
    PrefixSim,
    /// The forked suffix of one objective evaluation (resumed from a
    /// snapshot).
    ForkedSim,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 9] = [
        Phase::Baseline,
        Phase::SvgBuild,
        Phase::Centrality,
        Phase::SeedSchedule,
        Phase::GradientSearch,
        Phase::RandomSearch,
        Phase::MissionSim,
        Phase::PrefixSim,
        Phase::ForkedSim,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Baseline => "baseline",
            Phase::SvgBuild => "svg_build",
            Phase::Centrality => "centrality",
            Phase::SeedSchedule => "seed_schedule",
            Phase::GradientSearch => "gradient_search",
            Phase::RandomSearch => "random_search",
            Phase::MissionSim => "mission_sim",
            Phase::PrefixSim => "prefix_sim",
            Phase::ForkedSim => "forked_sim",
        }
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Missions fuzzed end-to-end.
    MissionsRun,
    /// Objective evaluations (attacked missions) spent.
    Evaluations,
    /// SPVs discovered.
    SpvFound,
    /// Mission seeds skipped because the baseline already collided.
    BaselineSkips,
    /// Seeds the window search worked through.
    SeedsTried,
    /// Physics steps across all simulated missions.
    SimPhysicsSteps,
    /// Control ticks across all simulated missions.
    SimControlTicks,
    /// Spatial-grid rebuilds across all simulated missions (0 when the
    /// brute-force neighbor path is active).
    GridRebuilds,
    /// Spatial-grid cells probed across all simulated missions.
    GridCellsScanned,
    /// Rows streamed to the campaign journal.
    JournalAppends,
    /// Jobs skipped on resume because the journal already held their row.
    ResumeSkips,
    /// Mission retries after a mission-level error.
    MissionRetries,
    /// Missions quarantined as `failed` rows after exhausting retries.
    MissionFailures,
    /// Objective evaluations served by forking from a baseline snapshot.
    ForkHits,
    /// Objective evaluations that fell back to a from-scratch run while
    /// snapshot forking was enabled (no snapshot preceding the window).
    ForkMisses,
    /// Physics steps *not* re-simulated thanks to forking (the prefix length
    /// of every fork hit).
    PrefixStepsSaved,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 16] = [
        Counter::MissionsRun,
        Counter::Evaluations,
        Counter::SpvFound,
        Counter::BaselineSkips,
        Counter::SeedsTried,
        Counter::SimPhysicsSteps,
        Counter::SimControlTicks,
        Counter::GridRebuilds,
        Counter::GridCellsScanned,
        Counter::JournalAppends,
        Counter::ResumeSkips,
        Counter::MissionRetries,
        Counter::MissionFailures,
        Counter::ForkHits,
        Counter::ForkMisses,
        Counter::PrefixStepsSaved,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MissionsRun => "missions_run",
            Counter::Evaluations => "evaluations",
            Counter::SpvFound => "spv_found",
            Counter::BaselineSkips => "baseline_skips",
            Counter::SeedsTried => "seeds_tried",
            Counter::SimPhysicsSteps => "sim_physics_steps",
            Counter::SimControlTicks => "sim_control_ticks",
            Counter::GridRebuilds => "grid_rebuilds",
            Counter::GridCellsScanned => "grid_cells_scanned",
            Counter::JournalAppends => "journal_appends",
            Counter::ResumeSkips => "resume_skips",
            Counter::MissionRetries => "mission_retries",
            Counter::MissionFailures => "mission_failures",
            Counter::ForkHits => "fork_hits",
            Counter::ForkMisses => "fork_misses",
            Counter::PrefixStepsSaved => "prefix_steps_saved",
        }
    }
}

/// Lock-free mirror of [`LogHistogram`]: per-bucket atomic counts plus an
/// exact total and maximum, recorded with `Relaxed` ordering (only aggregate
/// values are ever read, at snapshot time).
struct AtomicHistogram {
    counts: [AtomicU64; LOG_HISTOGRAM_BUCKETS],
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, ns: u64) {
        self.counts[log_bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LogHistogram {
        let counts = std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        LogHistogram::from_raw(
            counts,
            u128::from(self.total_ns.load(Ordering::Relaxed)),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// Per-worker campaign progress.
struct WorkerCell {
    missions: AtomicU64,
    spvs: AtomicU64,
    evaluations: AtomicU64,
}

/// The shared telemetry state behind an enabled [`Telemetry`] handle.
pub struct Registry {
    counters: [AtomicU64; Counter::ALL.len()],
    phases: [AtomicHistogram; Phase::ALL.len()],
    workers: Vec<WorkerCell>,
    /// Print a one-line progress report every this many missions per worker
    /// (0 = silent).
    progress_every: u64,
}

impl Registry {
    fn new(workers: usize, progress_every: u64) -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phases: std::array::from_fn(|_| AtomicHistogram::new()),
            workers: (0..workers.max(1))
                .map(|_| WorkerCell {
                    missions: AtomicU64::new(0),
                    spvs: AtomicU64::new(0),
                    evaluations: AtomicU64::new(0),
                })
                .collect(),
            progress_every,
        }
    }
}

/// A cheap cloneable telemetry handle: either off (every call is one branch)
/// or backed by a shared [`Registry`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(r) => write!(f, "Telemetry(on, {} workers)", r.workers.len()),
            None => write!(f, "Telemetry(off)"),
        }
    }
}

impl Telemetry {
    /// A disabled handle; every instrumentation call is a no-op.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle tracking `workers` worker slots, without periodic
    /// progress lines.
    pub fn enabled(workers: usize) -> Self {
        Telemetry { inner: Some(Arc::new(Registry::new(workers, 0))) }
    }

    /// An enabled handle that additionally prints a one-line progress report
    /// to stderr every `every` missions per worker (0 = silent).
    pub fn enabled_with_progress(workers: usize, every: u64) -> Self {
        Telemetry { inner: Some(Arc::new(Registry::new(workers, every))) }
    }

    /// `true` when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(r) = &self.inner {
            r.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.counters[counter as usize].load(Ordering::Relaxed))
    }

    /// Starts an RAII timer for `phase`; the elapsed wall time lands in the
    /// phase's histogram when the guard drops.
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        SpanGuard { active: self.inner.as_deref().map(|r| (r, phase, Instant::now())) }
    }

    /// Records an explicit phase duration in nanoseconds (what [`SpanGuard`]
    /// does on drop; exposed for tests and replayed timings).
    pub fn record_phase_ns(&self, phase: Phase, ns: u64) {
        if let Some(r) = &self.inner {
            r.phases[phase as usize].record(ns);
        }
    }

    /// Reports one finished mission for `worker`, updating its progress cell
    /// and printing the periodic progress line when configured.
    pub fn worker_mission_done(&self, worker: usize, found_spv: bool, evaluations: u64) {
        let Some(r) = &self.inner else { return };
        let cell = &r.workers[worker % r.workers.len()];
        let missions = cell.missions.fetch_add(1, Ordering::Relaxed) + 1;
        if found_spv {
            cell.spvs.fetch_add(1, Ordering::Relaxed);
        }
        cell.evaluations.fetch_add(evaluations, Ordering::Relaxed);
        if r.progress_every > 0 && missions % r.progress_every == 0 {
            eprintln!(
                "[telemetry] worker {}: {} missions, {} SPVs, {} evaluations",
                worker % r.workers.len(),
                missions,
                cell.spvs.load(Ordering::Relaxed),
                cell.evaluations.load(Ordering::Relaxed),
            );
        }
    }

    /// Freezes the current state into a report (`None` when disabled).
    pub fn snapshot(&self) -> Option<TelemetryReport> {
        let r = self.inner.as_deref()?;
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterValue {
                name: c.name(),
                value: r.counters[c as usize].load(Ordering::Relaxed),
            })
            .collect();
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let h = r.phases[p as usize].snapshot();
                PhaseStats {
                    name: p.name(),
                    count: h.count(),
                    total_ns: h.total(),
                    mean_ns: h.mean().unwrap_or(0.0),
                    p50_ns: h.quantile(0.5).unwrap_or(0.0),
                    p95_ns: h.quantile(0.95).unwrap_or(0.0),
                    max_ns: h.max().unwrap_or(0),
                }
            })
            .collect();
        let workers = r
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerStats {
                worker: i,
                missions: w.missions.load(Ordering::Relaxed),
                spvs: w.spvs.load(Ordering::Relaxed),
                evaluations: w.evaluations.load(Ordering::Relaxed),
            })
            .collect();
        Some(TelemetryReport { counters, phases, workers })
    }
}

/// Simulation-loop counts arrive batched once per mission run — one virtual
/// call and two atomic adds per *mission*, leaving the per-step hot path
/// untouched.
impl SimObserver for Telemetry {
    fn on_run_end(&self, stats: &RunStats) {
        self.add(Counter::SimPhysicsSteps, stats.physics_steps);
        self.add(Counter::SimControlTicks, stats.control_ticks);
        if stats.grid_rebuilds > 0 {
            self.add(Counter::GridRebuilds, stats.grid_rebuilds);
            self.add(Counter::GridCellsScanned, stats.grid_cells_scanned);
        }
    }
}

/// RAII phase timer returned by [`Telemetry::span`].
pub struct SpanGuard<'a> {
    active: Option<(&'a Registry, Phase, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((registry, phase, started)) = self.active.take() {
            registry.phases[phase as usize].record(span_ns(started, Instant::now()));
        }
    }
}

/// Span duration in nanoseconds, saturating on both ends: a non-monotonic
/// clock step backwards yields 0 rather than a garbage `max_ns`, and a span
/// longer than ~584 years saturates at `u64::MAX`.
fn span_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// One counter's snapshot value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterValue {
    /// Counter name.
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One phase's timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Phase name.
    pub name: &'static str,
    /// Number of recorded spans.
    pub count: u64,
    /// Exact summed duration in nanoseconds.
    pub total_ns: u128,
    /// Mean span duration in nanoseconds.
    pub mean_ns: f64,
    /// Estimated median span duration in nanoseconds.
    pub p50_ns: f64,
    /// Estimated 95th-percentile span duration in nanoseconds.
    pub p95_ns: f64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
}

/// One worker's campaign progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker slot index.
    pub worker: usize,
    /// Missions fuzzed by this worker.
    pub missions: u64,
    /// SPVs this worker found.
    pub spvs: u64,
    /// Evaluations this worker spent.
    pub evaluations: u64,
}

/// A frozen, machine-readable telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Every counter, in [`Counter::ALL`] order.
    pub counters: Vec<CounterValue>,
    /// Every phase, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStats>,
    /// Per-worker progress.
    pub workers: Vec<WorkerStats>,
}

impl TelemetryReport {
    /// The counter value by name, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The phase stats by name, when present.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Renders the report as one line of JSON (newline included). JSON has
    /// no NaN or infinity, so a non-finite statistic (never produced by a
    /// snapshot) is written as 0.
    pub fn to_json(&self) -> String {
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        let mut out = json::object(|o| {
            o.object("counters", |o| {
                for c in &self.counters {
                    o.field(c.name, c.value);
                }
            })
            .array("phases", |a| {
                for p in &self.phases {
                    a.element(|o| {
                        o.field("name", p.name).field("count", p.count);
                        o.field("total_ns", p.total_ns).field("mean_ns", finite(p.mean_ns));
                        o.field("p50_ns", finite(p.p50_ns)).field("p95_ns", finite(p.p95_ns));
                        o.field("max_ns", p.max_ns);
                    });
                }
            })
            .array("workers", |a| {
                for w in &self.workers {
                    a.element(|o| {
                        o.field("worker", w.worker).field("missions", w.missions);
                        o.field("spvs", w.spvs).field("evaluations", w.evaluations);
                    });
                }
            });
        });
        out.push('\n');
        out
    }

    /// Renders the report as CSV rows `kind,name,field,value` (one flat
    /// table, trivially greppable and spreadsheet-importable).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for c in &self.counters {
            out.push_str(&format!("counter,{},value,{}\n", c.name, c.value));
        }
        for p in &self.phases {
            out.push_str(&format!("phase,{},count,{}\n", p.name, p.count));
            out.push_str(&format!("phase,{},total_ns,{}\n", p.name, p.total_ns));
            out.push_str(&format!("phase,{},mean_ns,{:.1}\n", p.name, p.mean_ns));
            out.push_str(&format!("phase,{},p50_ns,{:.1}\n", p.name, p.p50_ns));
            out.push_str(&format!("phase,{},p95_ns,{:.1}\n", p.name, p.p95_ns));
            out.push_str(&format!("phase,{},max_ns,{}\n", p.name, p.max_ns));
        }
        for w in &self.workers {
            out.push_str(&format!("worker,{},missions,{}\n", w.worker, w.missions));
            out.push_str(&format!("worker,{},spvs,{}\n", w.worker, w.spvs));
            out.push_str(&format!("worker,{},evaluations,{}\n", w.worker, w.evaluations));
        }
        out
    }

    /// A short human-readable summary (one line per non-zero entry).
    pub fn summary(&self) -> String {
        let mut out = String::from("telemetry summary\n");
        for c in self.counters.iter().filter(|c| c.value > 0) {
            out.push_str(&format!("  {:<18} {}\n", c.name, c.value));
        }
        for p in self.phases.iter().filter(|p| p.count > 0) {
            out.push_str(&format!(
                "  {:<18} {} spans, total {:.1} ms, mean {:.2} ms, p95 {:.2} ms\n",
                p.name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.mean_ns / 1e6,
                p.p95_ns / 1e6,
            ));
        }
        for w in self.workers.iter().filter(|w| w.missions > 0) {
            out.push_str(&format!(
                "  worker {:<11} {} missions, {} SPVs, {} evaluations\n",
                w.worker, w.missions, w.spvs, w.evaluations
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::off();
        t.incr(Counter::MissionsRun);
        t.record_phase_ns(Phase::Baseline, 100);
        t.worker_mission_done(0, true, 5);
        drop(t.span(Phase::MissionSim));
        assert!(!t.is_enabled());
        assert_eq!(t.counter(Counter::MissionsRun), 0);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let t = Telemetry::enabled(2);
        let t2 = t.clone();
        t.incr(Counter::SpvFound);
        t2.add(Counter::SpvFound, 2);
        assert_eq!(t.counter(Counter::SpvFound), 3);
        let report = t.snapshot().unwrap();
        assert_eq!(report.counter("spv_found"), Some(3));
        assert_eq!(report.counter("missions_run"), Some(0));
        assert_eq!(report.counter("no_such"), None);
    }

    #[test]
    fn span_ns_saturates_on_backwards_clock_steps() {
        let a = Instant::now();
        let b = a + std::time::Duration::from_nanos(100);
        assert_eq!(span_ns(a, b), 100);
        // A clock stepping backwards must clamp to zero, not wrap.
        assert_eq!(span_ns(b, a), 0);
        assert_eq!(span_ns(a, a), 0);
    }

    #[test]
    fn spans_land_in_the_phase_histogram() {
        let t = Telemetry::enabled(1);
        {
            let _g = t.span(Phase::Baseline);
        }
        t.record_phase_ns(Phase::Baseline, 1_000);
        let report = t.snapshot().unwrap();
        let p = report.phase("baseline").unwrap();
        assert_eq!(p.count, 2);
        assert!(p.total_ns >= 1_000);
        assert_eq!(report.phase("mission_sim").unwrap().count, 0);
    }

    #[test]
    fn worker_progress_is_tracked_per_slot() {
        let t = Telemetry::enabled(3);
        t.worker_mission_done(0, true, 4);
        t.worker_mission_done(2, false, 7);
        t.worker_mission_done(2, true, 1);
        let report = t.snapshot().unwrap();
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.workers[0].missions, 1);
        assert_eq!(report.workers[0].spvs, 1);
        assert_eq!(report.workers[1].missions, 0);
        assert_eq!(report.workers[2].missions, 2);
        assert_eq!(report.workers[2].evaluations, 8);
    }

    #[test]
    fn sim_observer_batches_into_counters() {
        let t = Telemetry::enabled(1);
        let stats = RunStats {
            physics_steps: 1_000,
            control_ticks: 100,
            gps_rounds: 1_000,
            sim_time: 10.0,
            ..Default::default()
        };
        SimObserver::on_run_end(&t, &stats);
        SimObserver::on_run_end(&t, &stats);
        assert_eq!(t.counter(Counter::SimPhysicsSteps), 2_000);
        assert_eq!(t.counter(Counter::SimControlTicks), 200);
        assert_eq!(t.counter(Counter::GridRebuilds), 0);

        let grid_stats =
            RunStats { grid_rebuilds: 11, grid_cells_scanned: 250, ..Default::default() };
        SimObserver::on_run_end(&t, &grid_stats);
        assert_eq!(t.counter(Counter::GridRebuilds), 11);
        assert_eq!(t.counter(Counter::GridCellsScanned), 250);
    }

    #[test]
    fn json_and_csv_render_all_sections() {
        let t = Telemetry::enabled(2);
        t.incr(Counter::MissionsRun);
        t.record_phase_ns(Phase::MissionSim, 5_000_000);
        t.worker_mission_done(1, true, 9);
        let report = t.snapshot().unwrap();

        let json = report.to_json();
        assert!(json.contains("\"missions_run\":1"));
        assert!(json.contains("\"name\":\"mission_sim\",\"count\":1"));
        assert!(json.contains("\"worker\":1,\"missions\":1,\"spvs\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let csv = report.to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,missions_run,value,1\n"));
        assert!(csv.contains("phase,mission_sim,count,1\n"));
        assert!(csv.contains("worker,1,evaluations,9\n"));

        let summary = report.summary();
        assert!(summary.contains("missions_run"));
        assert!(summary.contains("worker 1"));
    }

    #[test]
    fn json_floats_round_trip_bit_exactly() {
        use crate::json::{self, Json};

        // 1 ns over 30 spans: a phase mean of 1/30 ns, far below the 0.1
        // resolution a fixed one-decimal format would keep.
        let t = Telemetry::enabled(1);
        t.record_phase_ns(Phase::Baseline, 1);
        for _ in 0..29 {
            t.record_phase_ns(Phase::Baseline, 0);
        }
        let report = t.snapshot().unwrap();
        let mean = report.phase("baseline").unwrap().mean_ns;
        assert!(mean > 0.0 && mean < 0.1, "mean {mean}");

        let json = json::parse(&report.to_json()).expect("telemetry JSON parses");
        let phases: &[Json] = json.req("phases").expect("phases array");
        let parsed: f64 = phases
            .iter()
            .find(|p| p.req("name") == Ok("baseline"))
            .and_then(|p| p.req("mean_ns").ok())
            .expect("baseline mean_ns");
        assert_eq!(parsed.to_bits(), mean.to_bits());
    }
}
