//! `paper-grid`: the paper's six-configuration SwarmFuzz campaign through
//! `run_campaign_with_options`, snapshots on, a journal, two workers. Closed
//! loop: the campaign is the only client.
//!
//! A run is a fixed number of campaigns whose size follows `--seconds`, each
//! seeded from `--seed`. Latency is per mission: from the campaign's start
//! (when every mission is due) to the moment its row lands in the journal,
//! read by a tail thread the way a user tailing the journal sees it.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::rng::derive_seed;
use swarm_sim::spoof::AttackSpec;
use swarm_sim::{Simulation, SwarmController};
use swarmfuzz::campaign::{
    campaign_mission, run_campaign_traced, CampaignConfig, CampaignReport, CampaignRunOptions,
    JournalSpec,
};
use swarmfuzz::store::{campaign_fingerprint, CampaignJournal, JournalRow};
use swarmfuzz::telemetry::{Counter, Telemetry};
use swarmfuzz::trace::Trace;
use swarmfuzz::{Fuzzer, FuzzerConfig};

use crate::spans::{self, Layer, Mark, MarkSink, Recorder, TimedController};
use crate::stats::{median, quantile};
use crate::{peak_rss_mb, replay, scratch_dir, spans_path, Args, Outcome, SetupClock};

/// Campaign worker threads.
pub const WORKERS: usize = 2;
/// Campaign rows per second the sizing assumes (two workers, 2-core host).
const ROWS_PER_S: f64 = 17.0;
/// Campaigns per untraced run.
const REPS: usize = 3;
/// Missions per configuration of each traced/untraced pair's campaigns.
const PAIR_MISSIONS: usize = 4;
/// Set-up samples taken before each untraced campaign.
const SETUP_SAMPLES_PER_REP: usize = 7;

pub fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// Missions per configuration of one untraced campaign.
fn missions_per_config(seconds: f64) -> usize {
    ((seconds * ROWS_PER_S / 6.0 / REPS as f64).round() as usize).max(1)
}

/// Traced/untraced campaign pairs of a traced run.
fn pairs(seconds: f64) -> usize {
    ((seconds * ROWS_PER_S / (2.0 * 6.0 * PAIR_MISSIONS as f64)).round() as usize).max(2)
}

/// One campaign, ready to run.
struct Built {
    campaign: CampaignConfig,
    options: CampaignRunOptions,
    journal: PathBuf,
    fingerprint: String,
}

impl Built {
    /// The same campaign journaling to `path` instead: every run needs a
    /// fresh journal file, or the tail would follow the previous one.
    fn with_journal(mut self, path: PathBuf) -> Self {
        self.options.journal = Some(JournalSpec { path: path.clone(), resume: false });
        self.journal = path;
        self
    }
}

/// Set-up: the campaign grid, its fuzzer configurations and fingerprint,
/// and its journal location in `dir` (which exists, and holds no journal of
/// the same `rep`).
fn build(seed: u64, rep: u64, missions: usize, dir: &Path) -> Built {
    let mut campaign = CampaignConfig::paper_grid(missions, derive_seed(seed, rep));
    campaign.workers = WORKERS;
    let configs: Vec<FuzzerConfig> =
        campaign.configs.iter().map(|c| FuzzerConfig::swarmfuzz(c.deviation)).collect();
    let fingerprint = campaign_fingerprint(&campaign, &configs);
    let journal = dir.join(format!("grid-{rep}.jsonl"));
    let options = CampaignRunOptions {
        journal: Some(JournalSpec { path: journal.clone(), resume: false }),
        snapshot: true,
        ..CampaignRunOptions::default()
    };
    Built { campaign, options, journal, fingerprint }
}

/// Follows a journal file and timestamps every row line as it appears.
struct JournalTail {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Instant>>,
}

impl JournalTail {
    fn start(path: &Path) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let path = path.to_path_buf();
        let handle = std::thread::spawn(move || {
            let mut file = None;
            let mut seen = Vec::new();
            let mut lines = 0usize;
            let mut buf = Vec::new();
            loop {
                let last = flag.load(Ordering::Acquire);
                if file.is_none() {
                    file = std::fs::File::open(&path).ok();
                }
                if let Some(f) = file.as_mut() {
                    buf.clear();
                    if f.read_to_end(&mut buf).is_ok() {
                        let now = Instant::now();
                        for _ in buf.iter().filter(|&&b| b == b'\n') {
                            // The first line is the journal header.
                            if lines > 0 {
                                seen.push(now);
                            }
                            lines += 1;
                        }
                    }
                }
                if last {
                    return seen;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        JournalTail { stop, handle }
    }

    fn finish(self) -> Vec<Instant> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().unwrap_or_default()
    }
}

/// What one campaign produced.
struct Rep {
    wall_s: f64,
    report: CampaignReport,
    telemetry: Telemetry,
    latencies_ms: Vec<f64>,
    t0: Instant,
    t1: Instant,
}

fn run_rep<C>(
    built: &Built,
    make_fuzzer: impl Fn(f64) -> Fuzzer<C> + Sync,
    trace: &Trace,
) -> Result<Rep, String>
where
    C: SwarmController + Clone + Send + 'static,
{
    let telemetry = Telemetry::enabled(WORKERS);
    let tail = JournalTail::start(&built.journal);
    let t0 = Instant::now();
    let report =
        run_campaign_traced(&built.campaign, make_fuzzer, &telemetry, &built.options, trace);
    let t1 = Instant::now();
    let rows = tail.finish();
    let report = report.map_err(|e| format!("campaign failed: {e}"))?;
    let latencies_ms =
        rows.iter().map(|t| t.saturating_duration_since(t0).as_secs_f64() * 1e3).collect();
    Ok(Rep { wall_s: (t1 - t0).as_secs_f64(), report, telemetry, latencies_ms, t0, t1 })
}

fn untraced_rep(built: &Built) -> Result<Rep, String> {
    run_rep(built, |d| Fuzzer::new(controller(), FuzzerConfig::swarmfuzz(d)), &Trace::off())
}

fn traced_rep(built: &Built, rec: &Arc<Recorder>) -> Result<Rep, String> {
    let trace = Trace::new(Arc::new(MarkSink(Arc::clone(rec))));
    run_rep(
        built,
        |d| {
            // The factory runs once per mission attempt on the worker: the
            // executor's start stamp.
            rec.mark(Mark::ExecStart(0));
            Fuzzer::new(TimedController(controller()), FuzzerConfig::swarmfuzz(d))
        },
        &trace,
    )
}

/// Output checks: one journal row per job, the report accounts for every
/// job, and every finding replays to its reported victim and time.
/// Returns the number of failed operations.
fn check_rep(out: &mut Outcome, built: &Built, rep: &Rep) -> u64 {
    let jobs = built.campaign.configs.len() * built.campaign.missions_per_config;
    let report = &rep.report;
    out.check(report.missions.len() + report.failures.len() == jobs, || {
        format!(
            "report holds {} + {} rows for {jobs} jobs",
            report.missions.len(),
            report.failures.len()
        )
    });
    match CampaignJournal::read(&built.journal) {
        Ok(contents) => {
            let mut keys: Vec<_> = contents.rows.iter().map(JournalRow::job_key).collect();
            keys.sort_unstable();
            keys.dedup();
            out.check(contents.rows.len() == jobs && keys.len() == jobs, || {
                format!(
                    "journal holds {} rows ({} distinct) for {jobs} jobs",
                    contents.rows.len(),
                    keys.len()
                )
            });
            out.check(contents.fingerprint == built.fingerprint, || {
                "journal fingerprint differs from the campaign's".to_string()
            });
        }
        Err(e) => out.check(false, || format!("journal unreadable: {e}")),
    }
    out.check(rep.latencies_ms.len() == jobs, || {
        format!("journal tail saw {} rows for {jobs} jobs", rep.latencies_ms.len())
    });
    let mut failed = report.failures.len() as u64;
    for m in &report.missions {
        let Some(f) = &m.finding else { continue };
        let replayed = AttackSpec::from_waveform(
            f.waveform,
            f.seed.target,
            f.seed.direction,
            f.start,
            f.duration,
            f.deviation,
        )
        .map_err(|e| e.to_string())
        .and_then(|attack| {
            let sim = Simulation::new(campaign_mission(m.config, m.mission_seed), controller())
                .map_err(|e| e.to_string())?;
            sim.run(Some(&attack)).map_err(|e| e.to_string())
        });
        let ok = matches!(&replayed, Ok(o) if o.spv_collision(f.seed.target)
            == Some((f.actual_victim, f.collision_time)));
        out.check(ok, || {
            format!("finding of {} seed {} does not replay", m.config, m.mission_seed)
        });
        failed += u64::from(!ok);
    }
    failed
}

fn counter(rep: &Rep, c: Counter) -> u64 {
    rep.telemetry.counter(c)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = scratch_dir(args);
    let mut out = Outcome::default();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if args.trace {
        traced(args, &dir, &mut out)?;
    } else {
        untraced(args, &dir, &mut out)?;
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

fn untraced(args: &Args, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let missions = missions_per_config(args.seconds);
    let (mut rows, mut wall, mut steps) = (0usize, 0.0, 0u64);
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let set_up = || build(args.seed, 0, 1, dir);
    let mut clock = SetupClock::calibrate(set_up);
    for rep in 0..REPS {
        for _ in 0..SETUP_SAMPLES_PER_REP {
            clock.sample(set_up);
        }
        let built = build(args.seed, rep as u64 + 1, missions, dir);
        let result = untraced_rep(&built)?;
        out.attempted += (built.campaign.configs.len() * missions) as u64;
        out.failed += check_rep(out, &built, &result);
        rows += result.report.missions.len() + result.report.failures.len();
        wall += result.wall_s;
        steps += counter(&result, Counter::SimPhysicsSteps);
        rates.push(result.report.missions.len() as f64 / result.wall_s);
        latencies.extend(result.latencies_ms);
    }
    let (setup, setup_n) = clock.median();
    out.set("setup_s", setup);
    out.set("missions_per_s", rows as f64 / wall);
    out.set("sim_steps_per_s", steps as f64 / wall);
    out.set("latency_p50_ms", median(&latencies));
    out.set("latency_p99_ms", quantile(&latencies, 0.99));
    out.note(format!(
        "paper-grid: {REPS} campaigns x 6 configs x {missions} missions, {WORKERS} workers; \
         {rows} rows in {wall:.3}s; per-campaign missions/s {rates:.3?} (median {:.3}); \
         latency over n={} rows; set-up over n={setup_n} samples",
        median(&rates),
        latencies.len()
    ));
    Ok(())
}

fn traced(args: &Args, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let rec = Arc::new(Recorder::default());
    let mut pairs_wall = Vec::new();
    let mut timeline = spans::Timeline::default();
    let mut wall = 0.0;
    let mut counts = [0u64; 5];
    let mut journal_rows = Vec::new();
    for pair in 0..pairs(args.seconds) {
        let rep = 100 + pair as u64;
        let plain_built = build(args.seed, rep, PAIR_MISSIONS, dir);
        let built = build(args.seed, rep, PAIR_MISSIONS, dir)
            .with_journal(dir.join(format!("grid-{rep}-traced.jsonl")));
        // Alternate which side runs first so drift cancels.
        let (plain, traced) = if pair % 2 == 0 {
            let plain = untraced_rep(&plain_built)?;
            rec.take();
            (plain, traced_rep(&built, &rec)?)
        } else {
            rec.take();
            let traced = traced_rep(&built, &rec)?;
            (untraced_rep(&plain_built)?, traced)
        };
        out.attempted += 2 * (built.campaign.configs.len() * PAIR_MISSIONS) as u64;
        out.failed += check_rep(out, &plain_built, &plain) + check_rep(out, &built, &traced);
        out.check(plain.report == traced.report, || {
            format!("traced campaign {pair} reports differently from the untraced one")
        });
        pairs_wall.push((plain.wall_s, traced.wall_s));
        let main = spans::thread_id();
        let events: Vec<_> = rec.take().into_iter().filter(|e| e.thread != main).collect();
        let window = spans::analyse(&events, traced.t0, traced.t1, WORKERS, Layer::Idle);
        let spvs = traced.report.missions.iter().filter(|m| m.success).count() as u64;
        out.check(window.spvs == spvs, || {
            format!("trace saw {} SPVs, campaign {pair} reports {spvs}", window.spvs)
        });
        timeline.absorb(window);
        wall += traced.wall_s;
        for (slot, c) in counts.iter_mut().zip([
            Counter::SimPhysicsSteps,
            Counter::SimControlTicks,
            Counter::GridRebuilds,
            Counter::GridCellsScanned,
            Counter::PrefixStepsSaved,
        ]) {
            *slot += counter(&traced, c);
        }
        if let Ok(contents) = CampaignJournal::read(&built.journal) {
            journal_rows.extend(contents.rows);
        }
    }
    let ticks = counts[1].max(1) as f64;
    out.set("sim.physics_steps", counts[0] as f64);
    out.set("sim.control_ticks", counts[1] as f64);
    out.set("sim.grid_rebuilds", counts[2] as f64 / ticks);
    out.set("sim.grid_cells_scanned", counts[3] as f64 / ticks);
    out.set("snapshot.prefix_steps_saved", counts[4] as f64);
    fuzzer_metrics(out, &timeline, wall);
    crate::timeline_metrics(out, &timeline, wall);
    replay::store(out, &journal_rows, dir, None)?;
    out.note(format!("paper-grid traced: pairs of 6 x {PAIR_MISSIONS}-mission campaigns"));
    crate::report_overhead(out, &pairs_wall);
    spans::write_spans(&spans_path(args), &timeline.spans)
        .map_err(|e| format!("write spans: {e}"))?;
    Ok(())
}

/// Fuzzer-phase and snapshot metrics of a traced timeline; SPVs are the
/// missions whose `MissionDone` reported success.
pub fn fuzzer_metrics(out: &mut Outcome, tl: &spans::Timeline, wall_s: f64) {
    let spvs = tl.spvs as f64;
    out.set("fuzzer.baseline_s", tl.inclusive_of(Layer::Baseline));
    out.set("fuzzer.schedule_s", tl.inclusive_of(Layer::Schedule));
    out.set("fuzzer.search_s", tl.inclusive_of(Layer::Search) + tl.inclusive_of(Layer::Probe));
    out.set("fuzzer.probes", tl.probes as f64);
    out.set("fuzzer.probe_ms_p50", median(&tl.probe_ms));
    out.set("fuzzer.probe_ms_p90", quantile(&tl.probe_ms, 0.9));
    out.set("fuzzer.spvs_per_min", if wall_s > 0.0 { spvs / wall_s * 60.0 } else { 0.0 });
    let base = tl.fork_hits + tl.fork_misses;
    out.set("snapshot.fork_base", base as f64);
    out.set(
        "snapshot.fork_hit_ratio",
        if base > 0 { tl.fork_hits as f64 / base as f64 } else { 0.0 },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_untraced_run() {
        let out = crate::tests::reduced_run("paper-grid", false);
        assert!(out.metrics["missions_per_s"] > 0.0);
        assert!(out.metrics["latency_p99_ms"] >= out.metrics["latency_p50_ms"]);
    }

    #[test]
    fn reduced_traced_run_counts_repeat() {
        let a = crate::tests::reduced_run("paper-grid", true);
        let b = crate::tests::reduced_run("paper-grid", true);
        for name in
            ["fuzzer.probes", "sim.physics_steps", "snapshot.fork_hit_ratio", "snapshot.fork_base"]
        {
            assert_eq!(a.metrics[name], b.metrics[name], "{name} differs between runs");
            assert!(a.metrics[name] > 0.0, "{name} is zero");
        }
    }

    /// Counts and reports do not depend on the worker count.
    #[test]
    fn one_and_two_workers_agree() {
        let dir = PathBuf::from(".perfbench_tmp/grid-workers-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut built = build(5, 1, 1, &dir);
        let two = untraced_rep(&built).unwrap();
        built.campaign.workers = 1;
        let one = untraced_rep(&built.with_journal(dir.join("one.jsonl"))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(one.report, two.report);
        for c in [Counter::SimPhysicsSteps, Counter::Evaluations, Counter::ForkHits] {
            assert_eq!(counter(&one, c), counter(&two, c), "{c:?}");
        }
    }
}
