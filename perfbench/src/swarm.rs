//! `swarm-1000`: one no-attack `scenario::large_swarm(1000, seed)` mission
//! through `Simulation::run`, default configuration (spatial grid on), one
//! thread, repeated. Latency is per control tick: the interval between the
//! controller's consecutive batch calls, stamped by a thin wrapper.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use swarm_math::Vec3;
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::runner::{ControlBatch, ControlContext};
use swarm_sim::{scenario, Simulation, SwarmController};

use crate::grid::controller;
use crate::spans::{self, Mark, Recorder, StatsObserver, TimedController};
use crate::stats::{median, quantile};
use crate::{peak_rss_mb, replay, spans_path, Args, Outcome, SetupClock};

pub const DRONES: usize = 1000;
/// Simulated seconds per mission (2 000 physics steps).
const HORIZON_S: f64 = 20.0;
/// Host seconds one mission takes on the reference host.
const MISSION_S: f64 = 0.75;

thread_local! {
    static TICKS: RefCell<Vec<Instant>> = const { RefCell::new(Vec::new()) };
}

/// Stamps the start of every control tick (one batch call per tick).
#[derive(Debug, Clone, Copy)]
struct TickClock<C>(C);

impl<C: SwarmController> SwarmController for TickClock<C> {
    fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
        self.0.desired_velocity(ctx)
    }

    fn desired_velocity_batch(&self, batch: &ControlBatch<'_>, out: &mut [Vec3]) {
        TICKS.with(|t| t.borrow_mut().push(Instant::now()));
        self.0.desired_velocity_batch(batch, out);
    }
}

pub fn mission_spec(drones: usize, seed: u64, horizon: f64) -> MissionSpec {
    let mut spec = scenario::large_swarm(drones, seed);
    spec.duration = horizon;
    spec
}

/// A digest of the whole recording: every sampled position and velocity,
/// every collision and arrival.
pub fn digest(record: &MissionRecord) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for tick in 0..record.len() {
        eat(record.times()[tick].to_bits());
        for v in record.positions_at(tick).iter().chain(record.velocities_at(tick)) {
            eat(v.x.to_bits());
            eat(v.y.to_bits());
            eat(v.z.to_bits());
        }
    }
    for c in record.collisions() {
        eat(c.time.to_bits());
    }
    for d in 0..record.swarm_size() {
        eat(record.arrival_time(swarm_sim::DroneId(d)).map_or(u64::MAX, f64::to_bits));
    }
    h
}

/// Physics steps a finished mission took (the recording starts at t = 0).
fn steps(spec: &MissionSpec, record: &MissionRecord) -> u64 {
    (record.duration() / spec.physics_dt).round() as u64 + 1
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let horizon = if args.seconds < 2.0 { 1.0 } else { HORIZON_S };
    // Set-up: build the mission and its simulation.
    let set_up = || {
        let spec = mission_spec(DRONES, args.seed, horizon);
        Simulation::new(spec.clone(), controller()).map(|_| spec)
    };
    let spec = set_up().map_err(|e| format!("large swarm mission: {e}"))?;
    let reps = ((args.seconds / MISSION_S).round() as usize).max(2);
    if args.trace {
        traced(args, &spec, reps, &mut out)?;
    } else {
        untraced(&spec, reps, set_up, &mut out)?;
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Untraced missions; one set-up sample is taken before each.
fn untraced<T>(
    spec: &MissionSpec,
    reps: usize,
    set_up: impl Fn() -> T + Sync,
    out: &mut Outcome,
) -> Result<(), String> {
    let sim = Simulation::new(spec.clone(), TickClock(controller())).map_err(|e| e.to_string())?;
    let (mut rates, mut mission_rates, mut tick_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut clock = SetupClock::calibrate(&set_up);
    for rep in 0..reps {
        clock.sample(&set_up);
        TICKS.with(|t| t.borrow_mut().clear());
        let start = Instant::now();
        let outcome = sim.run(None);
        let wall = start.elapsed().as_secs_f64();
        out.attempted += 1;
        let record = match outcome {
            Ok(o) => o.record,
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("mission {rep} failed: {e}"));
                continue;
            }
        };
        let stamps = TICKS.with(|t| std::mem::take(&mut *t.borrow_mut()));
        tick_ms.extend(stamps.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
        let d = digest(&record);
        let first = *first.get_or_insert(d);
        out.check(d == first, || format!("mission {rep} digest {d:x} differs from {first:x}"));
        out.failed += u64::from(d != first);
        rates.push(steps(spec, &record) as f64 / wall);
        mission_rates.push(1.0 / wall);
    }
    let (setup, setup_n) = clock.median();
    out.set("setup_s", setup);
    out.set("missions_per_s", median(&mission_rates));
    out.set("sim_steps_per_s", median(&rates));
    out.set("latency_p50_ms", median(&tick_ms));
    out.set("latency_p99_ms", quantile(&tick_ms, 0.99));
    out.note(format!(
        "swarm-1000: {reps} missions of {DRONES} drones x {}s; steps/s median {:.1} \
         (n={}, min {:.1}, max {:.1}); tick latency over n={} ticks; set-up over n={setup_n} \
         samples",
        spec.duration,
        median(&rates),
        rates.len(),
        quantile(&rates, 0.0),
        quantile(&rates, 1.0),
        tick_ms.len()
    ));
    Ok(())
}

fn traced(args: &Args, spec: &MissionSpec, reps: usize, out: &mut Outcome) -> Result<(), String> {
    let plain = Simulation::new(spec.clone(), controller()).map_err(|e| e.to_string())?;
    let timed =
        Simulation::new(spec.clone(), TimedController(controller())).map_err(|e| e.to_string())?;
    let rec = Arc::new(Recorder::default());
    let observer = StatsObserver::default();
    let mut timeline = spans::Timeline::default();
    let mut pairs = Vec::new();
    let (mut wall, mut digests, mut last_record) = (0.0, Vec::new(), None);
    let pair_count = (reps / 2).max(2);
    for pair in 0..pair_count {
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for traced_side in [pair % 2 == 1, pair % 2 == 0] {
            out.attempted += 1;
            if !traced_side {
                let start = Instant::now();
                let o = plain.run(None).map_err(|e| e.to_string())?;
                plain_s = start.elapsed().as_secs_f64();
                digests.push(digest(&o.record));
                continue;
            }
            rec.take();
            let t0 = Instant::now();
            rec.mark(Mark::RunStart);
            let o = timed.run_observed(None, Some(&observer)).map_err(|e| e.to_string())?;
            rec.mark(Mark::RunEnd);
            traced_s = t0.elapsed().as_secs_f64();
            digests.push(digest(&o.record));
            let t1 = Instant::now();
            timeline.absorb(spans::analyse(&rec.take(), t0, t1, 1, spans::Layer::Idle));
            wall += (t1 - t0).as_secs_f64();
            last_record = Some(o.record);
        }
        pairs.push((plain_s, traced_s));
    }
    let same = digests.windows(2).all(|w| w[0] == w[1]);
    out.check(same, || "traced and untraced missions record different trajectories".to_string());
    let runs = observer.runs.lock().map(|r| r.clone()).unwrap_or_default();
    let first = runs.first().copied().unwrap_or_default();
    out.check(runs.iter().all(|r| *r == first), || {
        "run counts differ between missions".to_string()
    });
    let ticks = first.control_ticks.max(1) as f64;
    out.set("sim.physics_steps", first.physics_steps as f64);
    out.set("sim.control_ticks", first.control_ticks as f64);
    out.set("sim.grid_rebuilds", first.grid_rebuilds as f64 / ticks);
    out.set("sim.grid_cells_scanned", first.grid_cells_scanned as f64 / ticks);
    crate::timeline_metrics(out, &timeline, wall);
    if let Some(record) = &last_record {
        replay::spatial(out, spec, record);
    }
    out.note("swarm-1000 traced: pairs of one mission each".to_string());
    crate::report_overhead(out, &pairs);
    spans::write_spans(&spans_path(args), &timeline.spans).map_err(|e| format!("write spans: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_sim::{SimConfig, SpatialPolicy};

    #[test]
    fn reduced_runs() {
        let out = crate::tests::reduced_run("swarm-1000", false);
        assert!(out.metrics["sim_steps_per_s"] > 0.0);
        let a = crate::tests::reduced_run("swarm-1000", true);
        let b = crate::tests::reduced_run("swarm-1000", true);
        assert_eq!(a.metrics["sim.physics_steps"], b.metrics["sim.physics_steps"]);
        assert!(a.metrics["sim.grid_rebuilds"] > 0.0, "grid path not taken");
        assert!(a.metrics["spatial.query_us"] > 0.0);
    }

    /// The grid path the workload times records the same mission as the
    /// brute-force neighbor path.
    #[test]
    fn digest_matches_brute_force_path() {
        let spec = mission_spec(DRONES, 11, 0.5);
        let grid = Simulation::new(spec.clone(), controller()).unwrap().run(None).unwrap();
        let brute = Simulation::new(spec, controller())
            .unwrap()
            .with_config(SimConfig { spatial: SpatialPolicy::ForceOff, ..SimConfig::default() })
            .run(None)
            .unwrap();
        assert_eq!(digest(&grid.record), digest(&brute.record));
        assert!(grid.record.len() > 1);
    }
}
