//! The benchmark's own tracing.
//!
//! Marks are timestamped at the library's public seams only: a wrapping
//! [`SwarmController`], a [`TraceSink`] that stamps fuzzer events on
//! arrival, a wrapping executor (served), the campaign's fuzzer factory
//! closure (paper-grid) and the benchmark's own calls around a run. Marks
//! stay in memory until the run ends; [`analyse`] then cuts each thread's
//! time into labelled intervals, computes every layer's self time and
//! builds the spans that [`write_spans`] writes out.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use swarm_math::Vec3;
use swarm_sim::runner::{ControlBatch, ControlContext};
use swarm_sim::{RunStats, SimObserver, SwarmController};
use swarmfuzz::trace::{TraceEvent, TraceKey, TraceRecord, TraceSink};

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Controller time (ns) and calls on this thread since its last mark.
    static CONTROL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A small dense id for the calling thread.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

fn add_control(start: Instant, calls: u64) {
    let ns = start.elapsed().as_nanos() as u64;
    CONTROL.with(|c| {
        let (t, n) = c.get();
        c.set((t + ns, n + calls));
    });
}

/// Wraps a controller and times every call, single or batched, on the
/// calling thread. Commands are passed through unchanged.
#[derive(Debug, Clone, Copy)]
pub struct TimedController<C>(pub C);

impl<C: SwarmController> SwarmController for TimedController<C> {
    fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
        let start = Instant::now();
        let v = self.0.desired_velocity(ctx);
        add_control(start, 1);
        v
    }

    fn desired_velocity_batch(&self, batch: &ControlBatch<'_>, out: &mut [Vec3]) {
        let start = Instant::now();
        self.0.desired_velocity_batch(batch, out);
        add_control(start, batch.lanes.len() as u64);
    }
}

/// What happened at a mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The benchmark started one timed unit on this thread (a mission).
    RunStart,
    /// ... and finished it.
    RunEnd,
    /// An executor began one mission job; the id names the served job
    /// (0 on paper-grid, where the fuzzer factory call is the stamp).
    ExecStart(u64),
    /// The executor returned its row (served only).
    ExecEnd,
    /// A fuzzing attempt started, under the mission's trace scope.
    MissionStart(TraceKey),
    BaselineDone,
    BaselineRejected,
    SeedStart,
    Probe {
        fork: Option<bool>,
    },
    GradientStep,
    SeedDone,
    MissionDone {
        success: bool,
    },
}

/// One timestamped mark plus the controller time its thread spent since
/// the previous mark.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub thread: u32,
    pub t: Instant,
    pub mark: Mark,
    pub control_ns: u64,
    pub control_calls: u64,
}

/// The in-memory mark store shared by every seam of one traced run.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    pub fn mark(&self, mark: Mark) {
        let t = Instant::now();
        let (control_ns, control_calls) = CONTROL.with(|c| c.replace((0, 0)));
        let event = Event { thread: thread_id(), t, mark, control_ns, control_calls };
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(event);
    }

    /// Drains every mark recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A [`TraceSink`] that stamps fuzzer events as they arrive. Campaign-level
/// and journal events are emitted by the collector thread and skipped.
pub struct MarkSink(pub std::sync::Arc<Recorder>);

impl TraceSink for MarkSink {
    fn record(&self, record: &TraceRecord) {
        let mark = match &record.event {
            TraceEvent::MissionStart { .. } => Mark::MissionStart(record.key),
            TraceEvent::BaselineDone { .. } => Mark::BaselineDone,
            TraceEvent::BaselineRejected { .. } => Mark::BaselineRejected,
            TraceEvent::SeedStart { .. } => Mark::SeedStart,
            TraceEvent::Probe { fork, .. } => Mark::Probe { fork: *fork },
            TraceEvent::GradientStep { .. } => Mark::GradientStep,
            TraceEvent::SeedDone { .. } => Mark::SeedDone,
            TraceEvent::MissionDone { success, .. } => Mark::MissionDone { success: *success },
            _ => return,
        };
        self.0.mark(mark);
    }
}

/// Collects the per-run counts the simulator reports to its observer.
#[derive(Default)]
pub struct StatsObserver {
    pub runs: Mutex<Vec<RunStats>>,
}

impl SimObserver for StatsObserver {
    fn on_run_end(&self, stats: &RunStats) {
        self.runs.lock().unwrap_or_else(PoisonError::into_inner).push(*stats);
    }
}

/// The layer an interval of a thread's time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Outside any mission where nothing else runs on the thread: a worker
    /// that left no mark, a campaign worker between jobs (the scheduler's
    /// dequeue, then the straggler wait at the end), the benchmark's own
    /// checks between missions.
    Idle,
    /// A server worker between jobs: the server's per-row bookkeeping
    /// (shard-journal append, report merge, events) plus waiting for work.
    Server,
    /// Inside a mission job but outside the fuzzer's phases.
    Executor,
    /// The fuzzer's no-attack baseline simulation.
    Baseline,
    /// SVG construction, centrality and seed scheduling.
    Schedule,
    /// Window search between probes (gradient steps, seed bookkeeping).
    Search,
    /// One attacked mission of the search (simulation plus objective).
    Probe,
    /// A plain simulation run (swarm-1000).
    Sim,
    /// Controller calls inside any of the above.
    Control,
    /// Time the marks cannot place: a mission mark with no job open, or a
    /// job still open when the window ends.
    Unattributed,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Idle => "idle",
            Layer::Server => "server",
            Layer::Executor => "executor",
            Layer::Baseline => "fuzzer.baseline",
            Layer::Schedule => "fuzzer.schedule",
            Layer::Search => "fuzzer.search",
            Layer::Probe => "sim.probe",
            Layer::Sim => "sim.mission",
            Layer::Control => "control",
            Layer::Unattributed => "unattributed",
        }
    }
}

/// One span of the written trace. Intervals belong to the mission span
/// that encloses them (`parent`); spans of one mission share `mission`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub thread: u32,
    pub mission: Option<u64>,
    /// The fuzzer's trace scope of a mission span (`5d-10m #3`).
    pub scope: Option<TraceKey>,
}

/// Everything [`analyse`] derives from one traced window.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Threads that did traced work.
    pub threads: usize,
    /// Layer self time, seconds (controller time is its own layer).
    pub self_s: BTreeMap<Layer, f64>,
    /// Interval time per layer including the controller calls inside.
    pub inclusive_s: BTreeMap<Layer, f64>,
    /// Controller time that exceeded the interval it was attributed to:
    /// booked twice, so it counts against reconciliation.
    pub over_s: f64,
    pub probe_ms: Vec<f64>,
    /// Executor (job) durations: first executor stamp to the mission's end.
    pub mission_ms: Vec<f64>,
    /// `(job, time)` of each job's first executor start.
    pub first_exec: BTreeMap<u64, Instant>,
    pub fork_hits: u64,
    pub fork_misses: u64,
    pub probes: u64,
    pub spvs: u64,
    pub control_calls: u64,
    pub spans: Vec<Span>,
}

impl Timeline {
    /// Self time the marks place in a layer.
    pub fn attributed(&self) -> f64 {
        self.self_s.iter().filter(|(l, _)| **l != Layer::Unattributed).map(|(_, s)| s).sum()
    }

    pub fn self_of(&self, layer: Layer) -> f64 {
        self.self_s.get(&layer).copied().unwrap_or(0.0)
    }

    pub fn inclusive_of(&self, layer: Layer) -> f64 {
        self.inclusive_s.get(&layer).copied().unwrap_or(0.0)
    }

    /// Folds another window's timeline into this one.
    pub fn absorb(&mut self, other: Timeline) {
        self.threads = self.threads.max(other.threads);
        for (k, v) in other.self_s {
            *self.self_s.entry(k).or_default() += v;
        }
        for (k, v) in other.inclusive_s {
            *self.inclusive_s.entry(k).or_default() += v;
        }
        self.over_s += other.over_s;
        self.probe_ms.extend(other.probe_ms);
        self.mission_ms.extend(other.mission_ms);
        self.first_exec.extend(other.first_exec);
        self.fork_hits += other.fork_hits;
        self.fork_misses += other.fork_misses;
        self.probes += other.probes;
        self.spvs += other.spvs;
        self.control_calls += other.control_calls;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Cuts the window `[t0, t1]` of every thread that left a mark into
/// labelled intervals. `threads` is the number of threads the window should
/// account for (workers); threads that left no mark count as idle. `between`
/// labels a marked thread's time outside any job: [`Layer::Idle`] for
/// campaign workers and the benchmark's own thread, [`Layer::Server`] for
/// server workers.
///
/// Time the marks cannot place is booked to [`Layer::Unattributed`]: the
/// interval before a mission mark that arrives with no job open, the rest of
/// the window after a job that never ends, and the distance of a mark
/// outside the window.
pub fn analyse(
    events: &[Event],
    t0: Instant,
    t1: Instant,
    threads: usize,
    between: Layer,
) -> Timeline {
    let mut tl = Timeline::default();
    let mut ids: Vec<u32> = events.iter().map(|e| e.thread).collect();
    ids.sort_unstable();
    ids.dedup();
    let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
    let clip = |t: Instant| t.clamp(t0, t1);
    let mut missions = 0u64;
    for &thread in &ids {
        let mut state = between;
        let mut prev = t0;
        let mut open: Open = None;
        let mut marks = events.iter().filter(|e| e.thread == thread).peekable();
        loop {
            let event = marks.next();
            let (t, ctl_ns) = event.map_or((t1, 0), |e| (clip(e.t), e.control_ns));
            let placed = match event {
                Some(e) => {
                    let outside = e.t.max(t) - e.t.min(t);
                    *tl.self_s.entry(Layer::Unattributed).or_default() += outside.as_secs_f64();
                    open.is_some() || matches!(e.mark, Mark::RunStart | Mark::ExecStart(_))
                }
                None => open.is_none(),
            };
            let label = match (state, event.map(|e| e.mark)) {
                _ if !placed => Layer::Unattributed,
                (Layer::Search, Some(Mark::Probe { .. })) => Layer::Probe,
                (s, _) => s,
            };
            let dur = t.saturating_duration_since(prev).as_secs_f64();
            let ctl = ctl_ns as f64 * 1e-9;
            *tl.inclusive_s.entry(label).or_default() += dur;
            *tl.self_s.entry(label).or_default() += (dur - ctl).max(0.0);
            *tl.self_s.entry(Layer::Control).or_default() += ctl;
            tl.over_s += (ctl - dur).max(0.0);
            if dur > 0.0 {
                let parent = open.map(|(_, span, _)| span);
                let mission = open.map(|(_, _, id)| id);
                tl.spans.push(Span {
                    name: label.name(),
                    start_us: us(prev),
                    end_us: us(t),
                    parent,
                    thread,
                    mission,
                    scope: None,
                });
                if ctl > 0.0 {
                    let own = tl.spans.len() - 1;
                    tl.spans.push(Span {
                        name: Layer::Control.name(),
                        start_us: us(prev),
                        end_us: us(prev) + ctl.min(dur) * 1e6,
                        parent: Some(own),
                        thread,
                        mission,
                        scope: None,
                    });
                }
            }
            if label == Layer::Probe {
                tl.probe_ms.push(dur * 1e3);
            }
            let Some(e) = event else { break };
            tl.control_calls += e.control_calls;
            state = match e.mark {
                Mark::RunStart => {
                    open_mission(&mut open, &mut tl.spans, &mut missions, thread, t, us(t));
                    Layer::Sim
                }
                Mark::RunEnd => {
                    close_mission(&mut open, &mut tl.spans, &mut tl.mission_ms, t, us(t));
                    between
                }
                Mark::ExecStart(job) => {
                    tl.first_exec.entry(job).or_insert(e.t);
                    open_mission(&mut open, &mut tl.spans, &mut missions, thread, t, us(t));
                    Layer::Executor
                }
                Mark::ExecEnd => {
                    close_mission(&mut open, &mut tl.spans, &mut tl.mission_ms, t, us(t));
                    between
                }
                Mark::MissionStart(key) => {
                    open_mission(&mut open, &mut tl.spans, &mut missions, thread, t, us(t));
                    if let Some((_, span, _)) = open {
                        tl.spans[span].scope = Some(key);
                    }
                    Layer::Baseline
                }
                Mark::BaselineRejected => Layer::Executor,
                Mark::BaselineDone => Layer::Schedule,
                Mark::Probe { fork } => {
                    tl.probes += 1;
                    match fork {
                        Some(true) => tl.fork_hits += 1,
                        Some(false) => tl.fork_misses += 1,
                        None => {}
                    }
                    Layer::Search
                }
                Mark::SeedStart | Mark::GradientStep | Mark::SeedDone => Layer::Search,
                Mark::MissionDone { success } => {
                    tl.spvs += u64::from(success);
                    // Served executors stamp their own end; on paper-grid the
                    // mission's end closes the job.
                    let served = marks.peek().is_some_and(|n| n.mark == Mark::ExecEnd);
                    if served {
                        Layer::Executor
                    } else {
                        close_mission(&mut open, &mut tl.spans, &mut tl.mission_ms, t, us(t));
                        between
                    }
                }
            };
            prev = t;
        }
    }
    let wall = t1.saturating_duration_since(t0).as_secs_f64();
    let unseen = threads.saturating_sub(ids.len());
    *tl.self_s.entry(Layer::Idle).or_default() += unseen as f64 * wall;
    *tl.inclusive_s.entry(Layer::Idle).or_default() += unseen as f64 * wall;
    tl.threads = threads.max(ids.len());
    tl
}

type Open = Option<(Instant, usize, u64)>;

fn open_mission(
    open: &mut Open,
    spans: &mut Vec<Span>,
    missions: &mut u64,
    thread: u32,
    t: Instant,
    t_us: f64,
) {
    if open.is_none() {
        *missions += 1;
        spans.push(Span {
            name: "mission",
            start_us: t_us,
            end_us: t_us,
            parent: None,
            thread,
            mission: Some(*missions),
            scope: None,
        });
        *open = Some((t, spans.len() - 1, *missions));
    }
}

fn close_mission(
    open: &mut Open,
    spans: &mut [Span],
    mission_ms: &mut Vec<f64>,
    t: Instant,
    t_us: f64,
) {
    if let Some((start, span, _)) = open.take() {
        spans[span].end_us = t_us;
        mission_ms.push(t.saturating_duration_since(start).as_secs_f64() * 1e3);
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let mission = s.mission.map_or("null".to_string(), |m| m.to_string());
        let scope = s.scope.map_or("null".to_string(), |k| format!("\"{}\"", k.scope_name()));
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"thread\":{},\"mission\":{mission},\"scope\":{scope}}}",
            s.name, s.start_us, s.end_us, s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(t0: Instant, ms: u64, mark: Mark, control_ms: u64) -> Event {
        Event {
            thread: 1,
            t: t0 + Duration::from_millis(ms),
            mark,
            control_ns: control_ms * 1_000_000,
            control_calls: control_ms,
        }
    }

    #[test]
    fn intervals_partition_the_window() {
        let t0 = Instant::now();
        let key = TraceKey { swarm_size: 5, deviation_bits: 10f64.to_bits(), index: 3, seq: 0 };
        let events = [
            ev(t0, 10, Mark::ExecStart(0), 0),
            ev(t0, 12, Mark::MissionStart(key), 0),
            ev(t0, 30, Mark::BaselineDone, 6),
            ev(t0, 35, Mark::SeedStart, 1),
            ev(t0, 55, Mark::Probe { fork: Some(true) }, 5),
            ev(t0, 56, Mark::GradientStep, 0),
            ev(t0, 76, Mark::Probe { fork: Some(false) }, 4),
            ev(t0, 77, Mark::SeedDone, 0),
            ev(t0, 78, Mark::MissionDone { success: true }, 0),
        ];
        let tl = analyse(&events, t0, t0 + Duration::from_millis(100), 2, Layer::Idle);
        // One thread seen, one idle all along: 2 × 100 ms, all placed.
        assert!((tl.attributed() - 0.2).abs() < 1e-9, "{tl:?}");
        assert_eq!(tl.self_of(Layer::Unattributed), 0.0);
        assert!((tl.self_of(Layer::Control) - 0.016).abs() < 1e-9);
        assert!((tl.self_of(Layer::Baseline) - 0.012).abs() < 1e-9);
        assert!((tl.inclusive_of(Layer::Probe) - 0.040).abs() < 1e-9);
        assert!((tl.self_of(Layer::Idle) - 0.132).abs() < 1e-9);
        assert_eq!((tl.probes, tl.fork_hits, tl.fork_misses, tl.spvs), (2, 1, 1, 1));
        assert_eq!(tl.mission_ms.len(), 1);
        assert!((tl.mission_ms[0] - 68.0).abs() < 1e-6);
        assert_eq!(tl.over_s, 0.0);
        assert_eq!(tl.spans.iter().filter(|s| s.scope == Some(key)).count(), 1);
        // Every interval span sits inside the mission span of its mission.
        for s in tl.spans.iter().filter(|s| s.parent.is_some()) {
            let p = &tl.spans[s.parent.unwrap()];
            assert!(s.start_us >= p.start_us - 1e-6 && s.end_us <= p.end_us + 1e-6);
            assert_eq!(s.mission, p.mission);
        }
    }

    #[test]
    fn controller_time_beyond_its_interval_is_reported() {
        let t0 = Instant::now();
        let events = [ev(t0, 0, Mark::RunStart, 0), ev(t0, 10, Mark::RunEnd, 15)];
        let tl = analyse(&events, t0, t0 + Duration::from_millis(10), 1, Layer::Idle);
        assert!((tl.over_s - 0.005).abs() < 1e-9);
    }

    /// A server worker's time between jobs is the server's, not idle.
    #[test]
    fn server_worker_gaps_are_server_time() {
        let t0 = Instant::now();
        let events = [
            ev(t0, 10, Mark::ExecStart(7), 0),
            ev(t0, 30, Mark::ExecEnd, 0),
            ev(t0, 40, Mark::ExecStart(8), 0),
            ev(t0, 60, Mark::ExecEnd, 0),
        ];
        let tl = analyse(&events, t0, t0 + Duration::from_millis(100), 3, Layer::Server);
        assert!((tl.self_of(Layer::Server) - 0.060).abs() < 1e-9, "{tl:?}");
        assert!((tl.self_of(Layer::Executor) - 0.040).abs() < 1e-9);
        // Two workers left no mark.
        assert!((tl.self_of(Layer::Idle) - 0.200).abs() < 1e-9);
        assert_eq!(tl.self_of(Layer::Unattributed), 0.0);
        assert_eq!(tl.mission_ms, vec![20.0, 20.0]);
    }

    /// Marks that do not fit a job, and a job that never ends, leave time
    /// unattributed instead of booking it to a layer.
    #[test]
    fn misplaced_marks_leave_time_unattributed() {
        let t0 = Instant::now();
        let end = t0 + Duration::from_millis(100);
        // A probe with no job open: the 20 ms before it are not placed.
        let orphan = [ev(t0, 20, Mark::Probe { fork: None }, 0)];
        let tl = analyse(&orphan, t0, end, 1, Layer::Idle);
        assert!((tl.self_of(Layer::Unattributed) - 0.020).abs() < 1e-9, "{tl:?}");
        // A job still open when the window closes: its last 70 ms.
        let open = [ev(t0, 10, Mark::ExecStart(1), 0), ev(t0, 30, Mark::SeedStart, 0)];
        let tl = analyse(&open, t0, end, 1, Layer::Server);
        assert!((tl.self_of(Layer::Unattributed) - 0.070).abs() < 1e-9, "{tl:?}");
        // A mark 5 ms past the window's end.
        let late = [ev(t0, 0, Mark::RunStart, 0), ev(t0, 105, Mark::RunEnd, 0)];
        let tl = analyse(&late, t0, end, 1, Layer::Idle);
        assert!((tl.self_of(Layer::Unattributed) - 0.005).abs() < 1e-9, "{tl:?}");
    }
}
