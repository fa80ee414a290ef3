//! `served`: an in-process `CampaignServer` (two workers) behind
//! `wire::serve` on loopback.
//!
//! The untraced run serves from memory. With shard journals, `submit`
//! creates and fsyncs each job's shard while holding the server's state
//! lock, so the end-to-end figures followed the host's disk latency and
//! were unsteady; the traced run keeps shard journals and measures their
//! cost (queue wait, server time, store replay on its own shard directory).
//!
//! A run is a number of rounds, each on a fresh server. A round first
//! saturates the server from one connection (a fixed number of jobs
//! outstanding) and measures how fast it drains: the highest rate it
//! sustains without a growing backlog. It then runs an open loop on the
//! same connection: jobs arrive as a Poisson process at `REF_LOAD` of that
//! drain rate, a subscriber timestamps `job-done` events, and each job's
//! latency runs from when its submit was due. Tying the rate to the drain
//! measured on the same host keeps the load the same share of capacity on
//! any host; Poisson arrivals cluster, so jobs of different tenants queue
//! together and the fair queue's weights order them.
//!
//! Every wire line is written as two writes, so on TCP each line can wait
//! for the peer's delayed ACK (Nagle). Submissions are therefore pipelined:
//! each request line goes out as one write with `TCP_NODELAY` on the
//! benchmark's socket, and a reader thread pairs the in-order replies with
//! their requests. The blocking `wire::Client` cannot keep an open-loop
//! schedule on one connection (every call stalls twice); its round trip is
//! reported separately as `wire.client_submit_ms_p50`. Events are taken
//! from `CampaignServer::subscribe`, the stream a `watch` connection
//! carries: over a `watch` connection the same stalls made the p99 latency
//! jump between runs (ten-seed spread 0.27).
//!
//! The job mix: four tenants weighted 1/1/2/3; most jobs are the soak
//! test's baseline-only mini-campaigns, a minority carries a search budget
//! and is about ten times larger. Every job has its own base seed, so no
//! submission resumes from another's shard journal.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use swarm_math::rng::derive_seed;
use swarmfuzz::campaign::{
    report_from_rows, run_campaign_with_options, CampaignConfig, CampaignReport,
    CampaignRunOptions, SwarmConfig,
};
use swarmfuzz::executor::{ExecutionProfile, InProcessExecutor, MissionExecutor, MissionJob};
use swarmfuzz::server::{in_process_factory, ExecutorFactory, ExecutorOptions};
use swarmfuzz::snapshot::SnapshotCache;
use swarmfuzz::store::{decode_row, JournalRow};
use swarmfuzz::telemetry::{Counter, Telemetry};
use swarmfuzz::trace::Trace;
use swarmfuzz::wire::{self, Client, ClientMsg};
use swarmfuzz::{CampaignServer, CampaignSpec, Fuzzer, ServerConfig};

use crate::grid::controller;
use crate::spans::{self, Layer, Mark, MarkSink, Recorder, Span, TimedController};
use crate::stats::{median, quantile, SplitMix};
use crate::{peak_rss_mb, replay, scratch_dir, spans_path, Args, Outcome};

pub const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 64;
pub const TENANTS: [(&str, u64); 4] = [("acme", 1), ("globex", 1), ("initech", 2), ("umbrella", 3)];
/// The soak test's baseline-only shapes: (drones, missions).
const SOAK: [(usize, usize); 6] = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 1), (3, 1)];
/// Search jobs per block of consecutive jobs (15%).
const SEARCH_PER_BLOCK: u64 = 3;
const SEARCH_EVERY: u64 = 20;
const SEARCH_SHAPE: (usize, usize) = (5, 1);
const SEARCH_BUDGET: usize = 8;
/// Open-loop arrival rate as a share of the saturation drain rate measured
/// on the same server just before. At this load the server keeps up on
/// average, while clustered arrivals and search jobs (about ten baseline
/// jobs' work each) leave backlogs that the weighted fair queue orders: on
/// the reference host each tenant's queue wait falls with its weight. At
/// 0.75 the p99 latency followed each run's few worst clusters (five-seed
/// spread 0.28, against 0.07 here).
pub const REF_LOAD: f64 = 0.65;
/// Open-loop rounds of a traced run: enough jobs per tenant that each
/// tenant's p90 queue wait has 50 samples beyond it.
const TRACED_ROUNDS: usize = 2;
/// Open-loop jobs per round: p99 over a round has ten samples beyond it.
const OPEN_JOBS: usize = 1000;
/// Saturation jobs per round.
const SAT_JOBS: usize = 400;
/// Run seconds one untraced round takes on the reference host, checks
/// included.
const ROUND_S: f64 = 10.0;
/// Jobs kept outstanding while saturating: enough that the queue never runs
/// dry between a completion and its replacement's submit, and below
/// `QUEUE_DEPTH` so no submit is refused.
const OUTSTANDING: usize = 48;
const SETUP_REPS: usize = 25;
/// Servers started back to back in one set-up sample (each is stopped
/// outside the sample).
const SETUP_BATCH: usize = 8;
/// Round trips of the blocking client measured in a traced run.
const CLIENT_SUBMITS: u64 = 12;
/// Results requests in flight at once while fetching reports.
const RESULTS_CHUNK: usize = 64;
/// How long to wait for outstanding jobs before declaring them failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// How long `Instance::stop` waits for its client threads to end.
const JOIN_WAIT: Duration = Duration::from_secs(5);

/// One generated submission.
#[derive(Debug, Clone)]
struct Job {
    tenant: usize,
    spec: CampaignSpec,
}

impl Job {
    fn missions(&self) -> usize {
        self.spec.campaign.configs.len() * self.spec.campaign.missions_per_config
    }
}

/// Job `i` of the stream seeded by `seed`. The mix is stratified: every
/// `SEARCH_EVERY` consecutive jobs hold `SEARCH_PER_BLOCK` search jobs,
/// evenly spaced, and the soak shapes rotate, so any window of the stream
/// carries the same work and search jobs never arrive back to back (which
/// would make the latency tail depend on where they cluster). The seed
/// shifts the search jobs' phase, picks tenants and seeds the missions.
fn job(seed: u64, i: u64) -> Job {
    let mut rng = SplitMix::new(derive_seed(seed, i));
    let tenant = (rng.next_u64() % TENANTS.len() as u64) as usize;
    let phase = SplitMix::new(seed).next_u64() % SEARCH_EVERY;
    let slot = (i + phase) % SEARCH_EVERY;
    let spacing = SEARCH_EVERY / SEARCH_PER_BLOCK;
    let search = slot.is_multiple_of(spacing) && slot / spacing < SEARCH_PER_BLOCK;
    let (drones, missions) =
        if search { SEARCH_SHAPE } else { SOAK[(i % SOAK.len() as u64) as usize] };
    let mut spec = CampaignSpec::new(CampaignConfig {
        configs: vec![SwarmConfig { swarm_size: drones, deviation: 10.0 }],
        missions_per_config: missions,
        base_seed: derive_seed(seed ^ 0x5E4E_D000, i),
        workers: 1,
    });
    spec.eval_budget = Some(if search { SEARCH_BUDGET } else { 0 });
    Job { tenant, spec }
}

/// The seed of round `round`'s arrival times. It does not depend on the
/// run's seed: every run replays the same arrival pattern, and the seed
/// varies the jobs, their tenants and their missions. (With arrival times
/// drawn from the run's seed, p99 latency followed the luck of each draw's
/// clusters: five-seed spread 0.35.)
fn arrivals(round: u64) -> u64 {
    derive_seed(0xA221_7A15, round)
}

fn jobs(seed: u64, from: u64, n: usize) -> Vec<Job> {
    (from..from + n as u64).map(|i| job(seed, i)).collect()
}

/// Wraps a job's executor and stamps each mission job it runs.
struct TimedExecutor {
    inner: Arc<dyn MissionExecutor>,
    job: u64,
    rec: Arc<Recorder>,
}

impl MissionExecutor for TimedExecutor {
    fn execute(&self, job: &MissionJob) -> JournalRow {
        self.rec.mark(Mark::ExecStart(self.job));
        let row = self.inner.execute(job);
        self.rec.mark(Mark::ExecEnd);
        row
    }
}

/// The standard factory's configuration with every seam instrumented: a
/// timed controller, a fuzzer trace sink and a timed executor per job
/// (keyed by the job's base seed).
fn traced_factory(rec: Arc<Recorder>, telemetry: Telemetry) -> ExecutorFactory {
    Box::new(move |spec: &CampaignSpec| {
        let spec = spec.clone();
        let base_seed = spec.campaign.base_seed;
        let inner = InProcessExecutor::new(
            base_seed,
            move |d| Fuzzer::new(TimedController(controller()), spec.fuzzer_config(d)),
            telemetry.clone(),
            Trace::new(Arc::new(MarkSink(Arc::clone(&rec)))),
            ExecutionProfile::default(),
            ExecutorOptions::default().snapshot.then(SnapshotCache::new),
        );
        Arc::new(TimedExecutor { inner: Arc::new(inner), job: base_seed, rec: Arc::clone(&rec) })
    })
}

fn plain_factory(telemetry: Telemetry) -> ExecutorFactory {
    in_process_factory(controller(), ExecutorOptions::default(), telemetry)
}

/// What the submit connection and the subscriber report to the driving
/// thread.
enum Msg {
    /// The reply to submission `index`: the job id, or the error code.
    Reply { index: usize, at: Instant, job: Result<u64, String> },
    /// A `job-done` (or `job-failed`) event from the subscriber.
    Done { job: u64, at: Instant, failed: bool },
}

/// The unsigned integer value of `"key":` in a JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The string value of `"key":` in a JSON line (no escapes expected).
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    line[at..].split('"').next()
}

/// One running server with its submit connection and event subscriber.
struct Instance {
    server: CampaignServer,
    addr: SocketAddr,
    acceptor: std::thread::JoinHandle<()>,
    submit: TcpStream,
    pending: Arc<Mutex<VecDeque<usize>>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    msgs: mpsc::Receiver<Msg>,
    telemetry: Telemetry,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Set-up: server, tenant registration, bind, acceptor, the event
/// subscriber and the submit connection.
fn start(
    journal_dir: Option<PathBuf>,
    factory: impl FnOnce(Telemetry) -> ExecutorFactory,
) -> Result<Instance, String> {
    let io = |e: std::io::Error| e.to_string();
    let telemetry = Telemetry::enabled(WORKERS);
    let server = CampaignServer::start(
        ServerConfig { workers: WORKERS, queue_depth: QUEUE_DEPTH, journal_dir },
        factory(telemetry.clone()),
        telemetry.clone(),
    );
    for (tenant, weight) in TENANTS {
        server.register_tenant(tenant, weight).map_err(|e| e.to_string())?;
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let acceptor = wire::serve(server.clone(), listener);
    let (tx, msgs) = mpsc::channel();

    // Completions come from an in-process subscriber: the same event lines a
    // `watch` connection streams, without that connection's delivery delays
    // (see the module documentation).
    let events = server.subscribe();
    let done_tx = tx.clone();
    let watcher = std::thread::spawn(move || {
        for line in events.iter() {
            let failed = line.starts_with("{\"msg\":\"job-failed\"");
            if failed || line.starts_with("{\"msg\":\"job-done\"") {
                if let Some(job) = field_u64(&line, "job") {
                    let _ = done_tx.send(Msg::Done { job, at: Instant::now(), failed });
                }
            }
        }
    });

    let submit = connect(addr).map_err(io)?;
    let pending: Arc<Mutex<VecDeque<usize>>> = Arc::default();
    let queue = Arc::clone(&pending);
    let replies = BufReader::new(submit.try_clone().map_err(io)?);
    let reader = std::thread::spawn(move || {
        for line in replies.lines().map_while(Result::ok) {
            let at = Instant::now();
            let Some(index) = queue.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
            else {
                return;
            };
            let job = match field_u64(&line, "job") {
                Some(job) if line.starts_with("{\"msg\":\"accepted\"") => Ok(job),
                _ => Err(field_str(&line, "code").unwrap_or("malformed-reply").to_string()),
            };
            if tx.send(Msg::Reply { index, at, job }).is_err() {
                return;
            }
        }
    });
    Ok(Instance {
        server,
        addr,
        acceptor,
        submit,
        pending,
        readers: vec![watcher, reader],
        msgs,
        telemetry,
    })
}

impl Instance {
    /// Sends submission `index` without waiting for its reply.
    fn send(&mut self, index: usize, job: &Job) -> std::io::Result<()> {
        let (tenant, weight) = TENANTS[job.tenant];
        let msg = ClientMsg::Submit { tenant: tenant.to_string(), weight, spec: job.spec.clone() };
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).push_back(index);
        self.submit.write_all(format!("{}\n", msg.encode()).as_bytes())
    }

    /// Fetches the rows of finished jobs over a fresh connection, keeping
    /// `RESULTS_CHUNK` requests in flight.
    fn results(&self, ids: &[u64]) -> Result<Vec<Result<Vec<JournalRow>, String>>, String> {
        let io = |e: std::io::Error| e.to_string();
        let mut stream = connect(self.addr).map_err(io)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut line = String::new();
        let mut next_line = |line: &mut String| -> Result<(), String> {
            line.clear();
            match reader.read_line(line) {
                Ok(0) => Err("connection closed".to_string()),
                Ok(_) => Ok(()),
                Err(e) => Err(e.to_string()),
            }
        };
        let mut out = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(RESULTS_CHUNK) {
            let mut batch = String::new();
            for &job in chunk {
                batch.push_str(&ClientMsg::Results { job, wait: true }.encode());
                batch.push('\n');
            }
            stream.write_all(batch.as_bytes()).map_err(io)?;
            for _ in chunk {
                next_line(&mut line)?;
                let Some(count) = field_u64(&line, "rows").filter(|_| line.contains("\"results\""))
                else {
                    out.push(Err(line.trim_end().to_string()));
                    continue;
                };
                let mut rows = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    next_line(&mut line)?;
                    rows.push(decode_row(line.trim_end()));
                }
                next_line(&mut line)?;
                out.push(rows.into_iter().collect());
            }
        }
        Ok(out)
    }

    /// Stops the server, wakes its acceptor (it notices shutdown only on its
    /// next connection) and joins every thread this benchmark started. The
    /// subscriber thread ends once the last server handle is gone, which
    /// waits for the server's connection threads to see their clients
    /// close; a thread still blocked after `JOIN_WAIT` is left to the
    /// process exit rather than hanging the run.
    fn stop(self) {
        let Instance { server, addr, acceptor, submit, readers, .. } = self;
        server.shutdown();
        let _ = TcpStream::connect(addr);
        let _ = acceptor.join();
        let _ = submit.shutdown(std::net::Shutdown::Both);
        drop(server);
        let deadline = Instant::now() + JOIN_WAIT;
        for reader in readers {
            while !reader.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if reader.is_finished() {
                let _ = reader.join();
            }
        }
    }
}

/// Returns the heap pages freed by a stopped server to the system, so each
/// round's peak resident set starts from the same footprint rather than
/// from whatever the previous server's freed arenas kept resident.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only hands free heap memory back to
        // the kernel; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One submission's fate.
struct Sent {
    job: Job,
    due: Instant,
    sent: Instant,
    ack: Option<Instant>,
    id: Option<u64>,
    refused: Option<String>,
    done: Option<(Instant, bool)>,
}

/// The submissions of one phase and the bookkeeping that pairs replies and
/// events with them.
#[derive(Default)]
struct Flow {
    sent: Vec<Sent>,
    by_id: HashMap<u64, usize>,
    early: HashMap<u64, (Instant, bool)>,
    open: usize,
    base: usize,
}

impl Flow {
    fn new(base: usize) -> Self {
        Flow { base, ..Flow::default() }
    }

    fn apply(&mut self, msg: Msg) {
        match msg {
            Msg::Reply { index, at, job } => {
                let Some(s) = index.checked_sub(self.base).and_then(|i| self.sent.get_mut(i))
                else {
                    return;
                };
                s.ack = Some(at);
                match job {
                    Ok(id) => {
                        s.id = Some(id);
                        self.by_id.insert(id, index - self.base);
                        if let Some(done) = self.early.remove(&id) {
                            s.done = Some(done);
                            self.open -= 1;
                        }
                    }
                    Err(code) => {
                        s.refused = Some(code);
                        self.open -= 1;
                    }
                }
            }
            Msg::Done { job, at, failed } => match self.by_id.get(&job) {
                Some(&i) if self.sent[i].done.is_none() => {
                    self.sent[i].done = Some((at, failed));
                    self.open -= 1;
                }
                Some(_) => {}
                None => {
                    self.early.insert(job, (at, failed));
                }
            },
        }
    }

    fn send(&mut self, inst: &mut Instance, job: Job, due: Instant) -> Result<(), String> {
        let sent = Instant::now();
        inst.send(self.base + self.sent.len(), &job).map_err(|e| format!("submit write: {e}"))?;
        self.sent.push(Sent { job, due, sent, ack: None, id: None, refused: None, done: None });
        self.open += 1;
        Ok(())
    }

    /// Processes messages until `until` or until fewer than `open_below`
    /// submissions are open. Returns `false` once both client connections
    /// are gone.
    fn pump(&mut self, inst: &Instance, until: Instant, open_below: usize) -> bool {
        while self.open >= open_below {
            let left = until.saturating_duration_since(Instant::now());
            match inst.msgs.recv_timeout(left) {
                Ok(msg) => self.apply(msg),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => return false,
            }
        }
        true
    }

    /// Waits for every open submission to settle (or times out).
    fn drain(&mut self, inst: &Instance) {
        self.pump(inst, Instant::now() + DRAIN_TIMEOUT, 1);
    }

    /// Latency of each submission from when it was due. A refused, failed
    /// or lost job never completed within the phase: it counts as the
    /// phase's whole length, from the first due time to `end`.
    fn latencies(&self, end: Instant) -> Vec<f64> {
        let first = self.sent.first().map_or(end, |s| s.due);
        let whole = end.saturating_duration_since(first).as_secs_f64() * 1e3;
        self.sent
            .iter()
            .map(|s| match s.done {
                Some((at, false)) => at.saturating_duration_since(s.due).as_secs_f64() * 1e3,
                _ => whole,
            })
            .collect()
    }

    fn wire_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .filter_map(|s| s.ack.map(|a| a.saturating_duration_since(s.sent).as_secs_f64() * 1e3))
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn rejected(&self) -> u64 {
        self.sent.iter().filter(|s| s.refused.as_deref() == Some("queue-full")).count() as u64
    }
}

/// Open loop at `rate` jobs/s. Arrivals are a Poisson process, as from
/// independent users: the gaps between due times are exponential, drawn
/// from `seed`, so jobs sometimes arrive together and queue behind each
/// other even below capacity. Returns the flow and the phase window.
fn open_loop(
    inst: &mut Instance,
    jobs: Vec<Job>,
    rate: f64,
    seed: u64,
    base: usize,
) -> Result<(Flow, Instant, Instant), String> {
    let mut flow = Flow::new(base);
    let mut gaps = SplitMix::new(seed);
    let mut offset = 0.0;
    let t0 = Instant::now() + Duration::from_millis(20);
    for job in jobs {
        let due = t0 + Duration::from_secs_f64(offset);
        offset += -(1.0 - gaps.next_f64()).ln() / rate;
        flow.pump(inst, due, 0);
        flow.send(inst, job, due)?;
    }
    flow.drain(inst);
    Ok((flow, t0, Instant::now()))
}

/// Closed loop keeping `OUTSTANDING` jobs in flight. Returns the flow and
/// the wall time from the first submit to the last completion.
fn saturate(inst: &mut Instance, jobs: &[Job], base: usize) -> Result<(Flow, f64), String> {
    let mut flow = Flow::new(base);
    let start = Instant::now();
    for job in jobs {
        if !flow.pump(inst, Instant::now() + DRAIN_TIMEOUT, OUTSTANDING) {
            return Err("client connections closed".to_string());
        }
        flow.send(inst, job.clone(), Instant::now())?;
    }
    flow.drain(inst);
    let end = flow.sent.iter().filter_map(|s| s.done.map(|(at, _)| at)).max().unwrap_or(start);
    Ok((flow, (end - start).as_secs_f64()))
}

/// Output checks: submitted = done + refused + failed, and each served
/// report, fetched over the wire, equals a direct run of its spec.
/// Returns the rows served (for the store replay).
fn check(inst: &Instance, flows: &[&Flow], out: &mut Outcome) -> Result<Vec<JournalRow>, String> {
    let all: Vec<&Sent> = flows.iter().flat_map(|f| f.sent.iter()).collect();
    let submitted = all.len() as u64;
    let done: Vec<&Sent> =
        all.iter().copied().filter(|s| matches!(s.done, Some((_, false)))).collect();
    let refused = all.iter().filter(|s| s.refused.is_some()).count() as u64;
    let job_failed = all.iter().filter(|s| matches!(s.done, Some((_, true)))).count() as u64;
    let lost = submitted - done.len() as u64 - refused - job_failed;
    out.check(lost == 0, || {
        format!(
            "submitted {submitted} != done {} + refused {refused} + failed {job_failed} ({lost} lost)",
            done.len()
        )
    });
    out.attempted += submitted;
    out.failed += refused + job_failed + lost;

    let ids: Vec<u64> = done.iter().filter_map(|s| s.id).collect();
    let fetched = inst.results(&ids)?;
    let direct = direct_reports(done.iter().map(|s| &s.job.spec).collect());
    let mut rows = Vec::new();
    for ((s, served), direct) in done.iter().zip(fetched).zip(direct) {
        let seed = s.job.spec.campaign.base_seed;
        let served = match served {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("results of base seed {seed}: {e}"));
                continue;
            }
        };
        let report = report_from_rows(served.clone());
        out.failed += report.failures.len() as u64;
        let same = direct.as_ref() == Ok(&report);
        out.failed += u64::from(!same);
        out.check(same, || format!("served report of base seed {seed} differs from a direct run"));
        rows.extend(served);
    }
    Ok(rows)
}

/// Direct `run_campaign_with_options` of every spec, on `WORKERS` threads.
fn direct_reports(specs: Vec<&CampaignSpec>) -> Vec<Result<CampaignReport, String>> {
    let chunk = specs.len().div_ceil(WORKERS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|spec| {
                            run_campaign_with_options(
                                &spec.campaign,
                                |d| Fuzzer::new(controller(), spec.fuzzer_config(d)),
                                &Telemetry::off(),
                                &CampaignRunOptions::default(),
                            )
                            .map_err(|e| e.to_string())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|_| vec![Err("direct run panicked".into())]))
            .collect()
    })
}

/// Rounds of an untraced run, and the jobs of each round's saturation and
/// open-loop phases. A round runs on a fresh server: the server keeps every
/// finished job in memory (~0.65 MB each).
fn sizes(seconds: f64) -> (usize, usize, usize) {
    if seconds < 2.0 {
        return (1, 2 * OUTSTANDING, 24);
    }
    (((seconds / ROUND_S).round() as usize).max(1), SAT_JOBS, OPEN_JOBS)
}

/// Jobs drained per second by a saturation flow.
fn drain_rate(flow: &Flow, wall: f64) -> f64 {
    flow.sent.len() as f64 / wall
}

/// Missions a flow completed.
fn missions_done(flow: &Flow) -> usize {
    flow.sent.iter().filter(|s| matches!(s.done, Some((_, false)))).map(|s| s.job.missions()).sum()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = scratch_dir(args);
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &dir, &mut out)?;
    } else {
        untraced(args, &mut out)?;
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

fn untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let begin = Instant::now();
        let batch: Vec<Instance> =
            (0..SETUP_BATCH).map(|_| start(None, plain_factory)).collect::<Result<_, _>>()?;
        setup.push(begin.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        batch.into_iter().for_each(Instance::stop);
        release_freed_memory();
    }
    out.set("setup_s", median(&setup));
    let (rounds, n_sat, n_open) = sizes(args.seconds);
    let (mut missions_rate, mut steps_rate) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut jobs_timed) = (Vec::new(), Vec::new(), 0);
    let (mut late, mut rates, mut refused) = (Vec::new(), Vec::new(), 0);
    for round in 0..rounds as u64 {
        let mut inst = start(None, plain_factory)?;
        let from = round * 10_000_000;
        let sat_jobs = jobs(args.seed, from, n_sat);
        let (sat, wall) = match saturate(&mut inst, &sat_jobs, 0) {
            Ok(r) => r,
            Err(e) => {
                inst.stop();
                return Err(e);
            }
        };
        let steps_sat = inst.telemetry.counter(Counter::SimPhysicsSteps);
        let rate = REF_LOAD * drain_rate(&sat, wall);
        let open_jobs = jobs(args.seed, from + 1_000_000, n_open);
        let open = open_loop(&mut inst, open_jobs, rate, arrivals(round), n_sat);
        let result =
            open.and_then(|(open, _, end)| check(&inst, &[&sat, &open], out).map(|_| (open, end)));
        inst.stop();
        release_freed_memory();
        let (open, end) = result?;
        missions_rate.push(missions_done(&sat) as f64 / wall);
        steps_rate.push(steps_sat as f64 / wall);
        let lat = open.latencies(end);
        p50s.push(median(&lat));
        p99s.push(quantile(&lat, 0.99));
        jobs_timed += lat.len();
        late.extend(open.late_ms());
        rates.push(rate);
        refused += sat.rejected() + open.rejected();
    }
    // Each round's percentiles, then their median: one round caught in a
    // burst of load on the host does not set the run's figure.
    out.set("missions_per_s", median(&missions_rate));
    out.set("sim_steps_per_s", median(&steps_rate));
    out.set("latency_p50_ms", median(&p50s));
    out.set("latency_p99_ms", median(&p99s));
    out.note(format!(
        "served: {rounds} rounds of {n_sat} jobs with {OUTSTANDING} outstanding (drain \
         {missions_rate:.1?} missions/s), then {n_open} open-loop jobs at {REF_LOAD} of each \
         round's drain rate ({rates:.1?} jobs/s): per-round latency p50 {p50s:.2?} ms, p99 \
         {p99s:.2?} ms over n={jobs_timed}; generator late p99 {:.3} ms; {refused} refused",
        quantile(&late, 0.99),
    ));
    Ok(())
}

fn traced(args: &Args, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    // Paired saturation blocks on a traced and an untraced server give the
    // tracing overhead and the drain rates. Open-loop rounds, each on a
    // fresh traced server at `REF_LOAD` of the traced drain rate, are then
    // the windows the per-layer figures describe.
    let block = ((args.seconds * 5.0).round() as usize).max(OUTSTANDING);
    let (rounds, n_open) = if args.seconds < 2.0 { (1, 24) } else { (TRACED_ROUNDS, OPEN_JOBS) };
    let rec = Arc::new(Recorder::default());
    let mut traced_inst =
        start(Some(dir.join("pairs-traced")), |t| traced_factory(Arc::clone(&rec), t))?;
    let mut plain_inst = start(Some(dir.join("pairs-plain")), plain_factory)?;

    // Alternate which server goes first; the same jobs run on both, each
    // server journaling in its own directory.
    let (mut pairs, mut max_rates, mut traced_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_flows, mut plain_flows) = (Vec::new(), Vec::new());
    let mut base = 0;
    for pair in 0..4u64 {
        let block_jobs = jobs(args.seed, 1_000_000 + pair * 100_000, block);
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for traced_side in [pair % 2 == 1, pair % 2 == 0] {
            let inst = if traced_side { &mut traced_inst } else { &mut plain_inst };
            let (flow, wall) = saturate(inst, &block_jobs, base)?;
            base += block;
            if traced_side {
                traced_s = wall;
                traced_rates.push(drain_rate(&flow, wall));
                traced_flows.push(flow);
            } else {
                plain_s = wall;
                max_rates.push(drain_rate(&flow, wall));
                plain_flows.push(flow);
            }
        }
        pairs.push((plain_s, traced_s));
    }
    out.set("server.max_rate", median(&max_rates));
    let traced_refs: Vec<&Flow> = traced_flows.iter().collect();
    let plain_refs: Vec<&Flow> = plain_flows.iter().collect();
    let checked =
        check(&traced_inst, &traced_refs, out).and_then(|_| check(&plain_inst, &plain_refs, out));
    let mut rejected: u64 = traced_flows.iter().chain(&plain_flows).map(Flow::rejected).sum();
    traced_inst.stop();
    plain_inst.stop();
    release_freed_memory();
    checked?;
    rec.take();

    let rate = REF_LOAD * median(&traced_rates);
    let mut timeline = spans::Timeline::default();
    let (mut wall, mut counts) = (0.0, [0u64; 3]);
    let (mut waits, mut per_tenant) = (Vec::new(), vec![Vec::new(); TENANTS.len()]);
    let (mut wire_ms, mut late, mut client_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rows, mut shard_dir, mut fingerprints) = (Vec::new(), PathBuf::new(), Vec::new());
    for round in 0..rounds as u64 {
        shard_dir = dir.join(format!("open-{round}"));
        let mut inst = start(Some(shard_dir.clone()), |t| traced_factory(Arc::clone(&rec), t))?;
        let open_jobs = jobs(args.seed, round * 10_000_000, n_open);
        let (open, t0, t1) = open_loop(&mut inst, open_jobs, rate, arrivals(round), 0)?;
        let mut window = spans::analyse(&rec.take(), t0, t1, WORKERS, Layer::Server);
        wall += (t1 - t0).as_secs_f64();

        // Queue wait: submit sent → the job's first mission starts. (The
        // ack cannot anchor it: the server's reply line waits on Nagle until
        // the next request, so jobs often start before their ack arrives.)
        for s in open.sent.iter().filter(|s| s.id.is_some()) {
            if let Some(first) = window.first_exec.get(&s.job.spec.campaign.base_seed) {
                let w = first.saturating_duration_since(s.sent).as_secs_f64() * 1e3;
                waits.push(w);
                per_tenant[s.job.tenant].push(w);
            }
        }
        wire_ms.extend(open.wire_ms());
        late.extend(open.late_ms());
        for (slot, c) in counts.iter_mut().zip([
            Counter::SimPhysicsSteps,
            Counter::SimControlTicks,
            Counter::PrefixStepsSaved,
        ]) {
            *slot += inst.telemetry.counter(c);
        }
        let generator = spans::thread_id();
        window.spans.extend(open.sent.iter().filter_map(|s| {
            let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
            s.ack.map(|ack| Span {
                name: "wire.submit",
                start_us: us(s.sent),
                end_us: us(ack),
                parent: None,
                thread: generator,
                mission: None,
                scope: None,
            })
        }));
        timeline.absorb(window);
        if round + 1 == rounds as u64 {
            // The blocking client's round trip on its own connection.
            let client_jobs = jobs(args.seed, 2_000_000, CLIENT_SUBMITS as usize);
            client_ms = client_round_trips(&inst, &client_jobs)?;
        }
        let checked = check(&inst, &[&open], out);
        rejected += open.rejected();
        fingerprints = open.sent.iter().take(200).map(|s| s.job.spec.fingerprint()).collect();
        inst.stop();
        release_freed_memory();
        rows.extend(checked?);
    }
    out.set("server.rejected", rejected as f64);
    out.set("server.queue_wait_ms_p50", median(&waits));
    out.set("server.queue_wait_ms_p99", quantile(&waits, 0.99));
    // The fair queue's ordering shows in each tenant's tail: most jobs
    // find the queue empty, so the medians sit close together.
    let tenant_metrics = [
        ("server.queue_wait_ms_p50.acme", "server.queue_wait_ms_p90.acme"),
        ("server.queue_wait_ms_p50.globex", "server.queue_wait_ms_p90.globex"),
        ("server.queue_wait_ms_p50.initech", "server.queue_wait_ms_p90.initech"),
        ("server.queue_wait_ms_p50.umbrella", "server.queue_wait_ms_p90.umbrella"),
    ];
    let mut tenant_notes = Vec::new();
    for (((p50, p90), w), (tenant, weight)) in
        tenant_metrics.into_iter().zip(&per_tenant).zip(TENANTS)
    {
        out.set(p50, median(w));
        out.set(p90, quantile(w, 0.9));
        tenant_notes.push(format!(
            "{tenant} (weight {weight}, n={}) p50 {:.2} ms p90 {:.2} ms",
            w.len(),
            median(w),
            quantile(w, 0.9)
        ));
    }
    out.set("wire.submit_ms_p50", median(&wire_ms));
    out.set("wire.submit_ms_p99", quantile(&wire_ms, 0.99));
    out.set("wire.client_submit_ms_p50", median(&client_ms));
    out.set("gen.late_ms_p99", quantile(&late, 0.99));
    crate::grid::fuzzer_metrics(out, &timeline, wall);
    crate::timeline_metrics(out, &timeline, wall);
    out.set("sim.physics_steps", counts[0] as f64);
    out.set("sim.control_ticks", counts[1] as f64);
    out.set("snapshot.prefix_steps_saved", counts[2] as f64);
    out.note(format!(
        "served traced: {rounds} open-loop rounds of {n_open} jobs at {rate:.1} jobs/s \
         ({REF_LOAD} of the traced server's drain {:.1} jobs/s); queue wait p50 {:.2} ms, p99 \
         {:.2} ms over n={}; per tenant: {}",
        median(&traced_rates),
        median(&waits),
        quantile(&waits, 0.99),
        waits.len(),
        tenant_notes.join("; ")
    ));
    replay::store(out, &rows, dir, Some((&shard_dir, &fingerprints)))?;
    out.note(format!(
        "served traced: saturation pairs of {block} jobs; blocking Client::submit round trip \
         p50 {:.2} ms over n={CLIENT_SUBMITS}",
        median(&client_ms)
    ));
    crate::report_overhead(out, &pairs);
    spans::write_spans(&spans_path(args), &timeline.spans).map_err(|e| format!("write spans: {e}"))
}

/// Times `Client::submit` round trips of the blocking client on its own
/// connection, waiting for each job's results before the next submit.
fn client_round_trips(inst: &Instance, jobs: &[Job]) -> Result<Vec<f64>, String> {
    let stream = TcpStream::connect(inst.addr).map_err(|e| e.to_string())?;
    let mut client = Client::over_tcp(stream).map_err(|e| e.to_string())?;
    let mut client_ms = Vec::new();
    for j in jobs {
        let (tenant, weight) = TENANTS[j.tenant];
        let start = Instant::now();
        let accepted = client.submit(tenant, weight, &j.spec).map_err(|e| e.to_string())?;
        client_ms.push(start.elapsed().as_secs_f64() * 1e3);
        client.results(accepted.job, true).map_err(|e| e.to_string())?;
    }
    Ok(client_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_seeded_and_mixed() {
        let a = jobs(9, 0, 400);
        let b = jobs(9, 0, 400);
        assert!(a.iter().zip(&b).all(|(x, y)| x.spec == y.spec && x.tenant == y.tenant));
        let search = a.iter().filter(|j| j.spec.eval_budget == Some(SEARCH_BUDGET)).count();
        assert_eq!(search, 60, "3 search jobs in every 20");
        let other = jobs(10, 0, 400);
        assert!(a.iter().zip(&other).any(|(x, y)| x.spec.eval_budget != y.spec.eval_budget));
        for t in 0..TENANTS.len() {
            assert!(a.iter().any(|j| j.tenant == t));
        }

        let mut seeds: Vec<u64> = a.iter().map(|j| j.spec.campaign.base_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 400, "base seeds must be distinct");
    }

    #[test]
    fn json_fields_are_extracted() {
        let line = "{\"msg\":\"error\",\"code\":\"queue-full\",\"job\":12,\"rows\":3}";
        assert_eq!(field_u64(line, "job"), Some(12));
        assert_eq!(field_u64(line, "rows"), Some(3));
        assert_eq!(field_str(line, "code"), Some("queue-full"));
        assert_eq!(field_u64(line, "nope"), None);
    }

    #[test]
    fn reduced_runs() {
        let out = crate::tests::reduced_run("served", false);
        assert!(out.metrics["latency_p50_ms"] > 0.0);
        let traced = crate::tests::reduced_run("served", true);
        assert!(traced.metrics["wire.submit_ms_p50"] > 0.0);
        assert!(traced.metrics["store.merge_ms"] > 0.0);
    }
}
