//! The repository benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Lines before it give
//! sample counts, spreads and the per-layer reconciliation in plain text.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod grid;
mod replay;
mod served;
mod spans;
mod stats;
mod swarm;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every untraced run prints each of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("missions_per_s", "1/s"),
    ("sim_steps_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints each of them; a layer that a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("sim.physics_steps", "count"),
    ("sim.control_ticks", "count"),
    ("sim.grid_rebuilds", "count/tick"),
    ("sim.grid_cells_scanned", "count/tick"),
    ("spatial.rebuild_us", "us/tick"),
    ("spatial.query_us", "us/tick"),
    ("spatial.pairs_us", "us/tick"),
    ("comms.deliver_us", "us/tick"),
    ("control.busy_s", "s"),
    ("control.calls", "count"),
    ("control.ns_per_call", "ns"),
    ("fuzzer.baseline_s", "s"),
    ("fuzzer.schedule_s", "s"),
    ("fuzzer.search_s", "s"),
    ("fuzzer.probes", "count"),
    ("fuzzer.probe_ms_p50", "ms"),
    ("fuzzer.probe_ms_p90", "ms"),
    ("fuzzer.spvs_per_min", "1/min"),
    ("snapshot.fork_hit_ratio", "ratio"),
    ("snapshot.fork_base", "count"),
    ("snapshot.prefix_steps_saved", "count"),
    ("executor.busy_s", "s"),
    ("executor.idle_frac", "ratio"),
    ("executor.mission_ms_p50", "ms"),
    ("executor.mission_ms_p90", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p99", "ms"),
    ("server.queue_wait_ms_p50.acme", "ms"),
    ("server.queue_wait_ms_p50.globex", "ms"),
    ("server.queue_wait_ms_p50.initech", "ms"),
    ("server.queue_wait_ms_p50.umbrella", "ms"),
    ("server.queue_wait_ms_p90.acme", "ms"),
    ("server.queue_wait_ms_p90.globex", "ms"),
    ("server.queue_wait_ms_p90.initech", "ms"),
    ("server.queue_wait_ms_p90.umbrella", "ms"),
    ("server.rejected", "count"),
    ("server.max_rate", "1/s"),
    ("wire.submit_ms_p50", "ms"),
    ("wire.submit_ms_p99", "ms"),
    ("wire.client_submit_ms_p50", "ms"),
    ("store.encode_us_per_row", "us"),
    ("store.decode_us_per_row", "us"),
    ("store.append_us_per_row", "us"),
    ("store.merge_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("self.control_s", "s"),
    ("self.sim_s", "s"),
    ("self.fuzzer_s", "s"),
    ("self.executor_s", "s"),
    ("self.server_s", "s"),
    ("self.idle_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_spread_pct", "%"),
    ("trace.reconcile_err_pct", "%"),
    ("trace.spans", "count"),
];

/// Largest share of `wall × threads` the layer self times may miss by.
pub const RECONCILE_BOUND_PCT: f64 = 5.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-grid", "swarm-1000", "served"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Plain-text detail lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Scratch space for journals and spans, inside the working directory.
pub fn scratch_dir(args: &Args) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!(
        "{}-{}-t{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ))
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Stretch one set-up sample covers: a set-up shorter than this is repeated
/// a fixed number of times within the sample, so timer resolution and
/// momentary scheduler noise do not dominate.
pub const SETUP_SAMPLE_S: f64 = 0.025;

/// Samples of a set-up too short to time one by one. A first pass counts
/// how many calls fill `SETUP_SAMPLE_S`; every sample then times that many
/// calls with one pair of clock reads. Workloads spread their samples over
/// the run, so a burst of load on the host touches only a few of them.
pub struct SetupClock {
    calls: u32,
    samples: Vec<f64>,
}

impl SetupClock {
    pub fn calibrate<T>(mut f: impl FnMut() -> T) -> Self {
        let start = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            std::hint::black_box(f());
            calls += 1;
        }
        SetupClock { calls, samples: Vec::new() }
    }

    /// Takes one sample, on a thread of its own. The main thread's stack
    /// starts at a random offset within a page in every process, and on a
    /// set-up of tens of nanoseconds that offset alone moved the time by a
    /// quarter between processes; a spawned thread's stack sits at the same
    /// offset every time.
    pub fn sample<T>(&mut self, f: impl Fn() -> T + Sync) {
        let calls = self.calls;
        let secs = std::thread::scope(|scope| {
            let timed = scope.spawn(|| {
                let start = Instant::now();
                for _ in 0..calls {
                    std::hint::black_box(f());
                }
                start.elapsed().as_secs_f64()
            });
            timed.join().expect("set-up sample panicked")
        });
        self.samples.push(secs / f64::from(calls));
    }

    /// Median seconds per set-up, and the number of samples.
    pub fn median(&self) -> (f64, usize) {
        (stats::median(&self.samples), self.samples.len())
    }
}

/// Pairs a traced run needs before its overhead is judged.
const OVERHEAD_MIN_PAIRS: usize = 4;
/// Smallest spread an overhead is judged against, %: below it the figure is
/// within timer and scheduler noise of zero.
const OVERHEAD_FLOOR_PCT: f64 = 2.0;

/// Paired overhead of tracing: per pair `(traced − untraced) / untraced`.
/// Returns `(median %, IQR %)` and whether the figure is plausible — an
/// overhead below zero by more than its spread (at least
/// `OVERHEAD_FLOOR_PCT`) means the pairing is broken.
pub fn overhead(pairs: &[(f64, f64)]) -> (f64, f64, bool) {
    let shares: Vec<f64> =
        pairs.iter().map(|&(plain, traced)| (traced - plain) / plain * 100.0).collect();
    let med = stats::median(&shares);
    let spread = stats::iqr(&shares);
    (med, spread, med >= -spread.max(OVERHEAD_FLOOR_PCT))
}

/// Reports `trace.overhead_pct` and its spread for `(untraced, traced)`
/// pairs of one workload; an implausible overhead fails the run.
pub fn report_overhead(out: &mut Outcome, pairs: &[(f64, f64)]) {
    let (overhead, spread, plausible) = overhead(pairs);
    out.set("trace.overhead_pct", overhead);
    out.set("trace.overhead_spread_pct", spread);
    out.note(format!(
        "tracing overhead {overhead:.2}% (IQR {spread:.2}%) over {} pairs",
        pairs.len()
    ));
    if pairs.len() < OVERHEAD_MIN_PAIRS {
        out.note(format!("overhead not judged: fewer than {OVERHEAD_MIN_PAIRS} pairs"));
    } else {
        out.check(plausible, || {
            format!("tracing overhead {overhead:.2}% is negative beyond its spread {spread:.2}%")
        });
    }
}

/// Checks and reports reconciliation against `wall × threads`. The marks
/// place a thread's time in a layer only where they fit a job; the rest is
/// unattributed, and controller time longer than the interval it fell in is
/// booked twice. Together these may miss by at most `RECONCILE_BOUND_PCT`.
pub fn reconcile(out: &mut Outcome, tl: &spans::Timeline, wall_s: f64) {
    let expected = wall_s * tl.threads as f64;
    let unattributed = tl.self_of(spans::Layer::Unattributed);
    let missed = unattributed + tl.over_s;
    let err = if expected > 0.0 { missed / expected * 100.0 } else { 0.0 };
    out.set("trace.reconcile_err_pct", err);
    let parts: Vec<String> = tl
        .self_s
        .iter()
        .map(|(layer, s)| format!("{}={:.4}s ({:.1}%)", layer.name(), s, s / expected * 100.0))
        .collect();
    out.note(format!(
        "reconcile: wall {wall_s:.4}s x {} threads = {expected:.4}s; layers place {:.4}s, \
         unattributed {unattributed:.4}s, controller overrun {:.4}s ({err:.3}% missed, bound \
         {RECONCILE_BOUND_PCT}%): {}",
        tl.threads,
        tl.attributed(),
        tl.over_s,
        parts.join(" ")
    ));
    out.check(err <= RECONCILE_BOUND_PCT, || {
        format!(
            "layer self times miss wall x threads by {err:.2}% (unattributed {unattributed:.4}s, \
             controller overrun {:.4}s; bound {RECONCILE_BOUND_PCT}%)",
            tl.over_s
        )
    });
}

/// The common per-layer fields every traced timeline yields.
pub fn timeline_metrics(out: &mut Outcome, tl: &spans::Timeline, wall_s: f64) {
    use spans::Layer;
    let control = tl.self_of(Layer::Control);
    out.set("control.busy_s", control);
    out.set("control.calls", tl.control_calls as f64);
    out.set(
        "control.ns_per_call",
        if tl.control_calls > 0 { control * 1e9 / tl.control_calls as f64 } else { 0.0 },
    );
    out.set("self.control_s", control);
    out.set(
        "self.sim_s",
        tl.self_of(Layer::Baseline) + tl.self_of(Layer::Probe) + tl.self_of(Layer::Sim),
    );
    out.set("self.fuzzer_s", tl.self_of(Layer::Schedule) + tl.self_of(Layer::Search));
    out.set("self.executor_s", tl.self_of(Layer::Executor));
    out.set("self.server_s", tl.self_of(Layer::Server));
    out.set("self.idle_s", tl.self_of(Layer::Idle));
    out.set("trace.spans", tl.spans.len() as f64);
    let busy: f64 = tl.mission_ms.iter().sum::<f64>() / 1e3;
    out.set("executor.busy_s", busy);
    let capacity = wall_s * tl.threads as f64;
    out.set(
        "executor.idle_frac",
        if capacity > 0.0 { tl.self_of(Layer::Idle) / capacity } else { 0.0 },
    );
    out.set("executor.mission_ms_p50", stats::median(&tl.mission_ms));
    out.set("executor.mission_ms_p90", stats::quantile(&tl.mission_ms, 0.9));
    reconcile(out, tl, wall_s);
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-grid" => grid::run(args),
        "swarm-1000" => swarm::run(args),
        "served" => served::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Renders the result line, or an error when a metric is missing.
pub fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => return Err(format!("workload {} did not measure {name}", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    let correct = out.check_failures.is_empty();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir(&args);
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    match result_line(&args, &outcome) {
        Ok(line) => {
            println!("{line}");
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

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("field present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        assert_eq!(benchmark_json_metrics("end_to_end"), catalogue(&END_TO_END));
        assert_eq!(benchmark_json_metrics("per_layer"), catalogue(&PER_LAYER));
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }

    #[test]
    fn args_are_validated() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload served --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload served --trace 2")).is_err());
        assert!(parse_args(&argv("--workload served --seconds 0")).is_err());
    }

    #[test]
    fn negative_overhead_beyond_spread_fails() {
        assert!(overhead(&[(1.0, 1.05), (1.0, 1.02), (1.0, 0.99), (1.0, 1.04)]).2);
        assert!(!overhead(&[(1.0, 0.80), (1.0, 0.81), (1.0, 0.80), (1.0, 0.79)]).2);
    }

    /// Runs one workload at reduced size and checks the result line carries
    /// every metric of its mode, passes its checks and is repeatable.
    pub fn reduced_run(workload: &str, trace: bool) -> Outcome {
        let args = Args { workload: workload.to_string(), seed: 3, seconds: 0.5, trace };
        let out = run(&args).expect("workload runs");
        let _ = std::fs::remove_dir_all(scratch_dir(&args));
        assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
        assert_eq!(out.failed, 0);
        let line = result_line(&args, &out).expect("all metrics present");
        assert!(line.starts_with("{\"correct\":true"), "{line}");
        out
    }
}
