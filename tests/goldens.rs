//! Golden fingerprints: the pinned behaviour of the simulator, the fuzzer
//! and the campaign layer.
//!
//! Every case below runs a fixed, fully deterministic workload and folds its
//! output into a 64-bit FNV-1a fingerprint. The committed tables are the
//! behaviour contract: a refactor of the step loop, the spoof path or the
//! campaign plumbing must leave every fingerprint unchanged. The matrix:
//!
//! * mission records (plus the run counters an observer sees) over grid
//!   policy Auto/ForceOn/ForceOff × wind/loss/delay on/off × no attack and
//!   the four attack classes, each also re-run forked from a snapshot and
//!   with a per-step snapshot hook (both must reproduce the fresh run);
//!   the other controllers, presets and the quadrotor model ride along;
//! * fuzz reports for every attack class and fuzzer variant, with snapshot
//!   forking on and off (which must agree);
//! * campaign reports, journal bytes and trace NDJSON (sequence-sorted per
//!   snapshot mode, and canonical) for a constant-only and a four-class
//!   campaign at 1 and 4 workers, snapshots on and off.
//!
//! A mismatch prints the full table of fresh fingerprints in source form.
//! Replace a committed value only together with a deliberate, documented
//! behaviour change.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use swarm_control::olfati_saber::{OlfatiSaberController, OlfatiSaberParams};
use swarm_control::presets;
use swarm_control::reynolds::ReynoldsController;
use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::Vec3;
use swarm_sim::dynamics::Quadrotor;
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::spoof::{AttackModel, AttackSpec, SpoofDirection, Waveform, WaveformSet};
use swarm_sim::{
    CollisionKind, DroneId, RunStats, SimConfig, SimObserver, Simulation, SpatialPolicy,
    SwarmController,
};
use swarmfuzz::campaign::{
    run_campaign_traced, CampaignConfig, CampaignReport, CampaignRunOptions, JournalSpec,
    SwarmConfig,
};
use swarmfuzz::trace::{canonical_ndjson, encode_record, sorted_ndjson, RingSink};
use swarmfuzz::{Fuzzer, FuzzerConfig, Telemetry, Trace};

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn vec3(&mut self, v: Vec3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }

    fn opt_f64(&mut self, x: Option<f64>) {
        match x {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
        }
    }
}

fn hash_str(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

/// Bit-exact fingerprint of a mission record and its run counters.
fn record_fingerprint(record: &MissionRecord, stats: &RunStats) -> u64 {
    let mut h = Fnv::new();
    let n = record.swarm_size();
    h.u64(n as u64);
    h.u64(record.len() as u64);
    for (tick, &t) in record.times().iter().enumerate() {
        h.f64(t);
        for (&p, &v) in record.positions_at(tick).iter().zip(record.velocities_at(tick)) {
            h.vec3(p);
            h.vec3(v);
        }
    }
    for &d in record.avg_inter_distances() {
        h.f64(d);
    }
    for c in record.collisions() {
        h.f64(c.time);
        match c.kind {
            CollisionKind::DroneObstacle { drone, obstacle } => {
                h.u64(0);
                h.u64(drone.0 as u64);
                h.u64(obstacle as u64);
            }
            CollisionKind::DroneDrone { first, second } => {
                h.u64(1);
                h.u64(first.0 as u64);
                h.u64(second.0 as u64);
            }
        }
    }
    for d in 0..n {
        h.opt_f64(record.arrival_time(DroneId(d)));
        h.opt_f64(record.vdo(DroneId(d)));
        h.opt_f64(record.vdo_time(DroneId(d)));
    }
    h.u64(stats.physics_steps);
    h.u64(stats.control_ticks);
    h.u64(stats.gps_rounds);
    h.f64(stats.sim_time);
    h.u64(stats.grid_rebuilds);
    h.u64(stats.grid_cells_scanned);
    h.0
}

/// Compares fresh fingerprints against a committed table, printing the
/// whole fresh table (in source form) on any difference.
fn check(table: &str, actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let fresh: Vec<(&str, u64)> = actual.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    if fresh == expected {
        return;
    }
    let mut listing = String::new();
    for (key, value) in &fresh {
        listing.push_str(&format!("    (\"{key}\", {value:#018x}),\n"));
    }
    let diverged: Vec<&str> = fresh
        .iter()
        .filter(|(k, v)| !expected.iter().any(|(ek, ev)| ek == k && ev == v))
        .map(|(k, _)| *k)
        .collect();
    panic!(
        "{table}: {} of {} fingerprints diverged from the committed goldens: {diverged:?}\n\
         fresh table ({} entries, committed {}):\n{listing}",
        diverged.len(),
        fresh.len(),
        fresh.len(),
        expected.len()
    );
}

// ---------------------------------------------------------------------------
// Mission records
// ---------------------------------------------------------------------------

/// Captures the counters of the last observed run.
struct Capture(Mutex<Option<RunStats>>);

impl Capture {
    fn new() -> Self {
        Capture(Mutex::new(None))
    }

    fn take(&self) -> RunStats {
        self.0.lock().unwrap().take().expect("observer must be called")
    }
}

impl SimObserver for Capture {
    fn on_run_end(&self, stats: &RunStats) {
        *self.0.lock().unwrap() = Some(*stats);
    }
}

fn vasarhelyi() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

/// The environment toggles of a mission case.
#[derive(Debug, Clone, Copy)]
struct Env {
    wind: bool,
    loss: bool,
    delay: bool,
}

impl Env {
    fn all() -> Vec<Env> {
        let mut out = Vec::new();
        for wind in [false, true] {
            for loss in [false, true] {
                for delay in [false, true] {
                    out.push(Env { wind, loss, delay });
                }
            }
        }
        out
    }

    fn name(self) -> String {
        let flag = |on: bool, tag: &str| if on { tag.to_string() } else { "-".to_string() };
        format!("{}{}{}", flag(self.wind, "W"), flag(self.loss, "L"), flag(self.delay, "D"))
    }

    /// Applies the toggles: gusty wind; a finite radio range with a drop
    /// lottery and noisy GPS; multi-tick delivery delay.
    fn apply(self, spec: &mut MissionSpec) {
        if self.wind {
            spec.wind.mean = Vec3::new(0.4, -0.2, 0.0);
            spec.wind.gust_std = 0.3;
        }
        if self.loss {
            spec.comms.range = Some(40.0);
            spec.comms.drop_probability = 0.2;
            spec.gps.position_noise_std = 0.05;
            spec.gps.velocity_noise_std = 0.02;
        }
        if self.delay {
            spec.comms.delay_ticks = 2;
        }
    }
}

fn mission(swarm_size: usize, seed: u64, duration: f64, env: Env) -> MissionSpec {
    let mut spec = MissionSpec::paper_delivery(swarm_size, seed);
    spec.duration = duration;
    env.apply(&mut spec);
    spec
}

fn policy_name(policy: SpatialPolicy) -> &'static str {
    match policy {
        SpatialPolicy::Auto => "auto",
        SpatialPolicy::ForceOn => "on",
        SpatialPolicy::ForceOff => "off",
    }
}

/// The four attack classes on drone 0 over one window, at a deviation large
/// enough to perturb the swarm inside a short mission.
fn attacks(start: f64, duration: f64) -> Vec<(&'static str, AttackSpec)> {
    [
        ("constant", Waveform::Constant),
        ("drift", Waveform::Drift { ramp: duration / 2.0 }),
        ("circular", Waveform::Circular { omega: 1.3 }),
        ("jump", Waveform::Jump { period: 0.7 }),
    ]
    .into_iter()
    .map(|(name, w)| {
        let spec =
            AttackSpec::from_waveform(w, DroneId(0), SpoofDirection::Right, start, duration, 10.0)
                .expect("representative attack parameters are feasible");
        (name, spec)
    })
    .collect()
}

/// Runs one mission fresh, forked from a snapshot at the attack start and
/// under a per-step snapshot hook; all three must agree. Returns the
/// fingerprint of the fresh run.
fn mission_fingerprint<C: SwarmController>(
    sim: &Simulation<C>,
    attack: Option<&dyn AttackModel>,
) -> u64 {
    let capture = Capture::new();
    let fresh = sim.run_observed(attack, Some(&capture)).expect("mission runs");
    let stats = capture.take();

    let fork_at = attack.map_or(7.5, |a| a.start());
    let (snapshot, source) = sim.run_to(fork_at).expect("prefix runs");
    let forked = sim.resume_observed(&snapshot, &source, attack, Some(&capture)).expect("fork");
    assert_eq!(forked.record, fresh.record, "forked run diverged from the fresh run");
    assert_eq!(capture.take(), stats, "forked run counters diverged");

    let mut hooked_snapshots = 0usize;
    let hooked = sim
        .run_observed_with_snapshots(
            attack,
            Some(&capture),
            |step| step % 250 == 0,
            |_| hooked_snapshots += 1,
        )
        .expect("hooked run");
    assert!(hooked_snapshots > 0, "the snapshot hook must fire");
    assert_eq!(hooked.record, fresh.record, "hooked run diverged from the fresh run");
    assert_eq!(capture.take(), stats, "hooked run counters diverged");

    record_fingerprint(&fresh.record, &stats)
}

#[test]
fn mission_records_match_goldens() {
    let mut actual = Vec::new();
    for policy in [SpatialPolicy::Auto, SpatialPolicy::ForceOn, SpatialPolicy::ForceOff] {
        for env in Env::all() {
            let spec = mission(5, 17, 16.0, env);
            let sim = Simulation::new(spec, vasarhelyi())
                .expect("valid mission")
                .with_config(SimConfig { spatial: policy, ..SimConfig::default() });
            let key = format!("{}/{}", policy_name(policy), env.name());
            actual.push((format!("{key}/none"), mission_fingerprint(&sim, None)));
            for (name, attack) in attacks(3.0, 9.0) {
                actual.push((format!("{key}/{name}"), mission_fingerprint(&sim, Some(&attack))));
            }
        }
    }

    // Above the grid threshold, Auto takes the grid pipeline.
    let quiet = Env { wind: false, loss: false, delay: false };
    let noisy = Env { wind: true, loss: true, delay: true };
    for env in [quiet, noisy] {
        let sim = Simulation::new(mission(36, 5, 4.0, env), vasarhelyi()).expect("valid mission");
        let key = format!("n36/{}", env.name());
        actual.push((format!("{key}/none"), mission_fingerprint(&sim, None)));
        let (name, attack) = attacks(1.0, 2.5).swap_remove(2);
        actual.push((format!("{key}/{name}"), mission_fingerprint(&sim, Some(&attack))));
    }

    // Other controllers and presets, each with its own batch kernel.
    let attack = attacks(3.0, 9.0).swap_remove(0).1;
    for env in [quiet, noisy] {
        let spec = mission(6, 29, 16.0, env);
        let key = env.name();
        let olfati =
            Simulation::new(spec.clone(), OlfatiSaberController::new(OlfatiSaberParams::default()))
                .expect("valid mission");
        actual.push((format!("olfati/{key}"), mission_fingerprint(&olfati, Some(&attack))));
        let reynolds =
            Simulation::new(spec.clone(), ReynoldsController::default()).expect("valid mission");
        actual.push((format!("reynolds/{key}"), mission_fingerprint(&reynolds, Some(&attack))));
        for (name, params) in
            [("hardened", presets::hardened()), ("aggressive", presets::aggressive())]
        {
            let sim = Simulation::new(spec.clone(), VasarhelyiController::new(params))
                .expect("valid mission");
            actual.push((format!("{name}/{key}"), mission_fingerprint(&sim, Some(&attack))));
        }
        // The quadrotor model has no column kernel of its own.
        let quad = Simulation::with_dynamics(spec, vasarhelyi(), |_| Quadrotor::default())
            .expect("valid mission");
        let capture = Capture::new();
        let out = quad.run_observed(Some(&attack), Some(&capture)).expect("mission runs");
        actual.push((format!("quadrotor/{key}"), record_fingerprint(&out.record, &capture.take())));
    }

    check("mission records", &actual, MISSION_GOLDENS);
}

// ---------------------------------------------------------------------------
// Fuzz reports
// ---------------------------------------------------------------------------

#[test]
fn fuzz_reports_match_goldens() {
    let quiet = Env { wind: false, loss: false, delay: false };
    let noisy = Env { wind: true, loss: true, delay: true };
    let mut actual = Vec::new();
    // Report plus every probe of the search, as the canonical trace records
    // them; snapshot forking must change neither.
    let fuzz = |config: FuzzerConfig, spec: &MissionSpec| -> u64 {
        let run = |snapshots: bool| {
            let ring = Arc::new(RingSink::new(1 << 14));
            let report = Fuzzer::new(vasarhelyi(), config)
                .with_snapshots(snapshots)
                .with_trace(Trace::new(ring.clone()))
                .fuzz(spec);
            assert_eq!(ring.dropped(), 0, "ring must hold the whole search");
            let trace: String = ring.records().iter().map(|r| encode_record(r) + "\n").collect();
            format!("{report:?}\n{}", canonical_ndjson(&trace).expect("trace parses"))
        };
        let on = run(true);
        assert_eq!(on, run(false), "snapshot forking changed the fuzz report or its probes");
        hash_str(&on)
    };
    for env in [quiet, noisy] {
        for seed in [0u64, 3] {
            let mut spec = MissionSpec::paper_delivery(5, seed);
            env.apply(&mut spec);
            let key = format!("{}/seed{seed}", env.name());
            for kind in WaveformSet::all().iter() {
                let waveforms = WaveformSet::parse(kind.name()).expect("single class parses");
                let config = FuzzerConfig { eval_budget: 8, ..FuzzerConfig::swarmfuzz(10.0) }
                    .with_waveforms(waveforms);
                actual.push((format!("{key}/{}", kind.name()), fuzz(config, &spec)));
            }
            let all = FuzzerConfig { eval_budget: 12, ..FuzzerConfig::swarmfuzz(10.0) }
                .with_waveforms(WaveformSet::all());
            actual.push((format!("{key}/all"), fuzz(all, &spec)));
            for config in
                [FuzzerConfig::r_fuzz(10.0), FuzzerConfig::g_fuzz(10.0), FuzzerConfig::s_fuzz(10.0)]
            {
                let config = FuzzerConfig { eval_budget: 6, ..config };
                actual.push((format!("{key}/{}", config.variant_name()), fuzz(config, &spec)));
            }
        }
    }
    check("fuzz reports", &actual, FUZZ_GOLDENS);
}

// ---------------------------------------------------------------------------
// Campaign reports, journal bytes and traces
// ---------------------------------------------------------------------------

fn tiny_campaign(workers: usize) -> CampaignConfig {
    CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
            SwarmConfig { swarm_size: 5, deviation: 10.0 },
        ],
        missions_per_config: 2,
        base_seed: 21,
        workers,
    }
}

/// Everything one campaign run leaves behind.
struct CampaignRun {
    report: CampaignReport,
    journal: String,
    trace: String,
}

fn run_campaign(
    waveforms: WaveformSet,
    budget: usize,
    workers: usize,
    snapshot: bool,
    journal: PathBuf,
) -> CampaignRun {
    let make = move |deviation: f64| {
        let config = FuzzerConfig { eval_budget: budget, ..FuzzerConfig::swarmfuzz(deviation) }
            .with_waveforms(waveforms);
        Fuzzer::new(vasarhelyi(), config)
    };
    let options = CampaignRunOptions {
        journal: Some(JournalSpec { path: journal.clone(), resume: false }),
        snapshot,
        ..CampaignRunOptions::default()
    };
    let ring = Arc::new(RingSink::new(1 << 16));
    let report = run_campaign_traced(
        &tiny_campaign(workers),
        make,
        &Telemetry::off(),
        &options,
        &Trace::new(ring.clone()),
    )
    .expect("campaign runs");
    assert_eq!(ring.dropped(), 0, "ring must hold the whole tiny campaign");
    let trace = ring.records().iter().map(|r| encode_record(r) + "\n").collect();
    let journal = std::fs::read_to_string(&journal).expect("journal readable");
    CampaignRun { report, journal, trace }
}

/// Journal bytes with the row lines sorted (completion order varies with
/// the worker count; the header stays first).
fn sorted_journal(text: &str) -> String {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let mut rows: Vec<&str> = lines.collect();
    rows.sort_unstable();
    let mut out = format!("{header}\n");
    for row in rows {
        out.push_str(row);
        out.push('\n');
    }
    out
}

#[test]
fn campaign_outputs_match_goldens() {
    let dir = std::env::temp_dir().join(format!("swarmfuzz-goldens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut actual = Vec::new();
    // The zoo budget reaches past the constant-offset seeds into the other
    // classes.
    for (name, waveforms, budget) in
        [("constant", WaveformSet::CONSTANT_ONLY, 5), ("zoo", WaveformSet::all(), 16)]
    {
        let mut reference: Option<(String, String, String)> = None;
        for snapshot in [true, false] {
            let mut sorted_trace: Option<String> = None;
            for workers in [1usize, 4] {
                let path = dir.join(format!("{name}-w{workers}-s{snapshot}.jsonl"));
                let run = run_campaign(waveforms, budget, workers, snapshot, path);
                let report = format!("{:?}", run.report);
                let journal = sorted_journal(&run.journal);
                let canonical = canonical_ndjson(&run.trace).expect("trace parses");
                let sorted = sorted_ndjson(&run.trace).expect("trace parses");
                if workers == 1 {
                    let snap = if snapshot { "snap" } else { "nosnap" };
                    actual.push((format!("{name}/journal-bytes/{snap}"), hash_str(&run.journal)));
                    actual.push((format!("{name}/trace-sorted/{snap}"), hash_str(&sorted)));
                }
                match &sorted_trace {
                    None => sorted_trace = Some(sorted),
                    Some(first) => assert_eq!(
                        *first, sorted,
                        "{name}: sorted trace differs across workers (snapshot {snapshot})"
                    ),
                }
                let outputs = (report, journal, canonical);
                match &reference {
                    None => reference = Some(outputs),
                    Some(first) => assert!(
                        *first == outputs,
                        "{name}: campaign outputs differ at workers {workers}, snapshot {snapshot}"
                    ),
                }
            }
        }
        let (report, journal, canonical) = reference.expect("campaign ran");
        actual.push((format!("{name}/report"), hash_str(&report)));
        actual.push((format!("{name}/journal-sorted"), hash_str(&journal)));
        actual.push((format!("{name}/trace-canonical"), hash_str(&canonical)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    check("campaign outputs", &actual, CAMPAIGN_GOLDENS);
}

// ---------------------------------------------------------------------------
// The committed goldens
// ---------------------------------------------------------------------------

const MISSION_GOLDENS: &[(&str, u64)] = &[
    ("auto/---/none", 0xeea6ce9a0d80e3b6),
    ("auto/---/constant", 0xdafd9e41f605af87),
    ("auto/---/drift", 0x109aa87bd238e921),
    ("auto/---/circular", 0x2724a99f4ab9fadb),
    ("auto/---/jump", 0xa28175f85f449f0e),
    ("auto/--D/none", 0xb83ec4ab956e2f5d),
    ("auto/--D/constant", 0x804b4b356d6f0134),
    ("auto/--D/drift", 0x9256a9b9cbb96c3d),
    ("auto/--D/circular", 0xd575b6cab1dff73e),
    ("auto/--D/jump", 0xada6716b2d5047a9),
    ("auto/-L-/none", 0x8ed4b596cca80e21),
    ("auto/-L-/constant", 0x32461051d31c5abe),
    ("auto/-L-/drift", 0x311cfbb0724f6ab2),
    ("auto/-L-/circular", 0x5fb557ff24d5d2ab),
    ("auto/-L-/jump", 0x0db93746979880c7),
    ("auto/-LD/none", 0x3bd02bf0b8b19e88),
    ("auto/-LD/constant", 0xffdcd49c24dd8dec),
    ("auto/-LD/drift", 0xc79f188c253f927e),
    ("auto/-LD/circular", 0x3a719b87f3787166),
    ("auto/-LD/jump", 0x054863337b7db407),
    ("auto/W--/none", 0xa1bef789b11b1a24),
    ("auto/W--/constant", 0xeeb4b2bd9dc49ce1),
    ("auto/W--/drift", 0x17aabd60091b4252),
    ("auto/W--/circular", 0x1324f845fc59c54f),
    ("auto/W--/jump", 0xe8658afa59d59830),
    ("auto/W-D/none", 0x1301942e83c309cb),
    ("auto/W-D/constant", 0xcae49761307b64b4),
    ("auto/W-D/drift", 0x9d5806ed2b7dcca7),
    ("auto/W-D/circular", 0x4051417c97c91789),
    ("auto/W-D/jump", 0x552ae270cfd5fecb),
    ("auto/WL-/none", 0xd91e8d455b24b0b6),
    ("auto/WL-/constant", 0xdb42451208a57b3c),
    ("auto/WL-/drift", 0xad98ed2d9babbc7e),
    ("auto/WL-/circular", 0x195b00821ab559cf),
    ("auto/WL-/jump", 0x4c114c11757b9fda),
    ("auto/WLD/none", 0x96ea02a6a6a51184),
    ("auto/WLD/constant", 0x893c5f02582d3f5b),
    ("auto/WLD/drift", 0x53e2f6e8293408ab),
    ("auto/WLD/circular", 0x3a1c9cdc6e8b9dfc),
    ("auto/WLD/jump", 0x1f47e53309c65e4e),
    ("on/---/none", 0x2a68d296ba45f009),
    ("on/---/constant", 0x433f0fedd2592d6e),
    ("on/---/drift", 0x102ba89bcbecd7c1),
    ("on/---/circular", 0x556966a38578006d),
    ("on/---/jump", 0x979345230ac93ffa),
    ("on/--D/none", 0xc87ab915535a0aae),
    ("on/--D/constant", 0x4ff71cb783bf0174),
    ("on/--D/drift", 0x5764c156967974f8),
    ("on/--D/circular", 0xfe2aa5e5c3471e71),
    ("on/--D/jump", 0xe0dcf8d7bb3e7b83),
    ("on/-L-/none", 0x92f27aa34b89d8f4),
    ("on/-L-/constant", 0xde096c5d2205dd21),
    ("on/-L-/drift", 0x037ebd36e2b49eee),
    ("on/-L-/circular", 0x900b90e5bdf2cddf),
    ("on/-L-/jump", 0xa5a97563f2476126),
    ("on/-LD/none", 0xa31b119368bcb544),
    ("on/-LD/constant", 0xca400c70e0c5afb2),
    ("on/-LD/drift", 0xc260fb80206db681),
    ("on/-LD/circular", 0xfb249134751fa687),
    ("on/-LD/jump", 0xf702dcc55de2fd52),
    ("on/W--/none", 0xaf2ec6d740b5d149),
    ("on/W--/constant", 0xbc1f4e82620d75cf),
    ("on/W--/drift", 0xe3895235eaa72a48),
    ("on/W--/circular", 0xf6064c615a35116c),
    ("on/W--/jump", 0xbb87fc9b45e4700d),
    ("on/W-D/none", 0x21090a352124177d),
    ("on/W-D/constant", 0x70c8270d9a621292),
    ("on/W-D/drift", 0xa84637c27ff92bbb),
    ("on/W-D/circular", 0xe3a09306e291d05a),
    ("on/W-D/jump", 0x5b59a0ced2b4eae7),
    ("on/WL-/none", 0xc892ddba9f994537),
    ("on/WL-/constant", 0xaca454538253dda8),
    ("on/WL-/drift", 0xa1ff224ca3564cef),
    ("on/WL-/circular", 0xfacd9861ee6b5fcc),
    ("on/WL-/jump", 0xce9734ddfb886b8a),
    ("on/WLD/none", 0x682e5bdb327f3e83),
    ("on/WLD/constant", 0x60feec16805d9381),
    ("on/WLD/drift", 0x216e19aad253bcec),
    ("on/WLD/circular", 0xa8643ca1dc419c75),
    ("on/WLD/jump", 0x33f37a41b0141e2e),
    ("off/---/none", 0xeea6ce9a0d80e3b6),
    ("off/---/constant", 0xdafd9e41f605af87),
    ("off/---/drift", 0x109aa87bd238e921),
    ("off/---/circular", 0x2724a99f4ab9fadb),
    ("off/---/jump", 0xa28175f85f449f0e),
    ("off/--D/none", 0xb83ec4ab956e2f5d),
    ("off/--D/constant", 0x804b4b356d6f0134),
    ("off/--D/drift", 0x9256a9b9cbb96c3d),
    ("off/--D/circular", 0xd575b6cab1dff73e),
    ("off/--D/jump", 0xada6716b2d5047a9),
    ("off/-L-/none", 0x8ed4b596cca80e21),
    ("off/-L-/constant", 0x32461051d31c5abe),
    ("off/-L-/drift", 0x311cfbb0724f6ab2),
    ("off/-L-/circular", 0x5fb557ff24d5d2ab),
    ("off/-L-/jump", 0x0db93746979880c7),
    ("off/-LD/none", 0x3bd02bf0b8b19e88),
    ("off/-LD/constant", 0xffdcd49c24dd8dec),
    ("off/-LD/drift", 0xc79f188c253f927e),
    ("off/-LD/circular", 0x3a719b87f3787166),
    ("off/-LD/jump", 0x054863337b7db407),
    ("off/W--/none", 0xa1bef789b11b1a24),
    ("off/W--/constant", 0xeeb4b2bd9dc49ce1),
    ("off/W--/drift", 0x17aabd60091b4252),
    ("off/W--/circular", 0x1324f845fc59c54f),
    ("off/W--/jump", 0xe8658afa59d59830),
    ("off/W-D/none", 0x1301942e83c309cb),
    ("off/W-D/constant", 0xcae49761307b64b4),
    ("off/W-D/drift", 0x9d5806ed2b7dcca7),
    ("off/W-D/circular", 0x4051417c97c91789),
    ("off/W-D/jump", 0x552ae270cfd5fecb),
    ("off/WL-/none", 0xd91e8d455b24b0b6),
    ("off/WL-/constant", 0xdb42451208a57b3c),
    ("off/WL-/drift", 0xad98ed2d9babbc7e),
    ("off/WL-/circular", 0x195b00821ab559cf),
    ("off/WL-/jump", 0x4c114c11757b9fda),
    ("off/WLD/none", 0x96ea02a6a6a51184),
    ("off/WLD/constant", 0x893c5f02582d3f5b),
    ("off/WLD/drift", 0x53e2f6e8293408ab),
    ("off/WLD/circular", 0x3a1c9cdc6e8b9dfc),
    ("off/WLD/jump", 0x1f47e53309c65e4e),
    ("n36/---/none", 0x6d09f80d9103842b),
    ("n36/---/circular", 0xaa4a9cb989bef80d),
    ("n36/WLD/none", 0xc9840b557c526231),
    ("n36/WLD/circular", 0x22ac1e7ab77a6339),
    ("olfati/---", 0x0a048b1235c762c1),
    ("reynolds/---", 0x2331c6f201a5780f),
    ("hardened/---", 0xa05a8c91d57a952e),
    ("aggressive/---", 0xd3946bc122fa3fb7),
    ("quadrotor/---", 0xd19c19d6885a1b92),
    ("olfati/WLD", 0xfcf3c681187a2ee3),
    ("reynolds/WLD", 0x71f6c29d934e54a9),
    ("hardened/WLD", 0xddccaa27a39d2dcd),
    ("aggressive/WLD", 0x409821fcee967338),
    ("quadrotor/WLD", 0x10f1070b89c6b95e),
];

const FUZZ_GOLDENS: &[(&str, u64)] = &[
    ("---/seed0/constant", 0x996ece8be19aad10),
    ("---/seed0/drift", 0x248c9930560e2b82),
    ("---/seed0/circular", 0x54fb3193153124ce),
    ("---/seed0/jump", 0x562a6ea57db7b50c),
    ("---/seed0/all", 0x7c4b5a36e8ec29b2),
    ("---/seed0/R_Fuzz", 0x51cdb3948bdace84),
    ("---/seed0/G_Fuzz", 0x6663c7c76ba9c872),
    ("---/seed0/S_Fuzz", 0x5892730fb615a1cf),
    ("---/seed3/constant", 0x18ffec37e7237d74),
    ("---/seed3/drift", 0xa68aecb706186bd2),
    ("---/seed3/circular", 0xa76af41ca5f3721f),
    ("---/seed3/jump", 0x2fdda6a8a068736e),
    ("---/seed3/all", 0x9a30da3964f55d6f),
    ("---/seed3/R_Fuzz", 0xf794c22188dd00cf),
    ("---/seed3/G_Fuzz", 0xf0e16876dd8c445d),
    ("---/seed3/S_Fuzz", 0x73e2b1a3e1904fa2),
    ("WLD/seed0/constant", 0x1c779b7bb21355b4),
    ("WLD/seed0/drift", 0x0e49d4cbec466d11),
    ("WLD/seed0/circular", 0x0fb062dcb44e9eae),
    ("WLD/seed0/jump", 0xdc44326330af75d4),
    ("WLD/seed0/all", 0x019b13ed01066c3b),
    ("WLD/seed0/R_Fuzz", 0x8ada22f8fde482b5),
    ("WLD/seed0/G_Fuzz", 0xa584661f79c7db03),
    ("WLD/seed0/S_Fuzz", 0x3655fb7b539a66e3),
    ("WLD/seed3/constant", 0xc7196bf415558015),
    ("WLD/seed3/drift", 0x7e4590f06220c31b),
    ("WLD/seed3/circular", 0x889851ae580a72d9),
    ("WLD/seed3/jump", 0x58163545087e53f9),
    ("WLD/seed3/all", 0xca67f66c3469680a),
    ("WLD/seed3/R_Fuzz", 0xa67e9cc8b58883fe),
    ("WLD/seed3/G_Fuzz", 0xc30245f1b0b45c75),
    ("WLD/seed3/S_Fuzz", 0x89343afe9b2e0004),
];

const CAMPAIGN_GOLDENS: &[(&str, u64)] = &[
    ("constant/journal-bytes/snap", 0xafd628274904d19b),
    ("constant/trace-sorted/snap", 0x67c99496eef62a17),
    ("constant/journal-bytes/nosnap", 0xafd628274904d19b),
    ("constant/trace-sorted/nosnap", 0x6bdc3dc10c2a9106),
    ("constant/report", 0x959d62d44869be0f),
    ("constant/journal-sorted", 0xafd628274904d19b),
    ("constant/trace-canonical", 0x6bdc3dc10c2a9106),
    ("zoo/journal-bytes/snap", 0x5e98c413972eec23),
    ("zoo/trace-sorted/snap", 0xccb0899e902e80c1),
    ("zoo/journal-bytes/nosnap", 0x5e98c413972eec23),
    ("zoo/trace-sorted/nosnap", 0xa0a5975acd42e76a),
    ("zoo/report", 0x46ed21c03116f742),
    ("zoo/journal-sorted", 0x5e98c413972eec23),
    ("zoo/trace-canonical", 0xa0a5975acd42e76a),
];
