//! Replays of sub-stages the outer seams cannot reach, on the run's own
//! data: the spatial grid and comms delivery on positions recorded by the
//! swarm-1000 mission, and the journal codec, appends and shard merges on
//! the rows a campaign or the server produced.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use swarm_math::rng::derive_seed;
use swarm_sim::comms::{CommsBus, StateMessage};
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::{DroneId, SpatialGrid};
use swarmfuzz::server::merge_shard_rows;
use swarmfuzz::store::{decode_row, encode_row, CampaignJournal, JournalRow};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::Outcome;

/// Times the runner's grid-path calls per control tick over every tick of
/// `record`: both index rebuilds, one comms range query per drone, the
/// collision broad-phase pair enumeration, and comms delivery. Checks that
/// grid delivery fills the same neighbor tables as the dense scan.
pub fn spatial(out: &mut Outcome, spec: &MissionSpec, record: &MissionRecord) {
    let ticks = record.len();
    let Some(range) = spec.comms.range.filter(|&r| r > 0.0) else {
        out.check(false, || "spatial replay needs a radio range".to_string());
        return;
    };
    if ticks == 0 {
        out.check(false, || "spatial replay got an empty record".to_string());
        return;
    }
    // The runner's collision broad-phase radius (diameter plus slack).
    let diameter = 2.0 * spec.drone.radius;
    let slack = (2.0 * spec.steps_per_control() as f64 * spec.drone.max_speed * spec.physics_dt)
        .max(diameter);
    let broad_radius = diameter + slack;
    let first = record.positions_at(0);
    let mut comms_grid = SpatialGrid::build(first, range);
    let mut broad = SpatialGrid::build(first, broad_radius);
    let mut bus = CommsBus::new(spec.swarm_size, spec.comms);
    let mut dense = CommsBus::new(spec.swarm_size, spec.comms);
    let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 1));
    let mut dense_rng = StdRng::seed_from_u64(derive_seed(spec.seed, 1));
    let (mut rebuild, mut query, mut pairs, mut deliver) = (0.0, 0.0, 0.0, 0.0);
    let mut query_buf = Vec::new();
    let mut pair_buf = Vec::new();
    let mut delivered_ok = true;
    for tick in 0..ticks {
        let positions = record.positions_at(tick);
        let velocities = record.velocities_at(tick);
        let time = record.times()[tick];
        let broadcasts: Vec<StateMessage> = positions
            .iter()
            .zip(velocities)
            .enumerate()
            .map(|(i, (&position, &velocity))| StateMessage {
                sender: DroneId(i),
                position,
                velocity,
                time,
            })
            .collect();
        let dense_broadcasts = broadcasts.clone();

        let start = Instant::now();
        comms_grid.rebuild(positions, range);
        broad.rebuild(positions, broad_radius);
        rebuild += start.elapsed().as_secs_f64();

        let start = Instant::now();
        for &p in positions {
            black_box(comms_grid.within_into(p, range, &mut query_buf));
        }
        query += start.elapsed().as_secs_f64();

        let start = Instant::now();
        black_box(broad.close_pairs(broad_radius, &mut pair_buf));
        pairs += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let res = bus.step_indexed(broadcasts, positions, Some(&comms_grid), &mut rng);
        deliver += start.elapsed().as_secs_f64();

        delivered_ok &= res.is_ok()
            && dense.step_indexed(dense_broadcasts, positions, None, &mut dense_rng).is_ok();
    }
    for receiver in (0..spec.swarm_size).map(DroneId) {
        delivered_ok &= bus.neighbors_of(receiver).eq(dense.neighbors_of(receiver));
    }
    out.check(delivered_ok, || "grid-path comms delivery differs from the dense scan".to_string());
    let per_tick = 1e6 / ticks as f64;
    out.set("spatial.rebuild_us", rebuild * per_tick);
    out.set("spatial.query_us", query * per_tick);
    out.set("spatial.pairs_us", pairs * per_tick);
    out.set("comms.deliver_us", deliver * per_tick);
    out.note(format!(
        "spatial/comms replay over {ticks} recorded control ticks of {} drones",
        spec.swarm_size
    ));
}

/// Times the journal codec and appends on `rows`, and — with a shard
/// directory — `merge_shard_rows` per campaign fingerprint. Checks that
/// every row survives encode → decode and append → read unchanged.
pub fn store(
    out: &mut Outcome,
    rows: &[JournalRow],
    dir: &Path,
    shards: Option<(&Path, &[String])>,
) -> Result<(), String> {
    if rows.is_empty() {
        return Ok(());
    }
    let n = rows.len() as f64;
    let start = Instant::now();
    let lines: Vec<String> = rows.iter().map(encode_row).collect();
    out.set("store.encode_us_per_row", start.elapsed().as_secs_f64() * 1e6 / n);

    let start = Instant::now();
    let decoded: Vec<Result<JournalRow, String>> =
        lines.iter().map(|l| decode_row(l.trim_end())).collect();
    out.set("store.decode_us_per_row", start.elapsed().as_secs_f64() * 1e6 / n);
    let roundtrip = decoded.iter().zip(rows).all(|(d, r)| d.as_ref() == Ok(r));
    out.check(roundtrip, || "journal rows do not survive encode/decode".to_string());

    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("store-replay.jsonl");
    let mut journal = CampaignJournal::create(&path, "perfbench-replay", "SwarmFuzz")
        .map_err(|e| format!("replay journal: {e}"))?;
    let start = Instant::now();
    let mut appended = true;
    for row in rows {
        appended &= journal.append(row).is_ok();
    }
    out.set("store.append_us_per_row", start.elapsed().as_secs_f64() * 1e6 / n);
    drop(journal);
    let read_back = CampaignJournal::read(&path).map(|c| c.rows);
    out.check(appended && read_back.as_deref() == Ok(rows), || {
        "journal rows do not survive append/read".to_string()
    });

    if let Some((shard_dir, fingerprints)) = shards {
        let mut merge_ms = Vec::new();
        let mut merged = 0usize;
        for fp in fingerprints {
            let start = Instant::now();
            let got = merge_shard_rows(shard_dir, fp);
            merge_ms.push(start.elapsed().as_secs_f64() * 1e3);
            match got {
                Ok(r) => merged += r.len(),
                Err(e) => out.check(false, || format!("shard merge of {fp}: {e}")),
            }
        }
        out.set("store.merge_ms", median(&merge_ms));
        out.note(format!(
            "store replay: {} rows; merge over {} fingerprints read {merged} rows",
            rows.len(),
            fingerprints.len()
        ));
    }
    Ok(())
}
