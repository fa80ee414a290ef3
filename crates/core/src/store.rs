//! Crash-safe campaign persistence: an append-only JSONL journal of
//! per-mission results plus the atomic-write helper shared by every file
//! export.
//!
//! Long campaigns (the paper's §V-B grid is 600 missions per variant) must
//! survive being killed: results stream to a journal as workers finish them,
//! and a resumed campaign skips every already-journaled `(config, index)`
//! job. The journal starts with a header line carrying a **fingerprint** —
//! a hash of the [`CampaignConfig`] grid and the per-configuration
//! [`FuzzerConfig`]s — so a journal can never be replayed against a
//! different campaign (worker count and retry limits are execution details
//! and deliberately excluded).
//!
//! Determinism discipline: rows go through the crate's JSON codec
//! (`crate::json`), which renders every `f64` in Rust's shortest round-trip
//! form and parses it back with `str::parse`, so a journaled
//! [`MissionResult`] reloads **bit-identical** — a resumed campaign report
//! equals the uninterrupted one byte for byte (covered by
//! `tests/campaign_store.rs`).
//!
//! Crash tolerance: rows are appended one `write_all` at a time, so a kill
//! can leave at most one truncated final line; the loader drops such a tail
//! and [`CampaignJournal::resume`] compacts the file (atomic
//! write-temp-then-rename) before appending continues. A malformed line
//! anywhere *else* is real corruption and surfaces as
//! [`StoreError::Corrupt`].

use std::io::Write as _;
use std::path::{Path, PathBuf};

use swarm_math::rng::derive_seed;
use swarm_sim::spoof::{SpoofDirection, Waveform, WaveformSet};
use swarm_sim::DroneId;

use crate::campaign::{CampaignConfig, MissionFailure, MissionResult, SwarmConfig};
use crate::fuzzer::{FuzzerConfig, SearchStrategy, SeedStrategy, SpvFinding};
use crate::json::{self, Json, ObjectWriter};
use crate::seed::Seed;
use crate::svg::CentralityKind;

/// Journal-layer errors. I/O failures are captured as strings so the type
/// stays `Clone + PartialEq` like every other error in the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The journal belongs to a different campaign/fuzzer combination.
    FingerprintMismatch {
        /// Fingerprint of the campaign being run.
        expected: String,
        /// Fingerprint found in the journal header.
        found: String,
    },
    /// A journal line (other than a truncated tail) failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "journal I/O error at {path}: {message}"),
            StoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint {found} does not match this campaign ({expected}); \
                 refusing to resume against a different grid or fuzzer variant"
            ),
            StoreError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

pub(crate) fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Writes `contents` to `path` atomically: the bytes land in a temporary
/// file in the same directory (created if needed), are synced, and the file
/// is renamed over the target. A crash mid-export leaves either the old
/// file or the new one — never a truncated mix.
///
/// # Errors
///
/// Propagates I/O errors from any step.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&parent)?;
    let file_name = path.file_name().map_or_else(|| "out".into(), |n| n.to_string_lossy());
    let tmp = parent.join(format!(".{}.tmp-{}", file_name, std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

fn mix_str(mut h: u64, s: &str) -> u64 {
    h = derive_seed(h, s.len() as u64);
    for b in s.as_bytes() {
        h = derive_seed(h, u64::from(*b));
    }
    h
}

fn centrality_code(k: CentralityKind) -> u64 {
    match k {
        CentralityKind::PageRank => 0,
        CentralityKind::Degree => 1,
        CentralityKind::Eigenvector => 2,
        CentralityKind::Closeness => 3,
        CentralityKind::Betweenness => 4,
    }
}

/// Hashes a campaign's identity: the configuration grid, mission count and
/// base seed of `campaign`, plus every per-configuration [`FuzzerConfig`]
/// (strategies, centrality, budgets, window parameters, RNG seed). Worker
/// count is excluded — it changes scheduling, never results.
pub fn campaign_fingerprint(campaign: &CampaignConfig, fuzzers: &[FuzzerConfig]) -> String {
    let mut h = derive_seed(0x5357_4652_u64, JOURNAL_VERSION);
    h = derive_seed(h, campaign.base_seed);
    h = derive_seed(h, campaign.missions_per_config as u64);
    h = derive_seed(h, campaign.configs.len() as u64);
    for c in &campaign.configs {
        h = derive_seed(h, c.swarm_size as u64);
        h = derive_seed(h, c.deviation.to_bits());
    }
    for f in fuzzers {
        h = mix_str(h, f.variant_name());
        h = derive_seed(h, matches!(f.seed_strategy, SeedStrategy::Random) as u64);
        h = derive_seed(h, matches!(f.search_strategy, SearchStrategy::Random) as u64);
        h = derive_seed(h, centrality_code(f.centrality));
        h = derive_seed(h, f.deviation.to_bits());
        h = derive_seed(h, f.eval_budget as u64);
        h = derive_seed(h, f.lead_time.to_bits());
        h = derive_seed(h, f.initial_duration.to_bits());
        h = derive_seed(h, f.max_duration.to_bits());
        h = derive_seed(h, f.rng_seed);
        // Mixed only when non-default so every pre-zoo journal keeps its
        // fingerprint: a constant-only campaign is the same campaign it was
        // before attack classes existed.
        if f.waveforms != WaveformSet::default() {
            h = mix_str(h, "waveforms");
            for kind in f.waveforms.iter() {
                h = mix_str(h, kind.name());
            }
        }
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------------
// Journal rows
// ---------------------------------------------------------------------------

/// One journaled campaign event: a finished mission or a quarantined
/// failure. Both carry the job's `(config, index)` identity so resume can
/// skip them.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRow {
    /// A mission that fuzzed to completion.
    Done {
        /// Mission index within its configuration.
        index: usize,
        /// The full result, exactly as the campaign report carries it.
        result: MissionResult,
    },
    /// A mission that exhausted its retries.
    Failed(MissionFailure),
}

impl JournalRow {
    /// The job identity `(swarm_size, deviation bits, index)` used for
    /// resume deduplication.
    pub fn job_key(&self) -> (usize, u64, usize) {
        match self {
            JournalRow::Done { index, result } => {
                (result.config.swarm_size, result.config.deviation.to_bits(), *index)
            }
            JournalRow::Failed(f) => (f.config.swarm_size, f.config.deviation.to_bits(), f.index),
        }
    }
}

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

/// Journal schema version; bumped on incompatible format changes (also
/// mixed into the fingerprint).
pub const JOURNAL_VERSION: u64 = 1;

const JOURNAL_MAGIC: &str = "swarmfuzz-campaign";

fn encode_header(fingerprint: &str, variant: &str) -> String {
    let mut line = json::object(|o| {
        o.field("journal", JOURNAL_MAGIC).field("version", JOURNAL_VERSION);
        o.field("fingerprint", fingerprint).field("variant", variant);
    });
    line.push('\n');
    line
}

fn write_finding(o: &mut ObjectWriter<'_>, f: &SpvFinding) {
    let seed = &f.seed;
    o.field("target", seed.target.0).field("victim", seed.victim.0);
    o.field("direction", seed.direction.to_string()).field("influence", seed.influence);
    o.field("victim_vdo", seed.victim_vdo).field("start", f.start).field("duration", f.duration);
    o.field("spoof_deviation", f.deviation);
    // Only non-constant waveforms emit their class: journals written by
    // constant-only campaigns stay byte-identical to the pre-zoo format.
    match f.waveform {
        Waveform::Constant => &mut *o,
        Waveform::Drift { ramp } => o.field("waveform", "drift").field("ramp", ramp),
        Waveform::Circular { omega } => o.field("waveform", "circular").field("omega", omega),
        Waveform::Jump { period } => o.field("waveform", "jump").field("period", period),
    };
    o.field("actual_victim", f.actual_victim.0).field("collision_time", f.collision_time);
}

/// Renders one row as a single JSONL line (newline included).
pub fn encode_row(row: &JournalRow) -> String {
    let mut line = json::object(|o| match row {
        JournalRow::Done { index, result: r } => {
            o.field("row", "done").field("swarm_size", r.config.swarm_size).field("index", index);
            o.field("deviation", r.config.deviation).field("mission_seed", r.mission_seed);
            o.field("vdo", r.vdo).field("success", r.success);
            o.field("evaluations", r.evaluations).field("seeds_tried", r.seeds_tried);
            match &r.finding {
                None => o.null("finding"),
                Some(f) => o.object("finding", |o| write_finding(o, f)),
            };
        }
        JournalRow::Failed(f) => {
            o.field("row", "failed").field("swarm_size", f.config.swarm_size);
            o.field("index", f.index).field("deviation", f.config.deviation);
            o.field("retries", f.retries).field("error", &f.error);
        }
    });
    line.push('\n');
    line
}

fn decode_finding(j: &Json) -> Result<SpvFinding, String> {
    let name: &str = j.req("direction")?;
    let direction = SpoofDirection::BOTH
        .into_iter()
        .find(|d| d.to_string() == name)
        .ok_or_else(|| format!("unknown direction {name:?}"))?;
    // Legacy rows carry no waveform field: they are constant-offset.
    let waveform = match j.opt::<&str>("waveform")? {
        None | Some("constant") => Waveform::Constant,
        Some("drift") => Waveform::Drift { ramp: j.req("ramp")? },
        Some("circular") => Waveform::Circular { omega: j.req("omega")? },
        Some("jump") => Waveform::Jump { period: j.req("period")? },
        Some(other) => return Err(format!("unknown waveform {other:?}")),
    };
    Ok(SpvFinding {
        seed: Seed {
            target: DroneId(j.req("target")?),
            victim: DroneId(j.req("victim")?),
            direction,
            influence: j.req("influence")?,
            victim_vdo: j.req("victim_vdo")?,
            waveform: waveform.kind(),
        },
        start: j.req("start")?,
        duration: j.req("duration")?,
        deviation: j.req("spoof_deviation")?,
        actual_victim: DroneId(j.req("actual_victim")?),
        collision_time: j.req("collision_time")?,
        waveform,
    })
}

/// Parses one JSONL line back into a row.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn decode_row(line: &str) -> Result<JournalRow, String> {
    let j = json::parse(line)?;
    let config = SwarmConfig { swarm_size: j.req("swarm_size")?, deviation: j.req("deviation")? };
    let index = j.req("index")?;
    match j.req("row")? {
        "done" => Ok(JournalRow::Done {
            index,
            result: MissionResult {
                config,
                mission_seed: j.req("mission_seed")?,
                vdo: j.req("vdo")?,
                success: j.req("success")?,
                finding: j.opt("finding")?.map(decode_finding).transpose()?,
                evaluations: j.req("evaluations")?,
                seeds_tried: j.req("seeds_tried")?,
            },
        }),
        "failed" => Ok(JournalRow::Failed(MissionFailure {
            config,
            index,
            error: j.req("error")?,
            retries: j.req("retries")?,
        })),
        other => Err(format!("unknown row kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// Everything read back from a journal file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// Campaign fingerprint from the header.
    pub fingerprint: String,
    /// Fuzzer variant name from the header (informational).
    pub variant: String,
    /// Every intact row, in file order.
    pub rows: Vec<JournalRow>,
}

/// An open append-only campaign journal.
#[derive(Debug)]
pub struct CampaignJournal {
    file: std::fs::File,
    path: PathBuf,
}

impl CampaignJournal {
    /// Creates (or truncates) a journal at `path`, writing the header line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`StoreError::Io`].
    pub fn create(path: &Path, fingerprint: &str, variant: &str) -> Result<Self, StoreError> {
        atomic_write(path, &encode_header(fingerprint, variant)).map_err(|e| io_err(path, &e))?;
        let file =
            std::fs::OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, &e))?;
        Ok(CampaignJournal { file, path: path.to_path_buf() })
    }

    /// Reads a journal without opening it for appending. A truncated final
    /// line (the signature of a crash mid-append) is dropped silently.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// when the header or any non-final line is malformed.
    pub fn read(path: &Path) -> Result<JournalContents, StoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let lines: Vec<&str> = text.lines().collect();
        let header_line = lines
            .first()
            .ok_or(StoreError::Corrupt { line: 1, message: "empty journal".into() })?;
        let corrupt = |message: String| StoreError::Corrupt { line: 1, message };
        let header = json::parse(header_line).map_err(corrupt)?;
        if header.req("journal") != Ok(JOURNAL_MAGIC) {
            return Err(corrupt("not a campaign journal".into()));
        }
        if header.req("version") != Ok(JOURNAL_VERSION) {
            return Err(corrupt("unsupported journal version".into()));
        }
        let fingerprint = header.req("fingerprint").map_err(corrupt)?;
        let variant = header.opt("variant").map_err(corrupt)?.unwrap_or_default();

        let mut rows = Vec::new();
        let last = lines.len().saturating_sub(1);
        for (i, line) in lines.iter().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            match decode_row(line) {
                Ok(row) => rows.push(row),
                // A kill mid-append leaves exactly one truncated tail line;
                // drop it and let the resumed campaign redo that mission.
                Err(_) if i == last => break,
                Err(message) => return Err(StoreError::Corrupt { line: i + 1, message }),
            }
        }
        Ok(JournalContents { fingerprint, variant, rows })
    }

    /// Opens an existing journal for resumption: validates the fingerprint,
    /// compacts the file (dropping any truncated tail atomically) and
    /// returns the intact rows alongside the reopened journal.
    ///
    /// # Errors
    ///
    /// [`StoreError::FingerprintMismatch`] when the journal belongs to a
    /// different campaign; otherwise as [`CampaignJournal::read`].
    pub fn resume(
        path: &Path,
        expected_fingerprint: &str,
    ) -> Result<(Self, Vec<JournalRow>), StoreError> {
        let contents = Self::read(path)?;
        if contents.fingerprint != expected_fingerprint {
            return Err(StoreError::FingerprintMismatch {
                expected: expected_fingerprint.to_string(),
                found: contents.fingerprint,
            });
        }
        let mut compacted = encode_header(&contents.fingerprint, &contents.variant);
        for row in &contents.rows {
            compacted.push_str(&encode_row(row));
        }
        atomic_write(path, &compacted).map_err(|e| io_err(path, &e))?;
        let file =
            std::fs::OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, &e))?;
        Ok((CampaignJournal { file, path: path.to_path_buf() }, contents.rows))
    }

    /// Appends one row (a single `write_all`, so a kill can only truncate
    /// the final line).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`StoreError::Io`].
    pub fn append(&mut self, row: &JournalRow) -> Result<(), StoreError> {
        self.file.write_all(encode_row(row).as_bytes()).map_err(|e| io_err(&self.path, &e))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_sim::spoof::WaveformKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swarmfuzz-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_result(seed: u64, vdo: f64, with_finding: bool) -> MissionResult {
        MissionResult {
            config: SwarmConfig { swarm_size: 5, deviation: 10.0 },
            mission_seed: seed,
            vdo,
            success: with_finding,
            finding: with_finding.then_some(SpvFinding {
                seed: Seed {
                    target: DroneId(3),
                    victim: DroneId(1),
                    direction: SpoofDirection::Left,
                    influence: 0.1 + 0.2, // deliberately non-representable exactly
                    victim_vdo: 1e-300,
                    waveform: WaveformKind::Constant,
                },
                start: 12.625,
                duration: 7.3,
                deviation: 10.0,
                actual_victim: DroneId(2),
                collision_time: 39.900000000000006,
                waveform: Waveform::Constant,
            }),
            evaluations: 17,
            seeds_tried: 3,
        }
    }

    #[test]
    fn rows_round_trip_bit_identical() {
        for row in [
            JournalRow::Done { index: 0, result: sample_result(u64::MAX, -0.0, true) },
            JournalRow::Done { index: 7, result: sample_result(0, 2.5, false) },
            JournalRow::Done { index: 3, result: sample_result(1 << 63, f64::INFINITY, false) },
            JournalRow::Failed(MissionFailure {
                config: SwarmConfig { swarm_size: 1, deviation: 5.0 },
                index: 9,
                error: "weird \"label\", with\nnewline and \u{7} bell".into(),
                retries: 2,
            }),
        ] {
            let line = encode_row(&row);
            assert!(line.ends_with('\n'));
            let back = decode_row(line.trim_end()).expect("row must decode");
            assert_eq!(row, back);
            // Bit-identity for the floats, beyond PartialEq.
            if let (JournalRow::Done { result: a, .. }, JournalRow::Done { result: b, .. }) =
                (&row, &back)
            {
                assert_eq!(a.vdo.to_bits(), b.vdo.to_bits());
            }
        }
    }

    #[test]
    fn waveform_rows_round_trip_bit_identical() {
        for waveform in [
            Waveform::Drift { ramp: 3.5 },
            Waveform::Circular { omega: 0.25 },
            Waveform::Jump { period: 1.75 },
            Waveform::Circular { omega: -0.0 },
            Waveform::Jump { period: 5e-324 },
        ] {
            let mut result = sample_result(9, 1.5, true);
            let finding = result.finding.as_mut().unwrap();
            finding.waveform = waveform;
            finding.seed.waveform = waveform.kind();
            let row = JournalRow::Done { index: 1, result };
            let line = encode_row(&row);
            let back = decode_row(line.trim_end()).expect("waveform row must decode");
            assert_eq!(row, back);
            if let (JournalRow::Done { result: a, .. }, JournalRow::Done { result: b, .. }) =
                (&row, &back)
            {
                let (fa, fb) = (a.finding.unwrap(), b.finding.unwrap());
                assert_eq!(
                    fa.waveform.shape().map(f64::to_bits),
                    fb.waveform.shape().map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn constant_rows_encode_without_waveform_fields() {
        // Byte-compatibility with pre-zoo journals: the paper's attack must
        // serialize exactly as it always did, so old journals resume and new
        // constant-only journals stay readable by old builds.
        let row = JournalRow::Done { index: 4, result: sample_result(11, 2.0, true) };
        let line = encode_row(&row);
        assert!(!line.contains("waveform"), "constant findings must not name their class: {line}");
    }

    #[test]
    fn unknown_waveform_is_a_decode_error() {
        let row = JournalRow::Done { index: 0, result: sample_result(1, 1.0, true) };
        let line = encode_row(&row);
        let corrupted = line
            .trim_end()
            .replace(",\"actual_victim\"", ",\"waveform\":\"teleport\",\"actual_victim\"");
        let err = decode_row(&corrupted).unwrap_err();
        assert!(err.contains("unknown waveform \"teleport\""), "got: {err}");
    }

    #[test]
    fn fingerprint_ignores_the_default_waveform_set() {
        // Pre-zoo journals hashed no waveform information; a constant-only
        // config must keep producing the identical fingerprint.
        let campaign = CampaignConfig::paper_grid(10, 7);
        let fuzzers: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| FuzzerConfig::swarmfuzz(c.deviation)).collect();
        let base = campaign_fingerprint(&campaign, &fuzzers);

        let explicit: Vec<FuzzerConfig> =
            fuzzers.iter().map(|f| f.with_waveforms(WaveformSet::CONSTANT_ONLY)).collect();
        assert_eq!(base, campaign_fingerprint(&campaign, &explicit));

        let zoo: Vec<FuzzerConfig> =
            fuzzers.iter().map(|f| f.with_waveforms(WaveformSet::all())).collect();
        assert_ne!(base, campaign_fingerprint(&campaign, &zoo), "the class set is identity");
    }

    #[test]
    fn fingerprint_keys_on_campaign_identity_not_workers() {
        let mut campaign = CampaignConfig::paper_grid(10, 7);
        let fuzzers: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| FuzzerConfig::swarmfuzz(c.deviation)).collect();
        let base = campaign_fingerprint(&campaign, &fuzzers);

        campaign.workers = 16;
        assert_eq!(base, campaign_fingerprint(&campaign, &fuzzers), "workers are execution detail");

        let mut other = campaign.clone();
        other.base_seed = 8;
        assert_ne!(base, campaign_fingerprint(&other, &fuzzers));

        let mut other = campaign.clone();
        other.missions_per_config = 11;
        assert_ne!(base, campaign_fingerprint(&other, &fuzzers));

        let r_fuzz: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| FuzzerConfig::r_fuzz(c.deviation)).collect();
        assert_ne!(base, campaign_fingerprint(&campaign, &r_fuzz), "variant must be hashed");
    }

    #[test]
    fn journal_create_append_read() {
        let dir = temp_dir("basic");
        let path = dir.join("j.jsonl");
        let mut j = CampaignJournal::create(&path, "abcd", "SwarmFuzz").unwrap();
        let row = JournalRow::Done { index: 2, result: sample_result(42, 3.25, true) };
        j.append(&row).unwrap();
        drop(j);

        let contents = CampaignJournal::read(&path).unwrap();
        assert_eq!(contents.fingerprint, "abcd");
        assert_eq!(contents.variant, "SwarmFuzz");
        assert_eq!(contents.rows, vec![row]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_compacted_on_resume() {
        let dir = temp_dir("truncate");
        let path = dir.join("j.jsonl");
        let mut j = CampaignJournal::create(&path, "fp", "SwarmFuzz").unwrap();
        let keep = JournalRow::Done { index: 0, result: sample_result(1, 1.5, false) };
        j.append(&keep).unwrap();
        drop(j);
        // Simulate a kill mid-append: half a row at EOF.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"row\":\"done\",\"swarm_si");
        std::fs::write(&path, &text).unwrap();

        let (mut j, rows) = CampaignJournal::resume(&path, "fp").unwrap();
        assert_eq!(rows, vec![keep.clone()]);
        // The compaction removed the garbage; appending continues cleanly.
        let next = JournalRow::Done { index: 1, result: sample_result(2, 2.5, false) };
        j.append(&next).unwrap();
        drop(j);
        assert_eq!(CampaignJournal::read(&path).unwrap().rows, vec![keep, next]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let dir = temp_dir("corrupt");
        let path = dir.join("j.jsonl");
        let mut j = CampaignJournal::create(&path, "fp", "SwarmFuzz").unwrap();
        j.append(&JournalRow::Done { index: 0, result: sample_result(1, 1.5, false) }).unwrap();
        j.append(&JournalRow::Done { index: 1, result: sample_result(2, 2.5, false) }).unwrap();
        drop(j);
        // Garble the middle row (not the tail).
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"row\":\"done\",\"nonsense\":true}";
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(CampaignJournal::read(&path), Err(StoreError::Corrupt { line: 2, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let dir = temp_dir("foreign");
        let path = dir.join("j.jsonl");
        CampaignJournal::create(&path, "aaaa", "SwarmFuzz").unwrap();
        let err = CampaignJournal::resume(&path, "bbbb").unwrap_err();
        assert_eq!(
            err,
            StoreError::FingerprintMismatch { expected: "bbbb".into(), found: "aaaa".into() }
        );
        assert!(err.to_string().contains("refusing to resume"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = temp_dir("atomic");
        let path = dir.join("nested").join("out.csv");
        atomic_write(&path, "first\n").unwrap();
        atomic_write(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
