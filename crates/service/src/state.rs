//! Warm persistent state for the daemon: a write-ahead job journal plus
//! plan-cache artifact persistence under `serve --state-dir`.
//!
//! The journal is a single append-only file of length-prefixed,
//! checksummed JSON records. Three record kinds flow through it:
//!
//! * `admit` — a plan/audit job entered the queue; carries the NPD body
//!   and options so a restarted daemon can re-run it.
//! * `artifact` — the job's finished pipeline artifact (summary, plan
//!   bytes, audit); clears the pending admit for its key.
//! * `settled` — the key resolved without producing a new artifact (the
//!   job failed, or a same-key artifact already sat in the cache); also
//!   clears the pending admit.
//!
//! Replay on startup rebuilds the plan cache from `artifact` records and
//! re-enqueues every admit without a terminal record. A corrupt or
//! truncated tail (torn write from a crash) stops replay at the last good
//! record and truncates the file there — everything before it is intact by
//! construction. Compaction rewrites the journal as a snapshot of the live
//! cache plus pending admits, so the file stays proportional to the cache,
//! not to request history.
//!
//! A journal write that fails (full disk) never fails the job — its answer
//! is still correct, only not durable — but counts in
//! `klotski_journal_errors_total` and leaves a `service.journal_error`
//! trace event naming the record. Until the next append or compaction
//! succeeds, `/healthz` answers `503 journal failing`.
//!
//! Frame layout, all little-endian:
//!
//! ```text
//! [u32 payload length][u64 FNV-1a of payload][payload JSON bytes]
//! ```

use crate::jobs::JobKey;
use crate::locked;
use crate::pipeline::PlanArtifact;
use klotski_core::report::PlanAudit;
use klotski_npd::api::{fnv1a, PlanRequestOptions, PlanSummary};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Journal file name inside the state directory.
const JOURNAL_FILE: &str = "journal.log";

/// Sanity bound on a single record; a length prefix beyond this is treated
/// as corruption rather than an allocation request.
const MAX_RECORD_BYTES: u32 = 256 * 1024 * 1024;

/// A [`PlanArtifact`] in its on-disk shape. `plan_json` is UTF-8 JSON, so
/// it travels as a string; the response-byte caches are rebuilt lazily.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PersistedArtifact {
    /// The artifact's summary (digests, cost, counters).
    summary: PlanSummary,
    /// The plan-attached NPD document.
    plan_json: String,
    /// The per-phase safety audit.
    audit: PlanAudit,
}

impl PersistedArtifact {
    fn from_artifact(a: &PlanArtifact) -> Option<Self> {
        Some(Self {
            summary: a.summary.clone(),
            plan_json: std::str::from_utf8(&a.plan_json).ok()?.to_string(),
            audit: a.audit.clone(),
        })
    }

    fn into_artifact(self) -> PlanArtifact {
        PlanArtifact::new(self.summary, self.plan_json.into_bytes(), self.audit)
    }
}

/// One journal record. The vendored serde derive has no data-carrying enum
/// variants, so records are one flat struct tagged by `op` (`admit`,
/// `artifact`, `settled`); fields irrelevant to an op stay at their
/// defaults. Digests travel as 16-hex-digit strings because the JSON
/// number model is f64, which cannot hold a full u64.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JournalRecord {
    op: String,
    /// `"{npd_digest:016x}:{options_digest:016x}"`.
    key: String,
    #[serde(default)]
    kind: String,
    #[serde(default)]
    npd: String,
    #[serde(default)]
    options: Option<PlanRequestOptions>,
    #[serde(default)]
    artifact: Option<PersistedArtifact>,
}

impl JournalRecord {
    /// A record of `op` for `key` with every payload field at its default.
    fn new(op: &str, key: JobKey) -> Self {
        Self {
            op: op.into(),
            key: key_hex(key),
            kind: String::new(),
            npd: String::new(),
            options: None,
            artifact: None,
        }
    }

    fn admit(key: JobKey, kind: &str, npd: &str, options: &PlanRequestOptions) -> Self {
        Self {
            kind: kind.into(),
            npd: npd.into(),
            options: Some(options.clone()),
            ..Self::new("admit", key)
        }
    }

    /// `None` when the plan bytes are not UTF-8 (they always are: the
    /// pipeline wrote them as JSON).
    fn artifact(key: JobKey, artifact: &PlanArtifact) -> Option<Self> {
        Some(Self {
            artifact: Some(PersistedArtifact::from_artifact(artifact)?),
            ..Self::new("artifact", key)
        })
    }
}

fn key_hex(key: JobKey) -> String {
    format!("{:016x}:{:016x}", key.0, key.1)
}

fn parse_key(s: &str) -> Option<JobKey> {
    let (a, b) = s.split_once(':')?;
    Some((
        u64::from_str_radix(a, 16).ok()?,
        u64::from_str_radix(b, 16).ok()?,
    ))
}

/// An admitted-but-unfinished job recovered from the journal.
#[derive(Debug, Clone)]
pub(crate) struct PendingJob {
    /// `"plan"` or `"audit"` (the wire label the admit recorded).
    pub kind: String,
    /// The NPD document body as submitted.
    pub npd: String,
    /// The request options as submitted.
    pub options: PlanRequestOptions,
    /// The cache key the admit was journaled under.
    pub key: JobKey,
}

/// Everything replay recovered from the journal.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Finished artifacts, oldest first (cache insertion order).
    pub artifacts: Vec<(JobKey, Arc<PlanArtifact>)>,
    /// Admitted jobs without a terminal record, oldest first.
    pub pending: Vec<PendingJob>,
    /// Bytes dropped from a corrupt or torn journal tail.
    pub truncated_bytes: u64,
}

struct StoreInner {
    file: File,
    /// Keys admitted but not yet settled, kept so compaction can rewrite
    /// their admit records.
    pending: HashMap<JobKey, JournalRecord>,
}

/// The open journal. All appends are serialized under one mutex; counters
/// are atomics so `/metrics` rendering never takes the lock.
pub(crate) struct StateStore {
    path: PathBuf,
    inner: Mutex<StoreInner>,
    bytes: AtomicU64,
    records: AtomicU64,
    compactions: AtomicU64,
    errors: AtomicU64,
    /// The last append or compaction failed.
    failing: AtomicBool,
    /// Journal size that triggers compaction on the next append.
    compact_bytes: u64,
}

impl StateStore {
    /// Opens (creating if needed) the journal under `dir`, replays it, and
    /// compacts the replayed state into a fresh journal so a crash-torn or
    /// history-heavy file is rewritten bounded before the daemon serves.
    pub(crate) fn open(dir: &Path, compact_bytes: u64) -> std::io::Result<(Self, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let replay = replay_file(&path)?;

        let store = Self {
            path,
            inner: Mutex::new(StoreInner {
                file: OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(JOURNAL_FILE))?,
                pending: HashMap::new(),
            }),
            bytes: AtomicU64::new(0),
            records: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            failing: AtomicBool::new(false),
            compact_bytes: compact_bytes.max(1),
        };
        {
            let mut inner = locked(&store.inner);
            for p in &replay.pending {
                let record = JournalRecord::admit(p.key, &p.kind, &p.npd, &p.options);
                inner.pending.insert(p.key, record);
            }
            store.rewrite_locked(&mut inner, &replay.artifacts)?;
        }
        Ok((store, replay))
    }

    /// Current journal size in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Records appended since open (replayed records not included).
    pub(crate) fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Compactions performed (the open-time rewrite counts as one).
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Journal writes that failed since open.
    pub(crate) fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// True from a failed journal write until the next append or
    /// compaction succeeds.
    pub(crate) fn failing(&self) -> bool {
        self.failing.load(Ordering::Relaxed)
    }

    /// Counts and traces a journal write that failed; the caller carries on
    /// with the job, which is now correct but not durable.
    fn note(&self, op: &str, key: &str, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.failing.store(true, Ordering::Relaxed);
            klotski_telemetry::log_event!(
                "service.journal_error",
                "op" = op,
                "key" = key,
                "error" = e.to_string(),
            );
        }
    }

    /// Journals a plan/audit admission.
    pub(crate) fn admit(&self, key: JobKey, kind: &str, npd: &str, options: &PlanRequestOptions) {
        let record = JournalRecord::admit(key, kind, npd, options);
        let mut inner = locked(&self.inner);
        inner.pending.insert(key, record.clone());
        let appended = self.append_locked(&mut inner, &record);
        self.note("admit", &record.key, appended);
    }

    /// Journals a finished artifact, clearing the pending admit. When the
    /// journal has outgrown its bound, compacts against `cache_snapshot`
    /// (the live cache contents, oldest first).
    pub(crate) fn artifact(
        &self,
        key: JobKey,
        artifact: &PlanArtifact,
        cache_snapshot: impl FnOnce() -> Vec<(JobKey, Arc<PlanArtifact>)>,
    ) {
        let Some(record) = JournalRecord::artifact(key, artifact) else {
            return;
        };
        let mut inner = locked(&self.inner);
        inner.pending.remove(&key);
        let appended = self.append_locked(&mut inner, &record);
        self.note("artifact", &record.key, appended);
        if self.bytes.load(Ordering::Relaxed) > self.compact_bytes {
            let rewritten = self.rewrite_locked(&mut inner, &cache_snapshot());
            self.note("compact", "", rewritten);
        }
    }

    /// Journals a key resolving without a new artifact (failure, or served
    /// from cache while queued), clearing the pending admit.
    pub(crate) fn settled(&self, key: JobKey) {
        let mut inner = locked(&self.inner);
        if inner.pending.remove(&key).is_none() {
            return; // nothing journaled for this key; no record needed
        }
        let record = JournalRecord::new("settled", key);
        let appended = self.append_locked(&mut inner, &record);
        self.note("settled", &record.key, appended);
    }

    /// Compacts now against the given cache snapshot (graceful drain).
    pub(crate) fn compact(&self, cache_snapshot: Vec<(JobKey, Arc<PlanArtifact>)>) {
        let mut inner = locked(&self.inner);
        let rewritten = self.rewrite_locked(&mut inner, &cache_snapshot);
        self.note("compact", "", rewritten);
    }

    /// Forces the journal to durable storage (graceful drain).
    pub(crate) fn flush(&self) {
        let synced = locked(&self.inner).file.sync_all();
        self.note("sync", "", synced);
    }

    /// Swaps the journal handle for a read-only one: every append fails
    /// (`EBADF`) until a compaction reopens the file.
    #[cfg(test)]
    pub(crate) fn break_journal(&self) {
        locked(&self.inner).file = File::open(&self.path).expect("journal exists");
    }

    fn append_locked(&self, inner: &mut StoreInner, record: &JournalRecord) -> std::io::Result<()> {
        let frame = encode_frame(record)?;
        inner.file.write_all(&frame)?;
        inner.file.flush()?;
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        self.failing.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Rewrites the journal as `artifacts` + pending admits, atomically
    /// (write temp file, rename over).
    fn rewrite_locked(
        &self,
        inner: &mut StoreInner,
        artifacts: &[(JobKey, Arc<PlanArtifact>)],
    ) -> std::io::Result<()> {
        let tmp_path = self.path.with_extension("log.tmp");
        let mut tmp = File::create(&tmp_path)?;
        let mut bytes = 0u64;
        for (key, artifact) in artifacts {
            let Some(record) = JournalRecord::artifact(*key, artifact) else {
                continue;
            };
            let frame = encode_frame(&record)?;
            tmp.write_all(&frame)?;
            bytes += frame.len() as u64;
        }
        // Deterministic rewrite order for the pending set: by key.
        let mut pending: Vec<&JournalRecord> = inner.pending.values().collect();
        pending.sort_by(|a, b| a.key.cmp(&b.key));
        for record in pending {
            let frame = encode_frame(record)?;
            tmp.write_all(&frame)?;
            bytes += frame.len() as u64;
        }
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        self.bytes.store(bytes, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.failing.store(false, Ordering::Relaxed);
        Ok(())
    }
}

fn encode_frame(record: &JournalRecord) -> std::io::Result<Vec<u8>> {
    let payload = serde_json::to_string(record)
        .map_err(|e| std::io::Error::other(format!("journal record serialization: {e}")))?
        .into_bytes();
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Replays the journal at `path`. Stops at the first corrupt frame and
/// truncates the file to the last good offset; a missing file is an empty
/// replay.
fn replay_file(path: &Path) -> std::io::Result<Replay> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    }

    let mut offset = 0usize;
    // Last-wins artifact per key, in first-seen order.
    let mut artifact_order: Vec<JobKey> = Vec::new();
    let mut artifacts: HashMap<JobKey, Arc<PlanArtifact>> = HashMap::new();
    let mut pending_order: Vec<JobKey> = Vec::new();
    let mut pending: HashMap<JobKey, PendingJob> = HashMap::new();

    while let Some(record) = decode_frame(&raw, &mut offset) {
        let Some(key) = parse_key(&record.key) else {
            continue; // well-framed but unintelligible key: skip the record
        };
        match record.op.as_str() {
            "admit" => {
                let Some(options) = record.options else {
                    continue;
                };
                if pending
                    .insert(
                        key,
                        PendingJob {
                            kind: record.kind,
                            npd: record.npd,
                            options,
                            key,
                        },
                    )
                    .is_none()
                {
                    pending_order.push(key);
                }
            }
            "artifact" => {
                if let Some(persisted) = record.artifact {
                    if artifacts
                        .insert(key, Arc::new(persisted.into_artifact()))
                        .is_none()
                    {
                        artifact_order.push(key);
                    }
                }
                pending.remove(&key);
            }
            "settled" => {
                pending.remove(&key);
            }
            _ => {} // forward-compatible: unknown ops are skipped
        }
    }

    let truncated_bytes = (raw.len() - offset) as u64;
    if truncated_bytes > 0 {
        // Torn tail from a crash mid-append: drop it so the next daemon
        // appends after the last good record.
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(offset as u64)?;
    }

    Ok(Replay {
        artifacts: artifact_order
            .into_iter()
            .filter_map(|k| artifacts.remove(&k).map(|a| (k, a)))
            .collect(),
        pending: pending_order
            .into_iter()
            .filter_map(|k| pending.remove(&k))
            .collect(),
        truncated_bytes,
    })
}

/// Decodes one frame at `*offset`, advancing it past the frame on success.
/// Returns `None` (leaving `offset` at the frame start) on a short,
/// oversized, checksum-failing, or unparseable frame.
fn decode_frame(raw: &[u8], offset: &mut usize) -> Option<JournalRecord> {
    let start = *offset;
    if raw.len() - start < 12 {
        return None;
    }
    let len = u32::from_le_bytes(raw[start..start + 4].try_into().unwrap());
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let sum = u64::from_le_bytes(raw[start + 4..start + 12].try_into().unwrap());
    let body_start = start + 12;
    let body_end = body_start.checked_add(len as usize)?;
    if body_end > raw.len() {
        return None;
    }
    let payload = &raw[body_start..body_end];
    if fnv1a(payload) != sum {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let record: JournalRecord = serde_json::from_str(text).ok()?;
    *offset = body_end;
    Some(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_npd::convert::region_to_npd;
    use klotski_topology::presets::{self, PresetId};
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("klotski-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_artifact() -> PlanArtifact {
        let npd = region_to_npd(&presets::config(PresetId::A));
        crate::pipeline::plan_document(
            &npd,
            &PlanRequestOptions::default(),
            klotski_core::planner::SearchBudget::default(),
            None,
        )
        .expect("preset A plans")
    }

    #[test]
    fn journal_roundtrips_artifacts_and_pending_jobs() {
        let dir = temp_dir("roundtrip");
        let artifact = sample_artifact();
        let npd_json = region_to_npd(&presets::config(PresetId::A))
            .to_json_pretty()
            .unwrap();
        {
            let (store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
            assert!(replay.artifacts.is_empty());
            assert!(replay.pending.is_empty());
            store.admit((1, 2), "plan", &npd_json, &PlanRequestOptions::default());
            store.artifact((1, 2), &artifact, Vec::new);
            store.admit((3, 4), "audit", &npd_json, &PlanRequestOptions::default());
            store.flush();
        }
        let (_store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.artifacts.len(), 1);
        let (key, got) = &replay.artifacts[0];
        assert_eq!(*key, (1, 2));
        assert_eq!(got.plan_json, artifact.plan_json);
        assert_eq!(got.summary.npd_digest, artifact.summary.npd_digest);
        assert_eq!(got.audit, artifact.audit);
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].key, (3, 4));
        assert_eq!(replay.pending[0].kind, "audit");
        assert_eq!(replay.pending[0].npd, npd_json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn settled_clears_pending_and_corrupt_tail_is_truncated() {
        let dir = temp_dir("corrupt");
        let npd_json = region_to_npd(&presets::config(PresetId::A))
            .to_json_pretty()
            .unwrap();
        {
            let (store, _) = StateStore::open(&dir, 1 << 20).unwrap();
            store.admit((1, 2), "plan", &npd_json, &PlanRequestOptions::default());
            store.settled((1, 2));
            store.admit((5, 6), "plan", &npd_json, &PlanRequestOptions::default());
            store.flush();
        }
        let path = dir.join(JOURNAL_FILE);
        // Simulate a torn write: garbage appended past the last record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let (_store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(replay.truncated_bytes, 5);
        assert_eq!(replay.pending.len(), 1, "settled key must not replay");
        assert_eq!(replay.pending[0].key, (5, 6));
        // Open compacts: the rewritten file carries only the pending admit.
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction must shrink {before} -> {after}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_journal_compacts_on_artifact_append() {
        let dir = temp_dir("compact");
        let artifact = Arc::new(sample_artifact());
        let (store, _) = StateStore::open(&dir, 1).unwrap(); // compact every append
        let compactions_before = store.compactions();
        store.artifact((9, 9), &artifact, || vec![((9, 9), Arc::clone(&artifact))]);
        assert!(store.compactions() > compactions_before);
        // The compacted journal still replays the artifact.
        let (_s2, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(replay.artifacts.len(), 1);
        assert_eq!(replay.artifacts[0].0, (9, 9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_is_counted_and_traced_and_compaction_heals_it() {
        let dir = temp_dir("fault");
        let events = klotski_telemetry::bus().subscribe(0, 1 << 16);
        let (store, _) = StateStore::open(&dir, 1 << 20).unwrap();
        let options = PlanRequestOptions::default();
        store.admit((1, 1), "plan", "{}", &options);
        assert_eq!((store.errors(), store.records()), (0, 1));
        assert!(!store.failing());

        store.break_journal();
        let lost = (0xfa17_fa17, 2);
        store.admit(lost, "plan", "{}", &options);
        assert_eq!((store.errors(), store.records()), (1, 1));
        assert!(store.failing());
        let traced = crate::testkit::events_named(&events, "service.journal_error");
        let ours = traced
            .iter()
            .find(|f| f.get("key").and_then(|v| v.as_str()) == Some(key_hex(lost).as_str()))
            .unwrap_or_else(|| panic!("no journal_error event for our key in {traced:?}"));
        assert_eq!(ours.get("op").and_then(|v| v.as_str()), Some("admit"));

        // The admit stayed pending in memory, so the next compaction
        // writes it after all — and reopens a writable handle.
        store.compact(Vec::new());
        assert!(!store.failing());
        store.admit((3, 3), "plan", "{}", &options);
        assert_eq!(store.errors(), 1);
        drop(store);
        let (_store, replay) = StateStore::open(&dir, 1 << 20).unwrap();
        let keys: Vec<JobKey> = replay.pending.iter().map(|p| p.key).collect();
        assert_eq!(keys, [(1, 1), lost, (3, 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_hex_roundtrips_full_u64_range() {
        for key in [
            (0u64, 0u64),
            (u64::MAX, 1),
            (0x0123_4567_89ab_cdef, u64::MAX),
        ] {
            assert_eq!(parse_key(&key_hex(key)), Some(key));
        }
        assert_eq!(parse_key("nope"), None);
        assert_eq!(parse_key("12:zz"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// `k` good frames, then damage: an arbitrary tail, one flipped byte
        /// inside frame `j`, or frame `j`'s length field set to `u32::MAX`.
        /// Replay keeps exactly the records before the damage, truncates
        /// the file at the last good offset, and a second open replays the
        /// same records from a clean file.
        #[test]
        fn damaged_journal_replays_exactly_the_records_before_the_damage(
            k in 0usize..6,
            damage in 0u8..3,
            frame in 0usize..64,
            at in 0usize..4096,
            flip in 1u8..=255,
            tail in prop::collection::vec(0u8..=255, 0..48),
        ) {
            let dir = temp_dir("prop");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(JOURNAL_FILE);
            let keys: Vec<JobKey> = (0..k as u64).map(|i| (i, !i)).collect();
            let mut raw = Vec::new();
            let mut offsets = vec![0];
            for (i, &key) in keys.iter().enumerate() {
                let npd = "n".repeat(i * 7);
                let record = JournalRecord::admit(key, "plan", &npd, &PlanRequestOptions::default());
                raw.extend(encode_frame(&record).unwrap());
                offsets.push(raw.len());
            }
            let kept = match (damage, k) {
                (1, 1..) => {
                    let j = frame % k;
                    raw[offsets[j] + at % (offsets[j + 1] - offsets[j])] ^= flip;
                    j
                }
                (2, 1..) => {
                    let j = frame % k;
                    raw[offsets[j]..offsets[j] + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                    j
                }
                _ => {
                    raw.extend(&tail);
                    k
                }
            };
            std::fs::write(&path, &raw).unwrap();

            let replay = replay_file(&path).unwrap();
            let replayed: Vec<JobKey> = replay.pending.iter().map(|p| p.key).collect();
            prop_assert_eq!(&replayed[..], &keys[..kept]);
            prop_assert_eq!(replay.truncated_bytes, (raw.len() - offsets[kept]) as u64);
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), offsets[kept] as u64);

            let again = replay_file(&path).unwrap();
            let replayed: Vec<JobKey> = again.pending.iter().map(|p| p.key).collect();
            prop_assert_eq!(&replayed[..], &keys[..kept]);
            prop_assert_eq!(again.truncated_bytes, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
