//! TSDB records and checkpoints on the shared framed segment log (S16 in
//! `DESIGN.md`).
//!
//! The hot TSDB head is purely in-memory; this module gives it a durability
//! and replication substrate, the same shape Prometheus' own WAL has. The
//! log itself — frames, segments, rotation, fsync policy, torn-tail
//! recovery, disk-fault hooks — is [`ceems_relstore::wal`], shared with the
//! relational store. What is TSDB-specific lives here:
//!
//! * **Records** ([`WalRecord`]) — series creations, sample batches,
//!   tombstones, retention cutoffs — encoded compactly (varints, zigzag
//!   deltas), one record per frame. A scrape batch is logged as *one*
//!   group commit: one lock, one `write`, at most one fsync per batch.
//! * **Checkpoints** — `checkpoint-<seq>.ckpt` files summarizing all live
//!   series at a rotation boundary, published tmp+fsync+rename. Recovery
//!   loads the newest valid checkpoint and replays only the segments after
//!   it; covered segments and older checkpoints are garbage-collected.
//! * **Positions** ([`WalPosition`]) — `(segment, byte offset, record
//!   count)` triples; followers stream segment bytes from a position, and
//!   the load balancer compares record counts as a staleness signal.

use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

use ceems_metrics::labels::LabelSet;
use ceems_relstore::wal::{crc32, encode_frame, list_numbered, sync_dir, write_durable};
pub use ceems_relstore::wal::{
    frames, list_segments, recover, segment_file_name, DiskFaults, FsyncMode, ScriptedDiskFaults,
    ScriptedShortWrite, Wal, WalOptions,
};

use crate::types::{Sample, SeriesId};

/// Samples per synthetic `Samples` record when a checkpoint is converted
/// into a record stream for follower bootstrap.
pub const BOOTSTRAP_BATCH: usize = 8_192;

// ---------------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------------

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uvarint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Bounds-checked reader over an encoded payload. Every accessor returns
/// `None` past the end instead of panicking — decoding corrupt bytes must
/// degrade to "torn record", never crash recovery.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn uvarint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return None;
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    fn ivarint(&mut self) -> Option<i64> {
        let u = self.uvarint()?;
        Some(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    fn f64(&mut self) -> Option<f64> {
        let end = self.pos.checked_add(8)?;
        let bytes: [u8; 8] = self.buf.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(f64::from_le_bytes(bytes))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.uvarint()? as usize;
        let end = self.pos.checked_add(len)?;
        let b = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(b)
    }

    fn string(&mut self) -> Option<String> {
        std::str::from_utf8(self.bytes()?).ok().map(str::to_string)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

const TAG_SERIES_CREATE: u8 = 1;
const TAG_SAMPLES: u8 = 2;
const TAG_TOMBSTONE: u8 = 3;
const TAG_RETENTION: u8 = 4;
const TAG_EPOCH_BUMP: u8 = 5;

/// One durable event in the WAL. Replaying the record stream from an empty
/// database reconstructs the head and index exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A new series was registered under `id`. Always logged before any
    /// `Samples` record referencing the id (enforced by logging inside the
    /// index write-lock critical section).
    SeriesCreate {
        /// The id the index assigned.
        id: SeriesId,
        /// The full label set of the series.
        labels: LabelSet,
    },
    /// A batch of samples, `(series id, timestamp ms, value)`. One scrape
    /// pass over a target becomes one record (the group commit).
    Samples(Vec<(SeriesId, i64, f64)>),
    /// Series deleted by the §II.C cardinality cleanup.
    Tombstone(Vec<SeriesId>),
    /// A retention sweep dropped chunks ending before `cutoff_ms`.
    Retention {
        /// The cutoff the sweep ran with.
        cutoff_ms: i64,
    },
    /// The leadership epoch advanced (S24). Every record after this bump
    /// (until the next one) belongs to `epoch` — the Raft-style "term
    /// marker in the log" shape. A durable bump fences the previous
    /// leader: appends carrying an older epoch are rejected.
    EpochBump {
        /// The new epoch.
        epoch: u64,
    },
}

/// Appends one record to `out` as one frame of the shared log.
pub fn encode_record(out: &mut Vec<u8>, rec: &WalRecord) {
    encode_frame(out, |payload| encode_payload(payload, rec));
}

fn encode_payload(payload: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::SeriesCreate { id, labels } => {
            payload.push(TAG_SERIES_CREATE);
            put_uvarint(payload, *id);
            put_uvarint(payload, labels.len() as u64);
            for (k, v) in labels.iter() {
                put_bytes(payload, k.as_bytes());
                put_bytes(payload, v.as_bytes());
            }
        }
        WalRecord::Samples(samples) => {
            payload.push(TAG_SAMPLES);
            put_uvarint(payload, samples.len() as u64);
            // Ids and timestamps are delta-encoded against the previous
            // sample: a scrape batch shares one timestamp and ascends in
            // id, so both deltas are tiny.
            let (mut prev_id, mut prev_t) = (0i64, 0i64);
            for &(id, t, v) in samples {
                put_ivarint(payload, id as i64 - prev_id);
                put_ivarint(payload, t - prev_t);
                payload.extend_from_slice(&v.to_le_bytes());
                prev_id = id as i64;
                prev_t = t;
            }
        }
        WalRecord::Tombstone(ids) => {
            payload.push(TAG_TOMBSTONE);
            put_uvarint(payload, ids.len() as u64);
            let mut prev = 0i64;
            for &id in ids {
                put_ivarint(payload, id as i64 - prev);
                prev = id as i64;
            }
        }
        WalRecord::Retention { cutoff_ms } => {
            payload.push(TAG_RETENTION);
            put_ivarint(payload, *cutoff_ms);
        }
        WalRecord::EpochBump { epoch } => {
            payload.push(TAG_EPOCH_BUMP);
            put_uvarint(payload, *epoch);
        }
    }
}

/// Decodes one record payload; `None` for bytes no encoder produces.
pub fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_SERIES_CREATE => {
            let id = r.uvarint()?;
            let n = r.uvarint()? as usize;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = r.string()?;
                let v = r.string()?;
                pairs.push((k, v));
            }
            WalRecord::SeriesCreate {
                id,
                labels: LabelSet::from_pairs(pairs),
            }
        }
        TAG_SAMPLES => {
            let n = r.uvarint()? as usize;
            let mut samples = Vec::with_capacity(n.min(1 << 20));
            let (mut prev_id, mut prev_t) = (0i64, 0i64);
            for _ in 0..n {
                let id = prev_id.checked_add(r.ivarint()?)?;
                let t = prev_t.checked_add(r.ivarint()?)?;
                let v = r.f64()?;
                if id < 0 {
                    return None;
                }
                samples.push((id as SeriesId, t, v));
                prev_id = id;
                prev_t = t;
            }
            WalRecord::Samples(samples)
        }
        TAG_TOMBSTONE => {
            let n = r.uvarint()? as usize;
            let mut ids = Vec::with_capacity(n.min(1 << 20));
            let mut prev = 0i64;
            for _ in 0..n {
                let id = prev.checked_add(r.ivarint()?)?;
                if id < 0 {
                    return None;
                }
                ids.push(id as SeriesId);
                prev = id;
            }
            WalRecord::Tombstone(ids)
        }
        TAG_RETENTION => WalRecord::Retention {
            cutoff_ms: r.ivarint()?,
        },
        TAG_EPOCH_BUMP => WalRecord::EpochBump { epoch: r.uvarint()? },
        _ => return None,
    };
    r.done().then_some(rec)
}

/// Decodes consecutive record frames from `buf`, stopping at the first
/// incomplete or corrupt one (the torn tail a crash leaves). Returns the
/// decoded records and how many bytes of `buf` they cleanly consumed — the
/// caller truncates (recovery) or retries from there (a follower racing the
/// leader's writer).
pub fn decode_frames(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    ceems_relstore::wal::decode_frames(buf, decode_record)
}

/// Encodes `recs` and writes them as one group commit.
pub fn log(wal: &mut Wal, recs: &[WalRecord]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(256);
    for r in recs {
        encode_record(&mut buf, r);
    }
    wal.append(&buf, recs.len() as u64)
}

// ---------------------------------------------------------------------------
// Positions
// ---------------------------------------------------------------------------

/// A durable position in the log: segment sequence number, byte offset
/// within that segment, and the monotone count of records written so far.
/// `records` is what the load balancer compares across replicas — it is
/// comparable even when a follower's segment layout differs from the
/// leader's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct WalPosition {
    /// Segment sequence number.
    pub seq: u64,
    /// Byte offset within the segment.
    pub offset: u64,
    /// Total records logged since the log was created.
    pub records: u64,
}

impl WalPosition {
    /// The writer's current position.
    pub fn of(wal: &Wal) -> WalPosition {
        WalPosition {
            seq: wal.seq(),
            offset: wal.offset(),
            records: wal.records(),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// File name of the checkpoint covering segments `< seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:012}.ckpt")
}

/// Checkpoint files in `dir`, sorted by covered sequence number.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "checkpoint-", ".ckpt")
}

const CKPT_MAGIC: &[u8; 5] = b"CKPT1";

/// One entry of the leadership-epoch history (S24): `epoch` began once
/// `start_records` records had been logged. The history is what a
/// rejoining old leader compares its WAL tail against — everything it
/// logged at or past the successor epoch's start is a divergent (never
/// acknowledged) suffix and must be truncated before re-entering as a
/// follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSpan {
    /// The epoch number.
    pub epoch: u64,
    /// Monotone record count at which this epoch began.
    pub start_records: u64,
}

/// A full summary of the live database at a segment rotation boundary.
/// Recovery = load newest checkpoint + replay segments `>= covers_seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Segments with `seq < covers_seq` are fully contained in this
    /// checkpoint and can be garbage-collected.
    pub covers_seq: u64,
    /// Index generation at snapshot time, restored exactly so posting-cache
    /// invalidation survives a restart.
    pub generation: u64,
    /// Next series id the index would assign (ids of tombstoned series must
    /// not be reused differently after recovery).
    pub next_id: SeriesId,
    /// Lifetime appended-samples counter.
    pub appended: u64,
    /// Lifetime out-of-order-dropped counter.
    pub out_of_order: u64,
    /// Total WAL records logged up to `covers_seq` (seeds the position's
    /// record count on recovery).
    pub records: u64,
    /// Leadership epoch at snapshot time (S24).
    pub epoch: u64,
    /// Epoch history up to the snapshot; survives segment GC so rejoin
    /// divergence checks work long after the bump records are collected.
    pub epoch_history: Vec<EpochSpan>,
    /// Every live series: id, labels, all samples in time order.
    pub series: Vec<(SeriesId, LabelSet, Vec<Sample>)>,
}

/// Serializes a checkpoint: magic, varint-packed header + series, and a
/// trailing CRC32 over everything before it.
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(CKPT_MAGIC);
    put_uvarint(&mut out, ckpt.covers_seq);
    put_uvarint(&mut out, ckpt.generation);
    put_uvarint(&mut out, ckpt.next_id);
    put_uvarint(&mut out, ckpt.appended);
    put_uvarint(&mut out, ckpt.out_of_order);
    put_uvarint(&mut out, ckpt.records);
    put_uvarint(&mut out, ckpt.epoch);
    put_uvarint(&mut out, ckpt.epoch_history.len() as u64);
    for span in &ckpt.epoch_history {
        put_uvarint(&mut out, span.epoch);
        put_uvarint(&mut out, span.start_records);
    }
    put_uvarint(&mut out, ckpt.series.len() as u64);
    for (id, labels, samples) in &ckpt.series {
        put_uvarint(&mut out, *id);
        put_uvarint(&mut out, labels.len() as u64);
        for (k, v) in labels.iter() {
            put_bytes(&mut out, k.as_bytes());
            put_bytes(&mut out, v.as_bytes());
        }
        put_uvarint(&mut out, samples.len() as u64);
        let mut prev_t = 0i64;
        for s in samples {
            put_ivarint(&mut out, s.t_ms - prev_t);
            out.extend_from_slice(&s.v.to_le_bytes());
            prev_t = s.t_ms;
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses checkpoint bytes, validating magic and CRC. `None` means the file
/// is corrupt or truncated (the loader falls back to an older checkpoint).
pub fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    if bytes.len() < CKPT_MAGIC.len() + 4 || !bytes.starts_with(CKPT_MAGIC) {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let mut r = Reader::new(&body[CKPT_MAGIC.len()..]);
    let covers_seq = r.uvarint()?;
    let generation = r.uvarint()?;
    let next_id = r.uvarint()?;
    let appended = r.uvarint()?;
    let out_of_order = r.uvarint()?;
    let records = r.uvarint()?;
    let epoch = r.uvarint()?;
    let n_spans = r.uvarint()? as usize;
    let mut epoch_history = Vec::with_capacity(n_spans.min(1 << 16));
    for _ in 0..n_spans {
        epoch_history.push(EpochSpan {
            epoch: r.uvarint()?,
            start_records: r.uvarint()?,
        });
    }
    let n_series = r.uvarint()? as usize;
    let mut series = Vec::with_capacity(n_series.min(1 << 20));
    for _ in 0..n_series {
        let id = r.uvarint()?;
        let n_labels = r.uvarint()? as usize;
        let mut pairs = Vec::with_capacity(n_labels.min(64));
        for _ in 0..n_labels {
            let k = r.string()?;
            let v = r.string()?;
            pairs.push((k, v));
        }
        let n_samples = r.uvarint()? as usize;
        let mut samples = Vec::with_capacity(n_samples.min(1 << 20));
        let mut prev_t = 0i64;
        for _ in 0..n_samples {
            let t = prev_t.checked_add(r.ivarint()?)?;
            let v = r.f64()?;
            samples.push(Sample::new(t, v));
            prev_t = t;
        }
        series.push((id, LabelSet::from_pairs(pairs), samples));
    }
    r.done().then_some(Checkpoint {
        covers_seq,
        generation,
        next_id,
        appended,
        out_of_order,
        records,
        epoch,
        epoch_history,
        series,
    })
}

/// Writes a checkpoint durably: temp file, fsync, atomic rename, directory
/// sync. A crash at any point leaves either the old state or the new one.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    let path = dir.join(checkpoint_file_name(ckpt.covers_seq));
    write_durable(&path, &encode_checkpoint(ckpt))?;
    Ok(path)
}

/// Loads the newest checkpoint that validates, skipping corrupt or
/// truncated ones (a crash mid-checkpoint leaves a `.tmp` that is never
/// considered, but defense in depth costs nothing).
pub fn load_latest_checkpoint(dir: &Path) -> io::Result<Option<Checkpoint>> {
    for (_, path) in list_checkpoints(dir)?.into_iter().rev() {
        if let Some(ckpt) = decode_checkpoint(&fs::read(&path)?) {
            return Ok(Some(ckpt));
        }
    }
    Ok(None)
}

/// Outcome of [`truncate_to_records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateOutcome {
    /// The log held no records past the target — nothing was cut.
    AlreadyShort,
    /// The divergent suffix was cut: this many records were dropped.
    Truncated {
        /// Records removed from the tail.
        dropped_records: u64,
    },
    /// The newest checkpoint already covers records past the target, so a
    /// surgical cut is impossible — the caller must clear and re-bootstrap
    /// from the leader instead.
    NeedsResync,
}

/// Truncates the WAL in `dir` so it holds exactly `target` records (S24
/// rejoin): an old leader cutting the unacknowledged suffix it wrote past
/// the successor epoch's start. Walks frames without decoding payloads,
/// truncates the segment holding record `target`, and deletes every later
/// segment. Must only be called with no live writer on the directory.
pub fn truncate_to_records(dir: &Path, target: u64) -> io::Result<TruncateOutcome> {
    let base = load_latest_checkpoint(dir)?;
    let (mut count, start_seq) = base.map_or((0, 0), |c| (c.records, c.covers_seq));
    if count > target {
        return Ok(TruncateOutcome::NeedsResync);
    }
    let mut cut = false;
    let mut dropped = 0u64;
    for (seq, path) in list_segments(dir)? {
        if seq < start_seq {
            continue;
        }
        let data = fs::read(&path)?;
        if cut {
            // Count the records in the doomed segment before removing it.
            dropped += frames(&data).count() as u64;
            fs::remove_file(&path)?;
            continue;
        }
        let mut it = frames(&data);
        while count < target && it.next().is_some() {
            count += 1;
        }
        let pos = it.consumed();
        if count == target && pos < data.len() {
            dropped += it.count() as u64;
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(pos as u64)?;
            f.sync_data()?;
            cut = true;
        }
    }
    sync_dir(dir);
    if dropped == 0 {
        return Ok(TruncateOutcome::AlreadyShort);
    }
    Ok(TruncateOutcome::Truncated {
        dropped_records: dropped,
    })
}

/// Garbage-collects everything a fresh checkpoint covers: segments with
/// `seq < covers_seq`, older checkpoints, and stray `.tmp` files. Returns
/// how many files were removed.
pub fn gc_covered(dir: &Path, covers_seq: u64) -> io::Result<usize> {
    let mut removed = ceems_relstore::wal::remove_segments_before(dir, covers_seq)?;
    for (seq, path) in list_checkpoints(dir)? {
        if seq < covers_seq {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    sync_dir(dir);
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::SeriesCreate {
                id: 0,
                labels: labels! {"__name__" => "power", "instance" => "n1"},
            },
            WalRecord::Samples(vec![(0, 15_000, 215.5), (0, 30_000, 220.0)]),
            WalRecord::Tombstone(vec![0]),
            WalRecord::Retention { cutoff_ms: -5_000 },
            WalRecord::EpochBump { epoch: 3 },
        ]
    }

    #[test]
    fn record_roundtrip() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(&mut buf, r);
        }
        let (got, consumed) = decode_frames(&buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(got, recs);
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(&mut buf, r);
        }
        let mut whole = Vec::new();
        encode_record(&mut whole, &recs[0]);
        let keep = whole.len();
        // Truncate into the second record: only the first decodes.
        let (got, consumed) = decode_frames(&buf[..keep + 5]);
        assert_eq!(got.len(), 1);
        assert_eq!(consumed, keep);
        // Corrupt a payload byte of the second record: same stop point.
        let mut bad = buf.clone();
        bad[keep + 9] ^= 0xFF;
        let (got, consumed) = decode_frames(&bad);
        assert_eq!(got.len(), 1);
        assert_eq!(consumed, keep);
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption() {
        let ckpt = Checkpoint {
            covers_seq: 7,
            generation: 42,
            next_id: 3,
            appended: 100,
            out_of_order: 2,
            records: 55,
            epoch: 4,
            epoch_history: vec![
                EpochSpan { epoch: 1, start_records: 0 },
                EpochSpan { epoch: 4, start_records: 40 },
            ],
            series: vec![
                (
                    0,
                    labels! {"__name__" => "power"},
                    vec![Sample::new(0, 1.0), Sample::new(15_000, 2.5)],
                ),
                (2, labels! {"__name__" => "up"}, vec![]),
            ],
        };
        let bytes = encode_checkpoint(&ckpt);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ckpt);
        // Any flipped byte must fail the CRC.
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_checkpoint(&bad).is_none(), "flip at {i} accepted");
        }
        assert!(decode_checkpoint(&bytes[..bytes.len() - 3]).is_none());
    }

    #[test]
    fn gc_removes_covered_files() {
        let dir = std::env::temp_dir().join(format!("ceems-wal-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for seq in 0..4u64 {
            fs::write(dir.join(segment_file_name(seq)), b"x").unwrap();
        }
        fs::write(dir.join(checkpoint_file_name(1)), b"old").unwrap();
        fs::write(dir.join("checkpoint-000000000003.ckpt.tmp"), b"torn").unwrap();
        gc_covered(&dir, 3).unwrap();
        let segs: Vec<u64> = list_segments(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(segs, vec![3]);
        assert!(list_checkpoints(&dir).unwrap().is_empty());
        assert!(!dir.join("checkpoint-000000000003.ckpt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
