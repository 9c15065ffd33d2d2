//! Framed segment log: the one durable-log format under both the relational
//! store and the TSDB WAL (S6/S16 in `DESIGN.md`).
//!
//! * **Frames** — `[payload len: u32 LE][crc32(payload): u32 LE][payload]`.
//!   The payload is opaque here: the relational store writes JSON records,
//!   the TSDB writes varint-packed ones. A torn or corrupt frame is detected
//!   by its length or CRC and never misread.
//! * **Segments** — append-only `wal-<seq>.seg` files rotated by size. One
//!   [`Wal::append`] is one group commit: one `write`, at most one fsync.
//! * **Recovery** — [`recover`] replays segments in order, stops at the first
//!   bad frame, deletes every later segment, and reopens the writer at the
//!   end of the valid prefix ([`Wal::open_at`] cuts the torn bytes), so new
//!   appends always start on a clean frame boundary.
//! * **Durability** — [`FsyncMode`], injectable [`DiskFaults`], and
//!   [`write_durable`] (tmp → fsync → rename → directory sync) for files
//!   published next to the log.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Disk fault injection
// ---------------------------------------------------------------------------

/// Injectable disk faults behind the WAL's file operations, used by the
/// chaos harness to model short writes, `fsync` EIO and torn tails without
/// touching a real flaky disk. The default implementation of every hook is
/// "no fault", and a `Wal` without an injector pays one `Option` check per
/// group commit.
pub trait DiskFaults: Send + Sync {
    /// Called before a group-commit write of `len` bytes. Return `Some(n)`
    /// to write only the first `n` bytes and fail with `EIO`.
    fn before_write(&self, len: usize) -> Option<usize> {
        let _ = len;
        None
    }

    /// Return true to fail the next `fsync` with `EIO`.
    fn fail_fsync(&self) -> bool {
        false
    }

    /// After an injected short write: return true (the default) to repair
    /// the tail (truncate back to the last commit boundary, as the writer
    /// does on a real write error), or false to leave the torn bytes on
    /// disk so recovery has to truncate them.
    fn repair_after_short_write(&self) -> bool {
        true
    }
}

/// A scripted [`DiskFaults`] implementation: pop-from-front schedules of
/// short writes and fsync failures, deterministic by construction.
#[derive(Debug)]
pub struct ScriptedDiskFaults {
    short_writes: parking_lot::Mutex<Vec<ScriptedShortWrite>>,
    fsync_failures: std::sync::atomic::AtomicU64,
    repair: std::sync::atomic::AtomicBool,
}

impl Default for ScriptedDiskFaults {
    fn default() -> Self {
        ScriptedDiskFaults::new()
    }
}

/// One scheduled short write.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedShortWrite {
    /// Group commits to let through before this fault fires.
    pub after_writes: u64,
    /// Fraction of the buffer to write before failing, in `[0, 1)`.
    pub keep_fraction: f64,
}

impl ScriptedDiskFaults {
    /// No faults scheduled; add some with the builder methods.
    pub fn new() -> ScriptedDiskFaults {
        ScriptedDiskFaults {
            short_writes: parking_lot::Mutex::new(Vec::new()),
            fsync_failures: std::sync::atomic::AtomicU64::new(0),
            repair: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Schedules a short write after `after_writes` successful commits.
    pub fn with_short_write(self, after_writes: u64, keep_fraction: f64) -> ScriptedDiskFaults {
        self.short_writes.lock().push(ScriptedShortWrite {
            after_writes,
            keep_fraction: keep_fraction.clamp(0.0, 0.999),
        });
        self
    }

    /// Makes the next `n` fsyncs fail with `EIO`.
    pub fn with_fsync_failures(self, n: u64) -> ScriptedDiskFaults {
        self.fsync_failures
            .store(n, std::sync::atomic::Ordering::Relaxed);
        self
    }

    /// Leaves torn bytes on disk after short writes (models a crash before
    /// the writer could repair the tail).
    pub fn leaving_torn_tails(self) -> ScriptedDiskFaults {
        self.repair
            .store(false, std::sync::atomic::Ordering::Relaxed);
        self
    }
}

impl DiskFaults for ScriptedDiskFaults {
    fn before_write(&self, len: usize) -> Option<usize> {
        let mut sw = self.short_writes.lock();
        if let Some(first) = sw.first_mut() {
            if first.after_writes == 0 {
                let keep = (len as f64 * first.keep_fraction) as usize;
                sw.remove(0);
                return Some(keep.min(len.saturating_sub(1)));
            }
            first.after_writes -= 1;
        }
        None
    }

    fn fail_fsync(&self) -> bool {
        let n = self
            .fsync_failures
            .load(std::sync::atomic::Ordering::Relaxed);
        if n > 0 {
            self.fsync_failures
                .store(n - 1, std::sync::atomic::Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn repair_after_short_write(&self) -> bool {
        self.repair.load(std::sync::atomic::Ordering::Relaxed)
    }
}

fn injected_eio(what: &str) -> io::Error {
    io::Error::other(format!("injected disk fault: {what}"))
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE 802.3) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Largest frame payload [`Frames`] accepts; anything bigger is treated as
/// corruption (a real record is a few MB at most).
const MAX_FRAME_LEN: u32 = 1 << 30;

const FRAME_HEADER: usize = 8;

/// Appends one frame to `out`; `payload` writes the payload bytes in place
/// (no intermediate buffer), then the header is filled in.
pub fn encode_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    payload(out);
    let body = start + FRAME_HEADER;
    let len = (out.len() - body) as u32;
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// Iterator over the payloads of consecutive frames in a buffer. It ends at
/// the first incomplete or corrupt frame (the torn tail a crash leaves);
/// [`Frames::consumed`] is then the length of the clean prefix.
pub struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Frames of `buf`, from its start.
pub fn frames(buf: &[u8]) -> Frames<'_> {
    Frames { buf, pos: 0 }
}

impl Frames<'_> {
    /// Bytes of the buffer covered by the frames yielded so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let header = self.buf.get(self.pos..self.pos + FRAME_HEADER)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
        if len > MAX_FRAME_LEN {
            return None;
        }
        let start = self.pos + FRAME_HEADER;
        let payload = self.buf.get(start..start + len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        self.pos = start + len as usize;
        Some(payload)
    }
}

/// Decodes consecutive frames with `decode`, stopping at the first torn or
/// corrupt frame or the first payload `decode` rejects. Returns the decoded
/// records and how many bytes of `buf` they cleanly consumed — the caller
/// truncates (recovery) or retries from there (a follower racing the
/// leader's writer).
pub fn decode_frames<T>(buf: &[u8], mut decode: impl FnMut(&[u8]) -> Option<T>) -> (Vec<T>, usize) {
    let mut out = Vec::new();
    let mut it = frames(buf);
    let mut consumed = 0;
    while let Some(rec) = it.next().and_then(&mut decode) {
        out.push(rec);
        consumed = it.consumed();
    }
    (out, consumed)
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// When the WAL writer calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Sync after every group commit. Maximum durability, pays a sync per
    /// scrape batch.
    Always,
    /// Sync at segment rotation and checkpoint boundaries only; a crash can
    /// lose the OS-buffered tail of the current segment but never corrupts
    /// what recovery reads (frames are CRC-checked).
    #[default]
    Batch,
    /// Never sync explicitly (tests / throwaway stores).
    Never,
}

impl FsyncMode {
    /// Parses the YAML `wal_fsync` value.
    pub fn parse(s: &str) -> Option<FsyncMode> {
        match s {
            "always" => Some(FsyncMode::Always),
            "batch" => Some(FsyncMode::Batch),
            "never" => Some(FsyncMode::Never),
            _ => None,
        }
    }
}

/// WAL tuning knobs (the YAML `tsdb:` keys; the relational store uses the
/// defaults).
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Fsync policy.
    pub fsync: FsyncMode,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            fsync: FsyncMode::Batch,
        }
    }
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// File name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:012}.seg")
}

/// Files in `dir` named `<prefix><number><suffix>`, sorted by number.
pub fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix(prefix)
            .and_then(|r| r.strip_suffix(suffix))
        {
            if let Ok(seq) = num.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Segment files in `dir`, sorted by sequence number.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "wal-", ".seg")
}

/// Deletes segments with `seq < keep_from` (they are covered by a
/// checkpoint or snapshot). Returns how many were removed.
pub fn remove_segments_before(dir: &Path, keep_from: u64) -> io::Result<usize> {
    let mut removed = 0;
    for (seq, path) in list_segments(dir)? {
        if seq < keep_from {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Best-effort directory sync so renames/creates survive a crash.
pub fn sync_dir(dir: &Path) {
    if let Ok(f) = File::open(dir) {
        let _ = f.sync_all();
    }
}

/// Publishes `bytes` at `path` durably: temp file, fsync, atomic rename,
/// directory sync. A crash at any point leaves either the old file or the
/// new one, never a torn mix.
pub fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The segmented log writer. Callers serialize access; one
/// [`Wal::append`] call is one group commit.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    seq: u64,
    file: File,
    offset: u64,
    records: u64,
    /// Fsync telemetry: calls and cumulative nanoseconds across append/
    /// rotate/sync.
    syncs: u64,
    sync_ns: u64,
    /// Injected disk faults (chaos testing); `None` in production.
    faults: Option<Arc<dyn DiskFaults>>,
}

impl Wal {
    /// Opens the writer positioned at `(seq, offset)` with `records` already
    /// logged (recovery passes the replay end; a fresh directory passes
    /// zeros). Bytes past `offset` in the segment — a torn tail — are
    /// truncated away so new appends start on a clean frame boundary.
    pub fn open_at(
        dir: &Path,
        opts: WalOptions,
        seq: u64,
        offset: u64,
        records: u64,
    ) -> io::Result<Wal> {
        let path = dir.join(segment_file_name(seq));
        // Keep existing bytes: the valid prefix up to `offset` is replayed
        // history; only the torn tail past it is cut below.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        let offset = offset.min(len);
        if len > offset {
            file.set_len(offset)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        sync_dir(dir);
        Ok(Wal {
            dir: dir.to_path_buf(),
            opts,
            seq,
            file,
            offset,
            records,
            syncs: 0,
            sync_ns: 0,
            faults: None,
        })
    }

    /// Installs a disk-fault injector (chaos testing).
    pub fn set_disk_faults(&mut self, faults: Arc<dyn DiskFaults>) {
        self.faults = Some(faults);
    }

    /// Active segment sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Byte offset of the end of the active segment.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Total records logged since the log was created.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Fsync telemetry since open: `(calls, cumulative_nanoseconds)`.
    pub fn sync_stats(&self) -> (u64, u64) {
        (self.syncs, self.sync_ns)
    }

    /// Syncs the active segment's data, accounting the call.
    fn timed_sync_data(&mut self) -> io::Result<()> {
        if let Some(f) = &self.faults {
            if f.fail_fsync() {
                self.syncs += 1;
                return Err(injected_eio("fsync EIO"));
            }
        }
        let start = std::time::Instant::now();
        let res = self.file.sync_data();
        self.syncs += 1;
        self.sync_ns += start.elapsed().as_nanos() as u64;
        res
    }

    /// Group commit: writes `buf` — `records` frames built with
    /// [`encode_frame`] — with one syscall (plus at most one fsync, per
    /// [`FsyncMode`]). Rotates first when the segment would exceed its
    /// size budget.
    pub fn append(&mut self, buf: &[u8], records: u64) -> io::Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        if self.offset > 0 && self.offset + buf.len() as u64 > self.opts.segment_bytes {
            self.rotate()?;
        }
        if let Some(faults) = self.faults.clone() {
            if let Some(keep) = faults.before_write(buf.len()) {
                // Short write: part of the commit lands on disk, then EIO.
                let keep = keep.min(buf.len());
                self.file.write_all(&buf[..keep])?;
                if faults.repair_after_short_write() {
                    // What a real writer does on a write error: truncate the
                    // torn bytes back to the last commit boundary so the next
                    // append starts on a clean frame.
                    self.file.set_len(self.offset)?;
                    self.file.seek(SeekFrom::End(0))?;
                }
                // Otherwise the torn tail stays for recovery to cut away.
                return Err(injected_eio("short write"));
            }
        }
        self.file.write_all(buf)?;
        self.offset += buf.len() as u64;
        self.records += records;
        if self.opts.fsync == FsyncMode::Always {
            self.timed_sync_data()?;
        }
        Ok(())
    }

    /// Seals the active segment (syncing it unless `fsync = never`) and
    /// starts the next one. Returns the new segment's sequence number.
    pub fn rotate(&mut self) -> io::Result<u64> {
        self.sync()?;
        self.seq += 1;
        self.offset = 0;
        self.file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.dir.join(segment_file_name(self.seq)))?;
        sync_dir(&self.dir);
        Ok(self.seq)
    }

    /// Forces the active segment to disk (unless `fsync = never`).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.opts.fsync != FsyncMode::Never {
            self.timed_sync_data()?;
        }
        Ok(())
    }
}

/// Replays the log in `dir` from segment `from_seq` on (`records` frames
/// precede it, e.g. in a checkpoint) and returns a writer positioned at the
/// end of the valid prefix. `apply` sees each payload in order and returns
/// false to reject it. Replay stops at the first torn, corrupt or rejected
/// frame: the bytes from there are cut and every later segment is deleted,
/// so nothing is ever applied across a gap and new appends never land
/// behind garbage.
pub fn recover(
    dir: &Path,
    opts: WalOptions,
    from_seq: u64,
    mut records: u64,
    mut apply: impl FnMut(&[u8]) -> bool,
) -> io::Result<Wal> {
    fs::create_dir_all(dir)?;
    let mut end = (from_seq, 0u64);
    let mut torn = false;
    for (seq, path) in list_segments(dir)? {
        if seq < from_seq {
            continue;
        }
        if torn {
            fs::remove_file(&path)?;
            continue;
        }
        let data = fs::read(&path)?;
        let (applied, consumed) = decode_frames(&data, |p| apply(p).then_some(()));
        records += applied.len() as u64;
        end = (seq, consumed as u64);
        torn = consumed < data.len();
    }
    Wal::open_at(dir, opts, end.0, end.1, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ceems-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, |p| p.extend_from_slice(payload));
        out
    }

    fn replay_all(dir: &Path) -> (Vec<Vec<u8>>, Wal) {
        let mut got = Vec::new();
        let wal = recover(dir, WalOptions::default(), 0, 0, |p| {
            got.push(p.to_vec());
            true
        })
        .unwrap();
        (got, wal)
    }

    #[test]
    fn crc32_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_layout_and_torn_prefixes() {
        let f = frame(b"hello");
        assert_eq!(&f[..4], &5u32.to_le_bytes());
        assert_eq!(&f[4..8], &crc32(b"hello").to_le_bytes());
        assert_eq!(&f[8..], b"hello");
        let mut buf = frame(b"a");
        buf.extend_from_slice(&f);
        let keep = buf.len() - f.len();
        // Every strict prefix of the second frame stops after the first.
        for cut in keep..buf.len() {
            let mut it = frames(&buf[..cut]);
            assert_eq!(it.by_ref().count(), 1);
            assert_eq!(it.consumed(), keep);
        }
        // So does a flipped payload byte.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        let (got, consumed) = decode_frames(&bad, |p| Some(p.to_vec()));
        assert_eq!((got, consumed), (vec![b"a".to_vec()], keep));
    }

    #[test]
    fn short_write_fault_repairs_and_recovers() {
        let dir = tmpdir("shortw");
        let mut wal = Wal::open_at(&dir, WalOptions::default(), 0, 0, 0).unwrap();
        wal.set_disk_faults(Arc::new(ScriptedDiskFaults::new().with_short_write(1, 0.5)));
        wal.append(&frame(b"one"), 1).unwrap();
        let before = (wal.seq(), wal.offset(), wal.records());
        // Second commit hits the scripted short write.
        let err = wal.append(&frame(b"two"), 1).unwrap_err();
        assert!(err.to_string().contains("injected disk fault"));
        assert_eq!(
            (wal.seq(), wal.offset(), wal.records()),
            before,
            "failed commit must not advance"
        );
        // The tail was repaired: the next commit lands on a clean boundary.
        wal.append(&frame(b"three"), 1).unwrap();
        let data = fs::read(dir.join(segment_file_name(0))).unwrap();
        let (recs, consumed) = decode_frames(&data, |p| Some(p.to_vec()));
        assert_eq!(consumed, data.len(), "no torn bytes after repair");
        assert_eq!(recs, vec![b"one".to_vec(), b"three".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_cuts_torn_tail_and_later_appends_survive() {
        let dir = tmpdir("torn");
        let mut wal = Wal::open_at(&dir, WalOptions::default(), 0, 0, 0).unwrap();
        wal.set_disk_faults(Arc::new(
            ScriptedDiskFaults::new()
                .with_short_write(1, 0.5)
                .leaving_torn_tails(),
        ));
        wal.append(&frame(b"one"), 1).unwrap();
        let offset = wal.offset();
        wal.append(&frame(b"two"), 1).unwrap_err();
        drop(wal);
        let path = dir.join(segment_file_name(0));
        assert!(
            fs::metadata(&path).unwrap().len() > offset,
            "torn bytes must be on disk"
        );

        let (got, mut wal) = replay_all(&dir);
        assert_eq!(got, vec![b"one".to_vec()]);
        assert_eq!((wal.seq(), wal.offset(), wal.records()), (0, offset, 1));
        assert_eq!(fs::metadata(&path).unwrap().len(), offset);
        wal.append(&frame(b"three"), 1).unwrap();
        drop(wal);
        let (got, _) = replay_all(&dir);
        assert_eq!(got, vec![b"one".to_vec(), b"three".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_deletes_segments_after_a_torn_one() {
        let dir = tmpdir("gap");
        let opts = WalOptions {
            segment_bytes: 16,
            fsync: FsyncMode::Never,
        };
        let mut wal = Wal::open_at(&dir, opts, 0, 0, 0).unwrap();
        for p in [b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"] {
            wal.append(&frame(p), 1).unwrap();
        }
        drop(wal);
        assert_eq!(list_segments(&dir).unwrap().len(), 3);
        // Tear the middle segment: the third must not be applied over the gap.
        let mid = dir.join(segment_file_name(1));
        let len = fs::metadata(&mid).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&mid)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        let (got, wal) = replay_all(&dir);
        assert_eq!(got, vec![b"aaaaaaaa".to_vec()]);
        assert_eq!((wal.seq(), wal.offset(), wal.records()), (1, 0, 1));
        let segs: Vec<u64> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(segs, vec![0, 1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_eio_fault_surfaces_and_clears() {
        let dir = tmpdir("eio");
        let opts = WalOptions {
            segment_bytes: 4 << 20,
            fsync: FsyncMode::Always,
        };
        let mut wal = Wal::open_at(&dir, opts, 0, 0, 0).unwrap();
        wal.set_disk_faults(Arc::new(ScriptedDiskFaults::new().with_fsync_failures(1)));
        // Write succeeds, fsync fails: the record is on disk but not durable,
        // and the error reaches the caller to count.
        let err = wal.append(&frame(b"one"), 1).unwrap_err();
        assert!(err.to_string().contains("fsync EIO"));
        // The schedule is exhausted; the next commit syncs cleanly.
        wal.append(&frame(b"two"), 1).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_by_size_and_replay_in_order() {
        let dir = tmpdir("rot");
        let opts = WalOptions {
            segment_bytes: 256,
            fsync: FsyncMode::Never,
        };
        let mut wal = Wal::open_at(&dir, opts, 0, 0, 0).unwrap();
        for i in 0..100u32 {
            wal.append(&frame(&i.to_le_bytes()), 1).unwrap();
        }
        assert!(wal.seq() > 0, "must have rotated");
        assert_eq!(wal.records(), 100);
        let last = wal.seq();
        drop(wal);
        assert_eq!(list_segments(&dir).unwrap().last().unwrap().0, last);
        let (got, wal) = replay_all(&dir);
        let want: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(got, want);
        assert_eq!(wal.seq(), last);
        assert_eq!(remove_segments_before(&dir, last).unwrap() as u64, last);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_durable_replaces_atomically() {
        let dir = tmpdir("durable");
        let path = dir.join("snapshot.json");
        write_durable(&path, b"old").unwrap();
        write_durable(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temp file left");
        let _ = fs::remove_dir_all(&dir);
    }
}
