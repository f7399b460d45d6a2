//! Segmented write-ahead log of appended records.
//!
//! # Frame format
//!
//! A segment file is a sequence of integrity frames, each using the same
//! V2 discipline as `om-cube`'s persistence layer
//! (`[magic: 4][version: 1][payload_len: u64 le][payload][crc32: u32 le]`,
//! IEEE CRC32 over the payload) with its own magic `OMWL`. The payload of
//! one frame is one appended batch:
//!
//! ```text
//! [n_rows: u32 le][n_cols: u32 le][value ids: u32 le × n_rows·n_cols]
//! ```
//!
//! where each row is every schema attribute's `ValueId` (class included)
//! in schema order — the post-discretization categorical encoding, so
//! replay needs no re-binning and reproduces counts exactly.
//!
//! # Segment lifecycle
//!
//! The directory holds `seg-NNNNNNNN.wal` files. Appends go to the
//! highest-numbered (*active*) segment; `seal` rotates to a fresh one.
//! Sealed segments are immutable, and each is folded into the store
//! once. Segments are never deleted: recovery folds every sealed segment
//! into the freshly-rebuilt base store, and reloads the active segment's
//! rows into the staging buffer. Because appends are strictly sequential
//! within one file, a crash can only damage the final frame of a
//! segment; replay stops at the first bad frame and reports a torn tail
//! rather than failing. Before the active segment is reopened for
//! append, any torn tail is truncated away — otherwise rows appended
//! after recovery would sit behind the corrupt bytes and be silently
//! dropped by the *next* replay despite having been acked as durable.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use om_cube::persist::crc32;
use om_data::ValueId;

use crate::error::IngestError;

const MAGIC: &[u8; 4] = b"OMWL";
const VERSION: u8 = 1;
/// Frame overhead: magic + version + length + trailing CRC.
const HEADER: usize = 4 + 1 + 8;

/// Append-side handle to a WAL directory.
pub struct Wal {
    dir: PathBuf,
    active_index: u64,
    file: File,
    active_rows: usize,
    bytes: u64,
    sync_writes: bool,
}

/// Everything recovered from an existing WAL directory on open.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Row batches of each sealed segment, oldest first — one fold into
    /// the store per entry.
    pub sealed: Vec<Vec<Vec<ValueId>>>,
    /// Rows of the still-active segment (the staging buffer's content at
    /// crash time that was never sealed).
    pub active: Vec<Vec<ValueId>>,
    /// True if any segment ended in a torn or corrupt frame that was
    /// dropped during replay.
    pub torn_tail: bool,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.wal"))
}

/// Encode one batch as a framed byte vector.
fn encode_frame(rows: &[Vec<ValueId>]) -> Vec<u8> {
    let n_cols = rows.first().map_or(0, Vec::len);
    let mut payload = Vec::with_capacity(8 + rows.len() * n_cols * 4);
    payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(n_cols as u32).to_le_bytes());
    for row in rows {
        for &id in row {
            payload.extend_from_slice(&id.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(HEADER + payload.len() + 4);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Little-endian reads over an untrusted replay buffer. Out-of-range
/// offsets return `None` — a torn or corrupt tail must never panic the
/// recovery path, it just truncates the replay.
fn read_u32_at(buf: &[u8], at: usize) -> Option<u32> {
    let bytes = buf.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

fn read_u64_at(buf: &[u8], at: usize) -> Option<u64> {
    let bytes = buf.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// Decode every intact frame of one segment. Returns the recovered rows
/// and the byte length of the intact prefix — equal to `buf.len()` iff
/// the segment ended cleanly (no torn/corrupt tail).
fn decode_segment(buf: &[u8]) -> (Vec<Vec<ValueId>>, usize) {
    let mut rows = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        match decode_frame(buf, at, &mut rows) {
            Some(next) => at = next,
            None => return (rows, at), // torn/corrupt tail: stop replay here
        }
    }
    (rows, at)
}

/// Decode the frame starting at byte `at`, appending its rows on
/// success and returning the offset just past it. `None` means the
/// bytes from `at` on are torn or corrupt; nothing is appended. Every
/// read is bounds-checked — replay input is whatever survived a crash.
fn decode_frame(buf: &[u8], at: usize, rows: &mut Vec<Vec<ValueId>>) -> Option<usize> {
    let rest = buf.get(at..)?;
    if rest.get(..4)? != MAGIC || *rest.get(4)? != VERSION {
        return None;
    }
    let len = usize::try_from(read_u64_at(rest, 5)?).ok()?;
    let payload = rest.get(HEADER..HEADER.checked_add(len)?)?;
    let stored_crc = read_u32_at(rest, HEADER + len)?;
    if crc32(payload) != stored_crc || len < 8 {
        return None;
    }
    let n_rows = read_u32_at(payload, 0)? as usize;
    let n_cols = read_u32_at(payload, 4)? as usize;
    if len != 8usize.checked_add(n_rows.checked_mul(n_cols)?.checked_mul(4)?)? {
        return None;
    }
    let mut batch = Vec::new();
    let mut p = 8;
    for _ in 0..n_rows {
        let mut row = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            row.push(read_u32_at(payload, p)?);
            p += 4;
        }
        batch.push(row);
    }
    rows.append(&mut batch);
    Some(at + HEADER + len + 4)
}

impl Wal {
    /// Open (or create) a WAL directory, replaying whatever it holds.
    /// The highest-numbered segment becomes the active one and is
    /// reopened for append; all earlier segments are reported sealed.
    ///
    /// # Errors
    /// I/O failures only — torn tails are recovered, not errors.
    pub fn open(dir: &Path, sync_writes: bool) -> Result<(Self, Recovery), IngestError> {
        std::fs::create_dir_all(dir)?;
        let mut indices: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".wal"))
            {
                if let Ok(i) = num.parse::<u64>() {
                    indices.push(i);
                }
            }
        }
        indices.sort_unstable();

        let mut recovery = Recovery::default();
        let mut bytes = 0u64;
        let mut active_valid_len = 0u64;
        for (pos, &i) in indices.iter().enumerate() {
            let mut raw = Vec::new();
            File::open(segment_path(dir, i))?.read_to_end(&mut raw)?;
            let (rows, valid_len) = decode_segment(&raw);
            recovery.torn_tail |= valid_len != raw.len();
            if pos + 1 == indices.len() {
                // The active segment is truncated to its intact prefix
                // below, so count only those bytes.
                bytes += valid_len as u64;
                active_valid_len = valid_len as u64;
                recovery.active = rows;
            } else {
                bytes += raw.len() as u64;
                recovery.sealed.push(rows);
            }
        }

        let active_index = indices.last().copied().unwrap_or(0);
        let active_rows = recovery.active.len();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, active_index))?;
        // A torn/corrupt tail must not survive into the append path:
        // replay stops at the first bad frame, so frames appended behind
        // the bad bytes would be acked as durable yet dropped by the next
        // replay. Cut the segment back to its last intact frame first.
        if file.metadata()?.len() > active_valid_len {
            file.set_len(active_valid_len)?;
            file.sync_data()?;
        }
        Ok((
            Self {
                dir: dir.to_path_buf(),
                active_index,
                file,
                active_rows,
                bytes,
                sync_writes,
            },
            recovery,
        ))
    }

    /// Append one batch of rows to the active segment, durably if the
    /// WAL was opened with `sync_writes`.
    ///
    /// # Errors
    /// I/O failures; the batch may then be partially on disk, which a
    /// later replay drops as a torn tail.
    pub fn append(&mut self, rows: &[Vec<ValueId>]) -> Result<(), IngestError> {
        if rows.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(rows);
        self.file.write_all(&frame)?;
        if self.sync_writes {
            self.file.sync_data()?;
        }
        self.active_rows += rows.len();
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Seal the active segment and rotate to a fresh one. The sealed
    /// segment's rows are exactly what the caller hands the compactor.
    ///
    /// # Errors
    /// I/O failures creating the next segment; in durable mode
    /// (`sync_writes`), also a failed final sync — a segment must not be
    /// sealed (and its rows served) while its frames may not be on disk.
    pub fn seal(&mut self) -> Result<(), IngestError> {
        if self.sync_writes {
            self.file.sync_data()?;
        } else {
            let _ = self.file.sync_data();
        }
        self.active_index += 1;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, self.active_index))?;
        self.active_rows = 0;
        Ok(())
    }

    /// Total bytes across all segment files written or recovered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Rows appended to the active (unsealed) segment.
    pub fn active_rows(&self) -> usize {
        self.active_rows
    }

    /// Index of the active segment (== number of seals so far).
    pub fn active_index(&self) -> u64 {
        self.active_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "om-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rows(range: std::ops::Range<u32>) -> Vec<Vec<ValueId>> {
        range.map(|i| vec![i, i + 1, i % 3]).collect()
    }

    #[test]
    fn append_seal_and_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut wal, rec) = Wal::open(&dir, true).unwrap();
            assert!(rec.sealed.is_empty() && rec.active.is_empty());
            wal.append(&rows(0..4)).unwrap();
            wal.append(&rows(4..6)).unwrap();
            wal.seal().unwrap();
            wal.append(&rows(6..9)).unwrap();
            assert_eq!(wal.active_rows(), 3);
            assert_eq!(wal.active_index(), 1);
        }
        let (wal, rec) = Wal::open(&dir, true).unwrap();
        assert_eq!(rec.sealed.len(), 1);
        assert_eq!(rec.sealed[0], rows(0..6));
        assert_eq!(rec.active, rows(6..9));
        assert!(!rec.torn_tail);
        assert_eq!(wal.active_rows(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, true).unwrap();
            wal.append(&rows(0..5)).unwrap();
            wal.append(&rows(5..8)).unwrap();
        }
        // Chop bytes off the final frame, simulating a crash mid-write.
        let path = segment_path(&dir, 0);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 7]).unwrap();
        let (_, rec) = Wal::open(&dir, true).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.active, rows(0..5), "intact first frame survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay_at_bad_frame() {
        let dir = tmp_dir("crc");
        {
            let (mut wal, _) = Wal::open(&dir, true).unwrap();
            wal.append(&rows(0..3)).unwrap();
            wal.append(&rows(3..6)).unwrap();
        }
        let path = segment_path(&dir, 0);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one payload bit in the second frame.
        let second = encode_frame(&rows(0..3)).len();
        raw[second + HEADER + 2] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let (_, rec) = Wal::open(&dir, true).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.active, rows(0..3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_after_torn_recovery_survive_the_next_replay() {
        let dir = tmp_dir("torn-reappend");
        {
            let (mut wal, _) = Wal::open(&dir, true).unwrap();
            wal.append(&rows(0..5)).unwrap();
            wal.append(&rows(5..8)).unwrap();
        }
        let path = segment_path(&dir, 0);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 7]).unwrap();
        let intact = encode_frame(&rows(0..5)).len() as u64;
        {
            let (mut wal, rec) = Wal::open(&dir, true).unwrap();
            assert!(rec.torn_tail);
            assert_eq!(wal.bytes(), intact, "torn bytes not counted");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                intact,
                "torn tail truncated before reopening for append"
            );
            wal.append(&rows(8..12)).unwrap();
        }
        // The second replay must see both the pre-crash intact frame and
        // the rows appended after recovery — nothing hides behind a
        // corrupt tail.
        let (_, rec) = Wal::open(&dir, true).unwrap();
        assert!(!rec.torn_tail);
        let mut expected = rows(0..5);
        expected.extend(rows(8..12));
        assert_eq!(rec.active, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_append_writes_nothing() {
        let dir = tmp_dir("empty");
        let (mut wal, _) = Wal::open(&dir, false).unwrap();
        let before = wal.bytes();
        wal.append(&[]).unwrap();
        assert_eq!(wal.bytes(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
