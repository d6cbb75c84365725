//! Log backends: where the framed bytes actually live.
//!
//! The [`Wal`] trait is deliberately narrow — append to the current segment,
//! sync, rotate, read segments back, keep one snapshot blob — so that the
//! framing, CRC and replay logic in [`RiStore`](crate::RiStore) is written
//! once and exercised identically by both backends:
//!
//! * [`MemLog`] — byte-for-byte the same segment streams, held in memory.
//!   This is what deterministic tests (and the corruption corpus, which
//!   needs to flip bits in "storage") run against.
//! * [`FileLog`] — one file per segment (`wal-<index>.log`) plus
//!   `snapshot.bin` in a directory; snapshot writes go through a temp file
//!   and an atomic rename, appends become durable via `fsync` under the
//!   store's [`FsyncPolicy`](crate::FsyncPolicy).

use crate::StoreError;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic + version prefix of every log segment. A segment that does not
/// start with these bytes is not scanned at all.
pub const SEGMENT_HEADER: [u8; 5] = *b"OMWL\x01";

/// Name of the snapshot blob inside a [`FileLog`] directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

fn io_err(context: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {e}"))
}

/// A segmented, append-only byte store with one snapshot slot.
///
/// All framing lives above this trait: a backend never interprets the bytes
/// it is handed beyond the [`SEGMENT_HEADER`] it writes when it opens a new
/// segment.
pub trait Wal: Send + Sync {
    /// Appends raw bytes to the current segment.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backend cannot take the bytes.
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Forces appended bytes onto durable media (fsync for files, a no-op
    /// for memory).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the sync fails.
    fn sync(&self) -> Result<(), StoreError>;

    /// The index of the segment currently being appended to.
    fn current_segment(&self) -> u64;

    /// Bytes currently in the active segment (header included).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backend cannot report it.
    fn segment_len(&self) -> Result<u64, StoreError>;

    /// Closes the current segment and opens a fresh one, returning its
    /// index.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the new segment cannot be created.
    fn rotate(&self) -> Result<u64, StoreError>;

    /// Shrinks segment `index` to its first `len` bytes — how a reopen
    /// amputates a torn tail so later appends never sit behind garbage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the segment cannot be truncated.
    fn truncate_segment(&self, index: u64, len: u64) -> Result<(), StoreError>;

    /// All segment indices, ascending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backend cannot enumerate them.
    fn segments(&self) -> Result<Vec<u64>, StoreError>;

    /// Reads one segment back in full.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the segment cannot be read.
    fn read_segment(&self, index: u64) -> Result<Vec<u8>, StoreError>;

    /// Deletes every segment with an index below `index` (compaction after
    /// a snapshot).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when deletion fails.
    fn remove_segments_before(&self, index: u64) -> Result<(), StoreError>;

    /// Replaces the snapshot blob durably.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the snapshot cannot be persisted.
    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Reads the snapshot blob, `None` when none was ever written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the read fails.
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StoreError>;
}

/// A borrowed backend is a backend: a caller that must keep owning its log
/// (a replication follower) can still open a short-lived
/// [`RiStore`](crate::RiStore) over it and recover through the one
/// snapshot-plus-records path.
impl<W: Wal + ?Sized> Wal for &W {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).append(bytes)
    }

    fn sync(&self) -> Result<(), StoreError> {
        (**self).sync()
    }

    fn current_segment(&self) -> u64 {
        (**self).current_segment()
    }

    fn segment_len(&self) -> Result<u64, StoreError> {
        (**self).segment_len()
    }

    fn rotate(&self) -> Result<u64, StoreError> {
        (**self).rotate()
    }

    fn truncate_segment(&self, index: u64, len: u64) -> Result<(), StoreError> {
        (**self).truncate_segment(index, len)
    }

    fn segments(&self) -> Result<Vec<u64>, StoreError> {
        (**self).segments()
    }

    fn read_segment(&self, index: u64) -> Result<Vec<u8>, StoreError> {
        (**self).read_segment(index)
    }

    fn remove_segments_before(&self, index: u64) -> Result<(), StoreError> {
        (**self).remove_segments_before(index)
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).write_snapshot(bytes)
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StoreError> {
        (**self).read_snapshot()
    }
}

// ----- in-memory backend -----------------------------------------------------

#[derive(Debug, Default)]
struct MemInner {
    segments: BTreeMap<u64, Vec<u8>>,
    snapshot: Option<Vec<u8>>,
}

/// An in-memory [`Wal`]: identical segment streams to [`FileLog`], no disk.
///
/// Besides powering deterministic tests, `MemLog` exposes what a filesystem
/// would never let a test do safely: [`MemLog::mutate_segment`] and
/// [`MemLog::truncate_tail`] corrupt "storage" in place, which is how the
/// torn-write/bit-flip recovery corpus simulates power loss mid-write.
#[derive(Debug, Default)]
pub struct MemLog {
    inner: Mutex<MemInner>,
}

impl MemLog {
    /// Creates an empty in-memory log with one open segment.
    pub fn new() -> Self {
        let log = MemLog {
            inner: Mutex::new(MemInner::default()),
        };
        log.inner
            .lock()
            .expect("memlog lock")
            .segments
            .insert(1, SEGMENT_HEADER.to_vec());
        log
    }

    /// Raw bytes of every segment, ascending by index (test hook).
    pub fn raw_segments(&self) -> Vec<(u64, Vec<u8>)> {
        let inner = self.inner.lock().expect("memlog lock");
        inner
            .segments
            .iter()
            .map(|(i, b)| (*i, b.clone()))
            .collect()
    }

    /// Runs `f` over the raw bytes of segment `index` (test hook for
    /// simulating bit rot and torn writes).
    pub fn mutate_segment(&self, index: u64, f: impl FnOnce(&mut Vec<u8>)) {
        let mut inner = self.inner.lock().expect("memlog lock");
        if let Some(bytes) = inner.segments.get_mut(&index) {
            f(bytes);
        }
    }

    /// Drops the last `n` bytes of the newest segment — a torn final write.
    pub fn truncate_tail(&self, n: usize) {
        let mut inner = self.inner.lock().expect("memlog lock");
        if let Some(bytes) = inner.segments.values_mut().next_back() {
            let keep = bytes.len().saturating_sub(n);
            bytes.truncate(keep);
        }
    }

    /// Runs `f` over the raw snapshot blob, if one exists (test hook).
    pub fn mutate_snapshot(&self, f: impl FnOnce(&mut Vec<u8>)) {
        let mut inner = self.inner.lock().expect("memlog lock");
        if let Some(bytes) = inner.snapshot.as_mut() {
            f(bytes);
        }
    }
}

impl Wal for MemLog {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("memlog lock");
        inner
            .segments
            .values_mut()
            .next_back()
            .expect("memlog always has a segment")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn current_segment(&self) -> u64 {
        let inner = self.inner.lock().expect("memlog lock");
        *inner.segments.keys().next_back().expect("segment")
    }

    fn segment_len(&self) -> Result<u64, StoreError> {
        let inner = self.inner.lock().expect("memlog lock");
        Ok(inner.segments.values().next_back().expect("segment").len() as u64)
    }

    fn rotate(&self) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock().expect("memlog lock");
        let next = inner.segments.keys().next_back().expect("segment") + 1;
        inner.segments.insert(next, SEGMENT_HEADER.to_vec());
        Ok(next)
    }

    fn truncate_segment(&self, index: u64, len: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("memlog lock");
        match inner.segments.get_mut(&index) {
            Some(bytes) => {
                bytes.truncate(len as usize);
                Ok(())
            }
            None => Err(StoreError::Io(format!("no segment {index}"))),
        }
    }

    fn segments(&self) -> Result<Vec<u64>, StoreError> {
        let inner = self.inner.lock().expect("memlog lock");
        Ok(inner.segments.keys().copied().collect())
    }

    fn read_segment(&self, index: u64) -> Result<Vec<u8>, StoreError> {
        let inner = self.inner.lock().expect("memlog lock");
        inner
            .segments
            .get(&index)
            .cloned()
            .ok_or_else(|| StoreError::Io(format!("no segment {index}")))
    }

    fn remove_segments_before(&self, index: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("memlog lock");
        inner.segments.retain(|i, _| *i >= index);
        Ok(())
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.lock().expect("memlog lock").snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.inner.lock().expect("memlog lock").snapshot.clone())
    }
}

// ----- file backend ----------------------------------------------------------

#[derive(Debug)]
struct FileInner {
    current: u64,
    file: File,
}

/// A directory-backed [`Wal`]: `wal-<index>.log` segments plus
/// `snapshot.bin`, written with the usual crash-safety choreography
/// (append + fsync, snapshot via temp file + atomic rename).
#[derive(Debug)]
pub struct FileLog {
    dir: PathBuf,
    inner: Mutex<FileInner>,
}

impl FileLog {
    /// Opens (or creates) a log directory. Appending continues into the
    /// highest-numbered existing segment.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory or a segment cannot be opened.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create log dir", e))?;
        let mut indices = Self::scan_segments(&dir)?;
        let current = match indices.pop() {
            Some(last) => last,
            None => {
                Self::create_segment(&dir, 1)?;
                1
            }
        };
        let file = OpenOptions::new()
            .append(true)
            .open(Self::segment_path(&dir, current))
            .map_err(|e| io_err("open current segment", e))?;
        Ok(FileLog {
            dir,
            inner: Mutex::new(FileInner { current, file }),
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(dir: &Path, index: u64) -> PathBuf {
        dir.join(format!("wal-{index:08}.log"))
    }

    fn scan_segments(dir: &Path) -> Result<Vec<u64>, StoreError> {
        let mut indices = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| io_err("read log dir", e))? {
            let entry = entry.map_err(|e| io_err("read log dir entry", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(index) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                indices.push(index);
            }
        }
        indices.sort_unstable();
        Ok(indices)
    }

    fn create_segment(dir: &Path, index: u64) -> Result<File, StoreError> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(Self::segment_path(dir, index))
            .map_err(|e| io_err("create segment", e))?;
        file.write_all(&SEGMENT_HEADER)
            .map_err(|e| io_err("write segment header", e))?;
        file.sync_data()
            .map_err(|e| io_err("sync new segment", e))?;
        Self::sync_dir(dir);
        Ok(file)
    }

    /// Best-effort directory fsync so renames/creations survive power loss
    /// (directories are not openable as files on every platform).
    fn sync_dir(dir: &Path) {
        if let Ok(handle) = File::open(dir) {
            let _ = handle.sync_all();
        }
    }
}

impl Wal for FileLog {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("filelog lock");
        inner.file.write_all(bytes).map_err(|e| io_err("append", e))
    }

    fn sync(&self) -> Result<(), StoreError> {
        let inner = self.inner.lock().expect("filelog lock");
        inner.file.sync_data().map_err(|e| io_err("fsync", e))
    }

    fn current_segment(&self) -> u64 {
        self.inner.lock().expect("filelog lock").current
    }

    fn segment_len(&self) -> Result<u64, StoreError> {
        let inner = self.inner.lock().expect("filelog lock");
        inner
            .file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| io_err("segment metadata", e))
    }

    fn rotate(&self) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock().expect("filelog lock");
        inner.file.sync_data().map_err(|e| io_err("fsync", e))?;
        let next = inner.current + 1;
        inner.file = Self::create_segment(&self.dir, next)?;
        inner.current = next;
        Ok(next)
    }

    fn truncate_segment(&self, index: u64, len: u64) -> Result<(), StoreError> {
        // Hold the lock so the truncation cannot interleave with appends;
        // the append handle is in O_APPEND mode, so it keeps writing at
        // the (new) end of file afterwards.
        let inner = self.inner.lock().expect("filelog lock");
        let file = OpenOptions::new()
            .write(true)
            .open(Self::segment_path(&self.dir, index))
            .map_err(|e| io_err("open segment for truncate", e))?;
        file.set_len(len)
            .map_err(|e| io_err("truncate segment", e))?;
        file.sync_all()
            .map_err(|e| io_err("sync truncated segment", e))?;
        drop(inner);
        Ok(())
    }

    fn segments(&self) -> Result<Vec<u64>, StoreError> {
        Self::scan_segments(&self.dir)
    }

    fn read_segment(&self, index: u64) -> Result<Vec<u8>, StoreError> {
        fs::read(Self::segment_path(&self.dir, index)).map_err(|e| io_err("read segment", e))
    }

    fn remove_segments_before(&self, index: u64) -> Result<(), StoreError> {
        for old in Self::scan_segments(&self.dir)? {
            if old < index {
                fs::remove_file(Self::segment_path(&self.dir, old))
                    .map_err(|e| io_err("remove compacted segment", e))?;
            }
        }
        Self::sync_dir(&self.dir);
        Ok(())
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join("snapshot.tmp");
        let path = self.dir.join(SNAPSHOT_FILE);
        let mut file = File::create(&tmp).map_err(|e| io_err("create snapshot.tmp", e))?;
        file.write_all(bytes)
            .map_err(|e| io_err("write snapshot", e))?;
        file.sync_all().map_err(|e| io_err("sync snapshot", e))?;
        drop(file);
        fs::rename(&tmp, &path).map_err(|e| io_err("install snapshot", e))?;
        Self::sync_dir(&self.dir);
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(self.dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read snapshot", e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(log: &dyn Wal) {
        assert_eq!(log.current_segment(), 1);
        assert_eq!(log.segment_len().unwrap(), SEGMENT_HEADER.len() as u64);
        log.append(b"abc").unwrap();
        log.append(b"def").unwrap();
        log.sync().unwrap();
        assert_eq!(
            log.read_segment(1).unwrap(),
            [&SEGMENT_HEADER[..], b"abcdef"].concat()
        );
        assert_eq!(log.rotate().unwrap(), 2);
        log.append(b"xyz").unwrap();
        assert_eq!(log.segments().unwrap(), vec![1, 2]);
        assert!(log.read_snapshot().unwrap().is_none());
        log.write_snapshot(b"snap").unwrap();
        assert_eq!(log.read_snapshot().unwrap().as_deref(), Some(&b"snap"[..]));
        log.remove_segments_before(2).unwrap();
        assert_eq!(log.segments().unwrap(), vec![2]);
        assert_eq!(
            log.read_segment(2).unwrap(),
            [&SEGMENT_HEADER[..], b"xyz"].concat()
        );
        assert!(log.read_segment(1).is_err());
        log.truncate_segment(2, (SEGMENT_HEADER.len() + 1) as u64)
            .unwrap();
        assert_eq!(
            log.read_segment(2).unwrap(),
            [&SEGMENT_HEADER[..], b"x"].concat()
        );
        log.append(b"YZ").unwrap();
        assert_eq!(
            log.read_segment(2).unwrap(),
            [&SEGMENT_HEADER[..], b"xYZ"].concat(),
            "appends continue at the truncated end"
        );
    }

    #[test]
    fn memlog_contract() {
        exercise(&MemLog::new());
    }

    #[test]
    fn filelog_contract_and_reopen() {
        let dir = std::env::temp_dir().join(format!("oma-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let log = FileLog::open(&dir).unwrap();
            exercise(&log);
        }
        // Re-opening continues in the highest surviving segment.
        let log = FileLog::open(&dir).unwrap();
        assert_eq!(log.current_segment(), 2);
        log.append(b"!").unwrap();
        assert_eq!(
            log.read_segment(2).unwrap(),
            [&SEGMENT_HEADER[..], b"xYZ!"].concat()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memlog_corruption_hooks() {
        let log = MemLog::new();
        log.append(b"0123456789").unwrap();
        log.truncate_tail(4);
        assert_eq!(
            log.read_segment(1).unwrap(),
            [&SEGMENT_HEADER[..], b"012345"].concat()
        );
        log.mutate_segment(1, |bytes| bytes[SEGMENT_HEADER.len()] ^= 0xFF);
        assert_ne!(log.read_segment(1).unwrap()[SEGMENT_HEADER.len()], b'0');
    }
}
