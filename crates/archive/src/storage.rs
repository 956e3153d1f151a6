//! Byte-level storage abstraction for the journal.
//!
//! [`ArchiveFile`](crate::ArchiveFile) is generic over anything that can
//! read, write, seek, truncate, and sync. Production uses
//! [`std::fs::File`]; tests and benches use [`MemStorage`] (a seekable
//! `Vec<u8>`); the crash-injection harness wraps either in
//! `FaultStorage` (behind the `fault-injection` feature) to cut power at
//! an exact byte offset.

use std::io::{self, Read, Seek, SeekFrom, Write};

/// What the journal requires of its backing store: positioned reads and
/// writes plus explicit truncation and durability barriers.
pub trait Storage: Read + Write + Seek {
    /// Flush buffered data to durable storage (fsync or equivalent).
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncate (or extend with zeros) to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<u64>;

    /// Current size of the store in bytes.
    fn byte_len(&mut self) -> io::Result<u64>;
}

impl Storage for std::fs::File {
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<u64> {
        std::fs::File::set_len(self, len)?;
        Ok(len)
    }

    fn byte_len(&mut self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

/// An in-memory [`Storage`]: a `Vec<u8>` with a seek cursor. Writes past
/// the end zero-fill the gap, matching file semantics.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    buf: Vec<u8>,
    pos: u64,
}

impl MemStorage {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A store holding `bytes`, cursor at 0 — e.g. a crash artifact to
    /// reopen.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// The stored bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the store, returning its bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Read for MemStorage {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let pos = usize::try_from(self.pos).unwrap_or(usize::MAX);
        let avail = self.buf.len().saturating_sub(pos);
        let n = avail.min(out.len());
        out[..n].copy_from_slice(&self.buf[pos..pos + n]);
        self.pos += n as u64;
        Ok(n)
    }
}

impl Write for MemStorage {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let pos = usize::try_from(self.pos).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "cursor beyond addressable")
        })?;
        if pos > self.buf.len() {
            self.buf.resize(pos, 0);
        }
        let overlap = (self.buf.len() - pos).min(data.len());
        self.buf[pos..pos + overlap].copy_from_slice(&data[..overlap]);
        self.buf.extend_from_slice(&data[overlap..]);
        self.pos += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Seek for MemStorage {
    fn seek(&mut self, from: SeekFrom) -> io::Result<u64> {
        let base = match from {
            SeekFrom::Start(off) => {
                self.pos = off;
                return Ok(self.pos);
            }
            SeekFrom::End(delta) => (self.buf.len() as i64, delta),
            SeekFrom::Current(delta) => (self.pos as i64, delta),
        };
        let target = base
            .0
            .checked_add(base.1)
            .filter(|&t| t >= 0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "seek before start"))?;
        self.pos = target as u64;
        Ok(self.pos)
    }
}

impl Storage for MemStorage {
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<u64> {
        let len_usize = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "length beyond addressable")
        })?;
        self.buf.resize(len_usize, 0);
        Ok(len)
    }

    fn byte_len(&mut self) -> io::Result<u64> {
        Ok(self.buf.len() as u64)
    }
}

/// How an injected crash manifests at the chosen byte offset.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// The disk silently drops every byte from the crash offset on but
    /// keeps reporting success — a power cut with write-back caching.
    Cut,
    /// The write persists up to the crash offset, then errors — a
    /// partial write followed by `ENOSPC`/`EIO`.
    ShortWrite,
    /// Nothing at or past the offset persists and the write errors — a
    /// clean I/O failure at a byte boundary.
    Error,
}

/// A deterministic failpoint: crash with [`CrashMode`] once the
/// `at_byte`-th byte of the cumulative write stream is reached.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Cumulative written-byte offset at which the crash fires. Offset 0
    /// means nothing ever persists.
    pub at_byte: u64,
    /// How the crash manifests.
    pub mode: CrashMode,
}

/// A [`Storage`] wrapper that injects a byte-exact write crash, for the
/// torn-tail recovery property suite. Reads and seeks pass through
/// untouched; once the plan trips, subsequent writes and syncs behave per
/// the mode (Cut keeps lying with success; the error modes keep erroring).
#[cfg(feature = "fault-injection")]
#[derive(Debug)]
pub struct FaultStorage<S> {
    inner: S,
    plan: CrashPlan,
    /// Bytes of the write stream accepted (or pretended accepted) so far.
    written: u64,
    tripped: bool,
}

#[cfg(feature = "fault-injection")]
impl<S: Storage> FaultStorage<S> {
    /// Wraps `inner` with the given crash plan.
    #[must_use]
    pub fn new(inner: S, plan: CrashPlan) -> Self {
        Self {
            inner,
            plan,
            written: 0,
            tripped: false,
        }
    }

    /// Whether the crash has fired.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Unwraps the inner store — the persisted state after the "crash".
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn injected_error() -> io::Error {
        io::Error::other("injected crash: write failed")
    }
}

#[cfg(feature = "fault-injection")]
impl<S: Storage> Read for FaultStorage<S> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.inner.read(out)
    }
}

#[cfg(feature = "fault-injection")]
impl<S: Storage> Write for FaultStorage<S> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.tripped {
            return match self.plan.mode {
                // A cut disk keeps acknowledging writes it drops.
                CrashMode::Cut => {
                    self.written += data.len() as u64;
                    Ok(data.len())
                }
                CrashMode::ShortWrite | CrashMode::Error => Err(Self::injected_error()),
            };
        }
        let remaining = self.plan.at_byte.saturating_sub(self.written);
        if (data.len() as u64) <= remaining {
            let n = self.inner.write(data)?;
            self.written += n as u64;
            return Ok(n);
        }
        // The crash lands inside this write.
        self.tripped = true;
        let keep = usize::try_from(remaining).expect("remaining < data.len()");
        match self.plan.mode {
            CrashMode::Cut => {
                if keep > 0 {
                    self.inner.write_all(&data[..keep])?;
                }
                // Pretend the whole write landed; the tail is gone.
                self.written += data.len() as u64;
                Ok(data.len())
            }
            CrashMode::ShortWrite => {
                if keep > 0 {
                    self.inner.write_all(&data[..keep])?;
                    self.written += keep as u64;
                }
                Err(Self::injected_error())
            }
            CrashMode::Error => Err(Self::injected_error()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(feature = "fault-injection")]
impl<S: Storage> Seek for FaultStorage<S> {
    fn seek(&mut self, from: SeekFrom) -> io::Result<u64> {
        self.inner.seek(from)
    }
}

#[cfg(feature = "fault-injection")]
impl<S: Storage> Storage for FaultStorage<S> {
    fn sync_data(&mut self) -> io::Result<()> {
        if self.tripped && self.plan.mode != CrashMode::Cut {
            return Err(Self::injected_error());
        }
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<u64> {
        if self.tripped {
            return match self.plan.mode {
                CrashMode::Cut => Ok(len), // acknowledged, dropped
                _ => Err(Self::injected_error()),
            };
        }
        self.inner.set_len(len)
    }

    fn byte_len(&mut self) -> io::Result<u64> {
        self.inner.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_matches_file_semantics() {
        let mut m = MemStorage::new();
        m.write_all(b"hello").unwrap();
        m.seek(SeekFrom::Start(10)).unwrap();
        m.write_all(b"world").unwrap();
        assert_eq!(m.byte_len().unwrap(), 15);
        assert_eq!(&m.as_bytes()[5..10], &[0u8; 5], "gap zero-fills");
        m.seek(SeekFrom::Start(0)).unwrap();
        let mut out = vec![0u8; 5];
        m.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"hello");
        m.set_len(3).unwrap();
        assert_eq!(m.as_bytes(), b"hel");
        // Overwrite in place, then extend.
        m.seek(SeekFrom::Start(1)).unwrap();
        m.write_all(b"ats off").unwrap();
        assert_eq!(m.as_bytes(), b"hats off");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn cut_persists_exactly_the_prefix_and_keeps_lying() {
        let mut f = FaultStorage::new(
            MemStorage::new(),
            CrashPlan {
                at_byte: 7,
                mode: CrashMode::Cut,
            },
        );
        f.write_all(b"0123").unwrap();
        f.write_all(b"456789").unwrap(); // crash lands inside this write
        assert!(f.tripped());
        f.write_all(b"after").unwrap(); // still "succeeds"
        f.sync_data().unwrap();
        assert_eq!(f.into_inner().as_bytes(), b"0123456");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn short_write_persists_prefix_then_errors() {
        let mut f = FaultStorage::new(
            MemStorage::new(),
            CrashPlan {
                at_byte: 2,
                mode: CrashMode::ShortWrite,
            },
        );
        assert!(f.write_all(b"0123").is_err());
        assert!(f.write_all(b"x").is_err());
        assert!(f.sync_data().is_err());
        assert_eq!(f.into_inner().as_bytes(), b"01");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn error_mode_persists_nothing_from_the_failing_write() {
        let mut f = FaultStorage::new(
            MemStorage::new(),
            CrashPlan {
                at_byte: 2,
                mode: CrashMode::Error,
            },
        );
        assert!(f.write_all(b"0123").is_err());
        assert_eq!(f.into_inner().as_bytes(), b"");
    }
}
