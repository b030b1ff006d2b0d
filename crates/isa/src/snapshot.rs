//! Versioned binary codec for statistics snapshots.
//!
//! `aurora-core`'s `SimStats` and the per-unit statistics structs it
//! embeds serialize through this module: a [`Snapshot`] trait plus a
//! [`SnapshotWriter`] / [`SnapshotReader`] pair speaking a little-endian
//! binary format (magic, explicit version, hard errors on any structural
//! mismatch). The
//! `aurora-serve` result store persists these images, and
//! `SimStats::fingerprint` hashes them, header included, so every stats
//! digest depends on the exact bytes written here.
//!
//! Layout: a 12-byte header (`b"AURACKPT"` + format version), then a
//! sequence of sections. Each section opens with a 4-byte ASCII tag so a
//! reader that has drifted out of sync fails loudly at the next section
//! boundary instead of silently misinterpreting payload bytes.
//! Fixed-width integers are little-endian.

use std::fmt;
use std::io;

/// Version stamp of the snapshot container format. Bump on any change
/// to the section layout or per-unit encodings: every stored result and
/// every stats fingerprint moves with it.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"AURACKPT";

/// Decode-side failure: a foreign or truncated image, or one whose
/// sections disagree with the reader. Copyable and allocation-free so the
/// restore path stays cheap and lint-clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `AURACKPT` magic.
    BadMagic,
    /// The container version is not [`SNAPSHOT_FORMAT_VERSION`].
    Version {
        /// Version stamp found in the header.
        found: u32,
    },
    /// The buffer ended before the value being decoded.
    Truncated,
    /// A section opened with an unexpected tag — reader and writer have
    /// disagreed about the unit sequence.
    Section {
        /// Tag the caller expected next.
        expected: [u8; 4],
        /// Tag actually present in the buffer.
        found: [u8; 4],
    },
    /// The image is structurally impossible (trailing bytes after the
    /// final section).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an Aurora snapshot (bad magic)"),
            SnapshotError::Version { found } => write!(
                f,
                "unsupported snapshot version {found} (expected {SNAPSHOT_FORMAT_VERSION})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Section { expected, found } => write!(
                f,
                "snapshot section mismatch: expected {:?}, found {:?}",
                core::str::from_utf8(expected).unwrap_or("????"),
                core::str::from_utf8(found).unwrap_or("????"),
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A statistics struct that can serialize its counters into a snapshot
/// and later restore them in place.
pub trait Snapshot {
    /// Appends this value's counters to the snapshot.
    fn save(&self, w: &mut SnapshotWriter);
    /// Overwrites this value's counters from the snapshot cursor.
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Append-only encoder for the snapshot byte stream.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot: writes the magic and format version.
    pub fn new() -> SnapshotWriter {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Opens a section with a 4-byte ASCII tag.
    #[inline]
    pub fn section(&mut self, tag: [u8; 4]) {
        self.buf.extend_from_slice(&tag);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Finishes the snapshot and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> SnapshotWriter {
        SnapshotWriter::new()
    }
}

/// Cursor over an encoded snapshot. Construction validates the header;
/// every accessor fails with [`SnapshotError`] rather than panicking, so
/// arbitrary bytes can be fed in safely.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the magic and version, leaving the cursor at the first
    /// section.
    pub fn new(buf: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let mut r = SnapshotReader { buf, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::Version { found: version });
        }
        Ok(r)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Consumes a section header, verifying the tag matches.
    pub fn section(&mut self, expected: [u8; 4]) -> Result<(), SnapshotError> {
        let found: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        if found != expected {
            return Err(SnapshotError::Section { expected, found });
        }
        Ok(())
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Asserts the snapshot has been fully consumed — trailing garbage
    /// means the reader and writer disagree about the layout.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Corrupt("trailing bytes after final section"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_values_round_trip() {
        let mut w = SnapshotWriter::new();
        w.section(*b"TEST");
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.section(*b"TEST").unwrap();
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SnapshotWriter::new().finish();
        bytes[0] ^= 0xFF;
        assert_eq!(
            SnapshotReader::new(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = SnapshotWriter::new().finish();
        bytes[8] = 0xFE;
        assert!(matches!(
            SnapshotReader::new(&bytes).unwrap_err(),
            SnapshotError::Version { .. }
        ));
    }

    #[test]
    fn truncation_detected_mid_value() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(r.u64().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn section_tag_mismatch_detected() {
        let mut w = SnapshotWriter::new();
        w.section(*b"AAAA");
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(
            r.section(*b"BBBB").unwrap_err(),
            SnapshotError::Section { .. }
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u32(0);
        let bytes = w.finish();
        let r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(r.finish().unwrap_err(), SnapshotError::Corrupt(_)));
    }
}
