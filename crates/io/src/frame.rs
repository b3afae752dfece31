//! The binary frame: blob header, CRC-checked sections, and typed decode errors.
//!
//! Every blob starts with a fixed header — the 4-byte magic [`MAGIC`], a `u16`
//! format [`VERSION`] and a `u32` artifact kind — followed by a flat stream of
//! sections. Each section is `tag: u32, len: u64, crc: u32, payload: [u8; len]`
//! with the CRC taken over the payload bytes only. All integers are
//! little-endian; `f64` travels as the little-endian bytes of its IEEE-754 bit
//! pattern.
//!
//! The frame is designed so that *every* corruption mode surfaces as a typed
//! [`DecodeError`] instead of a panic or a silently wrong value: a flipped
//! payload bit fails the section CRC, a flipped length or a truncated file
//! fails the bounds check, a flipped tag is rejected as an unknown section, and
//! a version bump from a newer writer is refused outright.

use std::fmt;
use std::sync::OnceLock;

/// Magic bytes opening every `mbsp_io` blob.
pub const MAGIC: [u8; 4] = *b"MBIO";

/// Current format version. Bump on any change to the section layouts.
pub const VERSION: u16 = 1;

/// Typed decode failure. Every variant names where and why the input was
/// rejected; none of the decode paths panic on untrusted bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The blob does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The blob was written by an unknown (usually newer) format version.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u16,
        /// Highest version this reader understands.
        supported: u16,
    },
    /// The header's artifact kind does not match what the caller asked for
    /// (e.g. restoring a DAG blob as a session checkpoint).
    WrongArtifact {
        /// Kind stamped in the header.
        found: u32,
        /// Kind the caller expected.
        expected: u32,
    },
    /// The input ended before a read completed.
    Truncated {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section payload failed its CRC-32 check.
    ChecksumMismatch {
        /// Tag of the offending section.
        tag: u32,
        /// CRC recorded in the section header.
        expected: u32,
        /// CRC computed over the payload as read.
        actual: u32,
    },
    /// A section tag is not part of the artifact being decoded.
    BadSectionTag {
        /// Byte offset of the tag field.
        offset: usize,
        /// The unrecognised tag.
        tag: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// Tag of the missing section.
        tag: u32,
    },
    /// A section appeared twice.
    DuplicateSection {
        /// Tag of the repeated section.
        tag: u32,
    },
    /// A field decoded to a value the domain type rejects (bad bool byte,
    /// out-of-range id, cyclic edge list, non-finite weight, ...).
    InvalidValue {
        /// Byte offset just past the offending field.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// Bytes remained after the last expected field of a section payload.
    TrailingBytes {
        /// Byte offset of the first unconsumed byte.
        offset: usize,
        /// Number of unconsumed bytes.
        len: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected {MAGIC:02x?})")
            }
            DecodeError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "format version {found} unsupported (this reader understands <= {supported})"
                )
            }
            DecodeError::WrongArtifact { found, expected } => {
                write!(
                    f,
                    "artifact kind {found:#010x} found where {expected:#010x} was expected"
                )
            }
            DecodeError::Truncated {
                offset,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated at byte {offset}: needed {needed} bytes, {available} available"
                )
            }
            DecodeError::ChecksumMismatch {
                tag,
                expected,
                actual,
            } => {
                write!(f, "section {:?} checksum mismatch: header says {expected:#010x}, payload hashes to {actual:#010x}", tag_name(*tag))
            }
            DecodeError::BadSectionTag { offset, tag } => {
                write!(f, "unknown section tag {tag:#010x} at byte {offset}")
            }
            DecodeError::MissingSection { tag } => {
                write!(f, "required section {:?} missing", tag_name(*tag))
            }
            DecodeError::DuplicateSection { tag } => {
                write!(f, "section {:?} appears more than once", tag_name(*tag))
            }
            DecodeError::InvalidValue { offset, what } => {
                write!(f, "invalid value near byte {offset}: {what}")
            }
            DecodeError::TrailingBytes { offset, len } => {
                write!(f, "{len} trailing bytes at byte {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Renders a section tag as the four ASCII characters it was built from.
fn tag_name(tag: u32) -> String {
    let b = tag.to_le_bytes();
    if b.iter().all(|c| c.is_ascii_graphic()) {
        b.iter().map(|&c| c as char).collect()
    } else {
        format!("{tag:#010x}")
    }
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), slice-by-8 so that
/// checksumming a multi-megabyte checkpoint stays well under a millisecond per
/// 100 MB-ish of throughput headroom. Tables are built once, lazily.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i as usize] = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Append-only byte writer producing a framed blob.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a blob of the given artifact kind: magic, version, kind.
    pub fn new(kind: u32) -> Self {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.put_u16(VERSION);
        w.put_u32(kind);
        w
    }

    /// Consumes the writer, returning the finished blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one section: tag, length and CRC of whatever `f` writes.
    ///
    /// The payload is written in place; length and CRC are patched into the
    /// section header afterwards, so no intermediate buffer is allocated.
    pub fn section<F: FnOnce(&mut Writer)>(&mut self, tag: u32, f: F) {
        self.put_u32(tag);
        let patch = self.buf.len();
        self.put_u64(0); // length, patched below
        self.put_u32(0); // crc, patched below
        let start = self.buf.len();
        f(self);
        let len = (self.buf.len() - start) as u64;
        let crc = crc32(&self.buf[start..]);
        self.buf[patch..patch + 8].copy_from_slice(&len.to_le_bytes());
        self.buf[patch + 8..patch + 12].copy_from_slice(&crc.to_le_bytes());
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as the little-endian bytes of its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Bounds-checked byte reader over a blob or a section payload.
///
/// Offsets in errors are absolute within the original blob (section payload
/// readers carry the payload's base offset).
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Reader<'a> {
    /// Opens a blob, validating magic, version and artifact kind.
    pub fn open(bytes: &'a [u8], kind: u32) -> Result<Self, DecodeError> {
        let mut r = Reader {
            bytes,
            pos: 0,
            base: 0,
        };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        let version = r.get_u16()?;
        if version != VERSION {
            return Err(DecodeError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let found = r.get_u32()?;
        if found != kind {
            return Err(DecodeError::WrongArtifact {
                found,
                expected: kind,
            });
        }
        Ok(r)
    }

    /// Wraps an already-extracted payload slice (used for section bodies).
    fn payload(bytes: &'a [u8], base: usize) -> Self {
        Reader {
            bytes,
            pos: 0,
            base,
        }
    }

    /// Absolute byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Yields the next section as `(tag, payload reader)` after verifying its
    /// CRC, or `None` at a clean end of input.
    pub fn next_section(&mut self) -> Result<Option<(u32, Reader<'a>)>, DecodeError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let tag = self.get_u32()?;
        let len = self.get_u64()?;
        let crc = self.get_u32()?;
        let len = usize::try_from(len).map_err(|_| DecodeError::Truncated {
            offset: self.offset(),
            needed: usize::MAX,
            available: self.remaining(),
        })?;
        let base = self.offset();
        let payload = self.take(len)?;
        let actual = crc32(payload);
        if actual != crc {
            return Err(DecodeError::ChecksumMismatch {
                tag,
                expected: crc,
                actual,
            });
        }
        Ok(Some((tag, Reader::payload(payload, base))))
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                offset: self.offset(),
                len: self.remaining(),
            });
        }
        Ok(())
    }

    /// Takes the next `n` bytes, or fails with [`DecodeError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated {
                offset: self.offset(),
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from the little-endian bytes of its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` that must fit in a `usize`.
    pub fn get_usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.invalid(format!("{v} does not fit in usize")))
    }

    /// Reads a byte that must be `0` or `1`.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.invalid(format!("byte {b:#04x} is not a bool"))),
        }
    }

    /// Reads a counted sequence whose elements take at least `elem_size` bytes
    /// each: the count, then `f` once per element.
    pub fn get_vec<T>(
        &mut self,
        elem_size: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let len = self.get_len(elem_size)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Reads an element count that claims `elem_size`-byte elements, rejecting
    /// counts the remaining input cannot possibly hold — the guard that keeps a
    /// bit-flipped length from driving a multi-gigabyte allocation.
    fn get_len(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let start = self.offset();
        let raw = self.get_u64()?;
        let len = usize::try_from(raw).ok();
        let needed = len.and_then(|l| l.checked_mul(elem_size.max(1)));
        match (len, needed) {
            (Some(len), Some(needed)) if needed <= self.remaining() => Ok(len),
            _ => Err(DecodeError::Truncated {
                offset: start,
                needed: needed.unwrap_or(usize::MAX),
                available: self.remaining(),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_len(1)?;
        let start = self.offset();
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DecodeError::InvalidValue {
            offset: start + e.utf8_error().valid_up_to(),
            what: "string is not valid UTF-8".to_string(),
        })
    }

    /// Builds an [`DecodeError::InvalidValue`] at the current offset.
    pub fn invalid(&self, what: impl Into<String>) -> DecodeError {
        DecodeError::InvalidValue {
            offset: self.offset(),
            what: what.into(),
        }
    }
}
