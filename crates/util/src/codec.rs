//! The one binary codec under every format the workspace persists or sends.
//!
//! Each format is a field list over a [`Writer`] and a [`Reader`]:
//!
//! * **Fields** are little-endian integers and floats; strings are a `u32`
//!   byte length and UTF-8; an f32 section is written as one block copy on
//!   little-endian hosts.
//! * **Counts from the bytes are untrusted.** Before a declared count sizes
//!   anything, [`Reader::count`] checks `count × entry width` (with
//!   `checked_mul`) against the bytes that are left, so a forged header can
//!   never ask for more memory than the input could fill.
//! * **The envelope** `magic ‖ body ‖ XXH64(body)` is written by [`seal`]
//!   and verified by [`open`] before a single body field is parsed. The
//!   magic's last byte is the format's version digit; a file under an
//!   earlier version of the same magic (the version-1 envelopes digested
//!   with FNV-1a) is refused by name, never decoded.
//! * **Commit** is [`write_atomic`]: a same-directory `<name>.tmp`, fsync,
//!   rename, then a sync of the directory, so a crash leaves either the old
//!   file or the complete new one under the committed name, never a torn
//!   one.
//!
//! Every decode failure is one [`CodecError`]; a `Corrupt` message starts
//! with the magic of the format it came from.

use crate::xxh64;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A decode or I/O error of any binary format.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a valid instance of the format (bad magic, digest
    /// mismatch, truncation, a count the bytes cannot hold, trailing bytes,
    /// or a malformed field). The message starts with the format's magic.
    Corrupt(String),
}

impl CodecError {
    /// A [`CodecError::Corrupt`] naming the format by its magic.
    pub fn corrupt(magic: &[u8], msg: impl fmt::Display) -> Self {
        CodecError::Corrupt(format!("{}: {msg}", String::from_utf8_lossy(magic)))
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
            CodecError::Corrupt(m) => write!(f, "corrupt {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fields to a growing buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `bytes` before it reallocates — for a
    /// payload whose encoded size is known up front.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer { buf: Vec::with_capacity(bytes) }
    }

    /// Appends raw bytes (no length prefix).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian `f32`.
    #[inline]
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u32` byte length and the string's UTF-8 bytes.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32).bytes(s.as_bytes())
    }

    /// Appends little-endian f32 values (no count: the format frames it).
    /// On little-endian hosts this is one block copy.
    #[inline]
    pub fn f32s(&mut self, values: &[f32]) -> &mut Self {
        if cfg!(target_endian = "little") {
            // SAFETY: any f32 is 4 initialized bytes with no padding, and a
            // slice already in memory cannot overflow `len * 4`.
            let raw = unsafe {
                std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 4)
            };
            self.bytes(raw)
        } else {
            values.iter().fold(self, |w, &v| w.f32(v))
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Encodes an envelope: `magic ‖ body ‖ XXH64(body, seed 0)`, the body
/// being whatever `body` writes.
pub fn seal(magic: &[u8], body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut out = Vec::new();
    seal_sized(&mut out, magic, 0, body);
    out
}

/// [`seal`] appended to `out`, which first grows (if it must) to hold a
/// body of `body_len` bytes: a body of exactly that length is written with
/// at most one allocation, and none into a buffer that already has room.
pub fn seal_sized(
    out: &mut Vec<u8>,
    magic: &[u8],
    body_len: usize,
    body: impl FnOnce(&mut Writer),
) {
    out.reserve_exact(magic.len() + body_len + 8);
    let start = out.len() + magic.len();
    let mut w = Writer { buf: std::mem::take(out) };
    w.bytes(magic);
    body(&mut w);
    let digest = xxh64(&w.buf[start..], 0);
    w.u64(digest);
    *out = w.buf;
}

/// Verifies an envelope written by [`seal`] — magic, then the digest over
/// the body — and returns a reader over the body. A file under a retired
/// version of `magic` is a `Corrupt` error that names that version.
pub fn open<'a>(magic: &'static [u8], bytes: &'a [u8]) -> Result<Reader<'a>, CodecError> {
    if let Some(found) = retired_magic(magic, bytes) {
        return Err(CodecError::corrupt(
            magic,
            format!(
                "retired format version {} ({}); this build reads only {}",
                found[found.len() - 1] as char,
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(magic)
            ),
        ));
    }
    let mut r = Reader::new(magic, bytes);
    r.magic()?;
    let body_len = r.remaining().checked_sub(8).ok_or_else(|| r.corrupt("no digest"))?;
    let body = r.take(body_len)?;
    let stored = r.u64()?;
    let computed = xxh64(body, 0);
    if stored != computed {
        return Err(r.corrupt(format!(
            "digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(Reader::new(magic, body))
}

/// The magic `bytes` start with when it is an earlier version of `magic`:
/// the same name, and a version digit (the last byte) from `1` up to, but
/// not including, `magic`'s own.
fn retired_magic<'a>(magic: &[u8], bytes: &'a [u8]) -> Option<&'a [u8]> {
    let (&current, name) = magic.split_last()?;
    let found = bytes.get(..magic.len())?;
    let (&version, found_name) = found.split_last()?;
    (found_name == name && version.is_ascii_digit() && (b'1'..current).contains(&version))
        .then_some(found)
}

/// A bounds-checked cursor over one encoded value.
#[derive(Debug)]
pub struct Reader<'a> {
    magic: &'static [u8],
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes` of the format named by `magic` (the magic
    /// names the format in errors; [`Reader::magic`] consumes it when the
    /// bytes start with it).
    pub fn new(magic: &'static [u8], bytes: &'a [u8]) -> Self {
        Reader { magic, bytes, pos: 0 }
    }

    /// A [`CodecError::Corrupt`] naming this reader's format.
    pub fn corrupt(&self, msg: impl fmt::Display) -> CodecError {
        CodecError::corrupt(self.magic, msg)
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes the format's magic, rejecting anything else.
    pub fn magic(&mut self) -> Result<(), CodecError> {
        match self.take(self.magic.len()) {
            Ok(found) if found == self.magic => Ok(()),
            _ => Err(self.corrupt("bad magic")),
        }
    }

    /// The next `n` bytes.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(self.short(n as u64, 1));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The error for `n` entries of `width` bytes that the bytes left
    /// cannot hold; kept out of line so the field reads stay small enough
    /// to inline.
    #[cold]
    fn short(&self, n: u64, width: u64) -> CodecError {
        self.corrupt(format!(
            "{n} × {width} bytes needed at byte {}, {} left",
            self.pos,
            self.remaining()
        ))
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A string written by [`Writer::string`].
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string is not UTF-8"))
    }

    /// Checks that `n` entries of at least `width` bytes each fit in the
    /// bytes left, and returns `n` as a size that is then safe to allocate
    /// for. Zero-width entries count as one byte, so a count is never
    /// trusted further than the input reaches.
    #[inline]
    pub fn count(&self, n: u64, width: u64) -> Result<usize, CodecError> {
        match n.checked_mul(width.max(1)) {
            Some(total) if total <= self.remaining() as u64 => Ok(n as usize),
            _ => Err(self.short(n, width)),
        }
    }

    /// `n` entries of at least `width` bytes, each read by `entry`; the
    /// count is checked by [`Reader::count`] before the vector is sized.
    pub fn counted<T>(
        &mut self,
        n: u64,
        width: u64,
        mut entry: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(n, width)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(entry(self)?);
        }
        Ok(out)
    }

    /// `n` little-endian f32 values written by [`Writer::f32s`], checked
    /// against the bytes left before the vector is sized.
    #[inline]
    pub fn f32s(&mut self, n: u64) -> Result<Vec<f32>, CodecError> {
        let mut out = Vec::with_capacity(self.count(n, 4)?);
        self.f32s_into(n, &mut out)?;
        Ok(out)
    }

    /// `n` little-endian f32 values, checked against the bytes left,
    /// appended to `out` — no allocation when `out` already has room.
    #[inline]
    pub fn f32s_into(&mut self, n: u64, out: &mut Vec<f32>) -> Result<(), CodecError> {
        let n = self.count(n, 4)?;
        let bytes = self.take(4 * n)?;
        out.extend(
            bytes.chunks_exact(4).map(|le| f32::from_le_bytes(le.try_into().expect("4 bytes"))),
        );
        Ok(())
    }

    /// Ends the decode: every byte must have been read.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.corrupt(format!("{n} trailing bytes"))),
        }
    }
}

/// The staging sibling [`write_atomic`] writes first: the file name with
/// `.tmp` appended (never a replaced extension, so discovery that filters
/// on the committed extension never sees it).
pub fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Commits `bytes` to `path`: they land in [`staging_path`], are fsynced,
/// and only then renamed into place. The rename is the commit point — a
/// crash at any earlier byte leaves `path` as it was — and the directory is
/// synced after it, so the commit is durable when this returns.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let staging = staging_path(path);
    let mut file = File::create(&staging)?;
    file.write_all(bytes)?;
    // Durable before the rename: otherwise a crash after it could expose
    // the committed name with unsynced contents.
    file.sync_all()?;
    fs::rename(&staging, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"MAMDRTS1";

    #[test]
    fn fields_roundtrip_bit_exactly() {
        let values = [0.0f32, -0.0, -1.5, f32::MIN_POSITIVE, 3.25e7, f32::NAN];
        let mut w = Writer::default();
        w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX).f32(-0.0).f64(0.1).string("ckpt");
        w.u32(values.len() as u32).f32s(&values);
        let bytes = w.into_bytes();
        let mut r = Reader::new(MAGIC, &bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), 0.1);
        assert_eq!(r.string().unwrap(), "ckpt");
        let n = r.u32().unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.f32s(n as u64).unwrap()), bits(&values));
        r.finish().unwrap();
        // `f32s_into` appends the same values after what `out` holds.
        let mut r = Reader::new(MAGIC, &bytes[bytes.len() - 4 * values.len()..]);
        let mut out = vec![9.0f32];
        r.f32s_into(values.len() as u64, &mut out).unwrap();
        assert_eq!(bits(&out[1..]), bits(&values));
        assert!(r.f32s_into(1, &mut out).is_err(), "past the end");
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let bytes = [0u8; 16];
        let mut r = Reader::new(MAGIC, &bytes);
        assert_eq!(r.count(2, 8).unwrap(), 2);
        assert!(r.count(3, 8).is_err());
        // Overflowing products and zero-width entries are bounded too.
        assert!(r.count(u64::MAX, 8).is_err());
        assert!(r.count(17, 0).is_err());
        assert!(r.f32s(5).is_err());
        assert_eq!(r.counted(4, 4, Reader::u32).unwrap(), [0; 4]);
        assert!(matches!(r.u8(), Err(CodecError::Corrupt(m)) if m.starts_with("MAMDRTS1: ")));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(MAGIC, &[1, 2, 3]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn envelope_verifies_magic_and_digest() {
        let sealed = seal(MAGIC, |w| {
            w.u32(5).string("body");
        });
        assert_eq!(&sealed[..8], MAGIC);
        assert_eq!(
            u64::from_le_bytes(sealed[sealed.len() - 8..].try_into().unwrap()),
            xxh64(&sealed[8..sealed.len() - 8], 0)
        );
        let mut r = open(MAGIC, &sealed).unwrap();
        assert_eq!(r.u32().unwrap(), 5);
        assert_eq!(r.string().unwrap(), "body");
        r.finish().unwrap();
        assert!(open(b"MAMDRXX1", &sealed).is_err());
        // An earlier version of the magic is refused by name, a later one
        // is only a bad magic.
        let v1 = seal(b"MAMDRTS1", |w| {
            w.u32(5);
        });
        match open(b"MAMDRTS2", &v1) {
            Err(CodecError::Corrupt(m)) => assert_eq!(
                m,
                "MAMDRTS2: retired format version 1 (MAMDRTS1); this build reads only MAMDRTS2"
            ),
            other => panic!("a version-1 file opened as version 2: {other:?}"),
        }
        match open(b"MAMDRTS2", &seal(b"MAMDRTS3", |_| {})) {
            Err(CodecError::Corrupt(m)) => assert_eq!(m, "MAMDRTS2: bad magic"),
            other => panic!("a version-3 file opened as version 2: {other:?}"),
        }
        let mut sized = Vec::new();
        seal_sized(&mut sized, MAGIC, 12, |w| {
            w.u32(5).string("body");
        });
        assert_eq!(sized, sealed, "the size hint changes no byte");
        assert_eq!(sized.capacity(), sized.len(), "an exact hint is one buffer");
        // Appended after what the buffer held, digesting only its own body;
        // a buffer with room is written in place.
        let mut after = b"head".to_vec();
        after.reserve(sealed.len());
        let room = after.as_ptr();
        seal_sized(&mut after, MAGIC, 0, |w| {
            w.u32(5).string("body");
        });
        assert_eq!((&after[..4], &after[4..]), (&b"head"[..], &sealed[..]));
        assert_eq!(after.as_ptr(), room, "no reallocation into a buffer with room");
        for keep in 0..sealed.len() {
            assert!(open(MAGIC, &sealed[..keep]).is_err(), "truncated to {keep}");
        }
    }

    #[test]
    fn write_atomic_commits_through_the_staging_name() {
        let dir = std::env::temp_dir().join(format!("mamdr-codec-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        assert_eq!(staging_path(&path), dir.join("state.bin.tmp"));
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!staging_path(&path).exists(), "the staging file is renamed away");
        fs::remove_dir_all(&dir).ok();
    }
}
