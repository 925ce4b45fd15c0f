//! # mamdr-util
//!
//! The one home of the workspace's binary-format primitives. Five formats
//! — `MAMDRPS1` parameter checkpoints, `MAMDRJN1` round journals,
//! `MAMDRMF1` shard manifests, `MAMDRSV1` serving snapshots and the
//! `MAMDRRPC1` wire frames — are field lists over one codec, so bounds
//! checks, the digest envelope and the commit discipline exist once.
//!
//! * [`Checksum`] — incremental FNV-1a 64-bit digest.
//! * [`codec`] — [`codec::Writer`] / [`codec::Reader`] (every count checked
//!   against the bytes left before it sizes an allocation), the
//!   [`codec::seal`] / [`codec::open`] envelope, [`codec::CodecError`], and
//!   [`codec::write_atomic`] (staging file, fsync, rename).

pub mod codec;

/// Incremental FNV-1a 64-bit hasher over serialized bytes.
///
/// Snapshot and frame formats append the digest after their payload so a
/// flipped bit anywhere surfaces as a load/decode error instead of silently
/// corrupted parameters. FNV-1a is not cryptographic — it guards against
/// storage/transfer corruption, not adversaries.
#[derive(Debug, Clone)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

impl Checksum {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Checksum(Self::OFFSET)
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut c = Checksum::new();
        c.update(bytes);
        c.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_known_fnv1a_vectors() {
        // Empty input hashes to the offset basis.
        assert_eq!(Checksum::of(b""), 0xcbf2_9ce4_8422_2325);
        // Published FNV-1a 64 test vector.
        assert_eq!(Checksum::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(Checksum::of(b"ab"), Checksum::of(b"ba"));
    }

    #[test]
    fn checksum_is_incremental() {
        let mut inc = Checksum::new();
        inc.update(b"hel");
        inc.update(b"lo");
        assert_eq!(inc.digest(), Checksum::of(b"hello"));
    }

    const MAGIC: &[u8] = b"MAMDRTS1";

    #[test]
    fn f32_section_roundtrip_is_bit_exact() {
        let values = vec![0.0f32, -1.5, f32::MIN_POSITIVE, 3.25e7, -0.0, f32::NAN];
        let mut w = codec::Writer::default();
        w.f32s(&values);
        let buf = w.into_bytes();
        assert_eq!(buf.len(), 4 * values.len());
        let back = codec::Reader::new(MAGIC, &buf).f32s(values.len() as u64).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn f32_section_bytes_are_little_endian() {
        let mut w = codec::Writer::default();
        w.f32s(&[1.0f32]);
        assert_eq!(w.into_bytes(), 1.0f32.to_le_bytes());
    }

    #[test]
    fn truncated_section_errors() {
        let mut w = codec::Writer::default();
        w.f32s(&[1.0, 2.0]);
        let buf = w.into_bytes();
        assert!(codec::Reader::new(MAGIC, &buf).f32s(3).is_err());
    }
}
