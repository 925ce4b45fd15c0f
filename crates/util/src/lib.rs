//! # mamdr-util
//!
//! The one home of the workspace's binary-format primitives. Five formats
//! — `MAMDRPS1` parameter checkpoints, `MAMDRJN2` round journals,
//! `MAMDRMF2` shard manifests, `MAMDRSV2` serving snapshots and the
//! `MAMDRRPC1` wire frames — are field lists over one codec, so bounds
//! checks, the digest envelope and the commit discipline exist once.
//!
//! * [`xxh64`] — the XXH64 digest, word-at-a-time, of every byte the
//!   workspace persists or sends: the [`codec::seal`] envelope, the
//!   manifest's file digests and the `MAMDRRPC1` frame digest (wire
//!   version 3).
//! * [`Checksum`] — incremental FNV-1a 64-bit digest of small keys whose
//!   values are pinned: shard and replica routing, and the seeded probe
//!   requests and test digests built on it.
//! * [`codec`] — [`codec::Writer`] / [`codec::Reader`] (every count checked
//!   against the bytes left before it sizes an allocation), the
//!   [`codec::seal`] / [`codec::open`] envelope, [`codec::CodecError`], and
//!   [`codec::write_atomic`] (staging file, fsync, rename).

pub mod codec;

/// Incremental FNV-1a 64-bit hasher.
///
/// One `xor`+`imul` chain per byte: fine for the 8-byte keys it routes
/// on, and kept there because changing it would re-route every row and
/// move every digest pinned on it. Bulk bytes are digested by [`xxh64`].
/// FNV-1a is not cryptographic.
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

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: fold an 8-byte input word into an accumulator.
#[inline(always)]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline(always)]
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// The XXH64 digest of `bytes` under `seed` — the published algorithm
/// (xxHash, Y. Collet), bit for bit.
///
/// Four independent 8-byte lanes per 32-byte stripe keep the multiplier
/// busy, so this runs at memory speed where FNV-1a's one `xor`+`imul`
/// chain per byte cannot. Like FNV-1a it guards against corruption, not
/// adversaries.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for stripe in &mut stripes {
            let stripe: &[u8; 32] = stripe.try_into().expect("32-byte stripe");
            v[0] = xxh_round(v[0], le_u64(&stripe[0..8]));
            v[1] = xxh_round(v[1], le_u64(&stripe[8..16]));
            v[2] = xxh_round(v[2], le_u64(&stripe[16..24]));
            v[3] = xxh_round(v[3], le_u64(&stripe[24..32]));
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(bytes.len() as u64);
    // The tail below one stripe: 8-byte words, one 4-byte word, then bytes.
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
        h = (h ^ word.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    // Avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_published_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xFBCE_A83C_8A37_8BF1);
        assert_eq!(xxh64(b"xxhash", 20141025), 0xB559_B98D_844E_0635);
    }

    #[test]
    fn xxh64_sees_every_byte_at_every_tail_length() {
        // Lengths that end in each tail branch, below and above a stripe.
        for len in [1usize, 3, 4, 7, 8, 12, 31, 32, 33, 39, 64, 100] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let digest = xxh64(&bytes, 0);
            for pos in 0..len {
                let mut bad = bytes.clone();
                bad[pos] ^= 1;
                assert_ne!(xxh64(&bad, 0), digest, "len {len}: byte {pos} is not hashed");
            }
            assert_ne!(xxh64(&bytes, 1), digest, "len {len}: the seed is not hashed");
        }
    }

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
