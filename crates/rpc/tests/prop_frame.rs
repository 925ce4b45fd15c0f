//! Property-based tests of the RPC wire codec: round trips are
//! bit-identical, corruption and truncation surface as typed errors, and
//! attacker-controlled bytes can never panic the decoder or trick it into
//! allocating more than the declared-length cap permits. The exhaustive
//! form of the corruption properties — every truncation and byte flip of
//! every op-code's frame, under a counting allocator — is the corruption
//! table in the root crate's `tests/formats.rs`.

use mamdr_ps::ParamKey;
use mamdr_rpc::frame::{
    digest, BarrierReq, CheckpointReq, Frame, FrameError, OpCode, PullManyReq, PullManyResp,
    PushManyReq, PushResp, FRAME_OVERHEAD, MAX_PAYLOAD,
};
use proptest::prelude::*;

fn opcode_from(byte: u8) -> OpCode {
    // Map an arbitrary byte onto the op-code table (11 entries at bytes
    // 5..=15; bytes 1..=4 are the retired single-row op-codes).
    OpCode::ALL[byte as usize % OpCode::ALL.len()]
}

proptest! {
    #[test]
    fn frame_roundtrip_is_bit_identical(
        op in 0u8..=255,
        flags in 0u8..=255,
        seq in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..600),
    ) {
        let frame = Frame { opcode: opcode_from(op), flags, seq, payload };
        let decoded = Frame::decode(frame.to_bytes().as_slice()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn corrupting_any_byte_is_a_typed_error(
        op in 0u8..=255,
        seq in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..200),
        pos in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let frame = Frame::new(opcode_from(op), seq, payload);
        let mut bytes = frame.to_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        // Every single-byte flip lands in the magic, the checksummed
        // header+payload region, or the checksum itself — all detected.
        prop_assert!(Frame::decode(bytes.as_slice()).is_err());
    }

    #[test]
    fn truncating_anywhere_is_an_error_not_a_panic(
        seq in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..200),
        keep in 0usize..4096,
    ) {
        let bytes = Frame::new(OpCode::PushMany, seq, payload).to_bytes();
        let keep = keep % bytes.len();
        prop_assert!(Frame::decode(&bytes[..keep]).is_err());
    }

    #[test]
    fn attacker_bytes_never_panic_and_never_overallocate(
        junk in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        // Raw junk as a frame stream: must return (almost surely an
        // error), never panic. The decoder validates the length cap before
        // allocating, so even junk that happens to spell an enormous
        // declared length cannot balloon memory.
        let _ = Frame::decode(junk.as_slice());
        // The same junk fed to every payload parser.
        let _ = PushResp::decode(&junk);
        let _ = BarrierReq::decode(&junk);
        let _ = CheckpointReq::decode(&junk);
        let _ = PullManyReq::decode(&junk);
        let _ = PullManyResp::decode(&junk);
        let _ = PushManyReq::decode(&junk);
    }

    #[test]
    fn declared_length_above_cap_is_rejected_before_payload_reads(
        seq in 0u64..u64::MAX,
        excess in 1u32..=u32::MAX - MAX_PAYLOAD,
    ) {
        // Hand-forge a header whose length field exceeds the cap; the
        // decoder must reject it from the 32 header bytes alone.
        let mut bytes = Frame::new(OpCode::PullMany, seq, Vec::new()).to_bytes();
        bytes.truncate(FRAME_OVERHEAD - 8); // keep magic + header only
        let lying = MAX_PAYLOAD + excess;
        bytes[20..24].copy_from_slice(&lying.to_le_bytes());
        prop_assert!(matches!(
            Frame::decode(bytes.as_slice()),
            Err(FrameError::TooLarge(n)) if n == lying
        ));
    }

    #[test]
    fn undefined_opcode_bytes_are_typed_errors_never_panics(
        byte in 0u8..=255,
        seq in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // A well-formed, correctly digested frame of any op-code byte:
        // the eleven table entries decode, everything else — byte 0, the
        // retired single-row bytes 1..=4, every byte above 15 — is a typed
        // `UnknownOpcode`.
        let mut bytes = Frame::new(OpCode::Error, seq, payload).to_bytes();
        bytes[10] = byte;
        let n = bytes.len();
        let sealed = digest(bytes[9..24].try_into().unwrap(), &bytes[24..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&sealed);
        match Frame::decode(bytes.as_slice()) {
            Ok(frame) => {
                prop_assert!((5..=15).contains(&byte));
                prop_assert_eq!(frame.opcode as u8, byte);
            }
            Err(FrameError::UnknownOpcode(b)) => {
                prop_assert_eq!(b, byte);
                prop_assert!(byte <= 4 || byte > 15);
            }
            Err(other) => prop_assert!(false, "byte {}: unexpected {:?}", byte, other),
        }
    }

    #[test]
    fn barrier_and_checkpoint_payloads_roundtrip(
        client in 0u32..64,
        round in 0u64..u64::MAX,
        expected in 0u32..16,
    ) {
        let bar = BarrierReq { client_id: client, round, expected };
        prop_assert_eq!(BarrierReq::decode(&bar.encode()).unwrap(), bar);
        let ck = CheckpointReq { round };
        prop_assert_eq!(CheckpointReq::decode(&ck.encode()).unwrap(), ck);
    }

    #[test]
    fn multi_row_payloads_roundtrip(
        rows in proptest::collection::vec((0u32..16, 0u32..u32::MAX), 1..64),
        dim in 1usize..8,
        client in 0u32..64,
        lr in -10.0f32..10.0,
        seed in -1e30f32..1e30,
    ) {
        let keys: Vec<ParamKey> = rows.iter().map(|&(t, r)| ParamKey::new(t, r)).collect();
        let pull = PullManyReq { keys: keys.clone() };
        prop_assert_eq!(PullManyReq::decode(&pull.encode()).unwrap(), pull);

        let versions: Vec<u64> = (0..keys.len() as u64).collect();
        let values: Vec<f32> = (0..keys.len() * dim).map(|i| seed + i as f32).collect();
        let resp = PullManyResp { versions: versions.clone(), values: values.clone() };
        prop_assert_eq!(PullManyResp::decode(&resp.encode()).unwrap(), resp);
        // Rows without value bytes (the retired version-only probe's
        // shape) are malformed.
        let probe = PullManyResp { versions, values: Vec::new() };
        prop_assert!(matches!(PullManyResp::decode(&probe.encode()), Err(FrameError::Malformed(_))));

        let push = PushManyReq { client_id: client, lr, keys, grads: values };
        prop_assert_eq!(PushManyReq::decode(&push.encode()).unwrap(), push);
    }

    #[test]
    fn forged_multi_row_counts_error_before_allocating(
        count in 0u32..=u32::MAX,
        body in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        // A forged leading count field: either it happens to describe the
        // remaining bytes exactly (a valid decode), or the decoder must
        // reject it from the count alone — it never trusts the count to
        // size an allocation. u32::MAX keys would claim a 32 GiB vector.
        let mut bytes = count.to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        if count as usize > body.len() / 8 {
            prop_assert!(PullManyReq::decode(&bytes).is_err());
            prop_assert!(PullManyResp::decode(&bytes).is_err());
        } else {
            let _ = PullManyReq::decode(&bytes);
            let _ = PullManyResp::decode(&bytes);
        }
        // PushMany's key count sits after the client id and learning
        // rate; the same forgery must die the same way.
        let mut push_bytes = 7u32.to_le_bytes().to_vec();
        push_bytes.extend_from_slice(&0.5f32.to_le_bytes());
        push_bytes.extend_from_slice(&bytes);
        if count as usize > body.len() / 8 {
            prop_assert!(PushManyReq::decode(&push_bytes).is_err());
        } else {
            let _ = PushManyReq::decode(&push_bytes);
        }
    }

    #[test]
    fn truncating_multi_row_payloads_errors(
        n_keys in 1usize..32,
        dim in 1usize..6,
        cut in 1usize..512,
    ) {
        let keys: Vec<ParamKey> = (0..n_keys as u32).map(|i| ParamKey::new(i % 4, i)).collect();
        let grads: Vec<f32> = (0..n_keys * dim).map(|i| i as f32).collect();
        let push = PushManyReq { client_id: 3, lr: 0.25, keys: keys.clone(), grads };
        let bytes = push.encode();
        let cut = 1 + cut % (bytes.len() - 1);
        prop_assert!(PushManyReq::decode(&bytes[..bytes.len() - cut]).is_err());

        let bytes = PullManyReq { keys }.encode();
        let cut = 1 + cut % (bytes.len() - 1);
        prop_assert!(PullManyReq::decode(&bytes[..bytes.len() - cut]).is_err());
    }

    #[test]
    fn oversized_key_batches_cross_the_frame_cap_as_errors(
        extra in 1usize..1024,
    ) {
        // A key batch just past what MAX_PAYLOAD can carry: encoding it
        // into a frame must surface `TooLarge` from the cap check, never
        // attempt the oversized wire write.
        let n = MAX_PAYLOAD as usize / 8 + extra;
        let keys: Vec<ParamKey> = (0..n as u32).map(|i| ParamKey::new(0, i)).collect();
        let payload = PullManyReq { keys }.encode();
        prop_assert!(payload.len() as u32 > MAX_PAYLOAD);
        let frame = Frame::new(OpCode::PullMany, 1, payload);
        prop_assert!(matches!(frame.encode(&mut Vec::new()), Err(FrameError::TooLarge(_))));
    }
}
