//! Property fuzz of the shard wire codec: every f64 bit pattern must
//! round-trip exactly, and torn / truncated / corrupted / oversized frames
//! must come back as typed [`CodecError`]s — never a panic, never a
//! silently wrong message. Case `k` of a test draws its inputs from
//! `Rng::new(k)` and names `k` in every failure message.

use md_base::rng::Rng;
use md_geometry::Vec3;
use md_shard::codec::{self, CodecError, MAX_FRAME};
use md_shard::{GhostExport, Msg, ShardAtom};

const CASES: u64 = 192;

/// Three arbitrary f64 bit patterns (NaNs and infinities included).
fn random_vec3(rng: &mut Rng) -> Vec3 {
    let [x, y, z] = [(); 3].map(|_| f64::from_bits(rng.next_u64()));
    Vec3::new(x, y, z)
}

/// Fewer than `max_len` atoms with arbitrary gids, positions, velocities.
fn random_atoms(rng: &mut Rng, max_len: u64) -> Vec<ShardAtom> {
    (0..rng.below(max_len))
        .map(|_| ShardAtom {
            gid: rng.next_u64(),
            pos: random_vec3(rng),
            vel: random_vec3(rng),
        })
        .collect()
}

/// Fewer than `max_len` arbitrary f64 bit patterns.
fn random_f64s(rng: &mut Rng, max_len: u64) -> Vec<f64> {
    (0..rng.below(max_len))
        .map(|_| f64::from_bits(rng.next_u64()))
        .collect()
}

/// Between `min_len` and `max_len - 1` bytes, each uniform on `lo..=hi`.
fn random_bytes(rng: &mut Rng, min_len: u64, max_len: u64, lo: u8, hi: u8) -> Vec<u8> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len)
        .map(|_| lo + rng.below(u64::from(hi - lo) + 1) as u8)
        .collect()
}

#[test]
fn atom_payloads_round_trip_bit_exactly() {
    for case in 0..CASES {
        let msg = Msg::MigIn {
            atoms: random_atoms(&mut Rng::new(case), 8),
        };
        let frame = codec::encode(&msg);
        let (back, used) = codec::decode(&frame).unwrap();
        assert_eq!(used, frame.len(), "case {case}: consumed");
        // NaN breaks `PartialEq`; the wire form preserves every bit.
        assert_eq!(back.encode(), msg.encode(), "case {case}: bytes");
    }
}

#[test]
fn ghost_and_fp_payloads_round_trip_bit_exactly() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.below(6) as usize;
        let gids: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let pos: Vec<Vec3> = (0..n).map(|_| random_vec3(&mut rng)).collect();
        let ghosts = Msg::PeerGhosts {
            export: GhostExport { gids, pos },
        };
        let fp = Msg::PeerFp {
            fp: random_f64s(&mut rng, 6),
        };
        for msg in [ghosts, fp] {
            let (back, _) = codec::decode(&codec::encode(&msg)).unwrap();
            assert_eq!(back.encode(), msg.encode(), "case {case}");
        }
    }
}

#[test]
fn torn_frames_are_truncated_errors_at_every_cut() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let msg = Msg::MigIn {
            atoms: random_atoms(&mut rng, 4),
        };
        let frame = codec::encode(&msg);
        let cut = (rng.next_u64() % frame.len() as u64) as usize;
        assert!(
            matches!(codec::decode(&frame[..cut]), Err(CodecError::Truncated)),
            "case {case}: buffer cut at {cut}"
        );
        // The stream reader reports the same condition.
        let mut stream = std::io::Cursor::new(frame[..cut].to_vec());
        let got = codec::read_msg(&mut stream);
        assert!(
            matches!(got, Err(CodecError::Truncated) | Err(CodecError::Io(_))),
            "case {case}: stream cut at {cut}"
        );
    }
}

#[test]
fn corrupted_frames_never_yield_a_different_message() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let msg = Msg::MigIn {
            atoms: random_atoms(&mut rng, 4),
        };
        let mut frame = codec::encode(&msg);
        let idx = (rng.next_u64() % frame.len() as u64) as usize;
        frame[idx] ^= 1 << rng.below(8);
        match codec::decode(&frame) {
            // Typed rejection is the expected outcome for any single-bit
            // corruption (checksum, framing or length damage).
            Err(
                CodecError::Truncated
                | CodecError::Oversize(_)
                | CodecError::BadChecksum { .. }
                | CodecError::BadField(_)
                | CodecError::Io(_),
            ) => {}
            // Acceptance is sound only if the bytes decode to the very
            // same message (theoretically unreachable for a bit flip
            // inside the checksummed region).
            Ok((back, _)) => assert_eq!(back.encode(), msg.encode(), "case {case}"),
        }
    }
}

#[test]
fn trailing_garbage_after_the_payload_is_rejected() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Splice garbage between the payload and the checksum, fixing up
        // the length prefix and checksum so only payload-level validation
        // can catch it: decoding demands exact consumption.
        let msg = Msg::PeerFp {
            fp: random_f64s(&mut rng, 4),
        };
        let junk = random_bytes(&mut rng, 1, 8, 33, 126);
        let frame = codec::encode(&msg);
        let mut spliced = frame[4..frame.len() - 8].to_vec();
        spliced.extend_from_slice(&junk);
        let reframed = codec::frame(spliced);
        assert!(
            matches!(codec::decode(&reframed), Err(CodecError::BadField(_))),
            "case {case}: accepted trailing garbage"
        );
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocating() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let excess = 1 + rng.below(1024) as u32;
        let mut frame = (MAX_FRAME + excess).to_le_bytes().to_vec();
        frame.extend(random_bytes(&mut rng, 0, 16, 0, 255));
        assert!(
            matches!(codec::decode(&frame), Err(CodecError::Oversize(_))),
            "case {case}: buffer"
        );
        let mut stream = std::io::Cursor::new(frame);
        assert!(
            matches!(codec::read_msg(&mut stream), Err(CodecError::Oversize(_))),
            "case {case}: stream"
        );
    }
}

#[test]
fn garbage_byte_soup_never_panics() {
    for case in 0..CASES {
        // Any outcome is fine; the property is the absence of a panic and
        // of unbounded allocation.
        let bytes = random_bytes(&mut Rng::new(case), 0, 64, 0, 255);
        let _ = codec::decode(&bytes);
        let _ = Msg::decode(&bytes);
        let _ = codec::read_msg(&mut std::io::Cursor::new(bytes));
    }
}

#[test]
fn unknown_tags_and_missing_fields_are_bad_field_errors() {
    // The tag byte of every message that carries fields.
    let tagged = [
        Msg::MigIn { atoms: vec![] },
        Msg::DispOut { max_sq: 0.0 },
        Msg::PeerPos { pos: vec![] },
        Msg::PeerFp { fp: vec![] },
    ]
    .map(|m| m.encode()[0]);
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Tags run 1..=30; 0 and everything above are unknown.
        let unknown = [0u8, 31 + rng.below(225) as u8];
        for tag in unknown {
            assert!(
                matches!(Msg::decode(&[tag]), Err(CodecError::BadField(_))),
                "case {case}: tag {tag}"
            );
        }
        // A real tag with its required fields missing is also typed.
        let tag = tagged[rng.below(tagged.len() as u64) as usize];
        assert!(
            matches!(Msg::decode(&[tag]), Err(CodecError::BadField(_))),
            "case {case}: hollow tag {tag}"
        );
    }
}
