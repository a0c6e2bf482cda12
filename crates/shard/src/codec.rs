//! Length-prefixed, checksummed wire frames carrying binary protocol
//! messages.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [u32 payload length][payload bytes][u64 fnv1a64(payload)]
//! ```
//!
//! The checksum reuses [`md_sim::fnv1a64`] — the same journal-style framing
//! the job server trusts for crash recovery. The payload is one protocol
//! message ([`crate::msg::Msg`]) in its binary form: a tag byte plus raw
//! little-endian fields, every `f64` as its `to_bits` pattern, so NaN
//! payloads and signed zeros round-trip and a sharded trajectory is
//! reproducible to the last ulp (see `Msg::encode`).
//!
//! Decoding is total: torn, truncated, oversized, corrupted or
//! trailing-garbage frames come back as a typed [`CodecError`], never a
//! panic.

use crate::msg::Msg;
use md_sim::fnv1a64;
use std::io::{Read, Write};

/// Upper bound on a payload, to reject absurd length prefixes before
/// allocating (a torn frame can make the length field garbage).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A wire decoding failure.
#[derive(Debug)]
pub enum CodecError {
    /// The buffer/stream ended inside a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// The checksum footer does not match the payload bytes.
    BadChecksum {
        /// Checksum computed over the received payload.
        expected: u64,
        /// Checksum carried in the frame footer.
        found: u64,
    },
    /// The payload framing is intact but a message field is missing or
    /// malformed.
    BadField(String),
    /// An underlying I/O error while reading or writing a stream.
    Io(std::io::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::Oversize(len) => write!(f, "frame length {len} exceeds {MAX_FRAME}"),
            CodecError::BadChecksum { expected, found } => write!(
                f,
                "checksum mismatch: computed {expected:016x}, frame carries {found:016x}"
            ),
            CodecError::BadField(e) => write!(f, "bad message field: {e}"),
            CodecError::Io(e) => write!(f, "I/O: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> CodecError {
        CodecError::Io(e)
    }
}

/// The wire codec of [`crate::ProcessWorld::spawn`]'s last parameter.
/// Binary frames are the only encoding, so the parameter selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Tagged raw little-endian fields.
    Binary,
}

/// Encodes one message as a complete frame.
pub fn encode(msg: &Msg) -> Vec<u8> {
    frame(msg.encode())
}

/// Decodes one message from the front of `buf`, returning it and the
/// number of bytes consumed. The whole payload must be one message:
/// trailing bytes inside the payload are a [`CodecError`], not silence.
pub fn decode(buf: &[u8]) -> Result<(Msg, usize), CodecError> {
    let (body, used) = unframe(buf)?;
    Msg::decode(body).map(|m| (m, used))
}

/// Reads one message from a blocking stream. A stream that ends mid-frame
/// reports [`CodecError::Truncated`].
pub fn read_msg(r: &mut impl Read) -> Result<Msg, CodecError> {
    Msg::decode(&read_frame_body(r)?)
}

/// Writes one message to a stream and flushes it.
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> Result<(), CodecError> {
    w.write_all(&encode(msg))?;
    w.flush()?;
    Ok(())
}

/// Wraps a payload body into a complete frame.
pub fn frame(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    let sum = fnv1a64(&body);
    out.extend_from_slice(&body);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Splits one checksum-verified payload off the front of `buf`, returning
/// the body slice and the number of bytes consumed.
pub fn unframe(buf: &[u8]) -> Result<(&[u8], usize), CodecError> {
    if buf.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(CodecError::Oversize(len));
    }
    let need = 4 + len as usize + 8;
    if buf.len() < need {
        return Err(CodecError::Truncated);
    }
    let body = &buf[4..4 + len as usize];
    let found = u64::from_le_bytes(buf[4 + len as usize..need].try_into().unwrap());
    let expected = fnv1a64(body);
    if expected != found {
        return Err(CodecError::BadChecksum { expected, found });
    }
    Ok((body, need))
}

/// The length a full frame will occupy once `buf` holds at least its
/// 4-byte prefix: `Some(Ok(total))`, `Some(Err(Oversize))` on an absurd
/// prefix, or `None` while the prefix itself is still incomplete. Used by
/// the nonblocking peer-mesh pump to know when a frame is whole.
pub fn frame_len(buf: &[u8]) -> Option<Result<usize, CodecError>> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > MAX_FRAME {
        return Some(Err(CodecError::Oversize(len)));
    }
    Some(Ok(4 + len as usize + 8))
}

/// Reads one frame body from a blocking stream, verifying the checksum.
pub fn read_frame_body(r: &mut impl Read) -> Result<Vec<u8>, CodecError> {
    let mut head = [0u8; 4];
    read_exact_or_truncated(r, &mut head)?;
    let len = u32::from_le_bytes(head);
    if len > MAX_FRAME {
        return Err(CodecError::Oversize(len));
    }
    let mut body = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut body)?;
    let mut foot = [0u8; 8];
    read_exact_or_truncated(r, &mut foot)?;
    let found = u64::from_le_bytes(foot);
    let expected = fnv1a64(&body);
    if expected != found {
        return Err(CodecError::BadChecksum { expected, found });
    }
    Ok(body)
}

fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CodecError::Truncated
        } else {
            CodecError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_geometry::Vec3;

    fn sample() -> Msg {
        Msg::PeerPos {
            pos: vec![Vec3::new(-0.0, 1.5, f64::MIN_POSITIVE)],
        }
    }

    #[test]
    fn frames_round_trip() {
        let bytes = encode(&sample());
        let (back, used) = decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back.encode(), sample().encode());
        // And through the stream writer and reader.
        let mut stream = Vec::new();
        write_msg(&mut stream, &sample()).unwrap();
        assert_eq!(stream, bytes);
        let back = read_msg(&mut std::io::Cursor::new(stream)).unwrap();
        assert_eq!(back.encode(), sample().encode());
    }

    #[test]
    fn corrupted_payload_is_a_checksum_error() {
        let mut bytes = encode(&sample());
        bytes[6] ^= 0x40;
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadChecksum { .. })
        ));
    }

    #[test]
    fn torn_and_oversized_frames_are_typed_errors() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(matches!(decode(&bytes[..cut]), Err(CodecError::Truncated)));
        }
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(decode(&huge), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn frame_len_tracks_the_prefix() {
        let bytes = encode(&Msg::Begin);
        assert!(frame_len(&bytes[..3]).is_none());
        assert_eq!(frame_len(&bytes).unwrap().unwrap(), bytes.len());
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            frame_len(&huge),
            Some(Err(CodecError::Oversize(_)))
        ));
    }
}
