//! WAL framing: `[u32 len LE][u32 crc LE][payload]` per record. Snapshot
//! files use the same frames.
//!
//! The reader walks frames until the file ends cleanly or a frame fails —
//! short header, short payload, length beyond the file, or CRC mismatch.
//! Any failure marks a *torn tail*: everything before it is the valid
//! prefix and is kept; everything from the failed frame on is truncated
//! away so the next append continues from a clean boundary. A torn tail
//! is the expected signature of dying mid-write, not an error.

use crate::codec::Writer;
use crate::crc::crc32;
use std::io::{self, Write};
use std::ops::Range;

/// Frame header: payload length + payload CRC, both little-endian u32.
pub const FRAME_HEADER: usize = 8;

/// Largest payload a frame may carry (64 MiB). A corrupted length word
/// must not drive a giant allocation; anything above this is torn.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Build one frame in one buffer: `encode` writes the payload after
/// [`FRAME_HEADER`] reserved bytes, then the payload's length and CRC are
/// patched into them. The payload is never copied. A payload over
/// [`MAX_PAYLOAD`] gets a frame too, which [`write_frame`] refuses.
pub fn frame(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_header(FRAME_HEADER);
    encode(&mut w);
    let mut frame = w.into_bytes();
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// Write one [`frame`]. Returns the bytes written (header + payload). A
/// payload over [`MAX_PAYLOAD`] is refused with
/// [`io::ErrorKind::InvalidInput`] before any byte is written: recovery
/// would read such a frame as a torn tail and drop it with everything
/// after it.
pub fn write_frame(out: &mut impl Write, frame: &[u8]) -> io::Result<u64> {
    let payload = frame.len() - FRAME_HEADER;
    if payload as u64 > u64::from(MAX_PAYLOAD) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{payload}-byte record exceeds the {MAX_PAYLOAD}-byte frame limit"),
        ));
    }
    out.write_all(frame)?;
    Ok(frame.len() as u64)
}

/// The frames of one generation file: where each payload of the valid
/// prefix sits in the buffer that was scanned.
pub struct WalScan {
    /// Byte ranges of every frame's payload in the valid prefix, in
    /// append order.
    pub payloads: Vec<Range<usize>>,
    /// Length of the valid prefix in bytes.
    pub valid_len: u64,
    /// Whether bytes after the valid prefix had to be discarded.
    pub torn: bool,
}

/// Scan every valid frame from the start of `buf`, a generation file's
/// whole contents. Payloads stay in `buf`: recovery decodes each one
/// where it lies.
pub fn scan(buf: &[u8]) -> WalScan {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == buf.len() {
            // Clean end: every byte belonged to a whole frame.
            return WalScan {
                payloads,
                valid_len: pos as u64,
                torn: false,
            };
        }
        let rest = &buf[pos..];
        if rest.len() < FRAME_HEADER {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD || rest.len() - FRAME_HEADER < len as usize {
            break;
        }
        let payload = pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize;
        if crc32(&buf[payload.clone()]) != crc {
            break;
        }
        pos = payload.end;
        payloads.push(payload);
    }
    WalScan {
        payloads,
        valid_len: pos as u64,
        torn: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payloads `got` found in `buf`, copied out for comparison.
    fn payloads(buf: &[u8], got: &WalScan) -> Vec<Vec<u8>> {
        got.payloads
            .iter()
            .map(|r| buf[r.clone()].to_vec())
            .collect()
    }

    /// `payload` as a frame.
    fn framed(payload: &[u8]) -> Vec<u8> {
        frame(|w| payload.iter().for_each(|&b| w.u8(b)))
    }

    /// Frame `payload` and write it to `buf`.
    fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<u64> {
        write_frame(buf, &framed(payload))
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let mut buf = Vec::new();
        let written: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![0xff; 1000]];
        for p in &written {
            append_frame(&mut buf, p).unwrap();
        }
        let got = scan(&buf);
        assert!(!got.torn);
        assert_eq!(payloads(&buf, &got), written);
    }

    #[test]
    fn frame_is_length_and_crc_then_the_payload() {
        let payload = b"payload bytes";
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&crc32(payload).to_le_bytes());
        expected.extend_from_slice(payload);
        assert_eq!(framed(payload), expected);
    }

    #[test]
    fn corrupt_byte_tears_the_tail_there() {
        let mut buf = Vec::new();
        let first = append_frame(&mut buf, b"keep me").unwrap();
        append_frame(&mut buf, b"lose me").unwrap();
        // Flip a payload byte of the second frame.
        buf[first as usize + FRAME_HEADER] ^= 0x01;
        let got = scan(&buf);
        assert!(got.torn);
        assert_eq!(payloads(&buf, &got), vec![b"keep me".to_vec()]);
        assert_eq!(got.valid_len, first);
    }

    #[test]
    fn truncation_mid_frame_keeps_the_prefix() {
        let mut buf = Vec::new();
        let first = append_frame(&mut buf, b"whole").unwrap();
        append_frame(&mut buf, b"half-written record").unwrap();
        // Cut anywhere inside the second frame: same valid prefix.
        for cut in first as usize + 1..buf.len() {
            let got = scan(&buf[..cut]);
            assert!(got.torn, "cut={cut}");
            assert_eq!(got.payloads.len(), 1, "cut={cut}");
            assert_eq!(got.valid_len, first, "cut={cut}");
        }
    }

    #[test]
    fn oversized_length_word_is_torn_not_allocated() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"ok").unwrap();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let got = scan(&buf);
        assert!(got.torn);
        assert_eq!(payloads(&buf, &got), vec![b"ok".to_vec()]);
    }

    #[test]
    fn empty_file_scans_clean() {
        let got = scan(&[]);
        assert!(!got.torn);
        assert!(got.payloads.is_empty());
        assert_eq!(got.valid_len, 0);
    }
}
