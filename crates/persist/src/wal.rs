//! WAL framing: `[u32 len LE][u32 crc LE][payload]` per record. Snapshot
//! files use the same frames.
//!
//! The reader walks frames until the file ends cleanly or a frame fails —
//! short header, short payload, length beyond the file, or CRC mismatch.
//! Any failure marks a *torn tail*: everything before it is the valid
//! prefix and is kept; everything from the failed frame on is truncated
//! away so the next append continues from a clean boundary. A torn tail
//! is the expected signature of dying mid-write, not an error.

use crate::crc::crc32;
use std::fs::File;
use std::io::{self, Read, Write};

/// Frame header: payload length + payload CRC, both little-endian u32.
pub const FRAME_HEADER: usize = 8;

/// Largest payload a frame may carry (64 MiB). A corrupted length word
/// must not drive a giant allocation; anything above this is torn.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Append one framed payload. Returns the bytes written (header + payload).
/// A payload over [`MAX_PAYLOAD`] is refused with
/// [`io::ErrorKind::InvalidInput`] before any byte is written: recovery
/// would read such a frame as a torn tail and drop it with everything
/// after it.
pub fn append_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    if payload.len() as u64 > u64::from(MAX_PAYLOAD) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{}-byte record exceeds the {MAX_PAYLOAD}-byte frame limit",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    out.write_all(&frame)?;
    Ok(frame.len() as u64)
}

/// The result of scanning a WAL file.
pub struct WalScan {
    /// Payloads of every frame in the valid prefix, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Length of the valid prefix in bytes.
    pub valid_len: u64,
    /// Whether bytes after the valid prefix had to be discarded.
    pub torn: bool,
}

/// Scan every valid frame from the start of `file`.
pub fn scan(file: &mut File) -> io::Result<WalScan> {
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == buf.len() {
            // Clean end: every byte belonged to a whole frame.
            return Ok(WalScan {
                payloads,
                valid_len: pos as u64,
                torn: false,
            });
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
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len as usize];
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        pos += FRAME_HEADER + len as usize;
    }
    Ok(WalScan {
        payloads,
        valid_len: pos as u64,
        torn: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Seek;

    fn temp_wal(tag: &str) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "ixtune-persist-waltest-{tag}-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        (path, file)
    }

    fn rewound(mut file: File) -> File {
        file.rewind().unwrap();
        file
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let (path, mut file) = temp_wal("roundtrip");
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![0xff; 1000]];
        for p in &payloads {
            append_frame(&mut file, p).unwrap();
        }
        let got = scan(&mut rewound(file)).unwrap();
        assert!(!got.torn);
        assert_eq!(got.payloads, payloads);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupt_byte_tears_the_tail_there() {
        let (path, mut file) = temp_wal("corrupt");
        let first = append_frame(&mut file, b"keep me").unwrap();
        append_frame(&mut file, b"lose me").unwrap();
        // Flip a payload byte of the second frame.
        let mut raw = std::fs::read(&path).unwrap();
        let idx = first as usize + FRAME_HEADER;
        raw[idx] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let mut file = File::open(&path).unwrap();
        let got = scan(&mut file).unwrap();
        assert!(got.torn);
        assert_eq!(got.payloads, vec![b"keep me".to_vec()]);
        assert_eq!(got.valid_len, first);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn truncation_mid_frame_keeps_the_prefix() {
        let (path, mut file) = temp_wal("truncate");
        let first = append_frame(&mut file, b"whole").unwrap();
        append_frame(&mut file, b"half-written record").unwrap();
        drop(file);
        let raw = std::fs::read(&path).unwrap();
        // Cut anywhere inside the second frame: same valid prefix.
        for cut in first as usize + 1..raw.len() {
            std::fs::write(&path, &raw[..cut]).unwrap();
            let got = scan(&mut File::open(&path).unwrap()).unwrap();
            assert!(got.torn, "cut={cut}");
            assert_eq!(got.payloads.len(), 1, "cut={cut}");
            assert_eq!(got.valid_len, first, "cut={cut}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn oversized_length_word_is_torn_not_allocated() {
        let (path, mut file) = temp_wal("oversized");
        append_frame(&mut file, b"ok").unwrap();
        file.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        file.write_all(&0u32.to_le_bytes()).unwrap();
        let got = scan(&mut rewound(file)).unwrap();
        assert!(got.torn);
        assert_eq!(got.payloads, vec![b"ok".to_vec()]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_file_scans_clean() {
        let (path, file) = temp_wal("empty");
        let got = scan(&mut rewound(file)).unwrap();
        assert!(!got.torn);
        assert!(got.payloads.is_empty());
        assert_eq!(got.valid_len, 0);
        std::fs::remove_file(path).unwrap();
    }
}
