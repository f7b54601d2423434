//! The compact binary codec WAL records and snapshots are written in.
//!
//! Integers are LEB128 varints (session ids, counts, and string lengths
//! are small almost always), bitset blocks and cost bits are fixed 8-byte
//! little-endian words. Costs travel as `f64::to_bits` so a recovered
//! value is **bit-identical** to the one that was logged — recovery must
//! never round a cost, or a warm-served session would stop being
//! bit-identical to the cold run that paid for it.
//!
//! Decoding is strictly bounded: every read checks the remaining length
//! and returns [`CodecError`] instead of panicking, because the decoder's
//! input is whatever survived a crash.

use std::fmt;

/// A malformed or truncated encoding. The WAL layer treats any decode
/// error like a CRC mismatch: the record (and everything after it) is
/// part of a torn tail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// Append-only encoder over a byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose buffer starts with `n` zero bytes: room for a
    /// header the caller patches in once the rest is written.
    pub fn with_header(n: usize) -> Self {
        Self { buf: vec![0; n] }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop everything written, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 unsigned varint.
    #[inline]
    pub fn varu64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Fixed 8-byte little-endian word (bitset blocks, cost bits).
    #[inline]
    pub fn u64_fixed(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its exact bit pattern.
    #[inline]
    pub fn f64_bits(&mut self, v: f64) {
        self.u64_fixed(v.to_bits());
    }

    /// Length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.varu64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The decoder must consume its input exactly; trailing garbage means
    /// the encoding and decoding disagree.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            err(format!("{} trailing bytes", self.buf.len() - self.pos))
        }
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => err("unexpected end of input (u8)"),
        }
    }

    #[inline]
    pub fn varu64(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return err("varint overflows u64");
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return err("varint longer than 10 bytes");
            }
        }
    }

    /// A varint checked against an addressable-size bound, for counts and
    /// lengths (a torn length byte must not drive a huge allocation).
    pub fn count(&mut self, what: &str) -> Result<usize, CodecError> {
        let v = self.varu64()?;
        if v > self.remaining() as u64 {
            return err(format!("{what} count {v} exceeds remaining input"));
        }
        Ok(v as usize)
    }

    #[inline]
    pub fn u64_fixed(&mut self) -> Result<u64, CodecError> {
        if self.remaining() < 8 {
            return err("unexpected end of input (u64)");
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(word))
    }

    /// `n` fixed 8-byte words, appended to `out` (one bounds check for
    /// the run, not one per word).
    pub fn u64_words(&mut self, n: usize, out: &mut Vec<u64>) -> Result<(), CodecError> {
        if n > self.remaining() / 8 {
            return err(format!("{n} words exceed remaining input"));
        }
        let words = &self.buf[self.pos..self.pos + 8 * n];
        out.extend(
            words
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk"))),
        );
        self.pos += 8 * n;
        Ok(())
    }

    #[inline]
    pub fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64_fixed()?))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.varu64()?;
        if len > self.remaining() as u64 {
            return err(format!("byte string length {len} exceeds remaining input"));
        }
        let len = len as usize;
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|e| CodecError(format!("invalid UTF-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.varu64(v);
            let mut r = Reader::new(w.buf.as_slice());
            assert_eq!(r.varu64().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn f64_bits_are_exact() {
        for v in [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300] {
            let mut w = Writer::new();
            w.f64_bits(v);
            let mut r = Reader::new(w.buf.as_slice());
            assert_eq!(r.f64_bits().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = Writer::new();
        w.str("hello");
        w.u64_fixed(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let outcome = r.str().and_then(|_| r.u64_fixed());
            assert!(outcome.is_err(), "cut={cut} must not decode");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        // A length prefix far beyond the buffer must fail cleanly.
        let mut w = Writer::new();
        w.varu64(1 << 40);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).bytes().is_err());
        assert!(Reader::new(&bytes).count("entries").is_err());
    }
}
