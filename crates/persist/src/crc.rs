//! CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding every
//! WAL record and snapshot payload.
//!
//! Slicing-by-8: eight compile-time tables let one step fold eight input
//! bytes with eight independent lookups, where the classic bytewise loop
//! (table 0 alone, one dependent lookup per byte) folds one. Recovery
//! checks every byte of every generation file, so this is its first cost.
//! The bits are the bytewise loop's; the test module keeps that loop as
//! the oracle.

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC state of
/// byte `b` followed by `k` zero bytes, so a byte `k` positions before the
/// end of an 8-byte word is folded with table `k`.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table, built bit by bit on its own: the oracle does
    /// not share the sliced tables.
    const fn bytewise_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }

    static BYTEWISE: [u32; 256] = bytewise_table();

    /// The classic one-lookup-per-byte CRC-32.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ BYTEWISE[((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn matches_known_vectors() {
        // Published IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"budget-aware index tuning".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "byte {byte} bit {bit}");
            }
        }
    }

    proptest! {
        /// The sliced CRC equals the bytewise oracle on any bytes, at any
        /// length up to 4 KiB, starting at every offset mod 8 (a frame's
        /// payload sits 8 bytes past wherever its frame starts).
        #[test]
        fn sliced_crc_equals_the_bytewise_oracle(
            data in prop::collection::vec(any::<u8>(), 0..4096 + 8),
            start in 0usize..8,
        ) {
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(crc32(data), bytewise(data));
        }
    }
}
