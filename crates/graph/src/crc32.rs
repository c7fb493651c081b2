//! CRC-32 (IEEE 802.3 / zlib polynomial) behind every checksum the system
//! stores: v3/v4 graph images, `SPAMSCRS` score files, `SPAMDLT` journal
//! batches and the state `MANIFEST`. Implemented locally because the build
//! environment is offline.
//!
//! **Slice-by-16.** Sixteen 256-entry tables (16 KiB), computed at compile
//! time: table `k` advances a byte's contribution through `k` further zero
//! bytes, so one step folds 16 input bytes — read as four little-endian
//! words — with 16 independent lookups instead of a chain of 16 dependent
//! ones. The tail under 16 bytes goes a byte at a time through table 0.
//! The polynomial and every checksum value are those of the bytewise
//! loop this replaced, so every stored CRC field is unchanged.
//!
//! Measured on a 2-core x86-64 guest, one 88 MiB buffer, best of 5:
//! bytewise 259 MB/s, slice-by-8 1 090–1 100 MB/s, slice-by-16
//! 1 350–1 420 MB/s.
//!
//! **No hardware path.** Carry-less multiply folding (PCLMULQDQ) would go
//! faster still, but needs `unsafe`, runtime CPU detection and this table
//! version kept beside it as the fallback — two implementations of one
//! checksum. At slice-by-16 speed the CRC is a small share of any load or
//! save, which bounds what a second path could win.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues the CRC-32 `crc` of some bytes `a` over the bytes that
/// follow them: `crc32_update(crc32(a), b) == crc32(a ++ b)`. Lets a
/// writer checksum an image one chunk at a time as the chunks go out.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let word =
            |i: usize| u32::from_le_bytes([chunk[i], chunk[i + 1], chunk[i + 2], chunk[i + 3]]);
        let (w0, w1, w2, w3) = (word(0) ^ crc, word(4), word(8), word(12));
        crc = t[15][byte(w0, 0)]
            ^ t[14][byte(w0, 8)]
            ^ t[13][byte(w0, 16)]
            ^ t[12][byte(w0, 24)]
            ^ t[11][byte(w1, 0)]
            ^ t[10][byte(w1, 8)]
            ^ t[9][byte(w1, 16)]
            ^ t[8][byte(w1, 24)]
            ^ t[7][byte(w2, 0)]
            ^ t[6][byte(w2, 8)]
            ^ t[5][byte(w2, 16)]
            ^ t[4][byte(w2, 24)]
            ^ t[3][byte(w3, 0)]
            ^ t[2][byte(w3, 8)]
            ^ t[1][byte(w3, 16)]
            ^ t[0][byte(w3, 24)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32 with no table: eight shift/xor steps a byte.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Deterministic bytes (splitmix64), so failures reproduce.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn matches_bitwise_reference_on_every_short_length() {
        let data = noise(256, 1);
        for len in 0..=256 {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn matches_bitwise_reference_on_random_lengths_and_offsets() {
        let data = noise(64 * 1024 + 16, 2);
        let lengths = noise(64, 3);
        for (i, pair) in lengths.chunks_exact(2).enumerate() {
            let len = u16::from_le_bytes([pair[0], pair[1]]) as usize;
            // Every start offset 0..16 puts the 16-byte steps at a
            // different alignment of the same bytes.
            let offset = i % 16;
            let slice = &data[offset..offset + len];
            assert_eq!(crc32(slice), reference(slice), "offset {offset}, len {len}");
        }
        for offset in 0..16 {
            let slice = &data[offset..offset + 4099];
            assert_eq!(crc32(slice), reference(slice), "offset {offset}");
        }
    }

    #[test]
    fn update_continues_a_crc_across_every_split() {
        let data = noise(4096, 4);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), whole, "split {split}");
        }
        // Three pieces at seeded split points, as a chunked writer feeds it.
        let cuts = noise(128, 5);
        for pair in cuts.chunks_exact(4) {
            let cut = |lo: u8, hi: u8| u16::from_le_bytes([lo, hi]) as usize % (data.len() + 1);
            let (x, y) = (cut(pair[0], pair[1]), cut(pair[2], pair[3]));
            let (lo, hi) = (x.min(y), x.max(y));
            let crc = crc32_update(crc32_update(crc32(&data[..lo]), &data[lo..hi]), &data[hi..]);
            assert_eq!(crc, whole, "splits {lo}, {hi}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        data[13] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
