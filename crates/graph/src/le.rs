//! Little-endian field access shared by the workspace's binary formats
//! (`SPAMGRPH` images, `SPAMSCRS` score vectors, `SPAMDLT` journals).
//!
//! The readers index directly: every caller bounds-checks the window
//! against the buffer length before decoding a field from it.

/// Reads the `u32` at `offset`. Panics when `offset + 4` exceeds `data`.
pub fn get_u32(data: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4-byte window"))
}

/// Reads the `u64` at `offset`. Panics when `offset + 8` exceeds `data`.
pub fn get_u64(data: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(data[offset..offset + 8].try_into().expect("8-byte window"))
}

/// Appends `v` to `buf`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
