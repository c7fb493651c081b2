// Test-only encoder for the retired `SPAMGRPH` v1/v2 edge-list images,
// byte for byte what the writers deleted in PR 16 produced. The library
// only *reads* these formats now; this fixture is what keeps that import
// path honest. Pure `std` (its own bitwise CRC-32 included, an independent
// cross-check of the table-driven one) so any crate's tests can pull it in:
//
//     include!(concat!(env!("CARGO_MANIFEST_DIR"), "/../graph/tests/support/legacy_image.rs"));

/// Encodes `edges` over `nodes` hosts as a legacy image of `version` 1
/// (unchecksummed) or 2 (CRC-32 + trailing length sentinel). Edges are
/// written sorted and deduplicated, the order the old writers got from
/// walking the CSR.
#[allow(dead_code)]
fn legacy_image(version: u32, nodes: usize, edges: &[(u32, u32)]) -> Vec<u8> {
    assert!(version == 1 || version == 2, "legacy versions are 1 and 2");
    let mut edges = edges.to_vec();
    edges.sort_unstable();
    edges.dedup();
    let mut buf = Vec::new();
    buf.extend_from_slice(b"SPAMGRPH");
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(nodes as u64).to_le_bytes());
    buf.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for (from, to) in edges {
        buf.extend_from_slice(&from.to_le_bytes());
        buf.extend_from_slice(&to.to_le_bytes());
    }
    if version == 2 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in &buf {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        buf.extend_from_slice(&(crc ^ 0xFFFF_FFFF).to_le_bytes());
        let total = buf.len() as u64 + 8;
        buf.extend_from_slice(&total.to_le_bytes());
    }
    buf
}
