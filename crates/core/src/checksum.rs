//! CRC-32 (IEEE 802.3, reflected), the one checksum of the workspace:
//! it guards WAL records and snapshot sections in `vdb-storage`, wire
//! frames and cluster manifests in `vdb-distributed`, and the serving
//! layer's frames.

/// CRC-32 (IEEE 802.3, reflected) over a byte slice. Bitwise, with no
/// lookup table.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
