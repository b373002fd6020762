//! Table-driven CRC32 (IEEE 802.3 polynomial, the `zlib`/`cksum -o3`
//! variant): the integrity primitive behind every snapshot section and the
//! manifest journal. Hand-rolled because the workspace vendors no
//! compression or hashing crates.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 of `bytes` (init `0xFFFF_FFFF`, final xor, reflected — the value
/// `crc32()` in zlib would produce).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let base = b"snapshot payload bytes".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupt = base.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), reference, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
