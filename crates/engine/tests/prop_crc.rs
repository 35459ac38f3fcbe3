//! Property test: the slice-by-16 `crc32` kernel agrees with a bitwise
//! CRC-32 at every length and alignment, so both the sixteen-byte loop and
//! the byte-at-a-time tail are covered.

use mystore_engine::wal::crc32;
use proptest::prelude::*;

/// CRC-32 (IEEE 802.3, reflected), one bit at a time: the reference.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sliced_kernel_matches_the_bitwise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 4112..4113),
        offset in 0usize..16,
        len in 0usize..4097,
    ) {
        let data = &bytes[offset..offset + len];
        prop_assert_eq!(crc32(data), crc32_bitwise(data));
    }
}

#[test]
fn every_length_up_to_two_blocks_matches() {
    let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    for offset in 0..16 {
        for len in 0..=(bytes.len() - offset) {
            let data = &bytes[offset..offset + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "offset {offset}, len {len}");
        }
    }
}
