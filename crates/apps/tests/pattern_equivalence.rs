//! The block-wise pattern kernels against the per-byte reference.
//!
//! `fill_pattern` and `count_pattern_mismatches` compute the stream a
//! 256-byte block at a time with no multiply in the inner loop; every
//! byte they produce or check must equal `pattern_byte` at the same
//! position — across block seams, across the `u64::MAX` wrap, and with
//! injected errors counted exactly.

use apps::pattern::{count_pattern_mismatches, fill_pattern, pattern_byte, verify_pattern};
use proptest::prelude::*;

fn reference(start: u64, len: usize) -> Vec<u8> {
    (0..len as u64).map(|i| pattern_byte(start.wrapping_add(i))).collect()
}

fn reference_mismatches(start: u64, data: &[u8]) -> (u64, Option<u64>) {
    let mut errors = 0;
    let mut first = None;
    for (i, &b) in data.iter().enumerate() {
        if b != pattern_byte(start.wrapping_add(i as u64)) {
            errors += 1;
            first.get_or_insert(i as u64);
        }
    }
    (errors, first)
}

/// Starts biased towards the interesting places: anywhere, just before
/// a 256-byte block seam, and just before the `u64::MAX` wrap.
fn arb_start() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (any::<u64>(), 1u64..=64).prop_map(|(p, back)| (p & !0xFF).wrapping_sub(back)),
        (0u64..=4096).prop_map(|back| u64::MAX - back),
    ]
}

proptest! {
    #[test]
    fn fill_matches_reference(start in arb_start(), len in 0usize..=4096) {
        let mut buf = vec![0xA5u8; len];
        fill_pattern(start, &mut buf);
        prop_assert_eq!(buf, reference(start, len));
    }

    #[test]
    fn clean_stream_has_no_mismatches(start in arb_start(), len in 0usize..=4096) {
        let data = reference(start, len);
        prop_assert_eq!(count_pattern_mismatches(start, &data), (0, None));
        prop_assert_eq!(verify_pattern(start, &data), None);
    }

    #[test]
    fn injected_errors_are_counted_exactly(
        start in arb_start(),
        len in 1usize..=4096,
        hits in proptest::collection::vec((0.0f64..1.0, 1u8..=255), 1..12),
    ) {
        let mut data = reference(start, len);
        for &(frac, flip) in &hits {
            let at = ((len as f64) * frac) as usize;
            data[at.min(len - 1)] ^= flip;
        }
        let want = reference_mismatches(start, &data);
        prop_assert!(want.0 > 0 || hits.len() > 1, "a lone flip always lands");
        prop_assert_eq!(count_pattern_mismatches(start, &data), want);
        prop_assert_eq!(
            verify_pattern(start, &data),
            want.1.map(|i| start.wrapping_add(i))
        );
    }
}

#[test]
fn every_seam_offset_and_short_length() {
    // Exhaustive over the phase within a block and lengths that end
    // before, on, and after the next seam (and the one after that).
    for phase in 0..256u64 {
        let start = 0x1234_5600 + phase;
        for len in [0, 1, 15, 16, 17, 255, 256, 257, 511, 512, 513] {
            let mut buf = vec![0u8; len];
            fill_pattern(start, &mut buf);
            assert_eq!(buf, reference(start, len), "start {start:#x}, len {len}");
        }
    }
}

#[test]
fn wraps_at_u64_max() {
    let start = u64::MAX - 300;
    let mut buf = vec![0u8; 700];
    fill_pattern(start, &mut buf);
    assert_eq!(buf, reference(start, 700));
    // Corrupt the bytes either side of the wrap: the count and the
    // first index are positions in `data`, not stream positions.
    buf[300] ^= 1; // stream position u64::MAX
    buf[301] ^= 2; // stream position 0
    assert_eq!(count_pattern_mismatches(start, &buf), (2, Some(300)));
    assert_eq!(verify_pattern(start, &buf), Some(u64::MAX));
}
