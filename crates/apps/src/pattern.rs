//! Deterministic, position-indexed byte patterns.
//!
//! Every server response byte is a pure function of its position in the
//! response stream, which lets the client assert *content* correctness —
//! catching duplicated, reordered, or lost bytes across a failover, not
//! merely counting them.

/// Multiplier of the pattern mix.
const K: u64 = 0x9E37_79B9_7F4A_7C15;
/// Positions sharing `pos >> 8` form one block of the fast kernels.
const BLOCK: usize = 256;
/// Independent accumulators in the fast fill loop.
const LANES: usize = 16;

/// The byte at position `pos` of a deterministic stream.
///
/// A cheap non-repeating-ish mix; consecutive runs differ from simple
/// counters so off-by-one splices are detected. This is the reference
/// definition; [`fill_pattern`] and [`count_pattern_mismatches`] compute
/// the same bytes block-wise.
///
/// ```
/// use apps::pattern::{fill_pattern, verify_pattern};
///
/// let mut buf = [0u8; 32];
/// fill_pattern(1_000, &mut buf);
/// assert_eq!(verify_pattern(1_000, &buf), None);
/// buf[7] ^= 1;
/// assert_eq!(verify_pattern(1_000, &buf), Some(1_007));
/// ```
pub fn pattern_byte(pos: u64) -> u8 {
    let x = pos.wrapping_mul(K).rotate_left(17) ^ pos;
    (x >> 8) as u8
}

/// Fills `buf` with the pattern starting at stream position `start`.
///
/// Bits 8..16 of `rotl(p·K, 17) ^ p` are bits 55..63 of `p·K` xor bits
/// 8..16 of `p`, so `pattern_byte(p) == ((p·K >> 55) ^ (p >> 8)) as u8`.
/// Inside a 256-byte-aligned block `p >> 8` is constant and `p·K` steps
/// by `K`: the loop is an add, a shift and a xor per byte, no multiply.
pub fn fill_pattern(start: u64, buf: &mut [u8]) {
    let mut pos = start;
    let mut rest = buf;
    while !rest.is_empty() {
        let n = block_room(pos).min(rest.len());
        let (head, tail) = rest.split_at_mut(n);
        fill_block(pos, head);
        pos = pos.wrapping_add(n as u64);
        rest = tail;
    }
}

/// Counts bytes of `data` differing from the pattern stream at `start`;
/// also reports the index *within `data`* of the first difference.
pub fn count_pattern_mismatches(start: u64, data: &[u8]) -> (u64, Option<u64>) {
    let mut expected = [0u8; BLOCK];
    let mut errors = 0u64;
    let mut first = None;
    let mut pos = start;
    let mut done = 0usize;
    while done < data.len() {
        let n = block_room(pos).min(data.len() - done);
        let got = &data[done..done + n];
        let want = &mut expected[..n];
        fill_block(pos, want);
        if got != want {
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                if g != w {
                    errors += 1;
                    first.get_or_insert((done + i) as u64);
                }
            }
        }
        pos = pos.wrapping_add(n as u64);
        done += n;
    }
    (errors, first)
}

/// Verifies that `data` equals the pattern starting at `start`.
/// Returns the position of the first mismatch, if any.
pub fn verify_pattern(start: u64, data: &[u8]) -> Option<u64> {
    count_pattern_mismatches(start, data).1.map(|i| start.wrapping_add(i))
}

/// Positions from `pos` to the end of its 256-byte block (1..=256).
fn block_room(pos: u64) -> usize {
    BLOCK - (pos as usize % BLOCK)
}

/// Fills `out` (which must not cross a block seam) from position `pos`.
fn fill_block(pos: u64, out: &mut [u8]) {
    debug_assert!(out.len() <= block_room(pos));
    let hi = (pos >> 8) as u8;
    let base = pos.wrapping_mul(K);
    let mut lanes = [0u64; LANES];
    for (j, lane) in lanes.iter_mut().enumerate() {
        *lane = base.wrapping_add(K.wrapping_mul(j as u64));
    }
    let step = K.wrapping_mul(LANES as u64);
    let mut chunks = out.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for (b, lane) in chunk.iter_mut().zip(lanes.iter_mut()) {
            *b = (*lane >> 55) as u8 ^ hi;
            *lane = lane.wrapping_add(step);
        }
    }
    for (b, lane) in chunks.into_remainder().iter_mut().zip(lanes.iter()) {
        *b = (*lane >> 55) as u8 ^ hi;
    }
}

/// The content of request number `idx` (requests are also patterned so
/// the echo server's reflection can be verified byte-for-byte).
pub fn request_bytes(idx: u64, size: usize) -> Vec<u8> {
    let mut buf = vec![0u8; size];
    // Requests draw from a disjoint region of the pattern space;
    // positions wrap (the pattern is defined on all of u64).
    fill_pattern((u64::MAX / 2).wrapping_add(idx.wrapping_mul(size as u64)), &mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(pattern_byte(12345), pattern_byte(12345));
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        fill_pattern(1000, &mut a);
        fill_pattern(1000, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn verify_accepts_and_locates_mismatch() {
        let mut buf = [0u8; 128];
        fill_pattern(500, &mut buf);
        assert_eq!(verify_pattern(500, &buf), None);
        buf[77] ^= 0xFF;
        assert_eq!(verify_pattern(500, &buf), Some(577));
    }

    #[test]
    fn splices_are_detected() {
        // A stream that skips one byte must fail verification.
        let mut good = [0u8; 32];
        fill_pattern(0, &mut good);
        let mut spliced = Vec::from(&good[..16]);
        spliced.extend_from_slice(&good[17..]); // dropped byte 16
        assert!(verify_pattern(0, &spliced).is_some());
        // A duplicated byte must fail too.
        let mut duped = Vec::from(&good[..16]);
        duped.push(good[15]);
        duped.extend_from_slice(&good[16..31]);
        assert!(verify_pattern(0, &duped).is_some());
    }

    #[test]
    fn requests_differ_by_index() {
        assert_ne!(request_bytes(0, 150), request_bytes(1, 150));
        assert_eq!(request_bytes(3, 150), request_bytes(3, 150));
        assert_eq!(request_bytes(0, 150).len(), 150);
    }

    #[test]
    fn distribution_is_not_constant() {
        let distinct: std::collections::HashSet<u8> = (0..1024).map(pattern_byte).collect();
        assert!(distinct.len() > 100, "pattern should cover many byte values");
    }
}
