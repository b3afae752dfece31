//! Chunked word-loop kernels for the pebble bitsets.
//!
//! The hot paths of candidate evaluation spend their time in two word-level
//! operations over the packed red/blue bitsets of [`crate::Configuration`]:
//! whole-state equality (the post-optimiser's exact fast-accept) and the
//! `parents ⊆ R_p` subset test of a compute in
//! [`crate::Configuration::apply`]. (Cache occupancy is tracked per
//! processor as pebbles come and go, so nothing counts bits.) The straightforward
//! one-word-at-a-time loops compile to serial scalar code; the kernels here
//! process the words in fixed-size chunks (`chunks_exact`) with a branch-free
//! accumulator per chunk, which LLVM unrolls and — on SIMD targets —
//! autovectorizes, while the per-chunk early exits keep the expected cost of
//! failing subset/equality tests as low as the scalar loop's.
//!
//! Every kernel has a one-word-at-a-time `*_scalar` form next to it — the
//! ground truth that `tests/kernel_differential.rs` compares the chunked loop
//! with (seeded random word slices, both must agree exactly). It is reached by
//! name only: no caller outside the tests runs it, and nothing selects it at
//! run time.

/// Words per chunk of [`words_equal`]. Eight `u64`s are
/// one cache line — wide enough for two 256-bit vector lanes, small enough that
/// an early exit loses at most a line of work.
const EQ_CHUNK: usize = 8;

/// Words per chunk of [`masked_subset`]. Parent masks of one node rarely span
/// more than a few words, so the chunk is kept narrow to make the remainder
/// loop the common case only for tiny entries.
const SUBSET_CHUNK: usize = 4;

/// Are the two word slices equal? Slices of different lengths are unequal.
///
/// Chunked form of [`words_equal_scalar`]: each chunk ORs the eight XOR lanes
/// into one accumulator and tests it once, so the body is branch-free and
/// vectorizable while a difference still exits after at most one chunk.
#[inline]
pub fn words_equal(a: &[u64], b: &[u64]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut ca = a.chunks_exact(EQ_CHUNK);
    let mut cb = b.chunks_exact(EQ_CHUNK);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        let mut diff = 0u64;
        for k in 0..EQ_CHUNK {
            diff |= xa[k] ^ xb[k];
        }
        if diff != 0 {
            return false;
        }
    }
    ca.remainder()
        .iter()
        .zip(cb.remainder())
        .all(|(&xa, &xb)| xa == xb)
}

/// One-word-at-a-time form of [`words_equal`] — the differential oracle.
#[inline]
pub fn words_equal_scalar(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&xa, &xb)| xa == xb)
}

/// Is every mask contained in its word of `red`? `words[k]` indexes into `red`,
/// and the test is `red[words[k]] & masks[k] == masks[k]` for all `k` — the
/// CSR-sliced `parents ⊆ R_p` precondition of a compute in
/// [`crate::Configuration::apply`].
///
/// Chunked form of [`masked_subset_scalar`]: four entries per iteration feed
/// one OR-accumulated "missing bits" word that is tested once per chunk, so
/// high-fan-in nodes (whose parents span many words) check four words per
/// branch instead of one.
///
/// # Panics
/// In debug builds, if `words` and `masks` differ in length or a word index is
/// out of bounds (release builds bounds-check each `red` access as usual).
#[inline]
pub fn masked_subset(red: &[u64], words: &[u32], masks: &[u64]) -> bool {
    debug_assert_eq!(words.len(), masks.len());
    let mut cw = words.chunks_exact(SUBSET_CHUNK);
    let mut cm = masks.chunks_exact(SUBSET_CHUNK);
    for (xw, xm) in (&mut cw).zip(&mut cm) {
        let mut missing = 0u64;
        for k in 0..SUBSET_CHUNK {
            // Bits of the mask that are not present in the word.
            missing |= xm[k] & !red[xw[k] as usize];
        }
        if missing != 0 {
            return false;
        }
    }
    cw.remainder()
        .iter()
        .zip(cm.remainder())
        .all(|(&w, &m)| red[w as usize] & m == m)
}

/// One-entry-at-a-time form of [`masked_subset`] — the differential oracle.
#[inline]
pub fn masked_subset_scalar(red: &[u64], words: &[u32], masks: &[u64]) -> bool {
    debug_assert_eq!(words.len(), masks.len());
    words
        .iter()
        .zip(masks)
        .all(|(&w, &m)| red[w as usize] & m == m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_matches_oracle_for_every_flip_position() {
        let a: Vec<u64> = (0..19u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        assert!(words_equal(&a, &a));
        for flip in 0..a.len() {
            let mut b = a.clone();
            b[flip] ^= 1 << (flip % 64);
            assert!(!words_equal(&a, &b));
            assert_eq!(words_equal(&a, &b), words_equal_scalar(&a, &b));
        }
        assert!(!words_equal(&a, &a[..18]));
    }

    #[test]
    fn subset_matches_oracle_for_every_missing_entry() {
        let red: Vec<u64> = (0..6u64).map(|i| !(i.wrapping_mul(0x00FF_00F0))).collect();
        let words: Vec<u32> = (0..11u32).map(|k| k % 6).collect();
        let masks: Vec<u64> = words.iter().map(|&w| red[w as usize]).collect();
        assert!(masked_subset(&red, &words, &masks));
        for k in 0..masks.len() {
            let mut bad = masks.clone();
            bad[k] |= !red[words[k] as usize];
            if bad[k] == masks[k] {
                continue; // the word is already all-ones
            }
            assert!(!masked_subset(&red, &words, &bad));
            assert_eq!(
                masked_subset(&red, &words, &bad),
                masked_subset_scalar(&red, &words, &bad)
            );
        }
        assert!(masked_subset(&red, &[], &[]));
    }
}
