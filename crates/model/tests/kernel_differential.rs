//! Differential property tests for the chunked word kernels of
//! `mbsp_model::kernels` against their retained scalar oracles, over 100+
//! seeded random word slices per kernel.
//!
//! The chunked forms exist purely for speed (fixed-size `chunks_exact` bodies
//! that LLVM unrolls and autovectorizes); these tests pin down that they are
//! drop-in equivalent to the one-word-at-a-time loops on every length class —
//! empty, sub-chunk, exact multiples of the chunk width and ragged remainders —
//! and on near-miss inputs that differ in exactly one word.

use mbsp_model::kernels::{masked_subset, masked_subset_scalar, words_equal, words_equal_scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_words(rng: &mut StdRng, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| {
            // Mix sparse, dense and boundary words so the accumulator paths see
            // all-zero, all-one and mixed chunks.
            match rng.gen_range(0..4u32) {
                0 => 0u64,
                1 => u64::MAX,
                2 => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                _ => rng.gen::<u64>(),
            }
        })
        .collect()
}

#[test]
fn equality_kernel_matches_the_scalar_oracle() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..120 {
        let len = case % 37;
        let a = random_words(&mut rng, len);
        // Equal pair.
        assert!(words_equal(&a, &a.clone()), "case {case}: equal pair");
        if len > 0 {
            // Near miss: flip one bit of one word.
            let mut b = a.clone();
            let at = rng.gen_range(0..len);
            b[at] ^= 1u64 << rng.gen_range(0..64u32);
            assert!(!words_equal(&a, &b), "case {case}: single-bit flip at {at}");
            assert_eq!(words_equal(&a, &b), words_equal_scalar(&a, &b));
            // Length mismatch is unequal on both paths.
            assert_eq!(
                words_equal(&a, &a[..len - 1]),
                words_equal_scalar(&a, &a[..len - 1])
            );
        }
        // Independent random pair.
        let c = random_words(&mut rng, len);
        assert_eq!(
            words_equal(&a, &c),
            words_equal_scalar(&a, &c),
            "case {case}: random pair"
        );
    }
}

#[test]
fn subset_kernel_matches_the_scalar_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for case in 0..150 {
        let red_len = 1 + case % 24;
        let red = random_words(&mut rng, red_len);
        let entries = case % 19; // 0..=18 entries: empty, sub-chunk, ragged
        let words: Vec<u32> = (0..entries)
            .map(|_| rng.gen_range(0..red_len as u32))
            .collect();
        // Three mask flavours: guaranteed subsets, random masks, and
        // single-missing-bit near misses.
        let subset_masks: Vec<u64> = words
            .iter()
            .map(|&w| red[w as usize] & rng.gen::<u64>())
            .collect();
        assert!(
            masked_subset(&red, &words, &subset_masks),
            "case {case}: guaranteed subset rejected"
        );
        assert_eq!(
            masked_subset(&red, &words, &subset_masks),
            masked_subset_scalar(&red, &words, &subset_masks)
        );

        let random_masks: Vec<u64> = (0..entries).map(|_| rng.gen()).collect();
        assert_eq!(
            masked_subset(&red, &words, &random_masks),
            masked_subset_scalar(&red, &words, &random_masks),
            "case {case}: random masks"
        );

        if entries > 0 {
            let mut near = subset_masks.clone();
            let at = rng.gen_range(0..entries);
            let missing = !red[words[at] as usize];
            if missing != 0 {
                // Set one bit that the red word does not have.
                let bit = missing & missing.wrapping_neg();
                near[at] |= bit;
                assert!(
                    !masked_subset(&red, &words, &near),
                    "case {case}: near miss at entry {at}"
                );
                assert_eq!(
                    masked_subset(&red, &words, &near),
                    masked_subset_scalar(&red, &words, &near)
                );
            }
        }
    }
}
