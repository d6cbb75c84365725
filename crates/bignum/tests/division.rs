//! `BigUint::div_rem` (Knuth's Algorithm D) against the shift-and-subtract
//! oracle in `common/`, over 1–40-limb operands.
//!
//! Uniform random limbs almost never reach Algorithm D's rare branches: the
//! second q̂ correction and the add-back step each fire with probability
//! about 2/2⁶⁴ per quotient limb. Half the cases therefore build both
//! operands from a few extreme words only (mostly zero, so the operands are
//! sparse, plus 1, `0x8000…` and all-ones): measured over 500 such
//! divisions, one in seven adds back and one in fifteen corrects a digit's
//! q̂ twice. The named cases pin one hit of each. (The second correction is
//! a shortcut, not a correctness step: without it the add-back still lands
//! the right digit.)

mod common;

use common::{div_rem_shift_subtract, from_limbs};
use proptest::prelude::*;

const EXTREME: [u64; 6] = [0, 0, 0, 1, 0x8000_0000_0000_0000, u64::MAX];

/// Limbs from raw draws: each one uniform or an extreme word (a coin flip
/// per limb), or every one extreme when `extreme_only`.
fn shape(draws: &[[u64; 2]], extreme_only: bool) -> Vec<u64> {
    draws
        .iter()
        .map(|&[pick, word]| match extreme_only || pick % 2 == 1 {
            false => word,
            true => EXTREME[(word % EXTREME.len() as u64) as usize],
        })
        .collect()
}

fn draws(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<[u64; 2]>> {
    proptest::collection::vec(any::<[u64; 2]>(), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn div_rem_matches_shift_subtract(
        a in draws(1..41),
        b_low in draws(0..40),
        b_top in any::<[u64; 2]>(),
        top_kind in 0u8..3,
        extreme_only in any::<bool>(),
    ) {
        // The divisor's top limb: drawn like the rest, `0x8000…` (already
        // normalised) or all-ones.
        let mut b = shape(&b_low, extreme_only);
        b.push(match top_kind {
            0 => shape(&[b_top], extreme_only)[0].max(1),
            1 => 0x8000_0000_0000_0000,
            _ => u64::MAX,
        });
        let (a, b) = (from_limbs(&shape(&a, extreme_only)), from_limbs(&b));
        prop_assert_eq!(a.div_rem(&b), div_rem_shift_subtract(&a, &b));
    }

    #[test]
    fn equal_top_limbs_match_shift_subtract(
        top in any::<u64>(),
        a_low in draws(1..20),
        b_low in draws(1..20),
        extreme_only in any::<bool>(),
    ) {
        // Dividend and divisor share their top limb, so the first quotient
        // digit's estimate starts from q̂ ≥ 2⁶⁴ or a one-limb remainder.
        let top = top.max(1);
        let (mut a, mut b) = (shape(&a_low, extreme_only), shape(&b_low, extreme_only));
        a.push(top);
        b.push(top);
        let (a, b) = (from_limbs(&a), from_limbs(&b));
        prop_assert_eq!(a.div_rem(&b), div_rem_shift_subtract(&a, &b));
    }
}

#[test]
fn q_hat_correction_and_add_back_cases() {
    let high = 0x8000_0000_0000_0000u64;
    let two_192 = from_limbs(&[0, 0, 0, 1]);
    for (a, b) in [
        // Add-back (D6): q̂ survives the two-limb test one too large.
        (two_192.clone(), from_limbs(&[1, 0, high])),
        (two_192.clone(), from_limbs(&[u64::MAX, 0, high])),
        (two_192.clone(), from_limbs(&[1, 0, 1])),
        // Two q̂ corrections (D3) in one digit.
        (two_192.clone(), from_limbs(&[high, 1, 1])),
        (two_192, from_limbs(&[u64::MAX, 1, 1])),
        // All-ones operands, divisor top limb 0xffff… and 0x8000….
        (from_limbs(&[u64::MAX; 40]), from_limbs(&[u64::MAX; 17])),
        (from_limbs(&[u64::MAX; 9]), from_limbs(&[0, 0, high])),
        (from_limbs(&[u64::MAX; 9]), from_limbs(&[u64::MAX, high])),
    ] {
        assert_eq!(
            a.div_rem(&b),
            div_rem_shift_subtract(&a, &b),
            "{a:?} / {b:?}"
        );
    }
}
