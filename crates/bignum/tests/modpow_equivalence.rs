//! Equivalence of the fixed-width Montgomery kernel and its windowed
//! exponentiation against the independent reference paths: the naive
//! square-and-multiply over plain modular arithmetic (`modpow_naive`), and
//! the allocating bit-at-a-time Montgomery ladder in `common/`. The three
//! share no multiplication kernel, so agreement over random operands pins
//! down the window gathering, the CIOS fold and the width-class padding all
//! at once.

mod common;

use common::{div_rem_shift_subtract, from_limbs, modpow_ladder};
use oma_bignum::{BigUint, Montgomery};
use proptest::prelude::*;

fn biguint_strategy() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(|bytes| BigUint::from_bytes_be(&bytes))
}

/// Moduli wide enough to need several limbs, odd or even as drawn.
fn modulus_strategy() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 1..40).prop_map(|bytes| BigUint::from_bytes_be(&bytes))
}

/// Odd multi-limb moduli, eligible for the Montgomery context.
fn odd_modulus_strategy() -> impl Strategy<Value = BigUint> {
    modulus_strategy().prop_map(|m| {
        let one = BigUint::one();
        if m.bit(0) {
            m
        } else {
            &m + &one
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fixed_window_matches_naive(
        base in biguint_strategy(),
        exponent in biguint_strategy(),
        modulus in modulus_strategy(),
    ) {
        prop_assume!(!modulus.is_zero());
        prop_assert_eq!(
            base.modpow(&exponent, &modulus),
            base.modpow_naive(&exponent, &modulus)
        );
    }

    #[test]
    fn even_modulus_falls_back_to_naive(
        base in biguint_strategy(),
        exponent in biguint_strategy(),
        modulus in modulus_strategy(),
    ) {
        // Force the modulus even: the Montgomery fast path must bow out and
        // the fallback must still agree with the reference.
        let even = modulus.shl_bits(1);
        prop_assume!(!even.is_zero());
        prop_assert!(Montgomery::new(even.clone()).is_none());
        prop_assert_eq!(
            base.modpow(&exponent, &even),
            base.modpow_naive(&exponent, &even)
        );
    }

    #[test]
    fn trivial_exponents(base in biguint_strategy(), modulus in modulus_strategy()) {
        prop_assume!(!modulus.is_zero());
        let zero = BigUint::zero();
        let one = BigUint::one();
        // x^0 = 1 (or 0 when the modulus is 1), x^1 = x mod m.
        let expected_for_zero = if modulus.is_one() {
            BigUint::zero()
        } else {
            BigUint::one()
        };
        prop_assert_eq!(base.modpow(&zero, &modulus), expected_for_zero);
        prop_assert_eq!(base.modpow(&one, &modulus), base.rem_of(&modulus));
    }

    #[test]
    fn oversized_base_is_reduced_first(
        base in biguint_strategy(),
        exponent in biguint_strategy(),
        modulus in modulus_strategy(),
    ) {
        prop_assume!(!modulus.is_zero());
        // base and base + k·m are congruent, so their powers must agree.
        let shifted = &base + &(&modulus * &BigUint::from_u64(3));
        prop_assert_eq!(
            shifted.modpow(&exponent, &modulus),
            base.rem_of(&modulus).modpow(&exponent, &modulus)
        );
    }

    #[test]
    fn fixed_window_matches_allocating_ladder(
        base in biguint_strategy(),
        exponent in biguint_strategy(),
        modulus in odd_modulus_strategy(),
    ) {
        prop_assume!(!modulus.is_one());
        let ctx = Montgomery::new(modulus.clone()).expect("odd modulus above one");
        prop_assert_eq!(ctx.modpow(&base, &exponent), modpow_ladder(&base, &exponent, &modulus));
    }

    #[test]
    fn kernel_matches_oracles_in_every_width_class(
        size in 0usize..9,
        modulus_limbs in any::<[u64; 32]>(),
        all_ones_top in any::<bool>(),
        a_limbs in any::<[u64; 32]>(),
        b_limbs in any::<[u64; 32]>(),
        exponent in any::<u64>(),
    ) {
        // Moduli that fill their width class (4, 8, 16, 32 limbs) and ones
        // padded inside it (1, 3, 5, 9, 17); an all-ones top limb puts
        // n above R/2, where the kernel's carry-out word is live.
        let limbs = [1usize, 3, 4, 5, 8, 9, 16, 17, 32][size];
        let mut n = modulus_limbs[..limbs].to_vec();
        n[0] |= 1;
        if all_ones_top {
            n[limbs - 1] = u64::MAX;
        }
        n[limbs - 1] = n[limbs - 1].max(1);
        let n = from_limbs(&n);
        let ctx = Montgomery::new(n.clone()).expect("odd modulus within 32 limbs");
        let below_n = |l: &[u64]| div_rem_shift_subtract(&from_limbs(&l[..limbs]), &n).1;
        let n_minus_1 = &n - &BigUint::one();
        let exponent = BigUint::from_u64(exponent);
        for a in [BigUint::zero(), BigUint::one(), n_minus_1.clone(), below_n(&a_limbs)] {
            for b in [BigUint::zero(), BigUint::one(), n_minus_1.clone(), below_n(&b_limbs)] {
                prop_assert_eq!(
                    ctx.mul_mod(&a, &b),
                    div_rem_shift_subtract(&(&a * &b), &n).1
                );
            }
            prop_assert_eq!(ctx.modpow(&a, &exponent), modpow_ladder(&a, &exponent, &n));
        }
    }

    #[test]
    fn context_mul_mod_matches_plain(
        a in biguint_strategy(),
        b in biguint_strategy(),
        modulus in odd_modulus_strategy(),
    ) {
        prop_assume!(!modulus.is_one());
        let ctx = Montgomery::new(modulus.clone()).expect("odd modulus above one");
        // Operands are drawn wider than the modulus as often as not.
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &modulus));
    }
}

#[test]
fn no_context_above_32_limbs_and_modpow_still_correct() {
    let base = from_limbs(&[0x0123_4567_89ab_cdef; 20]);
    let exponent = BigUint::from_u64(0x1_0001);
    for limbs in [33usize, 40] {
        let mut n = vec![0xfedc_ba98_7654_3210u64; limbs];
        n[0] |= 1;
        let n = from_limbs(&n);
        assert!(Montgomery::new(n.clone()).is_none(), "{limbs} limbs");
        assert_eq!(
            base.modpow(&exponent, &n),
            modpow_ladder(&base, &exponent, &n),
            "{limbs} limbs"
        );
    }
    let widest = &BigUint::one().shl_bits(2048) - &BigUint::one();
    assert!(
        Montgomery::new(widest).is_some(),
        "32 limbs is a width class"
    );
}

/// Wide operands cross all the window-size tiers (1, 3, 4 and 5 bits) that
/// random short proptest exponents rarely reach.
#[test]
fn window_tiers_agree_on_wide_operands() {
    // Deterministic ~1600-bit odd modulus: (2^1601 - 1) has small factors,
    // so mix in a multiply to get an arbitrary-looking odd value.
    let mut modulus = BigUint::one().shl_bits(1601);
    modulus = &modulus
        + &BigUint::from_hex("f4a7c3b2d1e0958877665544332211fedcba9876543210ab")
            .expect("valid hex");
    assert!(modulus.bit(0), "modulus must be odd");
    let ctx = Montgomery::new(modulus.clone()).expect("odd modulus");
    let base = BigUint::from_hex("0123456789abcdef55aa55aa55aa55aa0123456789abcdef").unwrap();
    // Exponent widths straddling every window_bits tier boundary.
    for bits in [1usize, 24, 25, 80, 81, 240, 241, 1024] {
        let exponent = &BigUint::one().shl_bits(bits) - &BigUint::from_u64(1);
        let fast = ctx.modpow(&base, &exponent);
        let ladder = modpow_ladder(&base, &exponent, &modulus);
        assert_eq!(fast, ladder, "window path diverged at {bits}-bit exponent");
        assert_eq!(
            fast,
            base.modpow_naive(&exponent, &modulus),
            "naive reference diverged at {bits}-bit exponent"
        );
    }
}
