//! Reference implementations the optimised arithmetic is checked against.
//!
//! Written against `oma-bignum`'s public API only, so they share no code
//! with the kernels they judge: [`div_rem_shift_subtract`] is the
//! shift-and-subtract long division `BigUint::div_rem` used before Knuth's
//! Algorithm D, and [`modpow_ladder`] the bit-at-a-time, allocating
//! Montgomery ladder that preceded the fixed-width CIOS kernel. Both are
//! slow on purpose; only the tests use them.

#![allow(dead_code)] // each test binary uses its own subset

use oma_bignum::BigUint;

/// `(a / b, a mod b)` by shift-and-subtract: one comparison, and at most
/// one subtraction, per quotient bit.
///
/// # Panics
///
/// Panics if `b` is zero.
pub fn div_rem_shift_subtract(a: &BigUint, b: &BigUint) -> (BigUint, BigUint) {
    assert!(!b.is_zero(), "division by zero");
    if a < b {
        return (BigUint::zero(), a.clone());
    }
    let shift = a.bits() - b.bits();
    let mut remainder = a.clone();
    let mut quotient = BigUint::zero();
    let mut shifted = b.shl_bits(shift);
    for i in (0..=shift).rev() {
        if remainder >= shifted {
            remainder.sub_assign_ref(&shifted);
            quotient.set_bit(i, true);
        }
        shifted = shifted.shr_bits(1);
    }
    (quotient, remainder)
}

/// `base^exponent mod modulus` for an odd modulus: square-and-multiply one
/// exponent bit at a time, in the Montgomery domain with `R = 2^(64·k)` for
/// the modulus's own limb count `k` (no width-class padding), reducing each
/// product word by word on whole `BigUint`s. Domain entry is by
/// [`div_rem_shift_subtract`].
///
/// # Panics
///
/// Panics if `modulus` is even.
pub fn modpow_ladder(base: &BigUint, exponent: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(
        modulus.is_odd(),
        "Montgomery reduction needs an odd modulus"
    );
    if modulus.is_one() {
        return BigUint::zero();
    }
    let limbs = modulus.bits().div_ceil(64);
    let n0 = low_word(modulus);
    let mut inv = 1u64;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    let n_prime = inv.wrapping_neg();
    // t·R⁻¹ mod n for t < n·R.
    let redc = |mut t: BigUint| {
        for _ in 0..limbs {
            let m = low_word(&t).wrapping_mul(n_prime);
            t = (&t + &modulus.mul_u64(m)).shr_bits(64);
        }
        if &t >= modulus {
            &t - modulus
        } else {
            t
        }
    };
    let to_domain = |x: &BigUint| div_rem_shift_subtract(&x.shl_bits(64 * limbs), modulus).1;

    let base_m = to_domain(base);
    let mut acc = to_domain(&BigUint::one());
    for i in (0..exponent.bits()).rev() {
        acc = redc(&acc * &acc);
        if exponent.bit(i) {
            acc = redc(&acc * &base_m);
        }
    }
    redc(acc)
}

/// The value with little-endian 64-bit `limbs`.
pub fn from_limbs(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

/// `x mod 2⁶⁴`.
fn low_word(x: &BigUint) -> u64 {
    (x - &x.shr_bits(64).shl_bits(64))
        .to_u64()
        .expect("below 2^64")
}
