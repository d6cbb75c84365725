//! Primality testing and random prime generation.
//!
//! RSA key generation in `oma-crypto` draws candidate primes from an
//! [`rand::RngCore`] source, sieves them against a table of small primes and
//! then applies the Miller–Rabin probabilistic primality test.

use crate::{BigUint, Montgomery};
use rand::RngCore;

/// Small primes used to cheaply reject composite candidates before running
/// Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
];

/// Number of Miller–Rabin rounds used by [`generate_prime`]. 40 rounds gives
/// an error probability below 2⁻⁸⁰ for random candidates.
pub const MILLER_RABIN_ROUNDS: usize = 40;

/// Returns `true` if `candidate` is (probably) prime.
///
/// Performs trial division by a table of small primes followed by `rounds`
/// Miller–Rabin iterations with random bases drawn from `rng`.
///
/// ```
/// use oma_bignum::{prime, BigUint};
/// let mut rng = rand::thread_rng();
/// assert!(prime::is_probable_prime(&BigUint::from_u64(65_537), 16, &mut rng));
/// assert!(!prime::is_probable_prime(&BigUint::from_u64(65_535), 16, &mut rng));
/// ```
pub fn is_probable_prime<R: RngCore + ?Sized>(
    candidate: &BigUint,
    rounds: usize,
    rng: &mut R,
) -> bool {
    if candidate.is_zero() || candidate.is_one() {
        return false;
    }
    if candidate.to_u64() == Some(2) {
        return true;
    }
    if candidate.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if candidate.to_u64() == Some(p) {
            return true;
        }
        if candidate.div_rem_u64(p).1 == 0 {
            return false;
        }
    }
    miller_rabin(candidate, rounds, rng)
}

/// Miller–Rabin probabilistic primality test on an odd candidate `> 3`.
///
/// One Montgomery context serves every round's exponentiation and
/// squarings; a candidate too wide for one squares by plain division.
fn miller_rabin<R: RngCore + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from_u64(2);
    let n_minus_1 = n - &one;
    let ctx = Montgomery::new(n.clone());
    let square = |x: &BigUint| match &ctx {
        Some(ctx) => ctx.mul_mod(x, x),
        None => x.mul_mod(x, n),
    };

    // n - 1 = 2^s * d with d odd
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        s += 1;
    }

    'witness: for _ in 0..rounds {
        let a = random_in_range(&two, &(&n_minus_1 - &one), rng);
        let mut x = match &ctx {
            Some(ctx) => ctx.modpow(&a, &d),
            None => a.modpow_naive(&d, n),
        };
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = square(&x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Draws a uniformly random value in `[low, high]` (inclusive).
///
/// # Panics
///
/// Panics if `low > high`.
pub fn random_in_range<R: RngCore + ?Sized>(low: &BigUint, high: &BigUint, rng: &mut R) -> BigUint {
    assert!(low <= high, "random_in_range: low > high");
    let span = &(high - low) + &BigUint::one();
    let bits = span.bits();
    loop {
        let candidate = random_bits(bits, rng);
        if candidate < span {
            return &candidate + low;
        }
    }
}

/// Draws a random value with at most `bits` bits.
pub fn random_bits<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    if bits == 0 {
        return BigUint::zero();
    }
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes];
    rng.fill_bytes(&mut buf);
    let excess = bytes * 8 - bits;
    buf[0] &= 0xffu8 >> excess;
    BigUint::from_bytes_be(&buf)
}

/// Generates a random probable prime with exactly `bits` bits
/// (top bit set, odd).
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn generate_prime<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let mut candidate = random_bits(bits, rng);
        candidate.set_bit(bits - 1, true);
        // Setting the second-highest bit keeps products of two such primes at
        // the full 2·bits length, which RSA key generation relies on.
        if bits >= 2 {
            candidate.set_bit(bits - 2, true);
        }
        candidate.set_bit(0, true);
        if is_probable_prime(&candidate, MILLER_RABIN_ROUNDS, rng) {
            return candidate;
        }
    }
}

/// Generates a random probable prime `p` with `bits` bits such that
/// `gcd(p - 1, e) == 1`, as required for RSA with public exponent `e`.
pub fn generate_rsa_prime<R: RngCore + ?Sized>(
    bits: usize,
    public_exponent: &BigUint,
    rng: &mut R,
) -> BigUint {
    loop {
        let p = generate_prime(bits, rng);
        let p_minus_1 = &p - &BigUint::one();
        if p_minus_1.gcd(public_exponent).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x0123_4567_89ab_cdef)
    }

    #[test]
    fn small_primes_recognised() {
        let mut rng = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 257, 65_537, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 91, 561, 65_535, 1_000_000_000] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool the Fermat test but not Miller–Rabin.
        let mut rng = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), 16, &mut rng));
        }
    }

    #[test]
    fn mersenne_prime_multi_limb() {
        let mut rng = rng();
        let p = BigUint::from_u128((1u128 << 127) - 1);
        assert!(is_probable_prime(&p, 8, &mut rng));
        let composite = BigUint::from_u128((1u128 << 127) + 1);
        assert!(!is_probable_prime(&composite, 8, &mut rng));
    }

    #[test]
    fn generated_prime_has_requested_size() {
        let mut rng = rng();
        for bits in [64usize, 96, 128] {
            let p = generate_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
            assert!(is_probable_prime(&p, 16, &mut rng));
        }
    }

    #[test]
    fn rsa_prime_is_coprime_with_exponent() {
        let mut rng = rng();
        let e = BigUint::from_u64(65_537);
        let p = generate_rsa_prime(96, &e, &mut rng);
        assert!((&p - &BigUint::one()).gcd(&e).is_one());
    }

    #[test]
    fn random_in_range_respects_bounds() {
        let mut rng = rng();
        let low = BigUint::from_u64(100);
        let high = BigUint::from_u64(110);
        for _ in 0..200 {
            let v = random_in_range(&low, &high, &mut rng);
            assert!(v >= low && v <= high);
        }
    }

    #[test]
    fn random_bits_bounded() {
        let mut rng = rng();
        for _ in 0..50 {
            let v = random_bits(13, &mut rng);
            assert!(v.bits() <= 13);
        }
        assert!(random_bits(0, &mut rng).is_zero());
    }
}
