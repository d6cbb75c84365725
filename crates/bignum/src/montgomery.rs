//! Montgomery multiplication context.
//!
//! Modular exponentiation for RSA is performed in the Montgomery domain to
//! avoid a long division per multiplication. The [`Montgomery`] context
//! precomputes the constants (`n'`, `R² mod n`, `R mod n`) for a fixed odd
//! modulus and exposes Montgomery multiplication and exponentiation on
//! values reduced modulo that modulus.
//!
//! Every product goes through one kernel, [`mont_mul`]: a CIOS
//! (coarsely integrated operand scanning) multiply-reduce whose width is a
//! compile-time constant. The context zero-pads its modulus to the smallest
//! width class in [`WIDTH_CLASSES`] that holds it, so `R = 2^(64·W)`: a
//! 512-bit RSA CRT leg runs at 8 limbs, a 1024-bit modulus at 16. A fixed
//! width drops every bounds check, keeps the accumulator on the stack (in
//! registers at 8 limbs, with the limb loop unrolled) and needs no scratch
//! buffer. Squaring uses the same kernel: a dedicated fixed-width squaring
//! was measured no faster on the 512-bit CRT legs (see
//! `docs/ARCHITECTURE.md`). A modulus wider than the widest class gets no
//! context, exactly like an even one.
//!
//! Exponentiation scans the exponent with a sliding window (up to
//! [`MAX_WINDOW_BITS`] bits) over a precomputed table of odd powers, trading
//! `2^(w-1)` table multiplications for a factor-`w` reduction in per-bit
//! multiplications.

use crate::BigUint;

/// Widest exponentiation window [`Montgomery::modpow`] will use (the `k=5`
/// of a 1024-bit RSA CRT leg; shorter exponents get narrower windows).
pub const MAX_WINDOW_BITS: usize = 5;

/// The fixed kernel widths, in 64-bit limbs. A context runs at the smallest
/// one that holds its modulus; [`Montgomery::new`] declines wider moduli.
const WIDTH_CLASSES: [usize; 4] = [4, 8, 16, 32];

/// Precomputed Montgomery reduction context for an odd modulus of at most
/// 2048 bits.
///
/// # Example
///
/// ```
/// use oma_bignum::{BigUint, Montgomery};
///
/// let modulus = BigUint::from_u64(101);
/// let ctx = Montgomery::new(modulus.clone()).expect("odd modulus");
/// let r = ctx.modpow(&BigUint::from_u64(3), &BigUint::from_u64(100));
/// assert_eq!(r.to_u64(), Some(1)); // Fermat's little theorem
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery {
    modulus: BigUint,
    /// The modulus zero-padded to its width class `W`.
    n: Vec<u64>,
    /// `-modulus⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod modulus` where `R = 2^(64·W)`, as `W` limbs.
    r_squared: Vec<u64>,
    /// `R mod modulus` — the Montgomery representation of 1 — as `W` limbs.
    r_one: Vec<u64>,
}

impl Montgomery {
    /// Creates a context for `modulus`.
    ///
    /// Returns `None` if the modulus is zero or even (Montgomery reduction
    /// requires an odd modulus), or wider than 32 limbs (2048 bits), the
    /// widest fixed kernel. [`BigUint::modpow`] serves both cases through
    /// [`BigUint::modpow_naive`].
    pub fn new(modulus: BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        let width = WIDTH_CLASSES
            .into_iter()
            .find(|&w| w >= modulus.limbs().len())?;
        let n0 = modulus.limbs()[0];
        // Newton iteration: invert n0 modulo 2^64, then negate.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);

        let padded = |value: &BigUint| {
            let mut out = vec![0u64; width];
            out[..value.limbs().len()].copy_from_slice(value.limbs());
            out
        };
        let r = BigUint::one().shl_bits(64 * width);
        Some(Montgomery {
            n: padded(&modulus),
            n_prime: inv.wrapping_neg(),
            r_squared: padded(&r.square().rem_of(&modulus)),
            r_one: padded(&r.rem_of(&modulus)),
            modulus,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Copies `value mod n` into a `N`-limb buffer, reducing it first only
    /// when it is not already below the modulus.
    fn to_fixed<const N: usize>(&self, value: &BigUint) -> [u64; N] {
        let reduced;
        let value = if value < &self.modulus {
            value
        } else {
            reduced = value.rem_of(&self.modulus);
            &reduced
        };
        let mut out = [0u64; N];
        out[..value.limbs().len()].copy_from_slice(value.limbs());
        out
    }

    /// Computes `a * b mod n`. Operands of any size are reduced first.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        match self.n.len() {
            4 => self.mul_mod_fixed::<4>(a, b),
            8 => self.mul_mod_fixed::<8>(a, b),
            16 => self.mul_mod_fixed::<16>(a, b),
            32 => self.mul_mod_fixed::<32>(a, b),
            w => unreachable!("{w} is not a width class"),
        }
    }

    fn mul_mod_fixed<const N: usize>(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (n, n_prime) = (fixed::<N>(&self.n), self.n_prime);
        // (a·R²·R⁻¹)·b·R⁻¹ = a·b: entering the domain with one operand only
        // means the second product lands back outside it.
        let a_m = mont_mul(&self.to_fixed(a), fixed(&self.r_squared), n, n_prime);
        BigUint::from_limbs(mont_mul(&a_m, &self.to_fixed(b), n, n_prime).to_vec())
    }

    /// Window width for an exponent of `exp_bits` bits: wide enough that the
    /// `2^(w-1)` table multiplications pay for themselves, capped at
    /// [`MAX_WINDOW_BITS`]. A 384/512-bit RSA CRT leg lands on 4, a
    /// 1024-bit leg on 5; tiny exponents (the public `e = 65537`) fall back
    /// to plain square-and-multiply.
    fn window_bits(exp_bits: usize) -> usize {
        match exp_bits {
            0..=24 => 1,
            25..=80 => 3,
            81..=240 => 4,
            _ => MAX_WINDOW_BITS,
        }
    }

    /// Computes `base^exponent mod n` by sliding-window exponentiation over
    /// a precomputed table of odd powers, in the Montgomery domain.
    ///
    /// `base` does not have to be reduced; it is reduced modulo `n` first.
    pub fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        match self.n.len() {
            4 => self.modpow_fixed::<4>(base, exponent),
            8 => self.modpow_fixed::<8>(base, exponent),
            16 => self.modpow_fixed::<16>(base, exponent),
            32 => self.modpow_fixed::<32>(base, exponent),
            w => unreachable!("{w} is not a width class"),
        }
    }

    fn modpow_fixed<const N: usize>(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let (n, n_prime) = (fixed::<N>(&self.n), self.n_prime);
        let mul = |a: &[u64; N], b: &[u64; N]| mont_mul(a, b, n, n_prime);

        let base_m = mul(&self.to_fixed(base), fixed(&self.r_squared));
        let window = Self::window_bits(exponent.bits());
        // table[i] = base^(2i+1) in the Montgomery domain.
        let mut table = [[0u64; N]; 1 << (MAX_WINDOW_BITS - 1)];
        table[0] = base_m;
        if window > 1 {
            let base_sq = mul(&base_m, &base_m);
            for i in 1..(1 << (window - 1)) {
                table[i] = mul(&table[i - 1], &base_sq);
            }
        }

        let mut acc = *fixed::<N>(&self.r_one);
        let mut i = exponent.bits();
        while i > 0 {
            if !exponent.bit(i - 1) {
                acc = mul(&acc, &acc);
                i -= 1;
                continue;
            }
            // Gather the widest window ending on a set bit: bits
            // [low, i) with bit(low) set, so the table index is odd.
            let mut low = i.saturating_sub(window);
            while !exponent.bit(low) {
                low += 1;
            }
            let mut value = 0usize;
            for b in (low..i).rev() {
                value = (value << 1) | exponent.bit(b) as usize;
            }
            for _ in 0..(i - low) {
                acc = mul(&acc, &acc);
            }
            acc = mul(&acc, odd_power(&table, value));
            i = low;
        }

        // Leaving the domain: one more reduction against plain 1.
        let mut one = [0u64; N];
        one[0] = 1;
        BigUint::from_limbs(mul(&acc, &one).to_vec())
    }
}

/// Views a context constant as its width class's array.
fn fixed<const N: usize>(limbs: &[u64]) -> &[u64; N] {
    limbs
        .try_into()
        .expect("context constants are width-class wide")
}

/// `base^value` for an odd window `value`, from a table holding the odd
/// powers. This is the one lookup whose address depends on exponent bits; a
/// constant-time exponentiation would replace it with a scan of the whole
/// table.
fn odd_power<const N: usize>(table: &[[u64; N]], value: usize) -> &[u64; N] {
    &table[value >> 1]
}

/// Montgomery product `a · b · R⁻¹ mod n` for `R = 2^(64·N)`, by CIOS.
///
/// Requires `n` odd and `a, b < n`. Each outer step adds one row `aᵢ·b` and
/// the `m·n` that clears the low limb to the `N + 1`-limb stack accumulator
/// and drops that limb, so the accumulator stays below `2n` throughout. It
/// can therefore end with a carry-out in limb `N` only when `n ≥ R/2`; one
/// conditional subtraction, forced by that carry, lands the result in
/// `[0, n)`.
fn mont_mul<const N: usize>(a: &[u64; N], b: &[u64; N], n: &[u64; N], n_prime: u64) -> [u64; N] {
    let mut t = [0u64; N];
    let mut t_hi = 0u64;
    for &ai in a {
        // t = (t + aᵢ·b + m·n) / 2⁶⁴, with m chosen so the low limb cancels:
        // the multiply row (carry `c_mul`) and the reduce row (carry
        // `c_red`) advance together, one limb of each per step.
        let s = u128::from(ai) * u128::from(b[0]) + u128::from(t[0]);
        let m = (s as u64).wrapping_mul(n_prime);
        let r = u128::from(m) * u128::from(n[0]) + u128::from(s as u64);
        let (mut c_mul, mut c_red) = ((s >> 64) as u64, (r >> 64) as u64);
        for j in 1..N {
            let s = u128::from(ai) * u128::from(b[j]) + u128::from(t[j]) + u128::from(c_mul);
            let r = u128::from(m) * u128::from(n[j]) + u128::from(s as u64) + u128::from(c_red);
            t[j - 1] = r as u64;
            (c_mul, c_red) = ((s >> 64) as u64, (r >> 64) as u64);
        }
        let top = u128::from(t_hi) + u128::from(c_mul) + u128::from(c_red);
        t[N - 1] = top as u64;
        t_hi = (top >> 64) as u64;
    }

    let mut reduced = [0u64; N];
    let mut borrow = false;
    for ((r, &tj), &nj) in reduced.iter_mut().zip(&t).zip(n) {
        let (d1, b1) = tj.overflowing_sub(nj);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *r = d2;
        borrow = b1 || b2;
    }
    if t_hi != 0 || !borrow {
        reduced
    } else {
        t
    }
}

impl BigUint {
    /// Computes `self^exponent mod modulus`.
    ///
    /// For odd moduli of at most 2048 bits this uses sliding-window
    /// Montgomery exponentiation; for even or wider moduli (where
    /// [`Montgomery::new`] returns `None`) it falls back to
    /// [`BigUint::modpow_naive`].
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow(&self, exponent: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return Self::zero();
        }
        if let Some(ctx) = Montgomery::new(modulus.clone()) {
            return ctx.modpow(self, exponent);
        }
        self.modpow_naive(exponent, modulus)
    }

    /// `self^exponent mod modulus` by square-and-multiply with an explicit
    /// division per step. Total over every modulus (the even- and
    /// wide-modulus path of [`BigUint::modpow`], which the Montgomery kernel
    /// cannot serve), and deliberately free of Montgomery machinery so
    /// equivalence tests have an independent reference.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow_naive(&self, exponent: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return Self::zero();
        }
        let mut result = Self::one();
        let base = self.rem_of(modulus);
        for i in (0..exponent.bits()).rev() {
            result = result.square().rem_of(modulus);
            if exponent.bit(i) {
                result = (&result * &base).rem_of(modulus);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_or_zero_modulus() {
        assert!(Montgomery::new(BigUint::from_u64(100)).is_none());
        assert!(Montgomery::new(BigUint::zero()).is_none());
        assert!(Montgomery::new(BigUint::from_u64(101)).is_some());
    }

    #[test]
    fn mul_mod_small() {
        let ctx = Montgomery::new(BigUint::from_u64(97)).unwrap();
        let r = ctx.mul_mod(&BigUint::from_u64(45), &BigUint::from_u64(67));
        assert_eq!(r.to_u64(), Some(45 * 67 % 97));
    }

    #[test]
    fn mul_mod_reduces_operands_wider_than_the_modulus() {
        // Operands of two limbs and of five (wider than the 4-limb width
        // class) against a one-limb modulus.
        let n = BigUint::from_u64((1 << 63) + 1);
        let ctx = Montgomery::new(n.clone()).unwrap();
        let a = BigUint::from_u128(u128::MAX);
        let b = BigUint::from_u64(u64::MAX);
        assert_eq!(ctx.mul_mod(&a, &b), (&a * &b).rem_of(&n));
        let wide = &BigUint::one().shl_bits(300) - &BigUint::one();
        assert_eq!(ctx.mul_mod(&wide, &a), (&wide * &a).rem_of(&n));
        assert_eq!(ctx.mul_mod(&b, &n), BigUint::zero());
    }

    #[test]
    fn modpow_matches_naive_small() {
        let m = BigUint::from_u64(1_000_003);
        for (b, e) in [(2u64, 10u64), (3, 0), (7, 65537), (999_999, 12345)] {
            let expected = naive_modpow(b, e, 1_000_003);
            let got = BigUint::from_u64(b)
                .modpow(&BigUint::from_u64(e), &m)
                .to_u64()
                .unwrap();
            assert_eq!(got, expected, "b={b} e={e}");
        }
    }

    #[test]
    fn modpow_even_modulus_fallback() {
        let m = BigUint::from_u64(1_000_000);
        let got = BigUint::from_u64(3)
            .modpow(&BigUint::from_u64(13), &m)
            .to_u64()
            .unwrap();
        assert_eq!(got, naive_modpow(3, 13, 1_000_000));
    }

    #[test]
    fn modpow_modulus_one_is_zero() {
        let r = BigUint::from_u64(5).modpow(&BigUint::from_u64(5), &BigUint::one());
        assert!(r.is_zero());
    }

    #[test]
    fn fermat_little_theorem_multi_limb() {
        // p is a 128-bit prime: 2^127 - 1 is prime (Mersenne).
        let p = BigUint::from_u128((1u128 << 127) - 1);
        let a = BigUint::from_u64(0xdead_beef_1234_5678);
        let r = a.modpow(&(&p - &BigUint::one()), &p);
        assert!(r.is_one());
    }

    #[test]
    fn exponent_zero_gives_one() {
        let m = BigUint::from_u64(101);
        assert!(BigUint::from_u64(7).modpow(&BigUint::zero(), &m).is_one());
    }

    #[test]
    fn fixed_window_matches_bitwise_ladder() {
        // Dense and sparse exponents wide enough to cross several windows,
        // against a deliberately multi-limb modulus; the reference is the
        // bit-at-a-time `modpow_naive`.
        let m = &BigUint::from_u128((1u128 << 127) - 1) * &BigUint::from_u64(0xffff_ffff_ffff_fc5f);
        let ctx = Montgomery::new(m.clone()).unwrap();
        let base = BigUint::from_hex("deadbeefcafebabe0123456789abcdef55aa55aa55aa55aa").unwrap();
        for exp_hex in [
            "1",
            "2",
            "ffffffffffffffffffffffffffffffffffffffffffffffff",
            "8000000000000000000000000000000000000000000000001",
            "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a",
            "10001",
        ] {
            let e = BigUint::from_hex(exp_hex).unwrap();
            assert_eq!(
                ctx.modpow(&base, &e),
                base.modpow_naive(&e, &m),
                "exp={exp_hex}"
            );
        }
    }

    #[test]
    fn squaring_kernel_matches_multiplication() {
        let m = &BigUint::from_u128((1u128 << 127) - 1) * &BigUint::from_u64(0xffff_ffff_ffff_fc5f);
        let ctx = Montgomery::new(m.clone()).unwrap();
        let two = BigUint::from_u64(2);
        for hexv in [
            "2",
            "deadbeefcafebabe0123456789abcdef55aa55aa55aa55aa",
            "ffffffffffffffffffffffffffffffffffffffffffff",
            "8000000000000000000000000000000000000001",
        ] {
            let a = BigUint::from_hex(hexv).unwrap();
            // modpow(a, 2) squares in the domain; mul_mod(a, a) enters it
            // with one operand only — they must agree exactly.
            assert_eq!(ctx.modpow(&a, &two), ctx.mul_mod(&a, &a), "a={hexv}");
        }
    }

    #[test]
    fn base_larger_than_modulus_is_reduced_first() {
        let m = BigUint::from_u64(1_000_003);
        let big_base = BigUint::from_u128(123_456_789_012_345_678_901_234_567u128);
        let ctx = Montgomery::new(m.clone()).unwrap();
        let e = BigUint::from_u64(12_345);
        assert_eq!(
            ctx.modpow(&big_base, &e),
            big_base.rem_of(&m).modpow_naive(&e, &m)
        );
    }

    #[test]
    fn window_widths_cover_rsa_exponent_sizes() {
        assert_eq!(Montgomery::window_bits(17), 1); // e = 65537
        assert_eq!(Montgomery::window_bits(192), 4); // 384-bit CRT leg
        assert_eq!(Montgomery::window_bits(512), 5); // 1024-bit CRT leg
    }

    #[test]
    fn width_classes_pad_rsa_moduli() {
        let width = |bits: usize| {
            let n = &BigUint::one().shl_bits(bits - 1) + &BigUint::one();
            Montgomery::new(n).map(|ctx| ctx.n.len())
        };
        assert_eq!(width(64), Some(4));
        assert_eq!(width(512), Some(8));
        assert_eq!(width(513), Some(16));
        assert_eq!(width(1024), Some(16));
        assert_eq!(width(2048), Some(32));
        assert_eq!(width(2049), None);
    }

    fn naive_modpow(mut b: u64, mut e: u64, m: u64) -> u64 {
        let mut r: u128 = 1;
        let mut base = b as u128 % m as u128;
        while e > 0 {
            if e & 1 == 1 {
                r = r * base % m as u128;
            }
            base = base * base % m as u128;
            e >>= 1;
            b = b.wrapping_mul(b);
        }
        r as u64
    }
}
