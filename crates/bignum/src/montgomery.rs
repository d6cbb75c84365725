//! Montgomery multiplication context.
//!
//! Modular exponentiation for RSA is performed in the Montgomery domain to
//! avoid a long division per multiplication. The [`Montgomery`] context
//! precomputes the constants (`n'`, `R² mod n`, `R mod n`) for a fixed odd
//! modulus and exposes Montgomery multiplication and exponentiation on
//! values reduced modulo that modulus.
//!
//! The multiplication kernel works in place on fixed-width limb slices: a
//! context for a `k`-limb modulus moves `k`-limb operands through one
//! reusable `2k+1`-limb scratch buffer, so an entire exponentiation
//! allocates a handful of buffers up front instead of two fresh vectors per
//! squaring. Exponentiation scans the exponent with a sliding fixed window
//! (up to [`MAX_WINDOW_BITS`] bits) over a precomputed table of odd powers,
//! trading `2^(w-1)` table multiplications for a factor-`w` reduction in
//! per-bit multiplications, and routes the dominant squaring steps through a
//! dedicated squaring kernel that computes each off-diagonal limb product
//! once.

use crate::BigUint;

/// Widest exponentiation window [`Montgomery::modpow`] will use (the `k=5`
/// of a 1024-bit RSA CRT leg; shorter exponents get narrower windows).
pub const MAX_WINDOW_BITS: usize = 5;

/// Precomputed Montgomery reduction context for an odd modulus.
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
    /// Number of 64-bit limbs in the modulus.
    limbs: usize,
    /// `-modulus⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod modulus` where `R = 2^(64·limbs)`, as `limbs` fixed limbs.
    r_squared: Vec<u64>,
    /// `R mod modulus` — the Montgomery representation of 1.
    r_one: Vec<u64>,
}

impl Montgomery {
    /// Creates a context for `modulus`.
    ///
    /// Returns `None` if the modulus is zero or even (Montgomery reduction
    /// requires an odd modulus).
    pub fn new(modulus: BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        let limbs = modulus.limbs().len();
        let n0 = modulus.limbs()[0];
        // Newton iteration: invert n0 modulo 2^64, then negate.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();

        // R^2 mod n with R = 2^(64*limbs), computed once per context by the
        // one full division the context exists to amortise away.
        let r_squared_value = BigUint::one().shl_bits(64 * limbs * 2).rem_of(&modulus);
        let mut r_squared = vec![0u64; limbs];
        r_squared[..r_squared_value.limbs().len()].copy_from_slice(r_squared_value.limbs());

        let mut ctx = Montgomery {
            modulus,
            limbs,
            n_prime,
            r_squared,
            r_one: Vec::new(),
        };
        // R mod n = to_mont(1): derived from R² with one reduction.
        let mut r_one = vec![0u64; limbs];
        let mut one = vec![0u64; limbs];
        one[0] = 1;
        let mut scratch = vec![0u64; 2 * limbs + 1];
        ctx.mont_mul_into(&mut r_one, &one, &ctx.r_squared, &mut scratch);
        ctx.r_one = r_one;
        Some(ctx)
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Copies a reduced value into a fixed `limbs`-wide little-endian buffer.
    fn to_fixed(&self, value: &BigUint) -> Vec<u64> {
        debug_assert!(value.limbs().len() <= self.limbs);
        let mut out = vec![0u64; self.limbs];
        out[..value.limbs().len()].copy_from_slice(value.limbs());
        out
    }

    /// Montgomery product `out = a · b · R⁻¹ mod n`, entirely in place.
    ///
    /// `a`, `b` and `out` are fixed `limbs`-wide buffers holding values below
    /// the modulus; `scratch` is a reusable `2·limbs + 1` buffer. Nothing is
    /// allocated: the double-width product is accumulated into `scratch`,
    /// reduced there (REDC), and conditionally-subtracted into `out`.
    fn mont_mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64], scratch: &mut [u64]) {
        let k = self.limbs;
        debug_assert_eq!(out.len(), k);
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        debug_assert_eq!(scratch.len(), 2 * k + 1);

        // scratch = a * b (schoolbook, accumulating rows in place).
        scratch.fill(0);
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = scratch[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
                scratch[i + j] = cur as u64;
                carry = cur >> 64;
            }
            scratch[i + k] = carry as u64;
        }

        self.redc_into(out, scratch);
    }

    /// Montgomery square `out = a · a · R⁻¹ mod n`, in place.
    ///
    /// Each off-diagonal limb product `aᵢ·aⱼ` (i ≠ j) appears twice in the
    /// schoolbook square; computing it once and doubling cuts the multiply
    /// count of the squaring steps — which dominate an exponentiation —
    /// nearly in half versus routing squares through [`Self::mont_mul_into`].
    fn mont_sqr_into(&self, out: &mut [u64], a: &[u64], scratch: &mut [u64]) {
        let k = self.limbs;
        debug_assert_eq!(out.len(), k);
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(scratch.len(), 2 * k + 1);

        // scratch = Σ aᵢ·aⱼ over i < j (each product computed once).
        scratch.fill(0);
        for i in 0..k {
            let ai = a[i];
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in (i + 1)..k {
                let cur = scratch[i + j] as u128 + (ai as u128) * (a[j] as u128) + carry;
                scratch[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let cur = scratch[idx] as u128 + carry;
                scratch[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        // Double it (aᵢ·aⱼ occurs for (i,j) and (j,i))...
        let mut carry = 0u64;
        for limb in scratch.iter_mut() {
            let doubled = (u128::from(*limb) << 1) | u128::from(carry);
            *limb = doubled as u64;
            carry = (doubled >> 64) as u64;
        }
        debug_assert_eq!(carry, 0, "a² overflows the double-width scratch");
        // ...then add the diagonal squares aᵢ² at position 2i.
        let mut carry = 0u128;
        for i in 0..k {
            let sq = (a[i] as u128) * (a[i] as u128);
            let lo = scratch[2 * i] as u128 + (sq as u64) as u128 + carry;
            scratch[2 * i] = lo as u64;
            let hi = scratch[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            scratch[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0, "a² overflows the double-width scratch");

        self.redc_into(out, scratch);
    }

    /// The REDC phase shared by the multiply and square kernels: reduces the
    /// double-width value accumulated in `scratch` and writes the `[0, n)`
    /// result to `out`.
    fn redc_into(&self, out: &mut [u64], scratch: &mut [u64]) {
        let k = self.limbs;
        let n = self.modulus.limbs();

        // Fold in m·n row by row so the low k limbs cancel to zero.
        for i in 0..k {
            let m = scratch[i].wrapping_mul(self.n_prime);
            let mut carry = 0u128;
            for (j, &nj) in n.iter().enumerate() {
                let cur = scratch[i + j] as u128 + (m as u128) * (nj as u128) + carry;
                scratch[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let cur = scratch[idx] as u128 + carry;
                scratch[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }

        // The result t = scratch[k..=2k] is below 2n; one conditional
        // subtraction lands it in [0, n).
        let needs_sub = scratch[2 * k] != 0 || !limbs_less_than(&scratch[k..2 * k], n);
        if needs_sub {
            let mut borrow = 0u64;
            for j in 0..k {
                let (d1, b1) = scratch[k + j].overflowing_sub(n[j]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                out[j] = d2;
                borrow = (b1 as u64) + (b2 as u64);
            }
        } else {
            out.copy_from_slice(&scratch[k..2 * k]);
        }
    }

    /// Computes `a * b mod n` for values reduced modulo `n`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.limbs;
        let mut scratch = vec![0u64; 2 * k + 1];
        let mut am = vec![0u64; k];
        let mut bm = vec![0u64; k];
        let mut product = vec![0u64; k];
        self.mont_mul_into(&mut am, &self.to_fixed(a), &self.r_squared, &mut scratch);
        self.mont_mul_into(&mut bm, &self.to_fixed(b), &self.r_squared, &mut scratch);
        self.mont_mul_into(&mut product, &am, &bm, &mut scratch);
        // Leaving the domain: one more reduction against plain 1.
        let mut one = vec![0u64; k];
        one[0] = 1;
        self.mont_mul_into(&mut am, &product, &one, &mut scratch);
        BigUint::from_limbs(am)
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

    /// Computes `base^exponent mod n` by fixed-window exponentiation over a
    /// precomputed table of odd powers, in the Montgomery domain.
    ///
    /// `base` does not have to be reduced; it is reduced modulo `n` first.
    pub fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        let base = base.rem_of(&self.modulus);
        if exponent.is_zero() {
            return BigUint::one();
        }
        let k = self.limbs;
        let mut scratch = vec![0u64; 2 * k + 1];
        let mut tmp = vec![0u64; k];

        let mut base_m = vec![0u64; k];
        self.mont_mul_into(
            &mut base_m,
            &self.to_fixed(&base),
            &self.r_squared,
            &mut scratch,
        );

        let window = Self::window_bits(exponent.bits());
        // table[i] = base^(2i+1) in the Montgomery domain.
        let mut table = Vec::with_capacity(1 << (window - 1));
        table.push(base_m.clone());
        if window > 1 {
            let mut base_sq = vec![0u64; k];
            self.mont_sqr_into(&mut base_sq, &base_m, &mut scratch);
            for i in 1..(1 << (window - 1)) {
                let mut next = vec![0u64; k];
                self.mont_mul_into(&mut next, &table[i - 1], &base_sq, &mut scratch);
                table.push(next);
            }
        }

        let mut acc = self.r_one.clone();
        let mut i = exponent.bits();
        while i > 0 {
            if !exponent.bit(i - 1) {
                self.mont_sqr_into(&mut tmp, &acc, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
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
                self.mont_sqr_into(&mut tmp, &acc, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
            self.mont_mul_into(&mut tmp, &acc, &table[value >> 1], &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
            i = low;
        }

        let mut one = vec![0u64; k];
        one[0] = 1;
        self.mont_mul_into(&mut tmp, &acc, &one, &mut scratch);
        BigUint::from_limbs(tmp)
    }

    /// Montgomery reduction of a double-width product held in `t` — the
    /// pre-optimisation implementation, allocating a fresh `BigUint` per
    /// reduction. Kept verbatim so [`Self::modpow_bitwise`] shares no code
    /// with the in-place kernel it is the reference for.
    fn redc_alloc(&self, mut t: Vec<u64>) -> BigUint {
        let k = self.limbs;
        let n = self.modulus.limbs();
        t.resize(2 * k + 1, 0);
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n_prime);
            let mut carry = 0u128;
            for (j, &nj) in n.iter().enumerate() {
                let cur = t[i + j] as u128 + (m as u128) * (nj as u128) + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let cur = t[idx] as u128 + carry;
                t[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        let reduced = BigUint::from_limbs(t[k..].to_vec());
        if reduced.cmp_magnitude(&self.modulus) != std::cmp::Ordering::Less {
            &reduced - &self.modulus
        } else {
            reduced
        }
    }

    /// Montgomery product through general `BigUint` multiplication plus
    /// [`Self::redc_alloc`] — the pre-optimisation multiplication step.
    fn mont_mul_alloc(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let product = a * b;
        let mut limbs = product.limbs().to_vec();
        limbs.resize(2 * self.limbs + 1, 0);
        self.redc_alloc(limbs)
    }

    /// `base^exponent mod n` exactly as the pre-optimisation code computed
    /// it: bit-at-a-time square-and-multiply over the allocating
    /// `mont_mul_alloc` kernel (fresh vectors per squaring). Kept only as
    /// an independent reference for equivalence testing — [`Self::modpow`]
    /// is the optimised path.
    pub fn modpow_bitwise(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        let base = base.rem_of(&self.modulus);
        if exponent.is_zero() {
            return BigUint::one();
        }
        let r_squared = BigUint::from_limbs(self.r_squared.clone());
        let base_m = self.mont_mul_alloc(&base, &r_squared);
        let mut acc = self.mont_mul_alloc(&BigUint::one(), &r_squared);
        for i in (0..exponent.bits()).rev() {
            acc = self.mont_mul_alloc(&acc, &acc);
            if exponent.bit(i) {
                acc = self.mont_mul_alloc(&acc, &base_m);
            }
        }
        self.mont_mul_alloc(&acc, &BigUint::one())
    }
}

/// Fixed-width magnitude comparison: `a < b` over equal-length limb slices.
fn limbs_less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert!(a.len() >= b.len());
    for idx in (0..a.len()).rev() {
        let bv = b.get(idx).copied().unwrap_or(0);
        if a[idx] != bv {
            return a[idx] < bv;
        }
    }
    false
}

impl BigUint {
    /// Computes `self^exponent mod modulus`.
    ///
    /// For odd moduli this uses fixed-window Montgomery exponentiation; for
    /// even moduli it falls back to [`BigUint::modpow_naive`].
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
    /// division per step. Total over every modulus parity (the even-modulus
    /// path of [`BigUint::modpow`], which Montgomery reduction cannot
    /// serve), and deliberately free of Montgomery machinery so equivalence
    /// tests have an independent reference.
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
        // against a deliberately multi-limb modulus.
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
                ctx.modpow_bitwise(&base, &e),
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
            // modpow(a, 2) squares through mont_sqr_into; mul_mod(a, a)
            // multiplies through mont_mul_into — they must agree exactly.
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
