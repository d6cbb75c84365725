//! An independent AES-128 oracle: FIPS 197 transcribed byte by byte.
//!
//! This was the library's cipher before the table kernel replaced it. It
//! shares no code with `oma_crypto::aes`: SubBytes, ShiftRows, MixColumns and
//! their inverses work on the 16 state bytes, GF(2⁸) products are computed
//! bit-serially, and decryption is the *straight* inverse cipher of §5.3
//! over the encryption key schedule. The suites compare the kernel against
//! it on random keys and blocks.

const ROUNDS: usize = 10;

/// Multiplication in GF(2⁸) with the AES reduction polynomial x⁸+x⁴+x³+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸) by exponentiation (a²⁵⁴).
fn gf_inverse(a: u8) -> u8 {
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// The byte-wise reference cipher.
pub struct ReferenceAes128 {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    round_keys: [[u8; 16]; ROUNDS + 1],
}

impl ReferenceAes128 {
    /// Builds the S-boxes from the GF(2⁸) inverse and the affine transform,
    /// then expands `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for x in 0u16..256 {
            let x = x as u8;
            let inv = if x == 0 { 0 } else { gf_inverse(x) };
            // b ^= rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
            let mut b = inv;
            let mut res = inv;
            for _ in 0..4 {
                b = b.rotate_left(1);
                res ^= b;
            }
            res ^= 0x63;
            sbox[x as usize] = res;
            inv_sbox[res as usize] = x;
        }
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let rcon: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = sbox[*byte as usize];
                }
                temp[0] ^= rcon[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        ReferenceAes128 {
            sbox,
            inv_sbox,
            round_keys,
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn substitute(state: &mut [u8; 16], sbox: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = sbox[*b as usize];
        }
    }

    /// State layout: `state[4*c + r]` is row `r`, column `c`
    /// (i.e. bytes are stored column-major exactly as the block bytes).
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    /// Multiplies every column by the circulant matrix whose first row is
    /// `m`: `[2, 3, 1, 1]` for MixColumns, `[14, 11, 13, 9]` for its inverse.
    fn mix_columns(state: &mut [u8; 16], m: [u8; 4]) {
        for column in state.chunks_exact_mut(4) {
            let col = [column[0], column[1], column[2], column[3]];
            for (r, out) in column.iter_mut().enumerate() {
                *out = (0..4).fold(0, |acc, j| acc ^ gf_mul(col[j], m[(j + 4 - r) % 4]));
            }
        }
    }

    /// Encrypts one block (FIPS 197 §5.1).
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..ROUNDS {
            Self::substitute(&mut state, &self.sbox);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state, [2, 3, 1, 1]);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::substitute(&mut state, &self.sbox);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[ROUNDS]);
        state
    }

    /// Decrypts one block with the straight inverse cipher (FIPS 197 §5.3).
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[ROUNDS]);
        for round in (1..ROUNDS).rev() {
            Self::inv_shift_rows(&mut state);
            Self::substitute(&mut state, &self.inv_sbox);
            Self::add_round_key(&mut state, &self.round_keys[round]);
            Self::mix_columns(&mut state, [14, 11, 13, 9]);
        }
        Self::inv_shift_rows(&mut state);
        Self::substitute(&mut state, &self.inv_sbox);
        Self::add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}
