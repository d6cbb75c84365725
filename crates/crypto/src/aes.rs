//! The AES-128 block cipher (FIPS 197).
//!
//! Only the 128-bit key size is implemented because it is the one mandated
//! by OMA DRM 2 for both content encryption (AES-CBC) and key wrapping
//! (AES-WRAP).
//!
//! The cipher is the classic 32-bit table realisation: the state is four
//! big-endian column words and a round is four table look-ups and XORs per
//! column. Nothing is pasted in: the S-box is derived at compile time from
//! the GF(2⁸) inverse and the affine transform, and the round tables
//! `TE`/`TD` from the S-boxes and the MixColumns / InvMixColumns
//! coefficients, all by `const fn` (8 KiB of tables + 512 B of S-boxes in
//! `static`s, nothing computed at run time). Decryption is FIPS 197 §5.3.5's
//! *equivalent inverse cipher*: the same round shape as encryption over a
//! second key schedule whose middle round keys went through InvMixColumns.
//!
//! Table look-ups indexed by secret bytes are not constant-time; see
//! `docs/ARCHITECTURE.md` ("Symmetric bulk path") for why that is inside
//! this model's threat model. The implementation is validated against the
//! FIPS 197, SP 800-38A and AESAVS vectors, and against an independent
//! byte-wise transcription of FIPS 197 kept under `tests/`.

/// Block size of AES in bytes.
pub const BLOCK_SIZE: usize = 16;

/// Key size of AES-128 in bytes.
pub const KEY_SIZE: usize = 16;

/// Number of rounds for AES-128.
const ROUNDS: usize = 10;

/// Multiplication in GF(2⁸) with the AES reduction polynomial x⁸+x⁴+x³+x+1.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
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

/// Multiplicative inverse in GF(2⁸) by exponentiation (a²⁵⁴); 0 maps to 0,
/// as the S-box definition requires.
const fn gf_inverse(a: u8) -> u8 {
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

/// The S-box: GF(2⁸) inverse followed by the affine transform
/// `b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63`.
const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut x = 0usize;
    while x < 256 {
        let inv = gf_inverse(x as u8);
        sbox[x] = inv
            ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63;
        x += 1;
    }
    sbox
}

/// The inverse permutation of `sbox`.
const fn invert(sbox: &[u8; 256]) -> [u8; 256] {
    let mut inverse = [0u8; 256];
    let mut x = 0usize;
    while x < 256 {
        inverse[sbox[x] as usize] = x as u8;
        x += 1;
    }
    inverse
}

/// Round tables: `tables[0][x]` is the column `coefficients · sbox[x]` as a
/// big-endian word (SubBytes and MixColumns of one state byte in one
/// look-up); `tables[j]` is `tables[0]` rotated right by `j` bytes, for the
/// byte that ShiftRows brings into row `j`.
const fn build_round_tables(sbox: &[u8; 256], coefficients: [u8; 4]) -> [[u32; 256]; 4] {
    let mut tables = [[0u32; 256]; 4];
    let mut x = 0usize;
    while x < 256 {
        let s = sbox[x];
        let word = u32::from_be_bytes([
            gf_mul(s, coefficients[0]),
            gf_mul(s, coefficients[1]),
            gf_mul(s, coefficients[2]),
            gf_mul(s, coefficients[3]),
        ]);
        let mut j = 0usize;
        while j < 4 {
            tables[j][x] = word.rotate_right(8 * j as u32);
            j += 1;
        }
        x += 1;
    }
    tables
}

static SBOX: [u8; 256] = build_sbox();
static INV_SBOX: [u8; 256] = invert(&SBOX);
/// Encryption round tables (first column of the MixColumns matrix).
static TE: [[u32; 256]; 4] = build_round_tables(&SBOX, [2, 1, 1, 3]);
/// Decryption round tables (first column of the InvMixColumns matrix).
static TD: [[u32; 256]; 4] = build_round_tables(&INV_SBOX, [14, 9, 13, 11]);

/// Byte `row` (0 = most significant) of a state word, as a table index.
#[inline(always)]
fn byte(word: u32, row: u32) -> usize {
    (word >> (24 - 8 * row)) as u8 as usize
}

/// One column of a middle round: the look-ups for the four bytes that the
/// row shift brings into this column, XORed with the round-key word.
#[inline(always)]
fn column(t: &[[u32; 256]; 4], s: [u32; 4], k: u32) -> u32 {
    t[0][byte(s[0], 0)] ^ t[1][byte(s[1], 1)] ^ t[2][byte(s[2], 2)] ^ t[3][byte(s[3], 3)] ^ k
}

/// One column of the final round, which has no (Inv)MixColumns: plain
/// S-box bytes.
#[inline(always)]
fn last_column(sbox: &[u8; 256], s: [u32; 4], k: u32) -> u32 {
    u32::from_be_bytes([
        sbox[byte(s[0], 0)],
        sbox[byte(s[1], 1)],
        sbox[byte(s[2], 2)],
        sbox[byte(s[3], 3)],
    ]) ^ k
}

/// One cipher round over the whole state. Column `c` takes its row-`j` byte
/// from column `c + j·step`: `step` 1 is ShiftRows, `step` 3 InvShiftRows.
#[inline(always)]
fn round(s: [u32; 4], k: &[u32; 4], step: usize, col: impl Fn([u32; 4], u32) -> u32) -> [u32; 4] {
    std::array::from_fn(|c| {
        col(
            [
                s[c],
                s[(c + step) % 4],
                s[(c + 2 * step) % 4],
                s[(c + 3 * step) % 4],
            ],
            k[c],
        )
    })
}

/// The ten rounds, shared by both directions, over `N` independent blocks
/// side by side: each round is applied to every block before the next, so
/// one block's look-ups are in flight while another's are combined.
#[inline(always)]
fn cipher<const N: usize>(
    blocks: [&[u8; BLOCK_SIZE]; N],
    keys: &[[u32; 4]; ROUNDS + 1],
    step: usize,
    tables: &[[u32; 256]; 4],
    sbox: &[u8; 256],
) -> [[u8; BLOCK_SIZE]; N] {
    let mut s: [[u32; 4]; N] = std::array::from_fn(|n| {
        std::array::from_fn(|c| {
            u32::from_be_bytes([
                blocks[n][4 * c],
                blocks[n][4 * c + 1],
                blocks[n][4 * c + 2],
                blocks[n][4 * c + 3],
            ]) ^ keys[0][c]
        })
    });
    for k in &keys[1..ROUNDS] {
        for lane in &mut s {
            *lane = round(*lane, k, step, |s, k| column(tables, s, k));
        }
    }
    s.map(|s| {
        let s = round(s, &keys[ROUNDS], step, |s, k| last_column(sbox, s, k));
        let mut out = [0u8; BLOCK_SIZE];
        for (chunk, word) in out.chunks_exact_mut(4).zip(s) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    })
}

/// An AES-128 block cipher instance with both expanded key schedules.
///
/// # Example
///
/// ```
/// use oma_crypto::aes::Aes128;
///
/// let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
/// let cipher = Aes128::new(&key);
/// let plain = *b"theblockis16byte";
/// let ct = cipher.encrypt_block(&plain);
/// assert_eq!(cipher.decrypt_block(&ct), plain);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys, one `[u32; 4]` of big-endian column words per
    /// round.
    encrypt_keys: [[u32; 4]; ROUNDS + 1],
    /// Round keys of the equivalent inverse cipher: the encryption keys in
    /// reverse order, the nine middle ones through InvMixColumns.
    decrypt_keys: [[u32; 4]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").field("rounds", &ROUNDS).finish()
    }
}

impl Aes128 {
    /// Expands `key` into the round-key schedules.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not exactly 16 bytes; use
    /// [`Aes128::try_new`] for a fallible constructor.
    pub fn new(key: &[u8]) -> Self {
        Self::try_new(key).expect("AES-128 key must be 16 bytes")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::InvalidKeyLength`] if `key` is not 16 bytes.
    pub fn try_new(key: &[u8]) -> Result<Self, crate::CryptoError> {
        check_key(key)?;
        const RCON: [u8; ROUNDS] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
        let mut encrypt_keys = [[0u32; 4]; ROUNDS + 1];
        for (word, bytes) in encrypt_keys[0].iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for r in 1..=ROUNDS {
            let previous = encrypt_keys[r - 1];
            // RotWord, SubWord, Rcon on the last word of the previous key.
            let rotated = previous[3].rotate_left(8);
            let mut temp = last_column(&SBOX, [rotated; 4], (RCON[r - 1] as u32) << 24);
            for c in 0..4 {
                temp ^= previous[c];
                encrypt_keys[r][c] = temp;
            }
        }
        let mut decrypt_keys = encrypt_keys;
        decrypt_keys.reverse();
        for k in &mut decrypt_keys[1..ROUNDS] {
            for word in k {
                // TD holds InvMixColumns ∘ InvSubBytes, so undo the latter.
                let subbed = last_column(&SBOX, [*word; 4], 0);
                *word = column(&TD, [subbed; 4], 0);
            }
        }
        Ok(Aes128 {
            encrypt_keys,
            decrypt_keys,
        })
    }

    /// Encrypts a single 16-byte block.
    #[inline]
    pub fn encrypt_block(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let [out] = cipher([block], &self.encrypt_keys, 1, &TE, &SBOX);
        out
    }

    /// Decrypts a single 16-byte block.
    #[inline]
    pub fn decrypt_block(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let [out] = cipher([block], &self.decrypt_keys, 3, &TD, &INV_SBOX);
        out
    }

    /// Decrypts two independent blocks side by side (see
    /// `cbc::chain_decrypt_interleaved`).
    #[inline]
    pub(crate) fn decrypt_block_pair(
        &self,
        blocks: [&[u8; BLOCK_SIZE]; 2],
    ) -> [[u8; BLOCK_SIZE]; 2] {
        cipher(blocks, &self.decrypt_keys, 3, &TD, &INV_SBOX)
    }
}

/// Rejects a key that is not [`KEY_SIZE`] bytes.
pub(crate) fn check_key(key: &[u8]) -> Result<(), crate::CryptoError> {
    if key.len() != KEY_SIZE {
        return Err(crate::CryptoError::InvalidKeyLength {
            expected: KEY_SIZE,
            actual: key.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_values() {
        let sb = &SBOX;
        assert_eq!(sb[0x00], 0x63);
        assert_eq!(sb[0x01], 0x7c);
        assert_eq!(sb[0x53], 0xed);
        assert_eq!(sb[0xff], 0x16);
        let inv = &INV_SBOX;
        assert_eq!(inv[0x63], 0x00);
        assert_eq!(inv[0xed], 0x53);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let sb = &SBOX;
        let mut seen = [false; 256];
        for &v in sb.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        let inv = &INV_SBOX;
        for x in 0..256 {
            assert_eq!(inv[sb[x] as usize] as usize, x);
        }
    }

    #[test]
    fn gf_mul_known_products() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(0x02, 0x80), 0x1b);
    }

    #[test]
    fn gf_inverse_roundtrip() {
        for x in 1u16..256 {
            let x = x as u8;
            assert_eq!(gf_mul(x, gf_inverse(x)), 1, "x={x:#x}");
        }
    }

    #[test]
    fn fips197_appendix_b_vector() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let plain = hex("3243f6a8885a308d313198a2e0370734");
        let expected = hex("3925841d02dc09fbdc118597196a0b32");
        let cipher = Aes128::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&plain);
        assert_eq!(cipher.encrypt_block(&block).to_vec(), expected);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let plain = hex("00112233445566778899aabbccddeeff");
        let expected = hex("69c4e0d86a7b0430d8cdb78070b4c55a");
        let cipher = Aes128::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&plain);
        let ct = cipher.encrypt_block(&block);
        assert_eq!(ct.to_vec(), expected);
        assert_eq!(cipher.decrypt_block(&ct), block);
    }

    #[test]
    fn sp800_38a_ecb_vectors() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (p, c) in cases {
            let mut block = [0u8; 16];
            block.copy_from_slice(&hex(p));
            assert_eq!(cipher.encrypt_block(&block).to_vec(), hex(c));
        }
    }

    #[test]
    fn decrypt_inverts_encrypt_random_blocks() {
        use rand::RngCore;
        let mut rng = rand::thread_rng();
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let cipher = Aes128::new(&key);
        for _ in 0..64 {
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut block);
            assert_eq!(cipher.decrypt_block(&cipher.encrypt_block(&block)), block);
        }
    }

    #[test]
    fn wrong_key_length_rejected() {
        assert!(Aes128::try_new(&[0u8; 15]).is_err());
        assert!(Aes128::try_new(&[0u8; 17]).is_err());
        assert!(Aes128::try_new(&[0u8; 16]).is_ok());
    }

    #[test]
    fn debug_does_not_leak_key() {
        let cipher = Aes128::new(&[7u8; 16]);
        let s = format!("{cipher:?}");
        assert!(!s.contains('7') || !s.contains("round_keys"));
        assert!(s.contains("Aes128"));
    }
}
