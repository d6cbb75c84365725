//! The SHA-1 hash function (FIPS 180-1).
//!
//! OMA DRM 2 mandates SHA-1 as the hash for DCF integrity checks, as the
//! core of HMAC-SHA-1, inside KDF2 and inside the EMSA-PSS signature
//! encoding. Both a one-shot [`sha1`] helper and an incremental
//! [`Sha1`] hasher are provided; the incremental form is used when hashing
//! multi-megabyte DCF payloads in streaming fashion.

/// Digest size of SHA-1 in bytes.
pub const DIGEST_SIZE: usize = 20;

/// Internal block size of SHA-1 in bytes.
pub const BLOCK_SIZE: usize = 64;

/// Incremental SHA-1 hasher.
///
/// # Example
///
/// ```
/// use oma_crypto::sha1::{sha1, Sha1};
///
/// let mut hasher = Sha1::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha1(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; BLOCK_SIZE],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            buffer: [0u8; BLOCK_SIZE],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (BLOCK_SIZE - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_SIZE {
                // Buffer still partially filled and all input consumed.
                return;
            }
            compress(&mut self.state, &self.buffer);
        }
        // The whole blocks are compressed where they lie in the caller's
        // input; only the tail is staged.
        let (whole, rest) = data.split_at(data.len() - data.len() % BLOCK_SIZE);
        compress(&mut self.state, whole);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finishes the hash and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit bit length —
        // one block, or two when fewer than 8 bytes are free after the 0x80.
        const LENGTH_AT: usize = BLOCK_SIZE - 8;
        let mut padding = [0u8; 2 * BLOCK_SIZE];
        padding[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        padding[self.buffer_len] = 0x80;
        let padded_len = if self.buffer_len < LENGTH_AT {
            BLOCK_SIZE
        } else {
            2 * BLOCK_SIZE
        };
        let bit_len = self.total_len.wrapping_mul(8);
        padding[padded_len - 8..padded_len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &padding[..padded_len]);
        let mut out = [0u8; DIGEST_SIZE];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The 16-word circular message schedule: returns `W[t]` for `t >= 16` and
/// stores it over `W[t - 16]`.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    w[t % 16] = (w[(t + 13) % 16] ^ w[(t + 8) % 16] ^ w[(t + 2) % 16] ^ w[t % 16]).rotate_left(1);
    w[t % 16]
}

/// One round over `[a, b, c, d, e]` with round function `f(b, c, d)`.
#[inline(always)]
fn round([a, b, c, d, e]: [u32; 5], f: impl Fn(u32, u32, u32) -> u32, k: u32, w: u32) -> [u32; 5] {
    let a_next = a
        .rotate_left(5)
        .wrapping_add(f(b, c, d))
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(w);
    [a_next, a, b.rotate_left(30), c, d]
}

/// Compresses a run of whole blocks into `state`.
fn compress(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(BLOCK_SIZE));
    let choose = |b, c, d| d ^ (b & (c ^ d));
    let parity = |b, c, d| b ^ c ^ d;
    let majority = |b, c, d| (b & c) | (d & (b | c));
    for block in blocks.chunks_exact(BLOCK_SIZE) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let mut v = *state;
        // The 80 rounds as four groups of 20, one round function and
        // constant each; only the first 16 read the block directly.
        for wt in w {
            v = round(v, choose, 0x5a827999, wt);
        }
        for t in 16..20 {
            v = round(v, choose, 0x5a827999, schedule(&mut w, t));
        }
        for t in 20..40 {
            v = round(v, parity, 0x6ed9eba1, schedule(&mut w, t));
        }
        for t in 40..60 {
            v = round(v, majority, 0x8f1bbcdc, schedule(&mut w, t));
        }
        for t in 60..80 {
            v = round(v, parity, 0xca62c1d6, schedule(&mut w, t));
        }
        for (s, x) in state.iter_mut().zip(v) {
            *s = s.wrapping_add(x);
        }
    }
}

/// One-shot SHA-1 of `data`.
///
/// ```
/// use oma_crypto::sha1::sha1;
/// let d = sha1(b"abc");
/// assert_eq!(hex(&d), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
pub fn sha1(data: &[u8]) -> [u8; DIGEST_SIZE] {
    let mut hasher = Sha1::new();
    hasher.update(data);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn fips_180_1_vectors() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_and_fox() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn million_a() {
        let mut hasher = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        assert_eq!(
            hex(&hasher.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 7 + 3) as u8).collect();
        let expected = sha1(&data);
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut hasher = Sha1::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), expected, "split={split}");
        }
    }

    #[test]
    fn exact_block_boundary_lengths() {
        for len in [55usize, 56, 63, 64, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let one = sha1(&data);
            let mut inc = Sha1::new();
            for byte in &data {
                inc.update(std::slice::from_ref(byte));
            }
            assert_eq!(inc.finalize(), one, "len={len}");
        }
    }

    #[test]
    fn default_equals_new() {
        let a = Sha1::default().finalize();
        let b = Sha1::new().finalize();
        assert_eq!(a, b);
    }
}
