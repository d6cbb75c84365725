//! Known answers for the AES-128 kernel and the CBC mode over it, and the
//! kernel against an independent oracle.
//!
//! * NIST SP 800-38A F.2.1 / F.2.2: CBC-AES128 encryption *and* decryption,
//!   all four blocks;
//! * AESAVS (NIST, 2002) appendices B – E: GFSbox, KeySbox, VarTxt and VarKey
//!   rows for 128-bit keys, each checked in both directions;
//! * the Monte-Carlo chain — 1 000 dependent block operations, the inner
//!   loop of the AESAVS MCT — in both directions against the byte-wise
//!   reference, plus the 10 000-step chains published with the Rijndael
//!   submission (`ecb_e_m.txt` / `ecb_d_m.txt`, first entry);
//! * a property test that the table kernel and the byte-wise FIPS 197
//!   transcription in `common/aes_reference.rs` agree on random keys and
//!   blocks.

#[path = "common/aes_reference.rs"]
mod aes_reference;

use aes_reference::ReferenceAes128;
use oma_crypto::aes::Aes128;
use oma_crypto::cbc;
use proptest::prelude::*;

fn hex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2));
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn block(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("32 hex digits")
}

/// Checks `E(key, plain) == cipher` and `D(key, cipher) == plain` on the
/// kernel and on the reference.
fn check_row(key: &str, plain: &str, cipher: &str) {
    let (key, plain, cipher) = (block(key), block(plain), block(cipher));
    let kernel = Aes128::new(&key);
    assert_eq!(kernel.encrypt_block(&plain), cipher, "encrypt {plain:02x?}");
    assert_eq!(
        kernel.decrypt_block(&cipher),
        plain,
        "decrypt {cipher:02x?}"
    );
    let reference = ReferenceAes128::new(&key);
    assert_eq!(reference.encrypt_block(&plain), cipher, "reference encrypt");
    assert_eq!(reference.decrypt_block(&cipher), plain, "reference decrypt");
}

const ZERO: &str = "00000000000000000000000000000000";

// ----- SP 800-38A F.2: CBC-AES128 ----------------------------------------------

const SP800_38A_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const SP800_38A_IV: &str = "000102030405060708090a0b0c0d0e0f";
const SP800_38A_PLAIN: &str = concat!(
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710"
);
const SP800_38A_CBC: &str = concat!(
    "7649abac8119b246cee98e9b12e9197d",
    "5086cb9b507219ee95db113a917678b2",
    "73bed6b8e3c1743b7116e69e22229516",
    "3ff1caa1681fac09120eca307586e1a7"
);

#[test]
fn sp800_38a_f21_cbc_encrypt_all_four_blocks() {
    let ciphertext = cbc::encrypt(
        &hex(SP800_38A_KEY),
        &hex(SP800_38A_IV),
        &hex(SP800_38A_PLAIN),
    )
    .unwrap();
    // The vector has no padding; ours adds one PKCS#7 block after it.
    assert_eq!(ciphertext.len(), 80);
    assert_eq!(ciphertext[..64], hex(SP800_38A_CBC)[..]);
}

#[test]
fn sp800_38a_f22_cbc_decrypt_all_four_blocks() {
    // `cbc::decrypt` insists on PKCS#7 padding, which the vector lacks:
    // append the block that encrypts sixteen 0x10 bytes chained from the
    // last vector block (its bytes follow from the block cipher, pinned
    // elsewhere in this file). Every prefix of the vector is checked, so
    // both even and odd block counts reach the two-lane decryptor.
    let (key, iv) = (hex(SP800_38A_KEY), hex(SP800_38A_IV));
    let cipher = Aes128::new(&key);
    for blocks in 1..=4 {
        let mut ciphertext = hex(SP800_38A_CBC)[..16 * blocks].to_vec();
        let last = &ciphertext[16 * (blocks - 1)..];
        let padding: [u8; 16] = std::array::from_fn(|i| 0x10 ^ last[i]);
        ciphertext.extend_from_slice(&cipher.encrypt_block(&padding));
        assert_eq!(
            cbc::decrypt(&key, &iv, &ciphertext).unwrap(),
            hex(SP800_38A_PLAIN)[..16 * blocks],
            "{blocks} vector blocks"
        );
    }
}

// ----- AESAVS appendix B: GFSbox, key = 0 ----------------------------------------

#[test]
fn aesavs_gfsbox_128() {
    for (plain, cipher) in [
        (
            "f34481ec3cc627bacd5dc3fb08f273e6",
            "0336763e966d92595a567cc9ce537f5e",
        ),
        (
            "9798c4640bad75c7c3227db910174e72",
            "a9a1631bf4996954ebc093957b234589",
        ),
        (
            "96ab5c2ff612d9dfaae8c31f30c42168",
            "ff4f8391a6a40ca5b25d23bedd44a597",
        ),
        (
            "6a118a874519e64e9963798a503f1d35",
            "dc43be40be0e53712f7e2bf5ca707209",
        ),
        (
            "cb9fceec81286ca3e989bd979b0cb284",
            "92beedab1895a94faa69b632e5cc47ce",
        ),
        (
            "b26aeb1874e47ca8358ff22378f09144",
            "459264f4798f6a78bacb89c15ed3d601",
        ),
        (
            "58c8e00b2631686d54eab84b91f0aca1",
            "08a4e2efec8a8e3312ca7460b9040bbf",
        ),
    ] {
        check_row(ZERO, plain, cipher);
    }
}

// ----- AESAVS appendix C: KeySbox, plaintext = 0 --------------------------------

#[test]
fn aesavs_keysbox_128() {
    for (key, cipher) in [
        (
            "10a58869d74be5a374cf867cfb473859",
            "6d251e6944b051e04eaa6fb4dbf78465",
        ),
        (
            "caea65cdbb75e9169ecd22ebe6e54675",
            "6e29201190152df4ee058139def610bb",
        ),
        (
            "a2e2fa9baf7d20822ca9f0542f764a41",
            "c3b44b95d9d2f25670eee9a0de099fa3",
        ),
        (
            "b6364ac4e1de1e285eaf144a2415f7a0",
            "5d9b05578fc944b3cf1ccf0e746cd581",
        ),
        (
            "64cf9c7abc50b888af65f49d521944b2",
            "f7efc89d5dba578104016ce5ad659c05",
        ),
        (
            "47d6742eefcc0465dc96355e851b64d9",
            "0306194f666d183624aa230a8b264ae7",
        ),
        (
            "3eb39790678c56bee34bbcdeccf6cdb5",
            "858075d536d79ccee571f7d7204b1f67",
        ),
        (
            "64110a924f0743d500ccadae72c13427",
            "35870c6a57e9e92314bcb8087cde72ce",
        ),
        (
            "18d8126516f8a12ab1a36d9f04d68e51",
            "6c68e9be5ec41e22c825b7c7affb4363",
        ),
        (
            "f530357968578480b398a3c251cd1093",
            "f5df39990fc688f1b07224cc03e86cea",
        ),
        (
            "da84367f325d42d601b4326964802e8e",
            "bba071bcb470f8f6586e5d3add18bc66",
        ),
        (
            "e37b1c6aa2846f6fdb413f238b089f23",
            "43c9f7e62f5d288bb27aa40ef8fe1ea8",
        ),
    ] {
        check_row(key, ZERO, cipher);
    }
}

// ----- AESAVS appendix D: VarTxt, key = 0 -----------------------------------------

#[test]
fn aesavs_vartxt_128() {
    for (plain, cipher) in [
        (
            "80000000000000000000000000000000",
            "3ad78e726c1ec02b7ebfe92b23d9ec34",
        ),
        (
            "c0000000000000000000000000000000",
            "aae5939c8efdf2f04e60b9fe7117b2c2",
        ),
        (
            "e0000000000000000000000000000000",
            "f031d4d74f5dcbf39daaf8ca3af6e527",
        ),
        (
            "f0000000000000000000000000000000",
            "96d9fd5cc4f07441727df0f33e401a36",
        ),
        (
            "f8000000000000000000000000000000",
            "30ccdb044646d7e1f3ccea3dca08b8c0",
        ),
        (
            "fc000000000000000000000000000000",
            "16ae4ce5042a67ee8e177b7c587ecc82",
        ),
        (
            "fe000000000000000000000000000000",
            "b6da0bb11a23855d9c5cb1b4c6412e0a",
        ),
        (
            "ff000000000000000000000000000000",
            "db4f1aa530967d6732ce4715eb0ee24b",
        ),
        (
            "ffffffffffffffffffffffffffffffff",
            "3f5b8cc9ea855a0afa7347d23e8d664e",
        ),
    ] {
        check_row(ZERO, plain, cipher);
    }
}

// ----- AESAVS appendix E: VarKey, plaintext = 0 -----------------------------------

#[test]
fn aesavs_varkey_128() {
    for (key, cipher) in [
        (
            "80000000000000000000000000000000",
            "0edd33d3c621e546455bd8ba1418bec8",
        ),
        (
            "c0000000000000000000000000000000",
            "4bc3f883450c113c64ca42e1112a9e87",
        ),
        (
            "e0000000000000000000000000000000",
            "72a1da770f5d7ac4c9ef94d822affd97",
        ),
        (
            "f0000000000000000000000000000000",
            "970014d634e2b7650777e8e84d03ccd8",
        ),
        (
            "f8000000000000000000000000000000",
            "f17e79aed0db7e279e955b5f493875a7",
        ),
        (
            "fc000000000000000000000000000000",
            "9ed5a75136a940d0963da379db4af26a",
        ),
        (
            "fe000000000000000000000000000000",
            "c4295f83465c7755e8fa364bac6a7ea5",
        ),
        (
            "ff000000000000000000000000000000",
            "b1d758256b28fd850ad4944208cf1155",
        ),
        (
            "ffffffffffffffffffffffffffffffff",
            "a1f6258c877d5fcd8964484538bfc92c",
        ),
    ] {
        check_row(key, ZERO, cipher);
    }
}

// ----- Monte-Carlo chains -----------------------------------------------------------

/// Feeds each output back as the next input, `steps` times.
fn chain(steps: usize, start: [u8; 16], step: impl Fn(&[u8; 16]) -> [u8; 16]) -> [u8; 16] {
    (0..steps).fold(start, |block, _| step(&block))
}

#[test]
fn monte_carlo_1000_step_chains_match_the_reference() {
    let key = block("8809e7dd3a959ee5d8dbb13f501f2274"); // arbitrary, fixed
    let start = block("e20ddf18426c11e7b9d0b0d1f4f0ea68");
    let (kernel, reference) = (Aes128::new(&key), ReferenceAes128::new(&key));
    let encrypted = chain(1_000, start, |b| kernel.encrypt_block(b));
    assert_eq!(
        encrypted,
        chain(1_000, start, |b| reference.encrypt_block(b))
    );
    let decrypted = chain(1_000, start, |b| kernel.decrypt_block(b));
    assert_eq!(
        decrypted,
        chain(1_000, start, |b| reference.decrypt_block(b))
    );
    // Each direction undoes the other's whole chain.
    assert_eq!(chain(1_000, encrypted, |b| kernel.decrypt_block(b)), start);
    assert_eq!(chain(1_000, decrypted, |b| kernel.encrypt_block(b)), start);
}

#[test]
fn rijndael_submission_10000_step_chains() {
    // ecb_e_m.txt / ecb_d_m.txt, KEYSIZE=128, I=0: key and input all zero.
    let kernel = Aes128::new(&block(ZERO));
    assert_eq!(
        chain(10_000, block(ZERO), |b| kernel.encrypt_block(b)),
        block("c34c052cc0da8d73451afe5f03be297f")
    );
    assert_eq!(
        chain(10_000, block(ZERO), |b| kernel.decrypt_block(b)),
        block("44416ac2d1f53c583303917e6be9ebe0")
    );
}

// ----- kernel ≡ reference ----------------------------------------------------------

#[test]
fn reference_reproduces_fips197_appendix_c1() {
    // The oracle is itself pinned, so agreement with it means something.
    check_row(
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_reference(key in any::<[u8; 16]>(), input in any::<[u8; 16]>()) {
        let (kernel, reference) = (Aes128::new(&key), ReferenceAes128::new(&key));
        let encrypted = kernel.encrypt_block(&input);
        prop_assert_eq!(encrypted, reference.encrypt_block(&input));
        prop_assert_eq!(kernel.decrypt_block(&input), reference.decrypt_block(&input));
        prop_assert_eq!(kernel.decrypt_block(&encrypted), input);
    }
}
