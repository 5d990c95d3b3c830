//! AES-128 (FIPS 197) and CTR mode.
//!
//! Used by the secure group session layer (`gkap-core`'s
//! `SecureSession`) to encrypt application data under the established
//! group key, playing the role Blowfish/ciphers played in the original
//! Secure Spread.
//!
//! Only encryption of the block cipher is implemented — CTR mode needs
//! nothing else, which keeps the attack surface (and code) small.
//!
//! # Layout
//!
//! The state is four big-endian column words, and a round is the
//! classic 32-bit T-table round: one lookup per state byte into
//! `TE`, whose four tables of 256 words fold `SubBytes` and
//! `MixColumns` together, then an XOR with the round key. `TE[0][x]`
//! is the column `(2·S[x], S[x], S[x], 3·S[x])`, and `TE[i]` is that
//! word rotated right by `8·i` bits, so the byte a row's shift moves
//! into a column lands in the right row. The tables are built at
//! compile time from `SBOX`; the last round has no `MixColumns` and
//! reads the S-box itself. The byte-wise round (`sub_bytes`,
//! `shift_rows`, `mix_columns`) survives in the test module as the
//! reference the tables are checked against.
//!
//! T-table lookups are data-dependent loads, the same timing class as
//! the byte S-box they replace: this cipher has no side-channel
//! hardening (see the crate's security caveat).

use crate::secret::Zeroize;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// The four encryption T-tables: `TE[0][x]` is `(2·S[x], S[x], S[x],
/// 3·S[x])` from the most significant byte down, and `TE[i]` is
/// `TE[0]` rotated right by `8·i` bits.
static TE: [[u32; 256]; 4] = te_tables();

const fn te_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let w = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        te[0][x] = w;
        te[1][x] = w.rotate_right(8);
        te[2][x] = w.rotate_right(16);
        te[3][x] = w.rotate_right(24);
        x += 1;
    }
    te
}

/// `SubWord`: the S-box applied to each byte of a word.
#[inline]
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

/// One full round for output column `c`: row `r` of the result reads
/// column `c + r` (`ShiftRows`), through table `TE[r]`.
#[inline(always)]
fn round_column(s: &[u32; 4], c: usize, rk: u32) -> u32 {
    TE[0][(s[c] >> 24) as usize]
        ^ TE[1][((s[(c + 1) % 4] >> 16) & 0xff) as usize]
        ^ TE[2][((s[(c + 2) % 4] >> 8) & 0xff) as usize]
        ^ TE[3][(s[(c + 3) % 4] & 0xff) as usize]
        ^ rk
}

/// The last round's column `c`: `SubBytes` and `ShiftRows` without
/// `MixColumns`.
#[inline(always)]
fn final_column(s: &[u32; 4], c: usize, rk: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(s[c] >> 24) as usize],
        SBOX[((s[(c + 1) % 4] >> 16) & 0xff) as usize],
        SBOX[((s[(c + 2) % 4] >> 8) & 0xff) as usize],
        SBOX[(s[(c + 3) % 4] & 0xff) as usize],
    ]) ^ rk
}

/// An AES-128 key schedule (encryption direction only): the 11 round
/// keys as big-endian column words.
///
/// ```
/// use gkap_crypto::aes::Aes128;
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let block = aes.encrypt_block(&[0u8; 16]);
/// assert_eq!(block.len(), 16);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u32; 4]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 { round_keys: <redacted> }")
    }
}

impl Zeroize for Aes128 {
    fn zeroize(&mut self) {
        for w in self.round_keys.iter_mut().flatten() {
            *w = 0;
        }
        std::hint::black_box(&self.round_keys);
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut round_keys = [[0u32; 4]; 11];
        for (c, word) in key.chunks_exact(4).enumerate() {
            round_keys[0][c] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for r in 1..11 {
            let prev = round_keys[r - 1];
            let mut t = sub_word(prev[3].rotate_left(8)) ^ (u32::from(RCON[r - 1]) << 24);
            for c in 0..4 {
                t ^= prev[c];
                round_keys[r][c] = t;
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, input: &[u8; 16]) -> [u8; 16] {
        let mut s = [0u32; 4];
        for (c, word) in input.chunks_exact(4).enumerate() {
            s[c] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        let s = self.encrypt_words(s);
        let mut out = [0u8; 16];
        for (dst, w) in out.chunks_exact_mut(4).zip(s) {
            dst.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// The cipher on a state of four big-endian column words.
    #[inline]
    fn encrypt_words(&self, input: [u32; 4]) -> [u32; 4] {
        let rk = &self.round_keys;
        let mut s = [
            input[0] ^ rk[0][0],
            input[1] ^ rk[0][1],
            input[2] ^ rk[0][2],
            input[3] ^ rk[0][3],
        ];
        for k in &rk[1..10] {
            s = [
                round_column(&s, 0, k[0]),
                round_column(&s, 1, k[1]),
                round_column(&s, 2, k[2]),
                round_column(&s, 3, k[3]),
            ];
        }
        let k = &rk[10];
        [
            final_column(&s, 0, k[0]),
            final_column(&s, 1, k[1]),
            final_column(&s, 2, k[2]),
            final_column(&s, 3, k[3]),
        ]
    }

    /// XORs the CTR keystream into `data` in place: block `i` is
    /// `E(nonce ‖ big-endian (counter + i))`, the counter wrapping at
    /// 2³². Encryption and decryption are the same call.
    ///
    /// ```
    /// use gkap_crypto::aes::{ctr_xor, Aes128};
    /// let (key, nonce) = ([7u8; 16], [9u8; 12]);
    /// let mut buf = b"attack at dawn".to_vec();
    /// Aes128::new(&key).ctr_apply(&nonce, 3, &mut buf);
    /// assert_eq!(buf, ctr_xor(&key, &nonce, 3, b"attack at dawn".to_vec()));
    /// ```
    pub fn ctr_apply(&self, nonce: &[u8; 12], mut counter: u32, data: &mut [u8]) {
        let word =
            |i: usize| u32::from_be_bytes([nonce[i], nonce[i + 1], nonce[i + 2], nonce[i + 3]]);
        let (n0, n1, n2) = (word(0), word(4), word(8));
        let mut blocks = data.chunks_exact_mut(16);
        for block in &mut blocks {
            let ks = self.encrypt_words([n0, n1, n2, counter]);
            for (d, k) in block.chunks_exact_mut(4).zip(ks) {
                let w = u32::from_be_bytes([d[0], d[1], d[2], d[3]]) ^ k;
                d.copy_from_slice(&w.to_be_bytes());
            }
            counter = counter.wrapping_add(1);
        }
        // A short last block takes the front of its keystream block.
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let ks = self.encrypt_words([n0, n1, n2, counter]);
            for (d, k) in tail.iter_mut().zip(ks.iter().flat_map(|w| w.to_be_bytes())) {
                *d ^= k;
            }
        }
    }
}

/// AES-128 in counter (CTR) mode.
///
/// Encryption and decryption are the same operation. The 16-byte
/// initial counter block is `nonce (12 bytes) || big-endian u32 counter`.
/// A caller that encrypts many messages under one key keeps an
/// [`Aes128`] and calls [`Aes128::ctr_apply`] instead.
///
/// ```
/// use gkap_crypto::aes::ctr_xor;
/// let key = [7u8; 16];
/// let nonce = [9u8; 12];
/// let msg = b"attack at dawn".to_vec();
/// let ct = ctr_xor(&key, &nonce, 0, msg.clone());
/// assert_ne!(ct, msg);
/// assert_eq!(ctr_xor(&key, &nonce, 0, ct), msg);
/// ```
pub fn ctr_xor(
    key: &[u8; 16],
    nonce: &[u8; 12],
    initial_counter: u32,
    mut data: Vec<u8>,
) -> Vec<u8> {
    Aes128::new(key).ctr_apply(nonce, initial_counter, &mut data);
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secret::Secret;
    use crate::sha::hex;
    use gkap_bignum::{RandomSource, SplitMix64};

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> [u8; 16] {
        unhex(s).try_into().unwrap()
    }

    // The byte-wise reference cipher: FIPS 197's key expansion and
    // rounds, one state byte at a time, in the standard column-major
    // layout (byte (row r, col c) at index 4c + r).

    fn reference_round_keys(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        round_keys
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let [a0, a1, a2, a3] = [col[0], col[1], col[2], col[3]];
            let all = a0 ^ a1 ^ a2 ^ a3;
            col[0] = a0 ^ all ^ xtime(a0 ^ a1);
            col[1] = a1 ^ all ^ xtime(a1 ^ a2);
            col[2] = a2 ^ all ^ xtime(a2 ^ a3);
            col[3] = a3 ^ all ^ xtime(a3 ^ a0);
        }
    }

    fn reference_encrypt(key: &[u8; 16], input: &[u8; 16]) -> [u8; 16] {
        let round_keys = reference_round_keys(key);
        let mut s = *input;
        add_round_key(&mut s, &round_keys[0]);
        for rk in &round_keys[1..10] {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, rk);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &round_keys[10]);
        s
    }

    #[test]
    fn fips197_appendix_c1() {
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        assert_eq!(
            hex(&aes.encrypt_block(&block("00112233445566778899aabbccddeeff"))),
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        );
    }

    #[test]
    fn fips197_appendix_b() {
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(
            hex(&aes.encrypt_block(&block("3243f6a8885a308d313198a2e0370734"))),
            "3925841d02dc09fbdc118597196a0b32"
        );
    }

    #[test]
    fn fips197_appendix_a1_key_expansion() {
        // FIPS 197, A.1: the first derived word and the last word.
        let key = block("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes128::new(&key);
        assert_eq!(aes.round_keys[1][0], 0xa0fafe17, "w[4]");
        assert_eq!(aes.round_keys[10][3], 0xb6630ca6, "w[43]");
        // Every word agrees with the byte-wise expansion.
        for (words, bytes) in aes.round_keys.iter().zip(reference_round_keys(&key)) {
            let flat: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(flat, bytes);
        }
    }

    #[test]
    fn t_tables_agree_with_the_byte_wise_cipher() {
        // 1000 seeded (key, block) pairs, plus the all-zero and
        // all-one extremes.
        let mut rng = SplitMix64::new(0xae5_7ab1e);
        let mut next = || {
            let mut b = [0u8; 16];
            rng.fill_bytes(&mut b);
            b
        };
        let mut pairs = vec![([0u8; 16], [0u8; 16]), ([0xff; 16], [0xff; 16])];
        pairs.extend((0..1000).map(|_| (next(), next())));
        for (key, pt) in pairs {
            assert_eq!(
                Aes128::new(&key).encrypt_block(&pt),
                reference_encrypt(&key, &pt),
                "key {} block {}",
                hex(&key),
                hex(&pt)
            );
        }
    }

    #[test]
    fn sp800_38a_f51_ctr_aes128() {
        // NIST SP 800-38A, F.5.1 CTR-AES128.Encrypt: all four blocks.
        // The initial counter block is nonce f0..fb, counter fcfdfeff.
        let key = block("2b7e151628aed2a6abf7158809cf4f3c");
        let nonce: [u8; 12] = unhex("f0f1f2f3f4f5f6f7f8f9fafb").try_into().unwrap();
        let pt = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let ct = concat!(
            "874d6191b620e3261bef6864990db6ce",
            "9806f66b7970fdff8617187bb9fffdff",
            "5ae4df3edbd5d35e5b4f09020db03eab",
            "1e031dda2fbe03d1792170a0f3009cee",
        );
        assert_eq!(hex(&ctr_xor(&key, &nonce, 0xfcfdfeff, pt.clone())), ct);
        let mut in_place = pt;
        Aes128::new(&key).ctr_apply(&nonce, 0xfcfdfeff, &mut in_place);
        assert_eq!(hex(&in_place), ct);
    }

    #[test]
    fn ctr_roundtrip_various_lengths() {
        let key = [0x42u8; 16];
        let nonce = [0x24u8; 12];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = ctr_xor(&key, &nonce, 5, msg.clone());
            assert_eq!(ctr_xor(&key, &nonce, 5, ct.clone()), msg, "len {len}");
            if len > 0 {
                assert_ne!(ct, msg, "len {len}");
            }
        }
    }

    #[test]
    fn ctr_nonce_and_counter_separate_streams() {
        let key = [1u8; 16];
        let msg = vec![0u8; 32];
        let a = ctr_xor(&key, &[0u8; 12], 0, msg.clone());
        let b = ctr_xor(&key, &[1u8; 12], 0, msg.clone());
        let c = ctr_xor(&key, &[0u8; 12], 1, msg.clone());
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Counter+1 shifts the keystream by one block.
        assert_eq!(a[16..32], c[0..16]);
    }

    #[test]
    fn ctr_counter_wraps() {
        // The block after counter 2^32 - 1 is counter 0, as before.
        let (key, nonce) = ([5u8; 16], [6u8; 12]);
        let wrapped = ctr_xor(&key, &nonce, u32::MAX, vec![0u8; 32]);
        assert_eq!(wrapped[16..], ctr_xor(&key, &nonce, 0, vec![0u8; 16])[..]);
    }

    #[test]
    fn zeroize_now_clears_every_round_key() {
        let mut s = Secret::new(Aes128::new(&[0xa5; 16]));
        assert!(s.expose().round_keys.iter().flatten().any(|&w| w != 0));
        s.zeroize_now();
        assert!(s.expose().round_keys.iter().flatten().all(|&w| w == 0));
    }

    #[test]
    fn debug_redacts_keys() {
        let aes = Aes128::new(&[3u8; 16]);
        assert!(format!("{aes:?}").contains("redacted"));
    }
}
