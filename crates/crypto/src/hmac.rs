//! HMAC-SHA-256 (RFC 2104, RFC 4231).
//!
//! [`HmacSha256`] absorbs its key once: the inner and outer SHA-256
//! states after the padded key block are kept, and each [`HmacSha256::mac`]
//! clones them instead of re-hashing the key.

use crate::secret::Zeroize;
use crate::sha::{Digest, Sha256};

/// An HMAC-SHA-256 key: the SHA-256 states that have absorbed
/// `key ⊕ ipad` and `key ⊕ opad`.
///
/// ```
/// use gkap_crypto::hmac::{hmac_sha256, HmacSha256};
/// use gkap_crypto::sha::hex;
/// let mac = HmacSha256::new(&[0x0b; 20]).mac(b"Hi There");
/// assert_eq!(hex(&mac),
///     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
/// assert_eq!(mac, hmac_sha256(&[0x0b; 20], b"Hi There"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The keyed states are as good as the key.
        f.write_str("HmacSha256 { <redacted> }")
    }
}

impl Zeroize for HmacSha256 {
    fn zeroize(&mut self) {
        self.inner.zeroize();
        self.outer.zeroize();
    }
}

impl HmacSha256 {
    /// Absorbs `key` (hashed first if longer than a block).
    pub fn new(key: &[u8]) -> Self {
        let mut block = [0u8; Sha256::BLOCK_LEN];
        if key.len() > Sha256::BLOCK_LEN {
            block[..Sha256::OUTPUT_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let keyed = |block: &mut [u8; Sha256::BLOCK_LEN], pad: u8| {
            for b in block.iter_mut() {
                *b ^= pad;
            }
            let mut h = Sha256::new();
            h.update(block);
            h
        };
        let inner = keyed(&mut block, 0x36);
        // Undo the inner pad and apply the outer one in a single pass.
        let outer = keyed(&mut block, 0x36 ^ 0x5c);
        block.zeroize();
        HmacSha256 { inner, outer }
    }

    /// Computes `HMAC(key, data)`.
    pub fn mac(&self, data: &[u8]) -> Vec<u8> {
        let mut inner = self.inner.clone();
        inner.update(data);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256; a caller that MACs many messages under one
/// key keeps an [`HmacSha256`] instead.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Vec<u8> {
    HmacSha256::new(key).mac(data)
}

/// Constant-time byte comparison for MAC / tag verification.
///
/// Returns `true` iff `a == b`. The running time depends only on
/// `max(a.len(), b.len())`, never on where the first mismatch sits: a
/// length difference is folded into the accumulator instead of taken
/// as an early return, and every byte position is visited with
/// `get`-based loads so there is no data-dependent branch or index.
///
/// # Timing contract: lengths are public
///
/// The *lengths* of both inputs are treated as public — the iteration
/// count is `max(a.len(), b.len())`, so the running time reveals the
/// longer length and nothing else. That is the right contract for tag
/// verification, where tag sizes are fixed by the digest and known to
/// any observer; only the *contents* must not influence timing. In
/// particular an unequal-length compare still walks every position of
/// the longer input (asserted by a unit test) rather than returning
/// early on the length mismatch.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    ct_eq_visited(a, b, |_| {})
}

/// The comparison loop itself, parameterized over a per-iteration
/// visitor so tests can count iterations; `visit` is a no-op closure
/// in production and compiles away.
#[inline]
fn ct_eq_visited(a: &[u8], b: &[u8], mut visit: impl FnMut(usize)) -> bool {
    let mut acc = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        visit(i);
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        acc |= usize::from(x ^ y);
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secret::Secret;
    use crate::sha::hex;

    #[test]
    fn rfc4231_case1_sha256() {
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2_sha256() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_sha256() {
        let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case4_sha256() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let mac = hmac_sha256(&key, &[0xcd; 50]);
        assert_eq!(
            hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case7_sha256() {
        let mac = hmac_sha256(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger t\
              han block-size data. The key needs to be hashed before being use\
              d by the HMAC algorithm.",
        );
        assert_eq!(
            hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn keyed_state_matches_the_pinned_one_shot_values() {
        // Key lengths around the block size: empty, a session MAC key,
        // exactly one block, one byte over (hashed), RFC 4231's 131.
        // The one-shot values were computed before the keyed state
        // existed, with the key re-padded on every call.
        let msg = b"keyed once, used many times";
        for (len, want) in [
            (
                0,
                "854865b08971bf07f331e1fc3d206f9cdaed87c52490ade0c80f3890549dad4b",
            ),
            (
                32,
                "7ca71bf723f4f0cc075064a7cf3a0213117a70f1f286aa972a760e99068d3832",
            ),
            (
                64,
                "cdbc35ec75219e0e0afc352f19dfac70e099e84beb3d554a2a014e457953514e",
            ),
            (
                65,
                "55b5be93b5e7c78c8879ecb8309829d6773ac916f7b350f8617600d20cd57f14",
            ),
            (
                131,
                "6d448ca721edc5cb4254823914eff7c9f165af3a5ae567124f1fc0b4f550eb5c",
            ),
        ] {
            let key: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            let keyed = HmacSha256::new(&key);
            assert_eq!(hex(&keyed.mac(msg)), want, "key length {len}");
            assert_eq!(keyed.mac(msg), hmac_sha256(&key, msg), "key length {len}");
        }
    }

    #[test]
    fn zeroize_now_clears_both_keyed_states() {
        let mut s = Secret::new(HmacSha256::new(&[0x5a; 32]));
        assert!(!s.expose().inner.is_zeroed() && !s.expose().outer.is_zeroed());
        s.zeroize_now();
        assert!(s.expose().inner.is_zeroed() && s.expose().outer.is_zeroed());
    }

    #[test]
    fn debug_redacts_keyed_state() {
        assert_eq!(
            format!("{:?}", HmacSha256::new(b"k")),
            "HmacSha256 { <redacted> }"
        );
    }

    #[test]
    fn long_key_is_hashed_first() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_lengths_still_walk_the_longer_input() {
        // The length mismatch must not short-circuit the loop: every
        // compare runs exactly max(a.len(), b.len()) iterations, so
        // timing depends on the (public) lengths alone and never on
        // where the contents diverge.
        for (a, b) in [
            (&b"abcdefgh"[..], &b"ab"[..]),
            (&b"ab"[..], &b"abcdefgh"[..]),
            (&b""[..], &b"abcdefgh"[..]),
            (&b"abcdefgh"[..], &b"abcdefgh"[..]),
        ] {
            let mut steps = 0usize;
            let eq = ct_eq_visited(a, b, |_| steps += 1);
            assert_eq!(steps, a.len().max(b.len()), "{a:?} vs {b:?}");
            assert_eq!(eq, a == b);
        }
    }

    #[test]
    fn mac_differs_per_key_and_message() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
