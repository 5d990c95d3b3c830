//! HMAC (RFC 2104), generic over the [`Digest`] in use.

use crate::sha::{Digest, Sha256};

/// Computes `HMAC(key, data)` for any [`Digest`].
///
/// ```
/// use gkap_crypto::hmac::hmac;
/// use gkap_crypto::sha::{hex, Sha256};
/// let mac = hmac::<Sha256>(&[0x0b; 20], b"Hi There");
/// assert_eq!(hex(&mac),
///     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
/// ```
pub fn hmac<D: Digest>(key: &[u8], data: &[u8]) -> Vec<u8> {
    let mut k = if key.len() > D::BLOCK_LEN {
        D::digest(key)
    } else {
        key.to_vec()
    };
    k.resize(D::BLOCK_LEN, 0);

    let mut inner = D::new();
    let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(data);
    let inner_hash = inner.finalize();

    let mut outer = D::new();
    let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
    outer.update(&opad);
    outer.update(&inner_hash);
    outer.finalize()
}

/// HMAC-SHA-256 convenience wrapper.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Vec<u8> {
    hmac::<Sha256>(key, data)
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
