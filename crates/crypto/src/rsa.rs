//! RSA PKCS#1 v1.5 signatures with CRT speedup.
//!
//! The paper signs **every** protocol message with 1024-bit RSA and
//! verifies it at every receiver, choosing public exponent `e = 3` so
//! that the n-fold verifications stay cheap (§6.1.1, citing Boneh \[39\]
//! for the safety of `e = 3` in the signature setting). Both `e = 3`
//! and `e = 65537` are supported; signing uses the Chinese Remainder
//! Theorem exactly as the paper notes OpenSSL does.

use gkap_bignum::{prime, Montgomery, RandomSource, Ubig};

use crate::hmac::ct_eq;
use crate::secret::Secret;
use crate::sha::{Digest, Sha256};
use crate::CryptoError;

/// DER prefix of `DigestInfo` for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)`.
///
/// Caches the Montgomery context for `n` so the per-message `verify`
/// calls (one per receiver per signed protocol message) skip the two
/// long divisions a fresh context costs.
#[derive(Clone, Debug)]
pub struct RsaPublicKey {
    n: Ubig,
    e: Ubig,
    mont: Montgomery,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The context is derived from `n`; `(n, e)` is the identity.
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

/// An RSA private key with CRT parameters.
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    p: Secret<Ubig>,
    q: Secret<Ubig>,
    d: Secret<Ubig>,
    dp: Secret<Ubig>,
    dq: Secret<Ubig>,
    q_inv: Secret<Ubig>,
    mont_p: Montgomery,
    mont_q: Montgomery,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPrivateKey")
            .field("modulus_bits", &self.public.n.bit_len())
            .field("e", &self.public.e)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl RsaPublicKey {
    /// Modulus size in bytes (= signature length).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Modulus `n`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Public exponent.
    pub fn exponent(&self) -> &Ubig {
        &self.e
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] if the signature does not
    /// verify.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        if signature.len() != self.modulus_len() {
            return Err(CryptoError::BadSignature);
        }
        let s = Ubig::from_be_bytes(signature);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let em = self
            .mont
            .modexp(&s, &self.e)
            .to_be_bytes_padded(self.modulus_len());
        let expected = pkcs1_v15_encode(message, self.modulus_len());
        // Compare the full encoded block in constant time: a
        // position-dependent early exit here would leak how much of a
        // forged block matched.
        if ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key of `bits` bits with public exponent `e`
    /// (use 3 or 65537).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 128` or `e` is not an odd value ≥ 3.
    pub fn generate<R: RandomSource + ?Sized>(bits: usize, e: u64, rng: &mut R) -> Self {
        assert!(bits >= 128, "RSA modulus must be at least 128 bits");
        assert!(e >= 3 && e % 2 == 1, "public exponent must be odd and >= 3");
        let e = Ubig::from(e);
        let one = Ubig::one();
        loop {
            let p = prime::random_prime(bits / 2, rng);
            let q = prime::random_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let p1 = &p - &one;
            let q1 = &q - &one;
            let phi = &p1 * &q1;
            let d = match e.mod_inverse(&phi) {
                Some(d) => d,
                None => continue, // gcd(e, phi) != 1; retry primes
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let q_inv = q.mod_inverse(&p).expect("p, q distinct primes");
            let mont = Montgomery::new(&n).expect("n odd: product of odd primes");
            let mont_p = Montgomery::new(&p).expect("p is an odd prime");
            let mont_q = Montgomery::new(&q).expect("q is an odd prime");
            return RsaPrivateKey {
                public: RsaPublicKey { n, e, mont },
                p: Secret::new(p),
                q: Secret::new(q),
                d: Secret::new(d),
                dp: Secret::new(dp),
                dq: Secret::new(dq),
                q_inv: Secret::new(q_inv),
                mont_p,
                mont_q,
            };
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs `message` (PKCS#1 v1.5 over SHA-256) using the CRT.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = Ubig::from_be_bytes(&pkcs1_v15_encode(message, k));
        // CRT: m1 = em^dp mod p, m2 = em^dq mod q,
        //      h = q_inv (m1 - m2) mod p, s = m2 + h q.
        let (p, q) = (self.p.expose(), self.q.expose());
        let m1 = self.mont_p.modexp(&em, self.dp.expose());
        let m2 = self.mont_q.modexp(&em, self.dq.expose());
        let diff = m1.modsub(&m2.rem(p), p);
        let h = self.q_inv.expose().modmul(&diff, p);
        let s = &m2 + &(&h * q);
        debug_assert_eq!(
            s,
            self.public.mont.modexp(&em, self.d.expose()),
            "CRT consistency"
        );
        s.to_be_bytes_padded(k)
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 0x01 FF..FF 0x00 DigestInfo`.
fn pkcs1_v15_encode(message: &[u8], k: usize) -> Vec<u8> {
    let digest = Sha256::digest(message);
    let t_len = SHA256_DIGEST_INFO.len() + digest.len();
    assert!(
        k >= t_len + 11,
        "modulus too small for PKCS#1 v1.5 + SHA-256"
    );
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&digest);
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_bignum::SplitMix64;

    fn small_key(seed: u64, e: u64) -> RsaPrivateKey {
        RsaPrivateKey::generate(512, e, &mut SplitMix64::new(seed))
    }

    #[test]
    fn sign_verify_roundtrip_e3() {
        let key = small_key(1, 3);
        let sig = key.sign(b"group key agreement");
        assert_eq!(sig.len(), key.public_key().modulus_len());
        key.public_key()
            .verify(b"group key agreement", &sig)
            .unwrap();
    }

    #[test]
    fn sign_verify_roundtrip_e65537() {
        let key = small_key(2, 65537);
        let sig = key.sign(b"hello");
        key.public_key().verify(b"hello", &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = small_key(3, 3);
        let sig = key.sign(b"message A");
        assert_eq!(
            key.public_key().verify(b"message B", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_bitflips() {
        let key = small_key(4, 3);
        let mut sig = key.sign(b"payload");
        sig[10] ^= 1;
        assert_eq!(
            key.public_key().verify(b"payload", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_length_and_oversize() {
        let key = small_key(5, 3);
        let sig = key.sign(b"m");
        assert!(key.public_key().verify(b"m", &sig[1..]).is_err());
        // Signature numerically >= n.
        let huge = vec![0xff; key.public_key().modulus_len()];
        assert!(key.public_key().verify(b"m", &huge).is_err());
    }

    #[test]
    fn verify_rejects_other_key() {
        let k1 = small_key(6, 3);
        let k2 = small_key(7, 3);
        let sig = k1.sign(b"x");
        assert!(k2.public_key().verify(b"x", &sig).is_err());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = small_key(8, 3);
        let b = small_key(8, 3);
        assert_eq!(a.public_key(), b.public_key());
    }

    #[test]
    fn debug_redacts_private_parts() {
        let key = small_key(9, 3);
        let s = format!("{key:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains(&key.d.expose().to_hex()));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_exponent_rejected() {
        RsaPrivateKey::generate(256, 4, &mut SplitMix64::new(0));
    }
}
