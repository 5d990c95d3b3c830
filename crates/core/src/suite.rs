//! The cryptographic suite a secure group is configured with: DH
//! group, signature scheme, and virtual-time cost model.

use std::rc::Rc;

use gkap_bignum::{SplitMix64, Ubig};
use gkap_crypto::dh::DhGroup;
use gkap_crypto::rsa::RsaPrivateKey;
use gkap_crypto::sha::{Digest, Sha256};
use gkap_crypto::CryptoError;

use crate::cost::CostModel;

/// How protocol messages are signed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SigMode {
    /// Real RSA PKCS#1 v1.5 signatures (slower to simulate, used by
    /// correctness tests and the crypto benches).
    Real,
    /// A SHA-256 tag stands in for the signature; virtual time is
    /// charged exactly as for a real signature. Used by the large
    /// experiment sweeps, where thousands of runs would otherwise
    /// spend host time on RSA math that the virtual clock already
    /// accounts for.
    Modeled,
}

/// What decides whether a signature verifies under a suite: the
/// signature mode and, in [`SigMode::Real`], the RSA public key
/// `(n, e)`. Suites with equal verifiers accept the same signatures.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Verifier {
    mode: SigMode,
    rsa: Option<(Ubig, Ubig)>,
}

/// A group's cryptographic configuration.
///
/// The `group` performs *real* math (protocol correctness is always
/// exercised); the `cost` model charges virtual time as if the group
/// had `nominal_bits`-bit parameters on the paper's hardware. This is
/// what lets a 256-bit test group faithfully reproduce 1024-bit
/// timing.
#[derive(Clone, Debug)]
pub struct CryptoSuite {
    group: DhGroup,
    nominal_bits: usize,
    cost: CostModel,
    signing: SigMode,
    rsa: Option<Rc<RsaPrivateKey>>,
}

impl CryptoSuite {
    /// Builds a suite.
    pub fn new(group: DhGroup, nominal_bits: usize, cost: CostModel, signing: SigMode) -> Self {
        // One shared signing key: every member signs with the same
        // key. Functionally exercises the sign/verify paths at
        // identical cost; per-member keys would only slow simulation
        // start-up. (RSA at 512 bits here; virtual time is charged at
        // the paper's 1024-bit rates.)
        let rsa = match signing {
            SigMode::Real => {
                let mut rng = SplitMix64::new(0x5157_0000);
                Some(Rc::new(RsaPrivateKey::generate(512, 3, &mut rng)))
            }
            SigMode::Modeled => None,
        };
        CryptoSuite {
            group,
            nominal_bits,
            cost,
            signing,
            rsa,
        }
    }

    /// The simulation suite for the paper's "DH 512 bits"
    /// configuration: real math on a fast 256-bit group, virtual time
    /// charged at 512-bit rates, modeled signatures.
    pub fn sim_512() -> Self {
        CryptoSuite::new(
            DhGroup::test_256(),
            512,
            CostModel::paper_512(),
            SigMode::Modeled,
        )
    }

    /// The simulation suite for "DH 1024 bits".
    pub fn sim_1024() -> Self {
        CryptoSuite::new(
            DhGroup::test_256(),
            1024,
            CostModel::paper_1024(),
            SigMode::Modeled,
        )
    }

    /// The 512-bit suite with DSA signature costs (the ablation of
    /// §6.1.1's signature-scheme choice). Signatures stay modeled:
    /// only what DSA would cost is charged.
    pub fn sim_512_dsa() -> Self {
        CryptoSuite::new(
            DhGroup::test_256(),
            512,
            CostModel::paper_512().with_dsa_signatures(),
            SigMode::Modeled,
        )
    }

    /// A zero-cost suite for pure correctness tests.
    pub fn fast_zero() -> Self {
        CryptoSuite::new(
            DhGroup::test_256(),
            256,
            CostModel::zero(),
            SigMode::Modeled,
        )
    }

    /// Full-fidelity suite: the real 512-bit group and real RSA
    /// signatures (slow; correctness tests and benches only).
    pub fn real_512() -> Self {
        CryptoSuite::new(
            DhGroup::modp_512(),
            512,
            CostModel::paper_512(),
            SigMode::Real,
        )
    }

    /// The Diffie–Hellman group used for the actual math.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }

    /// The parameter size whose costs are charged (512 or 1024 in the
    /// paper).
    pub fn nominal_bits(&self) -> usize {
        self.nominal_bits
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Signs `data`, returning the signature bytes. (Virtual-time cost
    /// is charged by the caller.)
    pub fn sign(&self, data: &[u8]) -> Vec<u8> {
        match self.signing {
            SigMode::Real => self.rsa.as_ref().expect("real key").sign(data),
            SigMode::Modeled => Sha256::digest(data),
        }
    }

    /// Who verifies this suite's signatures: every input of
    /// [`CryptoSuite::verify`] besides the data and the signature.
    pub(crate) fn verifier(&self) -> Verifier {
        let rsa = self.rsa.as_ref().map(|k| {
            let public = k.public_key();
            (public.modulus().clone(), public.exponent().clone())
        });
        Verifier {
            mode: self.signing,
            rsa,
        }
    }

    /// Verifies a signature produced by [`CryptoSuite::sign`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] on mismatch.
    pub fn verify(&self, data: &[u8], sig: &[u8]) -> Result<(), CryptoError> {
        match self.signing {
            SigMode::Real => self
                .rsa
                .as_ref()
                .expect("real key")
                .public_key()
                .verify(data, sig),
            SigMode::Modeled => {
                if gkap_crypto::hmac::ct_eq(&Sha256::digest(data), sig) {
                    Ok(())
                } else {
                    Err(CryptoError::BadSignature)
                }
            }
        }
    }

    /// Inverts an exponent modulo the group order (GDH factor-out, key
    /// refresh ratios).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not invertible — exponents are drawn from
    /// `[1, q)` with prime `q`, so this indicates a protocol bug.
    pub fn invert_exponent(&self, e: &Ubig) -> Ubig {
        e.mod_inverse(self.group.order())
            .expect("exponent invertible modulo prime order")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_signatures_roundtrip_and_tamper_detect() {
        let suite = CryptoSuite::sim_512();
        let sig = suite.sign(b"payload");
        suite.verify(b"payload", &sig).unwrap();
        assert!(suite.verify(b"other", &sig).is_err());
        assert!(suite.verify(b"payload", &[0u8; 32]).is_err());
    }

    #[test]
    fn real_signatures_roundtrip() {
        let suite = CryptoSuite::real_512();
        let sig = suite.sign(b"protocol message");
        suite.verify(b"protocol message", &sig).unwrap();
        assert!(suite.verify(b"tampered", &sig).is_err());
    }

    #[test]
    fn exponent_inversion() {
        let suite = CryptoSuite::fast_zero();
        let mut rng = SplitMix64::new(9);
        let e = suite.group().random_exponent(&mut rng);
        let inv = suite.invert_exponent(&e);
        let q = suite.group().order();
        assert_eq!(e.modmul(&inv, q), Ubig::one());
    }

    #[test]
    fn suite_presets() {
        assert_eq!(CryptoSuite::sim_512().nominal_bits(), 512);
        assert_eq!(CryptoSuite::sim_1024().nominal_bits(), 1024);
        assert_eq!(CryptoSuite::sim_512().signing, SigMode::Modeled);
        assert!(CryptoSuite::sim_1024().cost().exp > CryptoSuite::sim_512().cost().exp);
    }
}
