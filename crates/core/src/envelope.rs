//! Signed protocol-message envelopes.
//!
//! "Every protocol message is signed by its sender and verified by all
//! receivers" (§3.2 of the paper). The envelope binds the sender, the
//! view (epoch) the message belongs to, and the protocol body; the
//! signature covers all three, which is the paper's defence against
//! impersonation and replay of old-view messages.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use bytes::Bytes;
use gkap_gcs::ClientId;

use crate::codec::{Dec, DecodeError, Enc};
use crate::suite::CryptoSuite;

/// A signed, epoch-tagged protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending member.
    pub sender: ClientId,
    /// View id this message belongs to.
    pub epoch: u64,
    /// Encoded protocol body.
    pub body: Bytes,
    /// Signature over (sender, epoch, body).
    pub sig: Vec<u8>,
}

/// Reasons envelope decoding or verification fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Wire format malformed.
    Malformed(DecodeError),
    /// Signature did not verify.
    BadSignature,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Malformed(e) => write!(f, "malformed envelope: {e}"),
            EnvelopeError::BadSignature => write!(f, "envelope signature verification failed"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// What a signature covers — sender, epoch and length-prefixed body —
/// built in one buffer of its final size.
fn signed_region(sender: ClientId, epoch: u64, body: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(4 + 8 + 4 + body.len());
    e.u32(sender as u32).u64(epoch).bytes(body);
    e.into_vec()
}

impl Envelope {
    /// Creates and signs an envelope.
    pub fn seal(suite: &CryptoSuite, sender: ClientId, epoch: u64, body: Bytes) -> Self {
        let sig = suite.sign(&signed_region(sender, epoch, &body));
        Envelope {
            sender,
            epoch,
            body,
            sig,
        }
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = Enc::new();
        e.u32(self.sender as u32)
            .u64(self.epoch)
            .bytes(&self.body)
            .bytes(&self.sig);
        e.finish()
    }

    /// Parses wire bytes (without verifying the signature).
    ///
    /// # Errors
    ///
    /// Returns [`EnvelopeError::Malformed`] on bad framing.
    pub fn decode(wire: &[u8]) -> Result<Self, EnvelopeError> {
        let mut d = Dec::new(wire);
        let parse = (|| -> Result<Envelope, DecodeError> {
            let sender = d.u32("sender")? as ClientId;
            let epoch = d.u64("epoch")?;
            let body = Bytes::copy_from_slice(d.bytes("body")?);
            let sig = d.bytes("sig")?.to_vec();
            Ok(Envelope {
                sender,
                epoch,
                body,
                sig,
            })
        })();
        let env = parse.map_err(EnvelopeError::Malformed)?;
        d.finish().map_err(EnvelopeError::Malformed)?;
        Ok(env)
    }

    /// Verifies the signature.
    ///
    /// # Errors
    ///
    /// Returns [`EnvelopeError::BadSignature`] on mismatch.
    pub fn verify(&self, suite: &CryptoSuite) -> Result<(), EnvelopeError> {
        suite
            .verify(
                &signed_region(self.sender, self.epoch, &self.body),
                &self.sig,
            )
            .map_err(|_| EnvelopeError::BadSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_encode_decode_verify() {
        let suite = CryptoSuite::sim_512();
        let env = Envelope::seal(&suite, 3, 7, Bytes::from_static(b"body"));
        let wire = env.encode();
        let back = Envelope::decode(&wire).unwrap();
        assert_eq!(back, env);
        back.verify(&suite).unwrap();
    }

    #[test]
    fn the_signature_covers_sender_epoch_and_framed_body() {
        use gkap_crypto::sha::{Digest, Sha256};
        let suite = CryptoSuite::sim_512();
        let env = Envelope::seal(&suite, 3, 7, Bytes::from_static(b"body"));
        let region = [
            &[0, 0, 0, 3][..],
            &7u64.to_be_bytes(),
            &[0, 0, 0, 4],
            b"body",
        ]
        .concat();
        assert_eq!(env.sig, Sha256::digest(&region));
    }

    #[test]
    fn tampering_any_field_breaks_signature() {
        let suite = CryptoSuite::sim_512();
        let env = Envelope::seal(&suite, 3, 7, Bytes::from_static(b"body"));
        let mut wrong_sender = env.clone();
        wrong_sender.sender = 4;
        assert_eq!(
            wrong_sender.verify(&suite),
            Err(EnvelopeError::BadSignature)
        );
        let mut wrong_epoch = env.clone();
        wrong_epoch.epoch = 8;
        assert_eq!(wrong_epoch.verify(&suite), Err(EnvelopeError::BadSignature));
        let mut wrong_body = env;
        wrong_body.body = Bytes::from_static(b"evil");
        assert_eq!(wrong_body.verify(&suite), Err(EnvelopeError::BadSignature));
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(matches!(
            Envelope::decode(b"ab"),
            Err(EnvelopeError::Malformed(_))
        ));
        // Valid prefix with trailing garbage.
        let suite = CryptoSuite::sim_512();
        let mut wire = Envelope::seal(&suite, 0, 0, Bytes::new()).encode().to_vec();
        wire.push(0xFF);
        assert!(matches!(
            Envelope::decode(&wire),
            Err(EnvelopeError::Malformed(_))
        ));
    }

    #[test]
    fn real_rsa_envelope_roundtrip() {
        let suite = CryptoSuite::real_512();
        let env = Envelope::seal(&suite, 1, 2, Bytes::from_static(b"x"));
        env.verify(&suite).unwrap();
        let mut bad = env;
        bad.body = Bytes::from_static(b"y");
        assert!(bad.verify(&suite).is_err());
    }
}
