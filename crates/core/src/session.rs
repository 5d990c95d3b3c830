//! The secure session layer: application-data confidentiality and
//! integrity under the established group key (the service Secure
//! Spread adds on top of Spread, §3.3).
//!
//! Message format: `epoch (8) ‖ seq (8) ‖ ciphertext ‖ mac (32)` with
//! AES-128-CTR encryption and an HMAC-SHA-256 tag over everything
//! before it (encrypt-then-MAC). The (epoch, seq, sender) triple makes
//! nonces unique per key.
//!
//! A [`SecureSession`] keys its cipher and its MAC once, when it is
//! made: it keeps the expanded AES round keys and the HMAC states that
//! have absorbed the padded key, both in [`Secret`]s, so `seal` and
//! `open` pay only for the bytes they protect. `seal` writes the header
//! and plaintext into the one buffer it returns and encrypts it in
//! place; `open` decrypts its one copy in place.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use gkap_bignum::Ubig;
use gkap_crypto::aes::Aes128;
use gkap_crypto::hmac::{ct_eq, HmacSha256};
use gkap_crypto::kdf::SessionKeys;
use gkap_crypto::sha::{Digest, Sha256};
use gkap_crypto::Secret;
use gkap_gcs::ClientId;

/// Errors from the secure session layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Ciphertext too short or malformed.
    Malformed,
    /// MAC verification failed (tampering or wrong key/epoch).
    BadMac,
    /// Message was protected under a different epoch's key.
    WrongEpoch {
        /// The epoch the message claims.
        got: u64,
        /// The epoch this session is keyed for.
        expected: u64,
    },
    /// The (sender, sequence) pair was already accepted.
    Replayed {
        /// The claimed sender.
        sender: ClientId,
        /// The replayed sequence number.
        seq: u64,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Malformed => write!(f, "malformed secure message"),
            SessionError::BadMac => write!(f, "message authentication failed"),
            SessionError::WrongEpoch { got, expected } => {
                write!(
                    f,
                    "message epoch {got} does not match session epoch {expected}"
                )
            }
            SessionError::Replayed { sender, seq } => {
                write!(f, "replayed message (sender {sender}, seq {seq})")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A per-epoch secure channel bound to one group key.
#[derive(Clone)]
pub struct SecureSession {
    /// The expanded AES-128 key schedule.
    enc_key: Secret<Aes128>,
    /// The HMAC-SHA-256 states keyed with the MAC key.
    mac_key: Secret<HmacSha256>,
    epoch: u64,
    next_seq: u64,
}

impl std::fmt::Debug for SecureSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSession")
            .field("epoch", &self.epoch)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

fn nonce_for(epoch: u64, seq: u64, sender: ClientId) -> [u8; 12] {
    let mut h = Sha256::new();
    h.update(b"session-nonce");
    h.update(&epoch.to_be_bytes());
    h.update(&seq.to_be_bytes());
    h.update(&(sender as u64).to_be_bytes());
    let digest = h.finalize();
    let mut nonce = [0u8; 12];
    for (dst, src) in nonce.iter_mut().zip(digest.iter()) {
        *dst = *src;
    }
    nonce
}

/// Reads a big-endian `u64` at `at` without panicking paths.
fn read_u64(body: &[u8], at: usize) -> Result<u64, SessionError> {
    let bytes = body.get(at..at + 8).ok_or(SessionError::Malformed)?;
    let fixed: [u8; 8] = bytes.try_into().map_err(|_| SessionError::Malformed)?;
    Ok(u64::from_be_bytes(fixed))
}

impl SecureSession {
    /// Creates a session from a group secret for a given epoch.
    pub fn new(group_secret: &Ubig, epoch: u64) -> Self {
        let keys = SessionKeys::from_group_secret(group_secret);
        SecureSession {
            enc_key: Secret::new(Aes128::new(keys.enc_key.expose())),
            mac_key: Secret::new(HmacSha256::new(keys.mac_key.expose())),
            epoch,
            next_seq: 0,
        }
    }

    /// The epoch this session protects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Encrypts and authenticates `plaintext` from `sender`.
    pub fn seal(&mut self, sender: ClientId, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let nonce = nonce_for(self.epoch, seq, sender);
        let mut out = Vec::with_capacity(16 + plaintext.len() + 32);
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(plaintext);
        if let Some(body) = out.get_mut(16..) {
            self.enc_key.expose().ctr_apply(&nonce, 0, body);
        }
        let mac = self.mac_key.expose().mac(&out);
        out.extend_from_slice(&mac);
        out
    }

    /// Like [`SecureSession::open`], additionally enforcing replay
    /// protection through `guard`.
    ///
    /// # Errors
    ///
    /// Everything [`SecureSession::open`] returns, plus
    /// [`SessionError::Replayed`].
    pub fn open_checked(
        &self,
        guard: &mut ReplayGuard,
        sender: ClientId,
        wire: &[u8],
    ) -> Result<Vec<u8>, SessionError> {
        let (seq, plain) = self.open_parsed(sender, wire)?;
        guard.check(sender, seq)?;
        Ok(plain)
    }

    /// Verifies and decrypts a sealed message from `sender`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Malformed`], [`SessionError::WrongEpoch`], or
    /// [`SessionError::BadMac`].
    pub fn open(&self, sender: ClientId, wire: &[u8]) -> Result<Vec<u8>, SessionError> {
        self.open_parsed(sender, wire).map(|(_, plain)| plain)
    }

    /// Verifies, decrypts, and also returns the sequence number (used
    /// by [`SecureSession::open_checked`] for replay tracking).
    fn open_parsed(&self, sender: ClientId, wire: &[u8]) -> Result<(u64, Vec<u8>), SessionError> {
        if wire.len() < 16 + 32 {
            return Err(SessionError::Malformed);
        }
        let (body, mac) = wire.split_at(wire.len() - 32);
        if !ct_eq(&self.mac_key.expose().mac(body), mac) {
            return Err(SessionError::BadMac);
        }
        let epoch = read_u64(body, 0)?;
        if epoch != self.epoch {
            return Err(SessionError::WrongEpoch {
                got: epoch,
                expected: self.epoch,
            });
        }
        let seq = read_u64(body, 8)?;
        let nonce = nonce_for(epoch, seq, sender);
        let mut plain = body.get(16..).ok_or(SessionError::Malformed)?.to_vec();
        self.enc_key.expose().ctr_apply(&nonce, 0, &mut plain);
        Ok((seq, plain))
    }
}

/// Receiver-side anti-replay state: tracks the highest sequence seen
/// per sender with a sliding window, rejecting duplicates and
/// far-stale messages.
#[derive(Clone, Debug, Default)]
pub struct ReplayGuard {
    /// Per-sender (highest seq seen, bitmap of the 64 seqs below it).
    seen: std::collections::HashMap<ClientId, (u64, u64)>,
}

impl ReplayGuard {
    /// Creates an empty guard.
    pub fn new() -> Self {
        ReplayGuard::default()
    }

    /// Checks and records a (sender, seq) pair.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Replayed`] if the pair was already
    /// accepted or is older than the 64-message window.
    pub fn check(&mut self, sender: ClientId, seq: u64) -> Result<(), SessionError> {
        let (highest, bitmap) = self.seen.get(&sender).copied().unwrap_or((0, 0));
        if Self::seen_before(seq, highest, bitmap) {
            return Err(SessionError::Replayed { sender, seq });
        }
        let entry = self.seen.entry(sender).or_insert((0, 0));
        if seq > entry.0 || (entry.0 == 0 && entry.1 & 1 == 0 && seq == 0) {
            let shift = seq - entry.0;
            entry.1 = if shift >= 64 { 0 } else { entry.1 << shift };
            entry.1 |= 1;
            entry.0 = seq;
        } else {
            let offset = entry.0 - seq;
            entry.1 |= 1 << offset;
        }
        Ok(())
    }

    fn seen_before(seq: u64, highest: u64, bitmap: u64) -> bool {
        if bitmap == 0 && highest == 0 {
            return false; // nothing recorded yet
        }
        if seq > highest {
            return false;
        }
        let offset = highest - seq;
        if offset >= 64 {
            return true; // outside the window: treat as replay
        }
        bitmap & (1 << offset) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_crypto::sha::hex;

    fn session(epoch: u64) -> SecureSession {
        SecureSession::new(&Ubig::from(0xfeedfaceu64), epoch)
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut tx = session(3);
        let rx = session(3);
        let wire = tx.seal(7, b"attack at dawn");
        assert_eq!(rx.open(7, &wire).unwrap(), b"attack at dawn");
    }

    #[test]
    fn distinct_messages_distinct_ciphertexts() {
        let mut tx = session(1);
        let a = tx.seal(0, b"same");
        let b = tx.seal(0, b"same");
        assert_ne!(a, b, "sequence number must vary the nonce");
    }

    #[test]
    fn tamper_detection() {
        let mut tx = session(1);
        let mut wire = tx.seal(0, b"payload");
        wire[20] ^= 1;
        assert_eq!(session(1).open(0, &wire), Err(SessionError::BadMac));
        // Truncation.
        assert_eq!(
            session(1).open(0, &wire[..10]),
            Err(SessionError::Malformed)
        );
    }

    #[test]
    fn wrong_epoch_and_wrong_key_rejected() {
        let mut tx = session(1);
        let wire = tx.seal(0, b"x");
        // Session on the same key but a different epoch: the MAC still
        // verifies (same key), the epoch check fires.
        assert!(matches!(
            session(2).open(0, &wire),
            Err(SessionError::WrongEpoch {
                got: 1,
                expected: 2
            })
        ));
        // A different group secret entirely: MAC fails.
        let other = SecureSession::new(&Ubig::from(1u64), 1);
        assert_eq!(other.open(0, &wire), Err(SessionError::BadMac));
    }

    #[test]
    fn wrong_sender_fails_decryption_not_mac() {
        // The MAC does not bind the sender (the GCS attributes it);
        // decrypting as a different sender yields garbage.
        let mut tx = session(1);
        let wire = tx.seal(0, b"hello world");
        let out = session(1).open(1, &wire).unwrap();
        assert_ne!(out, b"hello world");
    }

    #[test]
    fn replay_guard_rejects_duplicates_and_accepts_window() {
        let mut g = ReplayGuard::new();
        g.check(0, 0).unwrap();
        g.check(0, 1).unwrap();
        g.check(0, 5).unwrap();
        assert!(matches!(g.check(0, 1), Err(SessionError::Replayed { .. })));
        assert!(matches!(g.check(0, 5), Err(SessionError::Replayed { .. })));
        // Out-of-order but inside the window is fine once.
        g.check(0, 3).unwrap();
        assert!(g.check(0, 3).is_err());
        // Another sender has independent state.
        g.check(1, 5).unwrap();
        // Far beyond the window in the past: rejected.
        g.check(0, 100).unwrap();
        assert!(g.check(0, 10).is_err());
    }

    #[test]
    fn open_checked_stops_replays() {
        let mut tx = session(2);
        let rx = session(2);
        let mut guard = ReplayGuard::new();
        let wire = tx.seal(4, b"once");
        assert_eq!(rx.open_checked(&mut guard, 4, &wire).unwrap(), b"once");
        assert!(matches!(
            rx.open_checked(&mut guard, 4, &wire),
            Err(SessionError::Replayed { sender: 4, seq: 0 })
        ));
        // Fresh messages still flow.
        let wire2 = tx.seal(4, b"twice");
        assert_eq!(rx.open_checked(&mut guard, 4, &wire2).unwrap(), b"twice");
    }

    #[test]
    fn sealed_bytes_are_pinned() {
        // One session (secret 0xfeedface, epoch 3) seals from sender 7,
        // so the sequence numbers run 0..=5. Every byte of the short
        // messages is pinned, and the SHA-256 of the 1024-byte one.
        let mut tx = session(3);
        let plaintext = |len: usize| (0..len).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>();
        for (len, want) in [
            (
                0,
                concat!(
                    "000000000000000300000000000000007ed12bea257f5ff59fdf9aca732de4fb",
                    "4c9e708a6cb9605fe6451f2c4443c235",
                ),
            ),
            (
                1,
                concat!(
                    "0000000000000003000000000000000143dc342c8d1709f61b32dfb1108e544f",
                    "c272c50da1f88171bf983de725df2c3a8a",
                ),
            ),
            (
                15,
                concat!(
                    "00000000000000030000000000000002ce2984123d1c601165a25572f77d2ff6",
                    "c0438c93181080d311161eff233c4eddd727af7958d78caf9ad46afb1166f9",
                ),
            ),
            (
                16,
                concat!(
                    "000000000000000300000000000000038aefb8c94f69da87e6b54df3ef1ebd19",
                    "f8ccbcffe356e47621580cde5d6f12b74a33671228914c1410fcb1184794718c",
                ),
            ),
            (
                17,
                concat!(
                    "00000000000000030000000000000004987c33cd6c700ecb3959333fe247d4b0",
                    "4c15c200c4d6284f25d5537252475ba4018b8ff16061f60577d13523f7083adb",
                    "69",
                ),
            ),
        ] {
            assert_eq!(hex(&tx.seal(7, &plaintext(len))), want, "length {len}");
        }
        let long = tx.seal(7, &plaintext(1024));
        assert_eq!(long.len(), 16 + 1024 + 32);
        assert_eq!(
            hex(&Sha256::digest(&long)),
            "b055b9a81ef3c62317820666aed27f5f1821079f80aa96cb5c6d71da8e19091d"
        );
        assert_eq!(session(3).open(7, &long).unwrap(), plaintext(1024));
    }

    #[test]
    fn empty_plaintext() {
        let mut tx = session(9);
        let wire = tx.seal(2, b"");
        assert_eq!(session(9).open(2, &wire).unwrap(), Vec::<u8>::new());
    }
}
