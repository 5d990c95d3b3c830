//! # secure-spread-repro
//!
//! A from-scratch Rust reproduction of *"On the Performance of Group
//! Key Agreement Protocols"* (Amir, Kim, Nita-Rotaru, Tsudik —
//! ICDCS 2002): five group key agreement protocols for dynamic peer
//! groups — **GDH**, **CKD**, **TGDH**, **STR** and **BD** — integrated
//! with a simulated Spread-like view-synchronous group communication
//! system, together with the experiment harness that regenerates every
//! table and figure of the paper.
//!
//! This crate is a façade: it re-exports the workspace's layers so
//! applications can depend on a single crate.
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | [`bignum`] | `gkap-bignum` | arbitrary-precision modular arithmetic |
//! | [`crypto`] | `gkap-crypto` | DH groups, RSA, SHA-256, HMAC, AES-CTR |
//! | [`sim`] | `gkap-sim` | discrete-event core, CPU model, statistics |
//! | [`gcs`] | `gkap-gcs` | token-ring total order + membership |
//! | [`core`](mod@core) | `gkap-core` | the five protocols, secure sessions, experiments |
//!
//! # Quickstart
//!
//! ```
//! use secure_spread_repro::core::experiment::{run_join, ExperimentConfig};
//! use secure_spread_repro::core::protocols::ProtocolKind;
//!
//! // A member joins a 9-member TGDH group on the paper's LAN testbed.
//! let cfg = ExperimentConfig::lan_fast(ProtocolKind::Tgdh);
//! let outcome = run_join(&cfg, 10);
//! assert!(outcome.ok);
//! println!("join took {:.2} virtual ms", outcome.elapsed_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gkap_bignum as bignum;
pub use gkap_core as core;
pub use gkap_crypto as crypto;
pub use gkap_gcs as gcs;
pub use gkap_sim as sim;

/// The five protocols, re-exported for convenience.
pub use gkap_core::protocols::ProtocolKind;

/// The secure member (gcs client) type.
pub use gkap_core::member::SecureMember;

/// The per-epoch application-data channel.
pub use gkap_core::session::SecureSession;
