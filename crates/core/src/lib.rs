//! The paper's contribution: five group key agreement protocols for
//! dynamic peer groups, integrated with a (simulated) group
//! communication system — a reproduction of *"On the Performance of
//! Group Key Agreement Protocols"* (Amir, Kim, Nita-Rotaru, Tsudik;
//! ICDCS 2002).
//!
//! # Architecture
//!
//! ```text
//!  experiment::*  — one keyed-group harness (`Group::form` + `apply(Step)`)
//!        │          behind every figure, traced run and churn ablation;
//!        │          `agreed_secret` is "the group agreed"
//!        │          (`testkit::Loopback`: the same members, no network)
//!        │
//!  SecureMember   — a gkap-gcs Client and the only host of a protocol
//!        │          engine: filters epochs, keeps one record per epoch
//!        │          (view and its members, key, completion time) and
//!        │          the membership it last keyed, restarts superseded
//!        │          agreements; the only holder of the group key and
//!        │          of membership
//!        │
//!  GkaCtx         — the protocol runtime over the handler's ClientCtx:
//!        │          the one place a message is signed, verified
//!        │          (every peer group element checked), counted,
//!        │          charged and traced, and `establish` the one place
//!        │          a key comes into being; `members` and
//!        │          `keyed_members` lend a handler the member's lists
//!        │
//!  protocols::*   — GDH, CKD, TGDH, STR, BD state machines: protocol
//!        │          state only, no key and no member list
//!        │
//!  CryptoSuite    — DH group + signature scheme + cost model
//! ```
//!
//! Each protocol implements [`protocols::GkaProtocol`]: a message-driven
//! state machine reacting to membership views (join / leave / merge /
//! partition) and signed protocol messages, eventually producing a
//! shared group secret. All five provide the same interface, so a
//! group can be configured with any of them — the "multiple protocol
//! framework" contribution of the paper.
//!
//! The [`session`] module turns an established group secret into
//! data-confidentiality services (AES-128-CTR + HMAC-SHA-256), playing
//! the role of the Secure Spread library's encrypted messaging.
//!
//! # Example: five members agree on a key with TGDH
//!
//! ```
//! use gkap_core::experiment::{agreed_secret, ExperimentConfig, Group};
//! use gkap_core::protocols::ProtocolKind;
//!
//! let cfg = ExperimentConfig::lan_fast(ProtocolKind::Tgdh);
//! let group = Group::form(&cfg, 5, 0);
//! let members = [0, 1, 2, 3, 4];
//! assert!(
//!     agreed_secret(&group.world, &members, 1).is_ok(),
//!     "all members computed the same key"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod cost;
pub mod costs_table;
pub mod envelope;
pub mod experiment;
pub mod member;
mod memo;
pub mod par;
pub mod protocols;
pub mod scale;
pub mod session;
pub mod suite;
pub mod testkit;
pub mod tree;

pub use cost::{CostModel, OpCounts};
pub use member::{AgreementPhase, SecureMember, MAX_RESTARTS};
pub use protocols::{GkaError, GkaProtocol, ProtocolKind};
pub use suite::{CryptoSuite, SigMode};
