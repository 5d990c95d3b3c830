//! The group key agreement protocol framework and its five
//! implementations.
//!
//! All protocols implement [`GkaProtocol`]: a state machine driven by
//! membership views and signed protocol messages, producing a shared
//! group secret. The framework supplies each protocol with a
//! [`GkaCtx`] that performs the actual group arithmetic while
//! transparently counting operations and charging virtual CPU time —
//! so the *same* protocol code yields both correctness (real keys) and
//! the paper's cost accounting.
//!
//! An engine owns protocol state only. It hands the key it computes,
//! and the members it was derived from, to [`GkaCtx::establish`], and
//! the hosting `SecureMember` keeps it in the epoch's record; no engine
//! stores or reports a key. Nor does an engine store the view's
//! members: it reads them, and the membership its member last keyed,
//! from [`GkaCtx::members`] and [`GkaCtx::keyed_members`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

pub mod bd;
pub mod ckd;
mod component;
pub mod gdh;
pub mod str_proto;
pub mod tgdh;
pub mod tree_gka;
mod wire;

use gkap_bignum::{RandomSource, SplitMix64, Ubig};
use gkap_crypto::Secret;
use gkap_gcs::{ClientCtx, ClientId};
use gkap_sim::Duration;
use gkap_telemetry::{Actor, CryptoOpKind, Event, EventKind, Label, SendClass};

use crate::cost::OpCounts;
use crate::envelope::Envelope;
use crate::memo::{Signed, WorldMemo};
use crate::suite::CryptoSuite;
use crate::tree::FingerprintShare;

pub use component::Component;
pub(crate) use component::FormationShare;
pub use wire::ProtocolMsg;

/// Which of the five protocols a group runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Group Diffie–Hellman (Cliques GDH IKA.3).
    Gdh,
    /// Centralized Key Distribution with a dynamically chosen server.
    Ckd,
    /// Tree-based Group Diffie–Hellman.
    Tgdh,
    /// Skinny-tree (STR) protocol.
    Str,
    /// Burmester–Desmedt.
    Bd,
}

impl ProtocolKind {
    /// All five, in the paper's Table 1 order.
    pub fn all() -> [ProtocolKind; 5] {
        [
            ProtocolKind::Gdh,
            ProtocolKind::Tgdh,
            ProtocolKind::Str,
            ProtocolKind::Bd,
            ProtocolKind::Ckd,
        ]
    }

    /// Display name, as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        self.label().as_str()
    }

    /// The display name as a telemetry [`Label`] (the `protocol` of
    /// [`EventKind::ProtocolRound`]).
    pub fn label(&self) -> Label {
        match self {
            ProtocolKind::Gdh => Label::new(&"GDH"),
            ProtocolKind::Ckd => Label::new(&"CKD"),
            ProtocolKind::Tgdh => Label::new(&"TGDH"),
            ProtocolKind::Str => Label::new(&"STR"),
            ProtocolKind::Bd => Label::new(&"BD"),
        }
    }

    /// Instantiates a fresh protocol engine.
    pub fn create(&self) -> Box<dyn GkaProtocol> {
        match self {
            ProtocolKind::Gdh => Box::<gdh::Gdh>::default(),
            ProtocolKind::Ckd => Box::<ckd::Ckd>::default(),
            ProtocolKind::Tgdh => Box::<tgdh::Tgdh>::default(),
            ProtocolKind::Str => Box::<str_proto::Str>::default(),
            ProtocolKind::Bd => Box::<bd::Bd>::default(),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors surfaced by protocol state machines.
///
/// Every driver returns these instead of panicking, so a cascaded
/// membership event (a view superseding a round that was still in
/// flight) degrades into an abort-and-restart at the session layer
/// rather than tearing the process down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GkaError {
    /// A message arrived that the current state cannot accept.
    UnexpectedMessage(&'static str),
    /// State a handler needs is absent — typically because a cascaded
    /// membership event superseded the round that would have produced
    /// it. Recoverable by restarting the agreement in the new epoch.
    MissingState(&'static str),
    /// Internal invariant violated (indicates a bug or a Byzantine
    /// peer, which the paper's threat model excludes).
    Protocol(&'static str),
}

impl std::fmt::Display for GkaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GkaError::UnexpectedMessage(what) => write!(f, "unexpected protocol message: {what}"),
            GkaError::MissingState(what) => write!(f, "missing protocol state: {what}"),
            GkaError::Protocol(what) => write!(f, "protocol invariant violated: {what}"),
        }
    }
}

impl std::error::Error for GkaError {}

impl GkaError {
    /// A key [`GkaCtx::establish`] refused where it should cover the view.
    pub(crate) const STALE_KEY: GkaError = GkaError::Protocol("key contributors are not the view");
}

/// How a protocol message is to be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendKind {
    /// Agreed (totally ordered) multicast to the whole group.
    Multicast,
    /// Agreed unicast — ordered with respect to multicasts, and as
    /// expensive as one (GDH factor-out tokens; §6.2.2).
    UnicastAgreed(ClientId),
    /// Cheap direct FIFO unicast (CKD pairwise channel traffic).
    UnicastFifo(ClientId),
}

/// Records one event into the sink of the handler `ctx` serves, at its
/// virtual time with its client as the actor (free when the sink is
/// disabled; recording never advances the clock).
pub(crate) fn note(ctx: &ClientCtx<'_>, dur: Duration, kind: EventKind) {
    let (at, actor) = (ctx.now(), Actor::client(ctx.id()));
    ctx.telemetry().record(|| Event {
        at,
        dur,
        actor,
        kind,
    });
}

/// The execution context handed to protocol handlers: group
/// arithmetic with automatic cost accounting, randomness, and sending.
///
/// It wraps the [`ClientCtx`] of the `SecureMember` handler it runs
/// in, and only `SecureMember` builds one: this member's id, the
/// handler's virtual time, its CPU charge, its sends and its
/// telemetry sink are that context's, whether a simulated world or
/// the [`crate::testkit::Loopback`] drives the member.
pub struct GkaCtx<'a, 'c> {
    /// The handler's GCS context.
    pub(crate) ctx: &'a mut ClientCtx<'c>,
    /// Cryptographic configuration.
    pub suite: &'a CryptoSuite,
    /// Operation counters (per member, monotone).
    pub(crate) counts: &'a mut OpCounts,
    /// The member's private randomness.
    pub rng: &'a mut SplitMix64,
    /// Current epoch (view id) — stamped into envelopes.
    pub epoch: u64,
    /// This epoch's group key, once established.
    pub(crate) key: &'a mut Option<Secret<Ubig>>,
    /// This epoch's view members, in view order.
    pub(crate) members: &'a [ClientId],
    /// The membership this member last keyed.
    pub(crate) keyed: &'a [ClientId],
}

impl GkaCtx<'_, '_> {
    /// This member's id.
    pub fn me(&self) -> ClientId {
        self.ctx.id()
    }

    /// The current view's members, in view order: the group this epoch
    /// keys. An engine reads the change against the state it holds.
    pub fn members(&self) -> &[ClientId] {
        self.members
    }

    /// The membership this member last keyed, pruned to every view: the
    /// members of its last converged epoch, or, from a view that admits
    /// it (or its first view), the members that view does not admit.
    pub fn keyed_members(&self) -> &[ClientId] {
        self.keyed
    }

    /// Counts, charges and traces one primitive — the only place a
    /// cost-model entry becomes virtual time, so telemetry tallies
    /// reconcile with Table 1 counts by construction.
    fn charge(&mut self, op: CryptoOpKind, cost: Duration) {
        self.counts.bump(op);
        self.ctx.charge_cpu(cost);
        let bits = self.suite.nominal_bits() as u32;
        note(self.ctx, cost, EventKind::CryptoOp { op, bits });
    }

    /// Marks the start of round `round` of `protocol` at this member
    /// (telemetry only; free when disabled).
    pub fn mark_round(&mut self, protocol: ProtocolKind, round: u32) {
        let protocol = protocol.label();
        note(
            self.ctx,
            Duration::ZERO,
            EventKind::ProtocolRound { protocol, round },
        );
    }

    /// Full modular exponentiation in the group (counted + charged).
    /// Members below one key-tree node raise the same base to the same
    /// exponent, so the world computes each power once; each member is
    /// still counted and charged for it. A base the world produced as
    /// `g^d` is raised as `g^(d·e mod q)` (DESIGN.md §39): the same
    /// value, the same charge, less host time.
    pub fn exp(&mut self, base: &Ubig, e: &Ubig) -> Ubig {
        self.charge(CryptoOpKind::Exp, self.suite.cost().exp);
        let group = self.suite.group();
        self.memo().power(group, base, e)
    }

    /// `g^e` (counted + charged). The world remembers the result's
    /// exponent.
    pub fn exp_g(&mut self, e: &Ubig) -> Ubig {
        self.charge(CryptoOpKind::Exp, self.suite.cost().exp);
        let group = self.suite.group();
        let result = group.exp_g(e);
        self.memo().dlogs.note(group, &result, e);
        result
    }

    /// Small-exponent exponentiation (BD step 3; counted separately,
    /// charged per modular multiplication).
    pub fn exp_small(&mut self, base: &Ubig, e: u64) -> Ubig {
        self.charge(CryptoOpKind::SmallExp, self.suite.cost().small_exp(e));
        self.suite.group().exp(base, &Ubig::from(e))
    }

    /// Modular multiplication of two group elements (BD key
    /// assembly; charged as one multiplication). The world learns the
    /// product's exponent when it knows both factors'.
    pub fn modmul(&mut self, a: &Ubig, b: &Ubig) -> Ubig {
        self.charge(CryptoOpKind::ModMul, self.suite.cost().modmul);
        let group = self.suite.group();
        let product = a.modmul(b, group.modulus());
        self.memo().dlogs.note_product(group, a, b, &product);
        product
    }

    /// Inverts a group element modulo `p` (counted + charged as one
    /// inversion, BD's `z_{i-1}^{-1}`); `None` if it has no inverse.
    /// An element the world produced as `g^d` is inverted as
    /// `g^(q − d)` (DESIGN.md §40): the same value, the same charge,
    /// less host time.
    pub fn invert_element(&mut self, a: &Ubig) -> Option<Ubig> {
        self.charge(CryptoOpKind::Inverse, self.suite.cost().inverse);
        let group = self.suite.group();
        self.memo().inverse(group, a)
    }

    /// Inverts an exponent modulo the group order (counted + charged).
    pub fn invert_exponent(&mut self, e: &Ubig) -> Ubig {
        self.charge(CryptoOpKind::Inverse, self.suite.cost().inverse);
        self.suite.invert_exponent(e)
    }

    /// The world's memo of pure crypto results, as of this epoch's view.
    fn memo(&mut self) -> &mut WorldMemo {
        self.ctx.world_slot::<WorldMemo>().at_view(self.epoch)
    }

    /// The world's subtree fingerprints, as of this epoch's view: what
    /// [`crate::tree::KeyTree::fingerprint_once`] looks up before it
    /// hashes.
    pub(crate) fn fingerprints(&mut self) -> &mut FingerprintShare {
        &mut self.memo().fingerprints
    }

    /// Draws a fresh secret exponent.
    pub fn fresh_exponent(&mut self) -> Ubig {
        self.suite.group().random_exponent(self.rng)
    }

    /// Charges one symmetric cipher operation (a CKD key blob).
    pub fn charge_symmetric(&mut self) {
        self.charge(CryptoOpKind::Symmetric, self.suite.cost().symmetric);
    }

    /// Establishes `key` as this epoch's group key if `from`, the members
    /// it was derived from, are exactly [`GkaCtx::members`], and says
    /// whether they are: the one way a handler produces a key, and the
    /// only check that a key covers the view. The first key stands.
    pub fn establish(&mut self, key: Ubig, from: impl IntoIterator<Item = ClientId>) -> bool {
        let from: Vec<ClientId> = from.into_iter().collect();
        let covers = from.iter().all(|c| self.members.contains(c))
            && self.members.iter().all(|m| from.contains(m));
        if covers && self.key.is_none() {
            *self.key = Some(Secret::new(key));
        }
        covers
    }

    /// Whether this epoch's group key is established.
    pub fn established(&self) -> bool {
        self.key.is_some()
    }

    /// Encodes, signs and sends a protocol message (sign is counted
    /// and charged; message counters updated). Every protocol message
    /// leaves a member through here.
    pub fn send(&mut self, kind: SendKind, msg: &ProtocolMsg) {
        let body = msg.encode();
        self.charge(CryptoOpKind::Sign, self.suite.cost().sign);
        let env = Envelope::seal(self.suite, self.me(), self.epoch, body);
        let class = match kind {
            SendKind::Multicast => {
                self.counts.multicast += 1;
                SendClass::Multicast
            }
            SendKind::UnicastAgreed(_) | SendKind::UnicastFifo(_) => {
                self.counts.unicast += 1;
                SendClass::Unicast
            }
        };
        note(self.ctx, Duration::ZERO, EventKind::MessageSend { class });
        let wire = env.encode();
        match kind {
            SendKind::Multicast => self.ctx.multicast_agreed(wire),
            SendKind::UnicastAgreed(to) => self.ctx.unicast_agreed(to, wire),
            SendKind::UnicastFifo(to) => self.ctx.unicast_fifo(to, wire),
        }
    }

    /// Accepts a received protocol message: charges the signature
    /// verification every receiver pays (§3.2) and the per-message
    /// processing overhead, then checks the signature, decodes the body
    /// and checks every group element in it. Every protocol message
    /// enters a member through here. The world checks each signature
    /// once: an envelope whose every input (the suite's verifier,
    /// sender, epoch, body and signature) equals one it accepted is
    /// not hashed again, and only a pass is remembered.
    ///
    /// # Errors
    ///
    /// Returns [`GkaError::Protocol`] on a bad signature, a malformed
    /// body or a group element outside `(1, p−1)` (all charged: the
    /// work was done).
    pub(crate) fn receive(&mut self, env: &Envelope) -> Result<ProtocolMsg, GkaError> {
        self.charge(CryptoOpKind::Verify, self.suite.cost().verify);
        self.charge(CryptoOpKind::RecvOverhead, self.suite.cost().recv_overhead);
        let suite = self.suite;
        self.memo()
            .verified
            .try_recall(Signed::new(suite, env), || env.verify(suite))
            .map_err(|_| GkaError::Protocol("bad signature"))?;
        let msg =
            ProtocolMsg::decode(&env.body).map_err(|_| GkaError::Protocol("malformed body"))?;
        let group = self.suite.group();
        if !msg.elements_pass(|v| group.validate_public(v).is_ok()) {
            return Err(GkaError::Protocol("invalid group element"));
        }
        Ok(msg)
    }
}

/// A group key agreement protocol state machine.
///
/// One instance lives inside each member's `SecureMember`. The
/// framework guarantees that `on_view` is invoked for every installed
/// view the member belongs to, and `on_msg` for every *verified*
/// protocol message of the current epoch, each group element in it
/// already checked to lie in `(1, p−1)`. A handler that computes the
/// group key hands it to [`GkaCtx::establish`]; the engine keeps no
/// copy.
pub trait GkaProtocol: std::any::Any {
    /// Which protocol this is.
    fn kind(&self) -> ProtocolKind;

    /// Reacts to a new view: initiates (or participates in) the
    /// re-keying of [`GkaCtx::members`], read against the state the
    /// engine holds, not against the previous view, which after a
    /// superseded agreement no group keyed.
    ///
    /// # Errors
    ///
    /// Returns a [`GkaError`] if the membership is inconsistent with
    /// protocol state.
    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError>;

    /// Handles a verified protocol message from `sender`.
    ///
    /// # Errors
    ///
    /// Returns a [`GkaError`] on unexpected or inconsistent messages.
    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError>;

    /// Forms the deterministic pre-agreed state of the component
    /// `members` — an initial group or a component about to merge,
    /// which the paper's figures take as given and virtual time never
    /// charges for. A pure function of `(self.kind(), suite, members,
    /// seed)`: all of the component's exponentiations happen here,
    /// once, whoever of its members asks (DESIGN.md §18).
    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component;

    /// Installs `component` as member `me`'s state, with no group
    /// arithmetic. The component's key is the member's to keep, not
    /// the engine's.
    ///
    /// # Errors
    ///
    /// Returns a [`GkaError`], and installs nothing, if another
    /// protocol formed `component` or `me` is not one of its members.
    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError>;

    /// Discards all group state, returning the engine to its freshly
    /// constructed condition (tuning knobs like the TGDH tree policy
    /// survive). The session layer calls this when a member rejoins
    /// after a partition healed: the rejoiner participates in the merge
    /// as a fresh singleton instead of replaying stale keys.
    fn reset(&mut self);
}

/// Derives member `m`'s deterministic bootstrap exponent for a
/// component seeded with `seed`. Every member of the component can
/// derive every other member's exponent — the simulation's stand-in
/// for "the group already shares a key" (never used after the first
/// real membership event, which refreshes contributions).
pub fn bootstrap_exponent(suite: &CryptoSuite, seed: u64, m: ClientId) -> Ubig {
    let mut rng = SplitMix64::new(seed ^ (m as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let _ = rng.next_u64(); // decorrelate from the raw seed
    suite.group().random_exponent(&mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_all() {
        assert_eq!(ProtocolKind::all().len(), 5);
        let names: Vec<&str> = ProtocolKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["GDH", "TGDH", "STR", "BD", "CKD"]);
        assert_eq!(ProtocolKind::Tgdh.to_string(), "TGDH");
    }

    #[test]
    fn create_instantiates_matching_kind() {
        for kind in ProtocolKind::all() {
            assert_eq!(kind.create().kind(), kind);
        }
    }

    #[test]
    fn bootstrap_exponents_deterministic_and_distinct() {
        let suite = CryptoSuite::fast_zero();
        let a1 = bootstrap_exponent(&suite, 7, 0);
        let a2 = bootstrap_exponent(&suite, 7, 0);
        let b = bootstrap_exponent(&suite, 7, 1);
        let c = bootstrap_exponent(&suite, 8, 0);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, c);
    }

    #[test]
    fn errors_display() {
        assert!(GkaError::UnexpectedMessage("x").to_string().contains("x"));
        assert!(GkaError::Protocol("y").to_string().contains("y"));
    }
}
