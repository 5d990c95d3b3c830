//! [`SecureMember`] — the Secure Spread member process.
//!
//! Wires a [`GkaProtocol`] state machine into the group communication
//! system: filters stale epochs and buffers early ones, restarts an
//! agreement a view supersedes, hands every protocol message to
//! [`GkaCtx`] (which signs, verifies, counts and charges it), and
//! records the instants at which views arrive and keys complete — the
//! raw measurements behind every figure in the paper.
//!
//! It is the only holder of the group key. A key a handler hands to
//! [`GkaCtx::establish`] goes into the current epoch's record; an
//! adopted component's key is held until the next view.
//!
//! It is the only holder of membership, too: each epoch's record keeps
//! its view's members, and the member keeps the membership it last
//! keyed, pruned to every view's members. An engine reads both through
//! [`GkaCtx::members`] and [`GkaCtx::keyed_members`].
//!
//! It is the only host of a protocol engine: a simulated world drives
//! it through [`Client`], and so does the in-memory
//! [`crate::testkit::Loopback`], with detached contexts. It records
//! into the telemetry sink its [`ClientCtx`] lends: the world's, or
//! the loopback's.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::rc::Rc;

use gkap_bignum::{SplitMix64, Ubig};
use gkap_crypto::Secret;
use gkap_gcs::{Client, ClientCtx, ClientId, Delivery, View};
use gkap_sim::{Duration, SimTime};
use gkap_telemetry::{fault, membership, EventKind};

use crate::cost::OpCounts;
use crate::envelope::Envelope;
use crate::memo::WorldMemo;
use crate::protocols::{note, GkaCtx, GkaError, GkaProtocol, ProtocolKind, ProtocolMsg, SendKind};
use crate::suite::CryptoSuite;

/// Where a member's current key agreement stands.
///
/// Views drive the transitions. Entering a view starts an agreement;
/// establishing its key converges it. A view that arrives while the
/// agreement is still running supersedes it: the member records an
/// `abort` and a `restart` fault event and runs again in the new
/// epoch. The `MAX_RESTARTS + 1`-st abort in a row gives up instead —
/// *reported* (a [`GkaError`] plus a `give_up` fault event), never
/// hidden.
///
/// ```text
/// Idle      ─view─▶ Running
/// Running   ─key──▶ Converged
/// Converged ─view─▶ Running
/// Running   ─view─▶ Running   (abort + restart; restarts += 1)
/// Running   ─view─▶ GivenUp   (restarts > MAX_RESTARTS; terminal)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgreementPhase {
    /// No view has been delivered yet.
    Idle,
    /// A re-keying for the current epoch is in flight.
    Running,
    /// The current epoch's group key is established.
    Converged,
    /// The restart budget is exhausted; this member stopped trying.
    GivenUp,
}

/// Consecutive aborted agreements a member rides out; one more gives
/// up ([`AgreementPhase::GivenUp`]).
pub const MAX_RESTARTS: u64 = 16;

/// What a member saw of one epoch. One per delivered view, in delivery
/// order; view ids are unique, so the epoch names the record.
struct EpochRecord {
    epoch: u64,
    /// The view's members, in view order.
    members: Vec<ClientId>,
    /// When the view was delivered.
    view_at: SimTime,
    /// The group secret, once established.
    secret: Option<Secret<Ubig>>,
    /// When the key was ready (CPU completion, including core
    /// contention).
    completed_at: Option<SimTime>,
    /// Key-confirmation digests that matched `secret`.
    confirmations: usize,
    /// Digests that arrived before `secret` did.
    early_confirms: Vec<Vec<u8>>,
}

/// A member of a secure group: protocol engine + measurement hooks.
pub struct SecureMember {
    id: Option<ClientId>,
    suite: Rc<CryptoSuite>,
    protocol: Box<dyn GkaProtocol>,
    counts: OpCounts,
    rng: SplitMix64,
    /// Seed for transparent bootstrap of the *initial* view (None =>
    /// run the real formation protocol, which only GDH/CKD/BD support
    /// for an n-way initial view).
    initial_seed: Option<u64>,
    /// `(members, me, seed)` of the component this member belonged to
    /// before its first view (see [`SecureMember::preseed_component`]).
    preseed: Option<(Vec<ClientId>, ClientId, u64)>,
    /// The key of the component adopted since the last view, if any.
    adopted: Option<Secret<Ubig>>,
    /// Buffered messages from epochs we have not entered yet.
    pending: Vec<Envelope>,
    /// One record per delivered view, oldest first (push-only; the
    /// last is the current epoch).
    epochs: Vec<EpochRecord>,
    /// The membership this member last keyed: the members of its last
    /// converged epoch or, on a view that admits it (or its first
    /// view), the members that view does not admit; every view prunes it.
    keyed: Vec<ClientId>,
    /// Index into `epochs` of the key awaiting its CPU-completion
    /// stamp.
    awaiting_stamp: Option<usize>,
    /// Whether to broadcast a key-confirmation digest after completing
    /// each epoch (§5's "form of key confirmation").
    confirm_keys: bool,
    /// First protocol error, if any (experiments assert none).
    error: Option<GkaError>,
    /// Where the current agreement stands.
    phase: AgreementPhase,
    /// Consecutive agreements aborted by a superseding view (reset to
    /// zero on convergence).
    restarts: u64,
}

impl std::fmt::Debug for SecureMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureMember")
            .field("id", &self.id)
            .field("protocol", &self.protocol.kind().name())
            .field("epoch", &self.epoch())
            .field("phase", &self.phase)
            .finish()
    }
}

impl SecureMember {
    /// Creates a member running `kind` with the given suite. `seed`
    /// derives the member's private randomness; `initial_seed` (if
    /// set) transparently bootstraps the first view's key.
    pub fn new(
        kind: ProtocolKind,
        suite: Rc<CryptoSuite>,
        seed: u64,
        initial_seed: Option<u64>,
    ) -> Self {
        SecureMember::with_protocol(kind.create(), suite, seed, initial_seed)
    }

    /// Creates a member around a custom protocol engine (e.g. the
    /// AVL-policy TGDH variant).
    pub fn with_protocol(
        protocol: Box<dyn GkaProtocol>,
        suite: Rc<CryptoSuite>,
        seed: u64,
        initial_seed: Option<u64>,
    ) -> Self {
        SecureMember {
            id: None,
            protocol,
            suite,
            counts: OpCounts::default(),
            rng: SplitMix64::new(seed),
            initial_seed,
            preseed: None,
            adopted: None,
            pending: Vec::new(),
            epochs: Vec::new(),
            keyed: Vec::new(),
            awaiting_stamp: None,
            confirm_keys: false,
            error: None,
            phase: AgreementPhase::Idle,
            restarts: 0,
        }
    }

    /// Enables key confirmation: after establishing each epoch's key,
    /// the member broadcasts a digest of it and checks every other
    /// member's digest (detecting divergence at the cost of one extra
    /// all-to-all broadcast round).
    pub fn set_key_confirmation(&mut self, on: bool) {
        self.confirm_keys = on;
    }

    /// Confirmations received for `epoch`.
    pub fn confirmations(&self, epoch: u64) -> usize {
        self.record(epoch).map_or(0, |r| r.confirmations)
    }

    fn confirm_digest(epoch: u64, secret: &Ubig) -> Vec<u8> {
        use gkap_crypto::sha::{Digest, Sha256};
        let mut h = Sha256::new();
        h.update(b"confirm");
        h.update(&epoch.to_be_bytes());
        h.update(&secret.to_be_bytes());
        h.finalize()
    }

    fn record_confirmation(&mut self, epoch: u64, digest: Vec<u8>) {
        let Some(rec) = self.epochs.iter_mut().rev().find(|r| r.epoch == epoch) else {
            return;
        };
        let Some(secret) = &rec.secret else {
            rec.early_confirms.push(digest);
            return;
        };
        // Constant-time: a digest mismatch must not leak how much of
        // the expected digest a forgery matched.
        if gkap_crypto::hmac::ct_eq(&Self::confirm_digest(epoch, secret.expose()), &digest) {
            rec.confirmations += 1;
        } else {
            self.record_error(GkaError::Protocol("key confirmation mismatch"));
        }
    }

    /// Pre-seeds this member's protocol state as part of a component
    /// (a previously separate group about to merge). Must be called
    /// before the member sees any view: the state is installed when
    /// the first view arrives, from the one copy of the component the
    /// world's members share (DESIGN.md §18).
    pub fn preseed_component(&mut self, members: &[ClientId], me: ClientId, seed: u64) {
        self.preseed = Some((members.to_vec(), me, seed));
    }

    /// Installs the formed component of `members` as this member's
    /// protocol state: formed here if no member sharing `memo` needed
    /// it before, taken from the memo otherwise. A world's members
    /// share its world slot; the loopback brings its own.
    pub(crate) fn adopt_component(
        &mut self,
        memo: &mut WorldMemo,
        members: &[ClientId],
        me: ClientId,
        seed: u64,
    ) {
        let component = memo.form(self.protocol.as_ref(), &self.suite, members, seed);
        match self.protocol.adopt(&component, me) {
            Ok(()) => self.adopted = component.secret(),
            Err(e) => self.record_error(e),
        }
    }

    /// The operation counters accumulated so far.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    fn record(&self, epoch: u64) -> Option<&EpochRecord> {
        self.epochs.iter().rev().find(|r| r.epoch == epoch)
    }

    /// Instant the key for `epoch` completed, if it has.
    pub fn completion(&self, epoch: u64) -> Option<SimTime> {
        self.record(epoch)?.completed_at
    }

    /// Instant the view for `epoch` was delivered, if it was.
    pub fn view_time(&self, epoch: u64) -> Option<SimTime> {
        self.record(epoch).map(|r| r.view_at)
    }

    /// The group secret for `epoch`, if established.
    pub fn secret(&self, epoch: u64) -> Option<&Ubig> {
        self.record(epoch)?.secret.as_ref().map(Secret::expose)
    }

    /// The latest epoch this member has entered.
    pub fn epoch(&self) -> u64 {
        self.last_view_epoch().unwrap_or(0)
    }

    /// First protocol error encountered, if any.
    pub fn protocol_error(&self) -> Option<&GkaError> {
        self.error.as_ref()
    }

    /// Where the current agreement stands.
    pub fn phase(&self) -> AgreementPhase {
        self.phase
    }

    /// Consecutive agreements aborted by superseding views (zeroed on
    /// every convergence).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The epoch of the last view installed at this member (the
    /// view-synchrony invariant compares this across survivors).
    pub fn last_view_epoch(&self) -> Option<u64> {
        self.epochs.last().map(|r| r.epoch)
    }

    /// Borrows the protocol engine downcast to its concrete type
    /// (diagnostics; e.g. reading the TGDH tree height).
    pub fn protocol_as<T: GkaProtocol>(&self) -> Option<&T> {
        (self.protocol.as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    fn record_error(&mut self, e: GkaError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Runs `f` on the protocol engine with this member's [`GkaCtx`]
    /// for the current epoch: it reads the epoch's members and the
    /// keyed membership, and the epoch's record receives an
    /// established key.
    fn with_gka<R>(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        f: impl FnOnce(&mut dyn GkaProtocol, &mut GkaCtx<'_, '_>) -> R,
    ) -> R {
        let epoch = self.epoch();
        let mut no_view = None;
        let (key, members) = match self.epochs.last_mut() {
            Some(rec) => (&mut rec.secret, rec.members.as_slice()),
            None => (&mut no_view, [].as_slice()),
        };
        let mut gka = GkaCtx {
            epoch,
            ctx,
            suite: &self.suite,
            counts: &mut self.counts,
            rng: &mut self.rng,
            key,
            members,
            keyed: &self.keyed,
        };
        f(self.protocol.as_mut(), &mut gka)
    }

    /// The member's current key: the adopted component's if no view
    /// came since, else the latest epoch's (the loopback's agreement
    /// check; a world's harness reads [`SecureMember::secret`] per
    /// epoch).
    pub(crate) fn group_secret(&self) -> Option<&Ubig> {
        let latest = || self.epochs.last()?.secret.as_ref();
        self.adopted.as_ref().or_else(latest).map(Secret::expose)
    }

    /// Converges a running agreement whose epoch a handler has just
    /// keyed: its members become the keyed membership, and it stamps
    /// the key, settles early confirmations and sends this member's
    /// own.
    fn after_handler(&mut self, ctx: &mut ClientCtx<'_>) {
        if self.phase != AgreementPhase::Running {
            return; // converged already, or nothing to converge
        }
        let Some(rec) = self.epochs.last_mut() else {
            return;
        };
        let Some(secret) = &rec.secret else {
            return;
        };
        let epoch = rec.epoch;
        let digest = self
            .confirm_keys
            .then(|| Self::confirm_digest(epoch, secret.expose()));
        let early = std::mem::take(&mut rec.early_confirms);
        self.keyed.clone_from(&rec.members);
        self.awaiting_stamp = Some(self.epochs.len() - 1);
        self.phase = AgreementPhase::Converged;
        self.restarts = 0;
        // Settle confirmations that raced ahead of our own key.
        for digest in early {
            self.record_confirmation(epoch, digest);
        }
        if let Some(digest) = digest {
            self.with_gka(ctx, |_, gka| {
                gka.send(SendKind::Multicast, &ProtocolMsg::KeyConfirm { digest });
            });
        }
    }

    fn dispatch_wire(&mut self, ctx: &mut ClientCtx<'_>, env: Envelope) {
        if env.sender == ctx.id() {
            return; // own multicast echoed back
        }
        let msg = match self.with_gka(ctx, |_, gka| gka.receive(&env)) {
            Ok(ProtocolMsg::KeyConfirm { digest }) => {
                return self.record_confirmation(env.epoch, digest);
            }
            Ok(msg) => msg,
            Err(e) => return self.record_error(e),
        };
        if let Err(e) = self.with_gka(ctx, |protocol, gka| protocol.on_msg(gka, env.sender, msg)) {
            self.record_error(e);
        }
        self.after_handler(ctx);
    }
}

impl Client for SecureMember {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.id = Some(ctx.id());
        if let Some((members, me, seed)) = self.preseed.take() {
            let memo = ctx.world_slot::<WorldMemo>().at_view(view.id);
            self.adopt_component(memo, &members, me, seed);
        }

        // A view arriving while the previous epoch's agreement is
        // still in flight supersedes it: abort, then (budget
        // permitting) restart in the new epoch.
        if self.phase == AgreementPhase::Running {
            let target = ctx.id();
            let event = |action| EventKind::fault(action, target);
            note(ctx, Duration::ZERO, event(fault::ABORT));
            self.restarts += 1;
            if self.restarts > MAX_RESTARTS {
                self.phase = AgreementPhase::GivenUp;
                self.record_error(GkaError::Protocol("restart budget exhausted"));
                note(ctx, Duration::ZERO, event(fault::GIVE_UP));
            } else {
                note(ctx, Duration::ZERO, event(fault::RESTART));
            }
        }

        // A member the view admits, or one seeing its first view, keys
        // nothing yet: the group it enters is the view's members but
        // those it admits.
        let admitted = view.joined.contains(&ctx.id());
        if admitted || self.epochs.is_empty() {
            let old = view.members.iter().filter(|m| !view.joined.contains(m));
            self.keyed = old.copied().collect();
        }
        // A member that left is keyed by nobody, so a rejoiner is new to all.
        self.keyed.retain(|m| view.members.contains(m));
        // Rejoin after a partition healed: this member merges back as
        // a fresh singleton — stale keys from before the partition
        // must not leak into the new agreement.
        if admitted && !self.epochs.is_empty() {
            self.protocol.reset();
            self.pending.clear();
        }

        self.epochs.push(EpochRecord {
            epoch: view.id,
            members: view.members.clone(),
            view_at: ctx.now(),
            secret: None,
            completed_at: None,
            confirmations: 0,
            early_confirms: Vec::new(),
        });
        // An adopted key is the member's only until a view arrives: the
        // view's key comes from its agreement, or, for an initial view,
        // from the component adopted below.
        self.adopted = None;
        note(
            ctx,
            Duration::ZERO,
            EventKind::membership(membership::VIEW_DELIVERED, view.members.len()),
        );
        if self.phase == AgreementPhase::GivenUp {
            return; // reported above; stop participating
        }
        self.phase = AgreementPhase::Running;

        let is_initial = view.joined.len() == view.members.len();
        if is_initial {
            if let Some(seed) = self.initial_seed {
                // Transparent bootstrap: the group starts keyed, free
                // of charge (no experiment measures initial formation
                // through this path; see DESIGN.md §18).
                let me = ctx.id();
                let memo = ctx.world_slot::<WorldMemo>().at_view(view.id);
                self.adopt_component(memo, &view.members, me, seed);
                if let Some(rec) = self.epochs.last_mut() {
                    rec.secret = self.adopted.take();
                }
                self.after_handler(ctx);
                return;
            }
        }

        if let Err(e) = self.with_gka(ctx, |protocol, gka| protocol.on_view(gka)) {
            self.record_error(e);
        }
        self.after_handler(ctx);

        // Drain any messages that raced ahead of this view.
        let epoch = self.epoch();
        let (ready, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|e| e.epoch == epoch);
        self.pending = later;
        for env in ready {
            self.dispatch_wire(ctx, env);
        }
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        if self.phase == AgreementPhase::GivenUp {
            return; // no longer participating
        }
        let env = match Envelope::decode(&msg.payload) {
            Ok(e) => e,
            Err(_) => {
                self.record_error(GkaError::Protocol("malformed envelope"));
                return;
            }
        };
        let epoch = self.epoch();
        if env.epoch < epoch {
            return; // stale epoch: superseded by a newer view
        }
        if env.epoch > epoch {
            self.pending.push(env); // we have not seen that view yet
            return;
        }
        self.dispatch_wire(ctx, env);
    }

    fn on_cpu_complete(&mut self, end: SimTime) {
        if let Some(rec) = self
            .awaiting_stamp
            .take()
            .and_then(|i| self.epochs.get_mut(i))
        {
            rec.completed_at = Some(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_bignum::stats;
    use gkap_telemetry::Telemetry;

    #[test]
    fn constructor_and_accessors() {
        let suite = Rc::new(CryptoSuite::fast_zero());
        let m = SecureMember::new(ProtocolKind::Bd, suite, 1, Some(7));
        assert_eq!(m.epoch(), 0);
        assert!(m.completion(1).is_none());
        assert!(m.secret(1).is_none());
        assert!(m.protocol_error().is_none());
        assert!(format!("{m:?}").contains("BD"));
    }

    /// A member of `suite` with no view yet, for driving `GkaCtx` by
    /// hand in the world a detached context lends (one world for as
    /// long as the context lives).
    fn member(suite: &Rc<CryptoSuite>, seed: u64) -> SecureMember {
        SecureMember::new(ProtocolKind::Tgdh, Rc::clone(suite), seed, None)
    }

    /// After a genuine envelope passes, a copy that differs in any
    /// signed field still gets the full check and fails it: the world's
    /// memo absorbs no fault.
    fn tampered_copies_fail_after_the_genuine_one_passes(suite: CryptoSuite) {
        let suite = Rc::new(suite);
        let mut m = member(&suite, 1);
        let mut world = ClientCtx::detached(0, SimTime::ZERO, 0);
        let msg = ProtocolMsg::KeyConfirm {
            digest: vec![7; 32],
        };
        let env = Envelope::seal(&suite, 3, 0, msg.encode());
        let mut receive = |env: &Envelope| m.with_gka(&mut world, |_, gka| gka.receive(env));
        assert_eq!(receive(&env), Ok(msg.clone()));
        let mut body = env.clone();
        let mut flipped = body.body.to_vec();
        flipped[0] ^= 1;
        body.body = flipped.into();
        let mut epoch = env.clone();
        epoch.epoch += 1;
        let mut sender = env.clone();
        sender.sender += 1;
        let mut sig = env.clone();
        sig.sig[0] ^= 1;
        for (field, copy) in [
            ("body", body),
            ("epoch", epoch),
            ("sender", sender),
            ("sig", sig),
        ] {
            let verdict = receive(&copy);
            assert_eq!(verdict, Err(GkaError::Protocol("bad signature")), "{field}");
        }
        assert_eq!(receive(&env), Ok(msg), "the genuine one still passes");
        let memo = world.world_slot::<WorldMemo>();
        assert_eq!(memo.verified.len(), 1, "only a pass is remembered");
    }

    #[test]
    fn tampered_copies_fail_after_the_genuine_one_passes_sim_512() {
        tampered_copies_fail_after_the_genuine_one_passes(CryptoSuite::sim_512());
    }

    #[test]
    fn tampered_copies_fail_after_the_genuine_one_passes_real_512() {
        tampered_copies_fail_after_the_genuine_one_passes(CryptoSuite::real_512());
    }

    #[test]
    fn a_remembered_power_is_counted_and_charged_but_not_computed() {
        let suite = Rc::new(CryptoSuite::sim_512());
        let (mut a, mut b) = (member(&suite, 1), member(&suite, 2));
        let mut world = ClientCtx::detached(0, SimTime::ZERO, 0);
        let group = suite.group();
        let (base, e) = (group.exp_g(&Ubig::from(5u64)), Ubig::from(0xdead_beef_u64));
        let expected = group.exp(&base, &e);
        assert_eq!(
            a.with_gka(&mut world, |_, gka| gka.exp(&base, &e)),
            expected
        );
        let charged = world.charged();
        let before = stats::snapshot();
        assert_eq!(
            b.with_gka(&mut world, |_, gka| gka.exp(&base, &e)),
            expected
        );
        let kernels = stats::snapshot().since(&before);
        assert_eq!(kernels.modexp, 0, "a hit runs no modexp");
        assert_eq!(kernels.total(), 0, "nor any other kernel");
        assert_eq!((a.counts.exp, b.counts.exp), (1, 1), "both are counted");
        assert_eq!(world.charged(), charged + charged, "both are charged");
        assert!(charged > Duration::ZERO);
    }

    /// What one operation by a fresh member did.
    #[derive(Debug)]
    struct Raised {
        value: Ubig,
        /// The member's counts.
        counts: OpCounts,
        charged: Duration,
        events: Vec<gkap_telemetry::Event>,
        kernels: stats::KernelOps,
    }

    /// `op` run by a fresh member of the world `world` lends.
    fn run_in(
        world: &mut ClientCtx<'_>,
        suite: &Rc<CryptoSuite>,
        op: impl FnOnce(&mut GkaCtx<'_, '_>) -> Ubig,
    ) -> Raised {
        let mut m = member(suite, 9);
        let (charged, kernels) = (world.charged(), stats::snapshot());
        let _ = world.telemetry().take_events();
        let value = m.with_gka(world, |_, gka| op(gka));
        Raised {
            value,
            counts: m.counts,
            kernels: stats::snapshot().since(&kernels),
            events: world.telemetry().take_events(),
            charged: world.charged() - charged,
        }
    }

    /// `base^e` raised by a fresh member of the world `world` lends.
    fn raise_in(
        world: &mut ClientCtx<'_>,
        suite: &Rc<CryptoSuite>,
        base: &Ubig,
        e: &Ubig,
    ) -> Raised {
        run_in(world, suite, |gka| gka.exp(base, e))
    }

    /// A world that produced `g^d` raises it through `g`: the value,
    /// the count, the charge and the event are the ladder's, and no
    /// ladder runs; the comb squares `bits/32 − 1` times.
    #[test]
    fn a_base_the_world_produced_is_raised_through_g_at_the_same_charge() {
        let suite = Rc::new(CryptoSuite::sim_512());
        let group = suite.group();
        let (d, e) = (Ubig::from(0x1234_5678_u64), Ubig::from(0xdead_beef_u64));
        let world = || ClientCtx::detached_into(0, SimTime::ZERO, 0, Telemetry::enabled());
        let mut known = world();
        let base = member(&suite, 1).with_gka(&mut known, |_, gka| gka.exp_g(&d));
        let shortcut = raise_in(&mut known, &suite, &base, &e);
        let ladder = raise_in(&mut world(), &suite, &base, &e);
        assert_eq!(shortcut.value, group.exp(&base, &e));
        assert_eq!(shortcut.value, ladder.value);
        assert_eq!(
            (shortcut.counts.exp, ladder.counts.exp),
            (1, 1),
            "counted alike"
        );
        assert!(shortcut.charged > Duration::ZERO);
        assert_eq!(shortcut.charged, ladder.charged, "charged alike");
        assert_eq!(shortcut.events.len(), 1);
        assert_eq!(shortcut.events, ladder.events, "traced alike");
        let k = shortcut.kernels;
        assert_eq!((k.modexp, k.fixed_base_exp), (0, 1));
        let columns = group.bits().div_ceil(32) as u64;
        assert_eq!(k.mont_sqr, k.fixed_base_exp * (columns - 1));
        assert!(ladder.kernels.mont_sqr > 0 && ladder.kernels.modexp == 1);
    }

    /// A world that produced `g^d` inverts it as `g^(q − d)`: the
    /// value `mod_inverse` gives, counted, charged and traced like the
    /// inverse of an element the world did not produce, through the
    /// comb and no ladder.
    #[test]
    fn a_produced_element_is_inverted_through_g_at_the_same_charge() {
        let suite = Rc::new(CryptoSuite::sim_512());
        let group = suite.group();
        let d = Ubig::from(0x1234_5678_u64);
        let world = || ClientCtx::detached_into(0, SimTime::ZERO, 0, Telemetry::enabled());
        let mut known = world();
        let element = member(&suite, 1).with_gka(&mut known, |_, gka| gka.exp_g(&d));
        let invert = |gka: &mut GkaCtx<'_, '_>| gka.invert_element(&element).expect("invertible");
        let shortcut = run_in(&mut known, &suite, invert);
        let plain = run_in(&mut world(), &suite, invert);
        assert_eq!(
            Some(&shortcut.value),
            element.mod_inverse(group.modulus()).as_ref()
        );
        assert_eq!(shortcut.value, plain.value);
        assert_eq!(
            (shortcut.counts, plain.counts),
            (
                plain.counts,
                OpCounts {
                    inverse: 1,
                    ..OpCounts::default()
                }
            )
        );
        assert!(shortcut.charged > Duration::ZERO);
        assert_eq!(shortcut.charged, plain.charged, "charged alike");
        assert_eq!(shortcut.events.len(), 1);
        assert_eq!(shortcut.events, plain.events, "traced alike");
        let k = shortcut.kernels;
        assert_eq!((k.fixed_base_exp, k.modexp), (1, 0));
        assert_eq!(plain.kernels.total(), 0, "mod_inverse runs no kernel");
    }

    /// An element the world did not produce, here a blinded key with
    /// one byte flipped, goes up the ladder even though the world knows
    /// the genuine key's exponent.
    #[test]
    fn an_element_the_world_did_not_produce_takes_the_ladder() {
        let suite = Rc::new(CryptoSuite::sim_512());
        let group = suite.group();
        let (d, e) = (Ubig::from(0x1234_5678_u64), Ubig::from(0xdead_beef_u64));
        let mut world = ClientCtx::detached(0, SimTime::ZERO, 0);
        let bkey = member(&suite, 1).with_gka(&mut world, |_, gka| gka.exp_g(&d));
        let mut bytes = bkey.to_be_bytes();
        if let Some(last) = bytes.last_mut() {
            *last ^= 1;
        }
        let flipped = Ubig::from_be_bytes(&bytes);
        assert!(group.validate_public(&flipped).is_ok());
        let raised = raise_in(&mut world, &suite, &flipped, &e);
        assert_eq!(raised.value, group.exp(&flipped, &e));
        assert_eq!(raised.kernels.modexp, 1, "the ladder");
        let raised = raise_in(&mut world, &suite, &bkey, &e);
        assert_eq!(raised.value, group.exp(&bkey, &e));
        assert_eq!(raised.kernels.modexp, 0, "the genuine key's shortcut");
    }

    /// In a group whose generator has order 2q, `(g^d)^e` is not
    /// `g^(d·e mod q)`: such a group never takes the shortcut.
    #[test]
    fn a_generator_of_order_2q_never_takes_the_shortcut() {
        use crate::cost::CostModel;
        use crate::suite::SigMode;
        use gkap_crypto::dh::DhGroup;
        let test = DhGroup::test_256();
        let (p, q) = (test.modulus().clone(), test.order().clone());
        let g = &p - &Ubig::from(4u64);
        let toy = DhGroup::from_parts("toy-2q", p, g, q);
        assert!(!toy.generator_has_order_q());
        let suite = CryptoSuite::new(toy, 256, CostModel::zero(), SigMode::Modeled);
        let suite = Rc::new(suite);
        let group = suite.group();
        // g^q = −1 here, so g^(d·e) = −g^(d·e mod q) for d·e = 2q − 2.
        let (d, e) = (group.order() - &Ubig::one(), Ubig::from(2u64));
        let mut world = ClientCtx::detached(0, SimTime::ZERO, 0);
        let base = member(&suite, 1).with_gka(&mut world, |_, gka| gka.exp_g(&d));
        let raised = raise_in(&mut world, &suite, &base, &e);
        assert_eq!(raised.value, group.exp(&base, &e));
        assert_ne!(raised.value, group.exp_g(&d.modmul(&e, group.order())));
        assert_eq!(raised.kernels.modexp, 1, "the ladder");
    }

    /// BD's `z_{i+1} / z_{i-1}` is a product and an inverse of two
    /// elements the world produced: raising it takes the shortcut, and
    /// the inversion is counted and charged once, as before.
    #[test]
    fn a_ratio_of_produced_elements_is_raised_through_g() {
        let suite = Rc::new(CryptoSuite::sim_512());
        let group = suite.group();
        let mut world = ClientCtx::detached(0, SimTime::ZERO, 0);
        let mut m = member(&suite, 1);
        let (ratio, charged) = m.with_gka(&mut world, |_, gka| {
            let next = gka.exp_g(&Ubig::from(11u64));
            let prev = gka.exp_g(&Ubig::from(7u64));
            let before = gka.ctx.charged();
            let inverse = gka.invert_element(&prev).expect("invertible");
            let charged = gka.ctx.charged() - before;
            (gka.modmul(&next, &inverse), charged)
        });
        assert_eq!(ratio, group.exp_g(&Ubig::from(4u64)));
        assert_eq!(m.counts.inverse, 1);
        assert_eq!(charged, suite.cost().inverse);
        let e = Ubig::from(0xdead_beef_u64);
        let raised = raise_in(&mut world, &suite, &ratio, &e);
        assert_eq!(raised.value, group.exp(&ratio, &e));
        assert_eq!(raised.kernels.modexp, 0, "the shortcut");
    }

    #[test]
    fn a_second_modulus_gets_its_own_powers() {
        let sim = Rc::new(CryptoSuite::sim_512());
        let real = Rc::new(CryptoSuite::real_512());
        assert_ne!(sim.group().modulus(), real.group().modulus());
        let mut world = ClientCtx::detached(0, SimTime::ZERO, 0);
        let (base, e) = (Ubig::from(5u64), Ubig::from(0xdead_beef_u64));
        let mut powers = Vec::new();
        for suite in [&sim, &real, &sim, &real] {
            let got = member(suite, 1).with_gka(&mut world, |_, gka| gka.exp(&base, &e));
            assert_eq!(got, suite.group().exp(&base, &e));
            powers.push(got);
        }
        assert_ne!(powers[0], powers[1]);
    }
}
