//! [`SecureMember`] — the Secure Spread member process.
//!
//! Wires a [`GkaProtocol`] state machine into the group communication
//! system: verifies every received protocol message's signature,
//! filters stale epochs and buffers early ones, charges virtual CPU,
//! and records the instants at which views arrive and keys complete —
//! the raw measurements behind every figure in the paper.

use std::rc::Rc;

use gkap_bignum::{SplitMix64, Ubig};
use gkap_crypto::kdf::SessionKeys;
use gkap_gcs::{Client, ClientCtx, ClientId, Delivery, View};
use gkap_sim::{Duration, SimTime};
use gkap_telemetry::{Actor, CryptoOpKind, Event, EventKind, SendClass, Telemetry};

use crate::cost::OpCounts;
use crate::envelope::Envelope;
use crate::protocols::{
    FormationShare, GkaCtx, GkaError, GkaProtocol, ProtocolKind, SendKind, Transport,
};
use crate::suite::CryptoSuite;

/// Adapter: protocol sends go out through the GCS client context.
struct GcsTransport<'a, 'b> {
    ctx: &'a mut ClientCtx<'b>,
}

impl Transport for GcsTransport<'_, '_> {
    fn my_id(&self) -> ClientId {
        self.ctx.id()
    }

    fn send_wire(&mut self, kind: SendKind, wire: bytes::Bytes) {
        match kind {
            SendKind::Multicast => self.ctx.multicast_agreed(wire),
            SendKind::UnicastAgreed(to) => self.ctx.unicast_agreed(to, wire),
            SendKind::UnicastFifo(to) => self.ctx.unicast_fifo(to, wire),
        }
    }

    fn charge(&mut self, cost: Duration) {
        self.ctx.charge_cpu(cost);
    }
}

/// Where a member's current key agreement stands.
///
/// Views drive the transitions: entering a view starts an agreement
/// (`Running`); establishing its key converges it; a newer view
/// arriving first aborts it and — within the restart budget — restarts
/// it in the new epoch. Exhausting the budget is *reported* (a
/// [`GkaError`] plus a `give_up` fault event), never hidden.
///
/// ```text
/// Idle → Running → Converged
///          ↓  ↑ (next view)
///       Aborted → Restarting → Running → …
///          ↓ (budget exhausted)
///       GivenUp (terminal)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgreementPhase {
    /// No view has been delivered yet.
    Idle,
    /// A re-keying for the current epoch is in flight.
    Running,
    /// The in-flight agreement was superseded by a newer view.
    Aborted,
    /// A superseded agreement is being re-run in the newer epoch.
    Restarting,
    /// The current epoch's group key is established.
    Converged,
    /// The restart budget is exhausted; this member stopped trying.
    GivenUp,
}

/// Default number of consecutive aborted agreements a member tolerates
/// before giving up (see [`SecureMember::set_max_restarts`]).
pub const DEFAULT_MAX_RESTARTS: u64 = 16;

/// A member of a secure group: protocol engine + measurement hooks.
pub struct SecureMember {
    id: Option<ClientId>,
    suite: Rc<CryptoSuite>,
    protocol: Box<dyn GkaProtocol>,
    counts: OpCounts,
    rng: SplitMix64,
    epoch: u64,
    /// Seed for transparent bootstrap of the *initial* view (None =>
    /// run the real formation protocol, which only GDH/CKD/BD support
    /// for an n-way initial view).
    initial_seed: Option<u64>,
    /// `(members, me, seed)` of the component this member belonged to
    /// before its first view (see [`SecureMember::preseed_component`]).
    preseed: Option<(Vec<ClientId>, ClientId, u64)>,
    /// Buffered messages from epochs we have not entered yet.
    pending: Vec<Envelope>,
    /// `(epoch, instant)` when each view was delivered to us.
    view_times: Vec<(u64, SimTime)>,
    /// `(epoch, instant)` when the group key for that epoch was ready
    /// (CPU completion, including core contention).
    completions: Vec<(u64, SimTime)>,
    /// Epoch whose completion awaits the CPU-completion stamp.
    awaiting_stamp: Option<u64>,
    /// The established secrets per epoch (tests compare across members).
    secrets: Vec<(u64, Ubig)>,
    /// Whether to broadcast a key-confirmation digest after completing
    /// each epoch (§5's "form of key confirmation").
    confirm_keys: bool,
    /// Confirmations received per epoch.
    confirmations: Vec<(u64, usize)>,
    /// Confirmations that arrived before our own key did.
    pending_confirms: Vec<(u64, Vec<u8>)>,
    /// First protocol error, if any (experiments assert none).
    error: Option<GkaError>,
    /// Where the current agreement stands.
    phase: AgreementPhase,
    /// Consecutive agreements aborted by a superseding view (reset to
    /// zero on convergence).
    restarts: u64,
    /// Restart budget: one more abort than this gives up.
    max_restarts: u64,
    /// Telemetry sink (disabled by default; the experiment harness
    /// shares the world's handle here when tracing is requested).
    telemetry: Telemetry,
}

impl std::fmt::Debug for SecureMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureMember")
            .field("id", &self.id)
            .field("protocol", &self.protocol.kind().name())
            .field("epoch", &self.epoch)
            .field("completions", &self.completions.len())
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
            epoch: 0,
            initial_seed,
            preseed: None,
            pending: Vec::new(),
            view_times: Vec::new(),
            completions: Vec::new(),
            awaiting_stamp: None,
            secrets: Vec::new(),
            confirm_keys: false,
            confirmations: Vec::new(),
            pending_confirms: Vec::new(),
            error: None,
            phase: AgreementPhase::Idle,
            restarts: 0,
            max_restarts: DEFAULT_MAX_RESTARTS,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Shares a telemetry sink with this member (pass the `SimWorld`'s
    /// handle so all layers record into one stream).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
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
        self.confirmations
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    fn confirm_digest(epoch: u64, secret: &Ubig) -> Vec<u8> {
        use gkap_crypto::sha::{Digest, Sha256};
        let mut h = Sha256::new();
        h.update(b"confirm");
        h.update(&epoch.to_be_bytes());
        h.update(&secret.to_be_bytes());
        h.finalize()
    }

    fn record_confirmation(&mut self, epoch: u64, digest: &[u8]) {
        match self.secret(epoch) {
            Some(secret) => {
                // Constant-time: a digest mismatch must not leak how
                // much of the expected digest a forgery matched.
                if !gkap_crypto::hmac::ct_eq(&Self::confirm_digest(epoch, secret), digest) {
                    self.record_error(GkaError::Protocol("key confirmation mismatch"));
                    return;
                }
                match self.confirmations.iter_mut().find(|(e, _)| *e == epoch) {
                    Some((_, n)) => *n += 1,
                    None => self.confirmations.push((epoch, 1)),
                }
            }
            None => self.pending_confirms.push((epoch, digest.to_vec())),
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
    /// protocol state: formed here if no member of this world needed
    /// it before, taken from the world's share otherwise.
    fn adopt_component(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        members: &[ClientId],
        me: ClientId,
        seed: u64,
    ) {
        let component = ctx.world_slot::<FormationShare>().form(
            self.protocol.as_ref(),
            &self.suite,
            members,
            seed,
        );
        if let Err(e) = self.protocol.adopt(&component, me) {
            self.record_error(e);
        }
    }

    /// The operation counters accumulated so far.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Instant the key for `epoch` completed, if it has.
    pub fn completion(&self, epoch: u64) -> Option<SimTime> {
        self.completions
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|&(_, t)| t)
    }

    /// Instant the view for `epoch` was delivered, if it was.
    pub fn view_time(&self, epoch: u64) -> Option<SimTime> {
        self.view_times
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|&(_, t)| t)
    }

    /// The group secret for `epoch`, if established.
    pub fn secret(&self, epoch: u64) -> Option<&Ubig> {
        self.secrets
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, s)| s)
    }

    /// Derived symmetric session keys for the latest completed epoch.
    pub fn session_keys(&self) -> Option<SessionKeys> {
        self.secrets
            .last()
            .map(|(_, s)| SessionKeys::from_group_secret(s))
    }

    /// The latest epoch this member has entered.
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// Caps how many consecutive aborted agreements this member rides
    /// out before entering [`AgreementPhase::GivenUp`].
    pub fn set_max_restarts(&mut self, n: u64) {
        self.max_restarts = n;
    }

    /// The epoch of the last view installed at this member (the
    /// view-synchrony invariant compares this across survivors).
    pub fn last_view_epoch(&self) -> Option<u64> {
        self.view_times.last().map(|&(e, _)| e)
    }

    /// Which protocol this member runs.
    pub fn protocol_kind(&self) -> ProtocolKind {
        self.protocol.kind()
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

    fn after_handler(&mut self, ctx: &mut ClientCtx<'_>) {
        let Some(secret) = self.protocol.group_secret() else {
            return;
        };
        let already = self.secrets.iter().any(|(e, _)| *e == self.epoch);
        if already {
            return;
        }
        let secret = secret.clone();
        let epoch = self.epoch;
        self.secrets.push((epoch, secret.clone()));
        self.awaiting_stamp = Some(epoch);
        self.phase = AgreementPhase::Converged;
        self.restarts = 0;
        // Settle confirmations that raced ahead of our own key.
        let pending: Vec<Vec<u8>> = {
            let (now, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending_confirms)
                .into_iter()
                .partition(|(e, _)| *e == epoch);
            self.pending_confirms = later;
            now.into_iter().map(|(_, d)| d).collect()
        };
        for d in pending {
            self.record_confirmation(epoch, &d);
        }
        if self.confirm_keys {
            let body = crate::protocols::ProtocolMsg::KeyConfirm {
                digest: Self::confirm_digest(epoch, &secret),
            }
            .encode();
            self.counts.sign += 1;
            ctx.charge_cpu(self.suite.cost().sign);
            self.note_crypto(ctx, CryptoOpKind::Sign, self.suite.cost().sign);
            let env = Envelope::seal(&self.suite, ctx.id(), epoch, body);
            self.counts.multicast += 1;
            self.note_event(
                ctx,
                EventKind::MessageSend {
                    class: SendClass::Multicast,
                },
            );
            ctx.multicast_agreed(env.encode());
        }
    }

    /// Records one telemetry event at the handler's virtual time with
    /// this member as the actor (free when telemetry is disabled).
    fn note_event(&self, ctx: &ClientCtx<'_>, kind: EventKind) {
        self.note_span(ctx, Duration::ZERO, kind);
    }

    fn note_span(&self, ctx: &ClientCtx<'_>, dur: Duration, kind: EventKind) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let at = ctx.now();
        let actor = Actor::Client(ctx.id());
        self.telemetry.record(|| Event {
            at,
            dur,
            actor,
            kind,
        });
    }

    fn note_crypto(&self, ctx: &ClientCtx<'_>, op: CryptoOpKind, cost: Duration) {
        self.note_span(
            ctx,
            cost,
            EventKind::CryptoOp {
                op,
                bits: self.suite.nominal_bits() as u32,
            },
        );
    }

    fn dispatch_wire(&mut self, ctx: &mut ClientCtx<'_>, env: Envelope) {
        if env.sender == ctx.id() {
            return; // own multicast echoed back
        }
        // Verification cost is paid by every receiver (§3.2), plus
        // fixed per-message processing overhead.
        self.counts.verify += 1;
        ctx.charge_cpu(self.suite.cost().verify);
        ctx.charge_cpu(self.suite.cost().recv_overhead);
        self.note_crypto(ctx, CryptoOpKind::Verify, self.suite.cost().verify);
        self.note_crypto(
            ctx,
            CryptoOpKind::RecvOverhead,
            self.suite.cost().recv_overhead,
        );
        if env.verify(&self.suite).is_err() {
            self.record_error(GkaError::Protocol("bad signature"));
            return;
        }
        let msg = match crate::protocols::ProtocolMsg::decode(&env.body) {
            Ok(m) => m,
            Err(_) => {
                self.record_error(GkaError::Protocol("malformed body"));
                return;
            }
        };
        if let crate::protocols::ProtocolMsg::KeyConfirm { digest } = &msg {
            self.record_confirmation(env.epoch, digest);
            return;
        }
        let now = ctx.now();
        let mut transport = GcsTransport { ctx };
        let mut gka = GkaCtx {
            transport: &mut transport,
            suite: &self.suite,
            counts: &mut self.counts,
            rng: &mut self.rng,
            epoch: self.epoch,
            telemetry: self.telemetry.clone(),
            now,
        };
        if let Err(e) = self.protocol.on_msg(&mut gka, env.sender, msg) {
            self.record_error(e);
        }
        self.after_handler(ctx);
    }
}

impl Client for SecureMember {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.id = Some(ctx.id());
        if let Some((members, me, seed)) = self.preseed.take() {
            self.adopt_component(ctx, &members, me, seed);
        }

        // A view arriving while the previous epoch's agreement is
        // still in flight supersedes it: abort, then (budget
        // permitting) restart in the new epoch.
        if self.phase == AgreementPhase::Running {
            self.phase = AgreementPhase::Aborted;
            self.note_event(
                ctx,
                EventKind::Fault {
                    action: "abort",
                    target: ctx.id(),
                },
            );
            self.restarts += 1;
            if self.restarts > self.max_restarts {
                self.phase = AgreementPhase::GivenUp;
                self.record_error(GkaError::Protocol("restart budget exhausted"));
                self.note_event(
                    ctx,
                    EventKind::Fault {
                        action: "give_up",
                        target: ctx.id(),
                    },
                );
            } else {
                self.phase = AgreementPhase::Restarting;
                self.note_event(
                    ctx,
                    EventKind::Fault {
                        action: "restart",
                        target: ctx.id(),
                    },
                );
            }
        }

        // Rejoin after a partition healed: this member merges back as
        // a fresh singleton — stale keys from before the partition
        // must not leak into the new agreement.
        if view.joined.contains(&ctx.id()) && !self.view_times.is_empty() {
            self.protocol.reset();
            self.pending.clear();
        }

        self.epoch = view.id;
        self.view_times.push((view.id, ctx.now()));
        self.note_event(
            ctx,
            EventKind::MembershipEvent {
                action: "view_delivered",
                group_size: view.members.len(),
            },
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
                self.adopt_component(ctx, &view.members, ctx.id(), seed);
                self.after_handler(ctx);
                return;
            }
        }

        let now = ctx.now();
        let mut transport = GcsTransport { ctx };
        let mut gka = GkaCtx {
            transport: &mut transport,
            suite: &self.suite,
            counts: &mut self.counts,
            rng: &mut self.rng,
            epoch: self.epoch,
            telemetry: self.telemetry.clone(),
            now,
        };
        if let Err(e) = self.protocol.on_view(&mut gka, view) {
            self.record_error(e);
        }
        self.after_handler(ctx);

        // Drain any messages that raced ahead of this view.
        let ready: Vec<Envelope> = {
            let epoch = self.epoch;
            let (now, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|e| e.epoch == epoch);
            self.pending = later;
            now
        };
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
        if env.epoch < self.epoch {
            return; // stale epoch: superseded by a newer view
        }
        if env.epoch > self.epoch {
            self.pending.push(env); // we have not seen that view yet
            return;
        }
        self.dispatch_wire(ctx, env);
    }

    fn on_cpu_complete(&mut self, end: SimTime) {
        if let Some(epoch) = self.awaiting_stamp.take() {
            self.completions.push((epoch, end));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_and_accessors() {
        let suite = Rc::new(CryptoSuite::fast_zero());
        let m = SecureMember::new(ProtocolKind::Bd, suite, 1, Some(7));
        assert_eq!(m.protocol_kind(), ProtocolKind::Bd);
        assert_eq!(m.epoch(), 0);
        assert!(m.completion(1).is_none());
        assert!(m.secret(1).is_none());
        assert!(m.protocol_error().is_none());
        assert!(m.session_keys().is_none());
        assert!(format!("{m:?}").contains("BD"));
    }
}
