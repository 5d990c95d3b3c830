//! An in-memory loopback harness for protocol-logic tests.
//!
//! Runs a set of protocol engines against each other with synchronous,
//! totally-ordered delivery and zero latency — no simulated network.
//! Used by the unit/property tests of the protocols themselves and by
//! the closed-form cost validation (Table 1): the operation counters
//! accumulate exactly as in the full simulation, since both send and
//! receive through the same [`GkaCtx`].

use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use gkap_bignum::{SplitMix64, Ubig};
use gkap_gcs::{ClientId, View};
use gkap_sim::Duration;
use gkap_telemetry::Telemetry;

use crate::cost::OpCounts;
use crate::envelope::Envelope;
use crate::protocols::{GkaCtx, GkaProtocol, ProtocolKind, SendKind, Transport};
use crate::suite::CryptoSuite;

struct QueueTransport<'a> {
    me: ClientId,
    out: &'a mut VecDeque<(ClientId, SendKind, Bytes)>,
}

impl Transport for QueueTransport<'_> {
    fn my_id(&self) -> ClientId {
        self.me
    }

    fn send_wire(&mut self, kind: SendKind, wire: Bytes) {
        self.out.push_back((self.me, kind, wire));
    }

    fn charge(&mut self, _cost: Duration) {}
}

struct Slot {
    id: ClientId,
    protocol: Box<dyn GkaProtocol>,
    counts: OpCounts,
    rng: SplitMix64,
    /// View epochs delivered to this member, in delivery order
    /// (cascade tests assert strict monotonicity).
    epochs: Vec<u64>,
}

/// The loopback world: engines + a FIFO message queue standing in for
/// the Agreed service.
pub struct Loopback {
    suite: Rc<CryptoSuite>,
    members: Vec<Slot>,
    queue: VecDeque<(ClientId, SendKind, Bytes)>,
    epoch: u64,
    view: Vec<ClientId>,
    /// Messages delivered so far (diagnostics).
    pub delivered: u64,
    /// Running SHA-256 chain over every message taken off the queue.
    wire_digest: Vec<u8>,
    telemetry: Telemetry,
}

impl Loopback {
    /// Creates a harness with members `ids` all running `kind`.
    pub fn new(kind: ProtocolKind, suite: CryptoSuite, ids: &[ClientId]) -> Self {
        Loopback::with_factory(|| kind.create(), suite, ids)
    }

    /// Creates a harness with a custom protocol factory (e.g. the
    /// AVL-policy TGDH variant).
    pub fn with_factory(
        factory: impl Fn() -> Box<dyn GkaProtocol>,
        suite: CryptoSuite,
        ids: &[ClientId],
    ) -> Self {
        let suite = Rc::new(suite);
        Loopback {
            members: ids
                .iter()
                .map(|&id| Slot {
                    id,
                    protocol: factory(),
                    counts: OpCounts::default(),
                    rng: SplitMix64::new(0xbeef ^ (id as u64) << 4),
                    epochs: Vec::new(),
                })
                .collect(),
            suite,
            queue: VecDeque::new(),
            epoch: 0,
            view: Vec::new(),
            delivered: 0,
            wire_digest: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Enables telemetry capture and returns the shared handle
    /// (events are keyed at `SimTime::ZERO` — the loopback has no
    /// clock; counters still tally every charged operation).
    pub fn enable_telemetry(&mut self) -> Telemetry {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
        self.telemetry.clone()
    }

    /// Borrows a member's protocol engine, downcast to its concrete
    /// type (diagnostics; e.g. reading the TGDH tree height).
    ///
    /// # Panics
    ///
    /// Panics on unknown id or type mismatch.
    pub fn protocol_as<T: GkaProtocol>(&self, id: ClientId) -> &T {
        let slot = self
            .members
            .iter()
            .find(|s| s.id == id)
            .expect("unknown member");
        (slot.protocol.as_ref() as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("protocol type mismatch")
    }

    /// Bootstraps a component of the given members with `seed`:
    /// formed once, adopted by each.
    ///
    /// # Panics
    ///
    /// Panics if a member id is unknown.
    pub fn bootstrap(&mut self, ids: &[ClientId], seed: u64) {
        let Some(&first) = ids.first() else {
            return;
        };
        let suite = Rc::clone(&self.suite);
        let component = self.slot_mut(first).protocol.component(&suite, ids, seed);
        for &id in ids {
            self.slot_mut(id)
                .protocol
                .adopt(&component, id)
                .expect("a member adopts its own component");
        }
        if self.view.is_empty() {
            self.view = ids.to_vec();
        }
    }

    fn slot_mut(&mut self, id: ClientId) -> &mut Slot {
        self.members
            .iter_mut()
            .find(|s| s.id == id)
            .expect("unknown member id")
    }

    /// Installs a new view (join/leave/merge/partition) and runs the
    /// protocol to completion.
    ///
    /// # Panics
    ///
    /// Panics if a protocol errors or deadlocks (stops making progress
    /// before every member holds the epoch's key).
    pub fn install_view(
        &mut self,
        members: Vec<ClientId>,
        joined: Vec<ClientId>,
        left: Vec<ClientId>,
    ) {
        self.begin_view(members, joined, left);
        self.drain();
        // Every member must hold the key now.
        for s in &self.members {
            if self.view.contains(&s.id) {
                assert!(
                    s.protocol.group_secret().is_some(),
                    "member {} did not reach a key (protocol deadlock?)",
                    s.id
                );
            }
        }
    }

    /// Installs a view but cuts the agreement mid-round: only the
    /// first `deliver` queued messages are handed out, then control
    /// returns with the round incomplete. Messages still queued belong
    /// to the now-superseded epoch; the next `install_view*` call
    /// discards them — the view-synchronous cut, where receivers
    /// already in the next epoch drop stale traffic (exactly
    /// [`crate::member::SecureMember`]'s epoch filter). Returns how
    /// many messages were actually delivered (may be under `deliver`
    /// if the round finished early).
    pub fn install_view_interrupted(
        &mut self,
        members: Vec<ClientId>,
        joined: Vec<ClientId>,
        left: Vec<ClientId>,
        deliver: usize,
    ) -> usize {
        self.begin_view(members, joined, left);
        self.deliver_some(deliver)
    }

    /// Delivers the new view to every surviving member (discarding
    /// traffic left over from an interrupted round first).
    fn begin_view(&mut self, members: Vec<ClientId>, joined: Vec<ClientId>, left: Vec<ClientId>) {
        // Anything still queued was sent in the superseded epoch;
        // receivers would drop it as stale.
        self.queue.clear();
        self.epoch += 1;
        let view = View {
            id: self.epoch,
            group: 0,
            members: members.clone(),
            joined,
            left,
        };
        self.view = members;
        for idx in 0..self.members.len() {
            let id = self.members[idx].id;
            if !view.members.contains(&id) {
                continue;
            }
            self.members[idx].epochs.push(view.id);
            self.with_ctx(idx, |protocol, ctx| {
                protocol.on_view(ctx, &view).expect("on_view failed");
            });
        }
    }

    fn with_ctx(&mut self, idx: usize, f: impl FnOnce(&mut Box<dyn GkaProtocol>, &mut GkaCtx<'_>)) {
        let suite = Rc::clone(&self.suite);
        let epoch = self.epoch;
        let slot = &mut self.members[idx];
        let mut transport = QueueTransport {
            me: slot.id,
            out: &mut self.queue,
        };
        let mut ctx = GkaCtx {
            transport: &mut transport,
            suite: &suite,
            counts: &mut slot.counts,
            rng: &mut slot.rng,
            epoch,
            telemetry: self.telemetry.clone(),
            now: gkap_sim::SimTime::ZERO,
        };
        f(&mut slot.protocol, &mut ctx);
    }

    /// Delivers queued messages (in total order) until quiescent.
    fn drain(&mut self) {
        self.deliver_some(usize::MAX);
    }

    /// Delivers at most `budget` queued messages (in total order);
    /// returns how many were delivered.
    fn deliver_some(&mut self, budget: usize) -> usize {
        let mut handed_out = 0;
        while handed_out < budget {
            let Some((sender, kind, wire)) = self.queue.pop_front() else {
                break;
            };
            handed_out += 1;
            assert!(handed_out < 100_000, "loopback runaway message loop");
            self.note_wire(sender, kind, &wire);
            let env = Envelope::decode(&wire).expect("well-formed envelope");
            let targets: Vec<ClientId> = match kind {
                SendKind::Multicast => self.view.iter().copied().filter(|&m| m != sender).collect(),
                SendKind::UnicastAgreed(t) | SendKind::UnicastFifo(t) => vec![t],
            };
            for t in targets {
                let Some(idx) = self.members.iter().position(|s| s.id == t) else {
                    continue;
                };
                self.delivered += 1;
                self.with_ctx(idx, |protocol, ctx| {
                    let msg = ctx.receive(&env).expect("signed, well-formed message");
                    protocol.on_msg(ctx, sender, msg).expect("on_msg failed");
                });
            }
        }
        handed_out
    }

    fn note_wire(&mut self, sender: ClientId, kind: SendKind, wire: &[u8]) {
        use gkap_crypto::sha::{Digest, Sha256};
        let mut h = Sha256::new();
        h.update(&self.wire_digest);
        h.update(&(sender as u64).to_be_bytes());
        h.update(format!("{kind:?}").as_bytes());
        h.update(wire);
        self.wire_digest = h.finalize();
    }

    /// A digest of every message delivered so far — sender, addressing
    /// and the exact wire bytes, in delivery order. Equal digests mean
    /// byte-identical protocol traffic.
    pub fn wire_digest(&self) -> &[u8] {
        &self.wire_digest
    }

    /// All current members' secrets, asserting they agree; returns the
    /// common secret.
    ///
    /// # Panics
    ///
    /// Panics if any member lacks a key or secrets diverge.
    pub fn common_secret(&self) -> Ubig {
        let mut secret: Option<Ubig> = None;
        for s in &self.members {
            if !self.view.contains(&s.id) {
                continue;
            }
            let k = s
                .protocol
                .group_secret()
                .unwrap_or_else(|| panic!("member {} has no key", s.id));
            match &secret {
                None => secret = Some(k.clone()),
                Some(prev) => assert_eq!(prev, k, "member {} diverges", s.id),
            }
        }
        secret.expect("non-empty view")
    }

    /// Aggregate operation counts across all members.
    pub fn total_counts(&self) -> OpCounts {
        let mut total = OpCounts::default();
        for s in &self.members {
            total.add(&s.counts);
        }
        total
    }

    /// A snapshot of one member's counters.
    pub fn counts_of(&self, id: ClientId) -> OpCounts {
        self.members
            .iter()
            .find(|s| s.id == id)
            .expect("unknown member")
            .counts
    }

    /// The current view members.
    pub fn view(&self) -> &[ClientId] {
        &self.view
    }

    /// The view epochs delivered to `id`, in order (cascade tests
    /// assert these are strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics on unknown id.
    pub fn epochs_of(&self, id: ClientId) -> &[u64] {
        &self
            .members
            .iter()
            .find(|s| s.id == id)
            .expect("unknown member")
            .epochs
    }
}
