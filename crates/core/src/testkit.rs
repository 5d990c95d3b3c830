//! An in-memory loopback harness for protocol-logic tests.
//!
//! Hosts real [`SecureMember`]s and hands them views and messages
//! synchronously, in one total order and with zero latency — no
//! simulated network. Every handler runs on a detached [`ClientCtx`]
//! that records into the loopback's sink, and what it sent joins the
//! queue. So the member logic (epoch filter, restart, rejoin reset,
//! error record) and the [`GkaCtx`] accounting are the ones a
//! simulated world runs, and the operation counters accumulate
//! exactly as in the full simulation. Used by the unit/property tests
//! of the protocols themselves and by the closed-form cost validation
//! (Table 1).
//!
//! [`GkaCtx`]: crate::protocols::GkaCtx

use std::collections::VecDeque;
use std::rc::Rc;

use gkap_bignum::Ubig;
use gkap_gcs::{Client, ClientCtx, ClientId, Delivery, Dest, Service, View};
use gkap_sim::SimTime;
use gkap_telemetry::Telemetry;

use crate::cost::OpCounts;
use crate::member::SecureMember;
use crate::memo::WorldMemo;
use crate::protocols::{GkaProtocol, ProtocolKind, SendKind};
use crate::suite::CryptoSuite;

/// The loopback world: members + a FIFO message queue standing in for
/// the Agreed service.
pub struct Loopback {
    /// The hosted members, in the order a view reaches them.
    members: Vec<(ClientId, SecureMember)>,
    queue: VecDeque<Delivery>,
    epoch: u64,
    view: Vec<ClientId>,
    /// Messages delivered so far (diagnostics).
    pub delivered: u64,
    /// Running SHA-256 chain over every message taken off the queue.
    wire_digest: Vec<u8>,
    /// The sink every handler records into (disabled until
    /// [`Loopback::enable_telemetry`]).
    telemetry: Telemetry,
    /// What [`Loopback::bootstrap`] forms components through; each
    /// handler's detached context lends a memo of its own.
    memo: WorldMemo,
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
        let member = |id: ClientId| {
            let seed = 0xbeef ^ (id as u64) << 4;
            SecureMember::with_protocol(factory(), Rc::clone(&suite), seed, None)
        };
        Loopback {
            members: ids.iter().map(|&id| (id, member(id))).collect(),
            queue: VecDeque::new(),
            epoch: 0,
            view: Vec::new(),
            delivered: 0,
            wire_digest: Vec::new(),
            telemetry: Telemetry::disabled(),
            memo: WorldMemo::default(),
        }
    }

    /// Enables telemetry capture and returns the sink: every handler
    /// from now on records into it through its detached context
    /// (events are keyed at `SimTime::ZERO` — the loopback has no
    /// clock; counters still tally every charged operation).
    pub fn enable_telemetry(&mut self) -> Telemetry {
        self.telemetry = Telemetry::enabled();
        self.telemetry.clone()
    }

    /// The member `id`: its counters, epochs, key records, protocol
    /// error and engine.
    ///
    /// # Panics
    ///
    /// Panics on unknown id.
    pub fn member(&self, id: ClientId) -> &SecureMember {
        let (_, member) = self
            .members
            .iter()
            .find(|(m, _)| *m == id)
            .expect("unknown member");
        member
    }

    /// Bootstraps a component of the given members with `seed`:
    /// formed once, adopted by each.
    ///
    /// # Panics
    ///
    /// Panics if a member id is unknown.
    pub fn bootstrap(&mut self, ids: &[ClientId], seed: u64) {
        for &id in ids {
            let (_, member) = self
                .members
                .iter_mut()
                .find(|(m, _)| *m == id)
                .expect("unknown member id");
            member.adopt_component(&mut self.memo, ids, id, seed);
        }
        if self.view.is_empty() {
            self.view = ids.to_vec();
        }
    }

    /// Installs a new view (join/leave/merge/partition) and runs the
    /// protocol to completion.
    ///
    /// # Panics
    ///
    /// Panics if a member of the view recorded a protocol error, or
    /// deadlocked (stopped making progress before holding the epoch's
    /// key).
    pub fn install_view(
        &mut self,
        members: Vec<ClientId>,
        joined: Vec<ClientId>,
        left: Vec<ClientId>,
    ) {
        self.begin_view(members, joined, left);
        self.deliver_some(usize::MAX);
        for (id, member) in &self.members {
            if !self.view.contains(id) {
                continue;
            }
            if let Some(e) = member.protocol_error() {
                panic!("member {id}: {e}");
            }
            assert!(
                member.group_secret().is_some(),
                "member {id} did not reach a key (protocol deadlock?)"
            );
        }
    }

    /// Installs a view but cuts the agreement mid-round: only the
    /// first `deliver` queued messages are handed out, then control
    /// returns with the round incomplete. Messages still queued belong
    /// to the now-superseded epoch; the next `install_view*` call
    /// discards them — the view-synchronous cut, where receivers
    /// already in the next epoch drop stale traffic (exactly
    /// [`SecureMember`]'s epoch filter). Asserts nothing: what the cut
    /// left is for [`Loopback::member`] to show. Returns how many
    /// messages were actually delivered (may be under `deliver` if the
    /// round finished early).
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

    /// Delivers the new view to every member in it (discarding
    /// traffic left over from an interrupted round first).
    fn begin_view(&mut self, members: Vec<ClientId>, joined: Vec<ClientId>, left: Vec<ClientId>) {
        // Anything still queued was sent in the superseded epoch;
        // receivers would drop it as stale.
        self.queue.clear();
        self.epoch += 1;
        let view = View {
            id: self.epoch,
            group: 0,
            members,
            joined,
            left,
        };
        for (id, member) in &mut self.members {
            if view.members.contains(id) {
                let sink = self.telemetry.clone();
                let mut ctx = ClientCtx::detached_into(*id, SimTime::ZERO, view.id, sink);
                member.on_view(&mut ctx, &view);
                self.queue.extend(ctx.into_sent());
            }
        }
        self.view = view.members;
    }

    /// Delivers at most `budget` queued messages (in total order);
    /// returns how many were delivered.
    fn deliver_some(&mut self, budget: usize) -> usize {
        let mut handed_out = 0;
        while handed_out < budget {
            let Some(msg) = self.queue.pop_front() else {
                break;
            };
            handed_out += 1;
            assert!(handed_out < 100_000, "loopback runaway message loop");
            self.note_wire(&msg);
            let targets: Vec<ClientId> = match msg.dest {
                Dest::All => self
                    .view
                    .iter()
                    .copied()
                    .filter(|&m| m != msg.sender)
                    .collect(),
                Dest::One(t) => vec![t],
            };
            for t in targets {
                let Some((_, member)) = self.members.iter_mut().find(|(m, _)| *m == t) else {
                    continue;
                };
                self.delivered += 1;
                let sink = self.telemetry.clone();
                let mut ctx = ClientCtx::detached_into(t, SimTime::ZERO, self.epoch, sink);
                member.on_message(&mut ctx, &msg);
                self.queue.extend(ctx.into_sent());
            }
        }
        handed_out
    }

    fn note_wire(&mut self, msg: &Delivery) {
        use gkap_crypto::sha::{Digest, Sha256};
        // `GkaCtx::send`'s addressing, read back from the GCS form (it
        // multicasts only Agreed).
        let kind = match (msg.service, msg.dest) {
            (_, Dest::All) => SendKind::Multicast,
            (Service::Agreed, Dest::One(to)) => SendKind::UnicastAgreed(to),
            (Service::Fifo, Dest::One(to)) => SendKind::UnicastFifo(to),
        };
        let mut h = Sha256::new();
        h.update(&self.wire_digest);
        h.update(&(msg.sender as u64).to_be_bytes());
        h.update(format!("{kind:?}").as_bytes());
        h.update(&msg.payload);
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
        let mut secret: Option<&Ubig> = None;
        for (id, member) in &self.members {
            if !self.view.contains(id) {
                continue;
            }
            let k = member
                .group_secret()
                .unwrap_or_else(|| panic!("member {id} has no key"));
            match secret {
                None => secret = Some(k),
                Some(prev) => assert_eq!(prev, k, "member {id} diverges"),
            }
        }
        secret.expect("non-empty view").clone()
    }

    /// Aggregate operation counts across all members.
    pub fn total_counts(&self) -> OpCounts {
        let mut total = OpCounts::default();
        for (_, member) in &self.members {
            total.add(member.counts());
        }
        total
    }

    /// The current view members.
    pub fn view(&self) -> &[ClientId] {
        &self.view
    }
}

#[cfg(test)]
impl Loopback {
    /// Hands member `to` the message `msg` as if `sender` had sent it
    /// in the current epoch, signed under `suite` so that it verifies;
    /// what `to` sends in reply is queued. For feeding an engine what
    /// no honest member would send.
    pub(crate) fn forge(
        &mut self,
        suite: &CryptoSuite,
        sender: ClientId,
        to: ClientId,
        msg: &crate::protocols::ProtocolMsg,
    ) {
        let env = crate::envelope::Envelope::seal(suite, sender, self.epoch, msg.encode());
        self.queue.push_front(Delivery {
            sender,
            service: Service::Agreed,
            dest: Dest::One(to),
            view_id: self.epoch,
            payload: env.encode(),
        });
        self.deliver_some(1);
    }
}
