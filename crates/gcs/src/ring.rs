//! The token ring: Agreed total order, flow control, stability and
//! each daemon's message store.
//!
//! Daemons form a logical ring ordered by site. A token circulates
//! permanently. On each visit a daemon:
//!
//! 1. sequences and broadcasts up to `flow_control_max_msgs` of its
//!    clients' pending Agreed messages,
//! 2. delivers to its local clients every message proven *stable* —
//!    sequence numbers at or below the all-received-up-to (aru) bound
//!    the token carries from the previous full rotation,
//! 3. folds its own contiguously-received high-water mark into the
//!    token's running minimum, and
//! 4. forwards the token.
//!
//! A message therefore becomes deliverable roughly one-and-a-half token
//! rotations after submission — about 1.3 ms on the paper's LAN and
//! about 310 ms on its WAN, matching §6.1.1/§6.2.1. A sender that just
//! misses the token waits a full rotation (footnote 10 of the paper).
//!
//! [`Ring`] owns the daemon arena (one daemon per machine, so a
//! `DaemonId` is also its `MachineId`), the ring order, the token
//! generation, the aru and the retransmission buffer. It is handed a
//! daemon id at each step of a visit and returns values — the
//! generation sequenced, the next stable message, who can re-send
//! what. It never sees the event queue, a client or the loss process.
//!
//! Sequence numbers are dense — the `n`-th message sequenced is `n` —
//! so nothing here is keyed by map. Each daemon's store is a *sequence
//! window*: a deque whose slot `i` is `seq = delivered + 1 + i`, empty
//! where a copy has not arrived. A delivery pops the front, so the
//! window slides with `delivered`; anything at or below `delivered` has
//! no slot, which makes a late duplicate of a delivered message a no-op
//! (see [`Ring::store`]). The retransmission buffer is a window too:
//! a deque that starts at the seq [`Ring::prune`] last kept, so it
//! holds the messages some alive daemon may still ask for or decode
//! from — the ones above the delivery floor, and one generation below
//! it — not every message the ring ever sequenced.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::string_slice)]
#![expect(
    clippy::indexing_slicing,
    reason = "owns the daemon arena and the ring order: DaemonId is an engine-issued index and ring positions are taken modulo the ring length; the sequence window is only reached through checked_sub and get/get_mut"
)]

use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;

use crate::message::{Delivery, Dest, Service, ViewId};
use crate::{ClientId, DaemonId};

/// A client submission waiting at its daemon for the token.
#[derive(Debug)]
pub(crate) struct Submission {
    pub sender: ClientId,
    pub dest: Dest,
    pub view_id: ViewId,
    pub payload: Bytes,
}

/// A sequenced Agreed message.
#[derive(Debug)]
pub(crate) struct WireMsg {
    pub seq: u64,
    /// The daemon that sequenced the message (retransmission source).
    pub origin: DaemonId,
    /// What every addressee is handed — lent straight out of this
    /// record, so no copy of a message builds a `Delivery` of its own.
    pub delivery: Delivery,
}

#[derive(Default)]
struct DaemonSlot {
    /// Set once the daemon has crashed: it stops sequencing,
    /// delivering and forwarding the token, and the ring reforms
    /// without it after the detection timeout.
    crashed: bool,
    pending: VecDeque<Submission>,
    /// The sequence window: slot `i` is seq `delivered + 1 + i`,
    /// `None` where the copy has not arrived (yet).
    received: VecDeque<Option<Rc<WireMsg>>>,
    /// Highest seq such that this daemon holds all messages `1..=seq`.
    contiguous: u64,
    /// `contiguous` as of this daemon's most recent token visit (the
    /// value it last reported into the aru computation).
    reported: u64,
    /// Highest seq delivered to local clients.
    delivered: u64,
}

impl DaemonSlot {
    /// The window slot of `seq`: `None` at or below `delivered`.
    fn slot(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.delivered + 1)?).ok()
    }

    /// The copy of `seq` awaiting delivery, if it has arrived.
    fn held(&self, seq: u64) -> Option<&Rc<WireMsg>> {
        self.received.get(self.slot(seq)?)?.as_ref()
    }
}

/// Token-ring state of one world.
pub(crate) struct Ring {
    order: Vec<DaemonId>,
    daemons: Vec<DaemonSlot>,
    /// aru carried by the token: the minimum, over all alive daemons,
    /// of the contiguous high-water mark each reported at its latest
    /// token visit. Messages at or below it are held by every daemon.
    aru: u64,
    /// Token generation: bumped on every ring reformation so tokens
    /// already in flight at crash detection are invalidated (exactly
    /// one token survives a reformation).
    gen: u64,
    /// The sequenced messages from seq `sent_from` on, `sent_from + i`
    /// at index `i` (the origin daemons' retransmission buffers, kept
    /// globally for simulation convenience). [`Ring::prune`] drops what
    /// lies `flow_control_max_msgs` or more below the least `delivered`
    /// of the alive daemons: nobody can ask for it any more, and FEC
    /// decoding, which re-reads members of a generation the daemon has
    /// already delivered, never reaches a generation's length below
    /// that floor.
    sent: VecDeque<Rc<WireMsg>>,
    /// The seq at the front of `sent` (`last_seq + 1` when it is empty).
    sent_from: u64,
}

impl Ring {
    pub(crate) fn new(daemons: usize) -> Self {
        Ring {
            order: (0..daemons).collect(),
            daemons: (0..daemons).map(|_| DaemonSlot::default()).collect(),
            aru: 0,
            gen: 0,
            sent: VecDeque::new(),
            sent_from: 1,
        }
    }

    /// The daemons the token visits, in visiting order (shrinks on
    /// reformation).
    pub(crate) fn order(&self) -> &[DaemonId] {
        &self.order
    }

    pub(crate) fn gen(&self) -> u64 {
        self.gen
    }

    /// Whether a token of generation `gen` arriving at `daemon` is the
    /// live one. A stale token (superseded by a reformation) or one
    /// reaching a crashed daemon vanishes.
    pub(crate) fn token_live_at(&self, daemon: DaemonId, gen: u64) -> bool {
        gen == self.gen && !self.daemons[daemon].crashed
    }

    /// The daemon the token visits after `daemon` (`None` once
    /// `daemon` has been reformed out of the ring).
    pub(crate) fn successor(&self, daemon: DaemonId) -> Option<DaemonId> {
        let pos = self.order.iter().position(|&d| d == daemon)?;
        Some(self.order[(pos + 1) % self.order.len()])
    }

    /// Reforms the ring without `daemon` and starts a new token
    /// generation.
    pub(crate) fn reform_without(&mut self, daemon: DaemonId) {
        self.order.retain(|&d| d != daemon);
        self.gen += 1;
    }

    pub(crate) fn daemon_count(&self) -> usize {
        self.daemons.len()
    }

    /// Whether `daemon` exists and has not crashed.
    pub(crate) fn is_alive(&self, daemon: DaemonId) -> bool {
        self.daemons.get(daemon).is_some_and(|d| !d.crashed)
    }

    /// The daemons that have not crashed, ascending.
    pub(crate) fn alive(&self) -> impl Iterator<Item = DaemonId> + '_ {
        (0..self.daemons.len()).filter(|&d| !self.daemons[d].crashed)
    }

    /// `daemon` dies: its pending submissions and the copies it held
    /// undelivered die with it. Every reader of a daemon's window asks
    /// about alive daemons only, so nothing reads the emptied window.
    pub(crate) fn crash(&mut self, daemon: DaemonId) {
        let d = &mut self.daemons[daemon];
        d.crashed = true;
        d.pending.clear();
        d.received = VecDeque::new();
    }

    /// Queues a submission at `daemon` until its next token visit.
    pub(crate) fn submit(&mut self, daemon: DaemonId, sub: Submission) {
        self.daemons[daemon].pending.push_back(sub);
    }

    /// Flow control: sequences at most `max` of `daemon`'s pending
    /// submissions, oldest first. The origin holds its own messages
    /// instantly; the returned generation is what it must broadcast.
    pub(crate) fn sequence(&mut self, daemon: DaemonId, max: usize) -> Vec<Rc<WireMsg>> {
        let mut generation = Vec::new();
        while generation.len() < max {
            let Some(sub) = self.daemons[daemon].pending.pop_front() else {
                break;
            };
            let msg = Rc::new(WireMsg {
                seq: self.last_seq() + 1,
                origin: daemon,
                delivery: Delivery {
                    sender: sub.sender,
                    service: Service::Agreed,
                    dest: sub.dest,
                    view_id: sub.view_id,
                    payload: sub.payload,
                },
            });
            self.sent.push_back(Rc::clone(&msg));
            self.store(daemon, Rc::clone(&msg));
            generation.push(msg);
        }
        generation
    }

    /// Submissions flow control deferred to `daemon`'s next visit.
    pub(crate) fn backlog(&self, daemon: DaemonId) -> usize {
        self.daemons[daemon].pending.len()
    }

    /// The highest sequence number handed out so far.
    fn last_seq(&self) -> u64 {
        self.sent_from + self.sent.len() as u64 - 1
    }

    /// A sequenced message, from the retransmission buffer: `None`
    /// for a seq not handed out yet or already pruned.
    pub(crate) fn sent(&self, seq: u64) -> Option<&Rc<WireMsg>> {
        self.sent
            .get(usize::try_from(seq.checked_sub(self.sent_from)?).ok()?)
    }

    /// Drops from the retransmission buffer every message at or below
    /// `floor - margin`, where `floor` is the least `delivered` over
    /// the alive daemons (O(daemons)); with none alive it keeps all.
    ///
    /// Above the floor lies everything an alive daemon may still miss
    /// and request. Below it, FEC decoding re-reads the delivered
    /// members of a generation the daemon holds parity for: such a
    /// generation still lacks a seq above the floor, and a generation
    /// is one visit's [`Ring::sequence`], at most `margin` long when
    /// `margin` is the `max` passed there — so it starts above
    /// `floor - margin`, and every member stays readable.
    pub(crate) fn prune(&mut self, margin: usize) {
        let alive = self.daemons.iter().filter(|d| !d.crashed);
        let Some(floor) = alive.map(|d| d.delivered).min() else {
            return;
        };
        let keep_from = floor.saturating_sub(margin as u64) + 1;
        while self.sent_from < keep_from && self.sent.pop_front().is_some() {
            self.sent_from += 1;
        }
    }

    /// `daemon` obtains a copy of `msg`. A copy of a message the
    /// daemon has already delivered (a second re-sent copy overtaken
    /// by the first) has no window slot and is dropped: it must not
    /// make [`Ring::awaits_delivery`] true for a delivered seq.
    pub(crate) fn store(&mut self, daemon: DaemonId, msg: Rc<WireMsg>) {
        let d = &mut self.daemons[daemon];
        let Some(slot) = d.slot(msg.seq) else {
            return;
        };
        if d.received.len() <= slot {
            d.received.resize(slot + 1, None);
        }
        if let Some(copy) = d.received.get_mut(slot) {
            *copy = Some(msg);
        }
        while d.held(d.contiguous + 1).is_some() {
            d.contiguous += 1;
        }
    }

    /// Whether `daemon` holds (or has already delivered) `seq`.
    pub(crate) fn holds(&self, daemon: DaemonId, seq: u64) -> bool {
        seq <= self.daemons[daemon].contiguous || self.awaits_delivery(daemon, seq)
    }

    /// Whether `daemon` holds `seq` and has not delivered it yet.
    pub(crate) fn awaits_delivery(&self, daemon: DaemonId, seq: u64) -> bool {
        self.daemons[daemon].held(seq).is_some()
    }

    /// Highest seq such that `daemon` holds all of `1..=seq`.
    pub(crate) fn contiguous(&self, daemon: DaemonId) -> u64 {
        self.daemons[daemon].contiguous
    }

    /// Whether the token proves sequence numbers exist above
    /// `daemon`'s contiguous mark (lost, or merely still in flight).
    pub(crate) fn has_gap(&self, daemon: DaemonId) -> bool {
        self.daemons[daemon].contiguous < self.last_seq()
    }

    /// The sequence numbers in `daemon`'s gap it does not hold.
    fn missing(&self, daemon: DaemonId) -> impl Iterator<Item = u64> + '_ {
        let d = &self.daemons[daemon];
        ((d.contiguous + 1)..=self.last_seq()).filter(|&seq| d.held(seq).is_none())
    }

    /// The missing fraction of `daemon`'s gap (zero without one): the
    /// per-visit sample of the loss estimator.
    pub(crate) fn gap_fraction(&self, daemon: DaemonId) -> f64 {
        let span = self
            .last_seq()
            .saturating_sub(self.daemons[daemon].contiguous);
        if span == 0 {
            0.0
        } else {
            self.missing(daemon).count() as f64 / span as f64
        }
    }

    /// What `daemon` asks to have re-sent at this visit: of its first
    /// `batch` missing sequence numbers, every message another daemon
    /// sequenced, with an alive daemon able to re-send it — the origin
    /// if it survives, otherwise any other surviving ring member (the
    /// retransmission buffers are global: every daemon that received
    /// the message can source it), `None` for a sole survivor.
    pub(crate) fn retransmit_plan(
        &self,
        daemon: DaemonId,
        batch: usize,
    ) -> Vec<(Rc<WireMsg>, Option<DaemonId>)> {
        let alive = |d: DaemonId| !self.daemons[d].crashed;
        let survivor = || {
            self.order
                .iter()
                .copied()
                .find(|&d| d != daemon && alive(d))
        };
        self.missing(daemon)
            .take(batch)
            .filter_map(|seq| self.sent(seq))
            .filter(|msg| msg.origin != daemon)
            .map(|msg| {
                let source = if alive(msg.origin) {
                    Some(msg.origin)
                } else {
                    survivor()
                };
                (Rc::clone(msg), source)
            })
            .collect()
    }

    /// `daemon` reports its contiguous mark into the token, and the
    /// aru becomes the minimum over every alive daemon's latest
    /// report. When every daemon has crashed there is no ring left to
    /// agree on stability: the aru is left untouched.
    pub(crate) fn report(&mut self, daemon: DaemonId) {
        self.daemons[daemon].reported = self.daemons[daemon].contiguous;
        let reports = self
            .daemons
            .iter()
            .filter(|d| !d.crashed)
            .map(|d| d.reported);
        if let Some(min) = reports.min() {
            self.aru = min;
        }
    }

    /// The next message `daemon` may hand to its clients: held, and
    /// proven by the aru to be held everywhere. `None` when it has
    /// delivered everything stable.
    pub(crate) fn pop_stable(&mut self, daemon: DaemonId) -> Option<Rc<WireMsg>> {
        let d = &mut self.daemons[daemon];
        if d.delivered >= self.aru.min(d.contiguous) {
            return None;
        }
        // `delivered < contiguous`, so the front slot is filled.
        let msg = d.received.front_mut()?.take()?;
        d.received.pop_front();
        d.delivered += 1;
        Some(msg)
    }

    /// How many messages the retransmission buffer holds.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.sent.len()
    }

    /// How many window slots `daemon` holds, filled or not.
    #[cfg(test)]
    pub(crate) fn window_len(&self, daemon: DaemonId) -> usize {
        self.daemons[daemon].received.len()
    }

    /// Whether every alive daemon has sequenced all it was given and
    /// delivered all that was sequenced. Crashed daemons are excluded:
    /// they will never deliver again, and the reformed ring no longer
    /// waits on them.
    pub(crate) fn flushed(&self) -> bool {
        let last = self.last_seq();
        let mut alive = self.daemons.iter().filter(|d| !d.crashed);
        alive.all(|d| d.pending.is_empty() && d.delivered == last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of `daemons` on which daemon 0 has sequenced `n`
    /// messages (and holds them), with the generation it broadcasts.
    fn sequenced(daemons: usize, n: usize) -> (Ring, Vec<Rc<WireMsg>>) {
        let mut ring = Ring::new(daemons);
        let generation = sequence_more(&mut ring, n);
        (ring, generation)
    }

    /// Daemon 0 sequences `n` more messages in one visit.
    fn sequence_more(ring: &mut Ring, n: usize) -> Vec<Rc<WireMsg>> {
        for sender in 0..n {
            ring.submit(
                0,
                Submission {
                    sender,
                    dest: Dest::All,
                    view_id: 1,
                    payload: Bytes::from(vec![sender as u8]),
                },
            );
        }
        let generation = ring.sequence(0, n);
        assert_eq!(generation.len(), n);
        generation
    }

    fn drain(ring: &mut Ring, daemon: DaemonId) -> Vec<u64> {
        std::iter::from_fn(|| ring.pop_stable(daemon))
            .map(|msg| msg.seq)
            .collect()
    }

    #[test]
    fn the_window_fills_out_of_order_and_slides_on_delivery() {
        let (mut ring, msgs) = sequenced(2, 5);
        assert_eq!(ring.contiguous(0), 5, "the origin holds its own");
        // Daemon 1 receives 3, 1, 5: gaps at 2 and at 4.
        for seq in [3, 1, 5] {
            ring.store(1, Rc::clone(&msgs[seq - 1]));
        }
        assert_eq!(ring.contiguous(1), 1);
        assert!(ring.has_gap(1));
        assert_eq!(ring.missing(1).collect::<Vec<_>>(), [2, 4]);
        assert_eq!(ring.gap_fraction(1), 0.5, "2 missing of the 4 above 1");
        assert!(ring.holds(1, 3) && ring.awaits_delivery(1, 5));
        assert!(!ring.holds(1, 4) && !ring.holds(1, 6));

        // The aru is the minimum of the reports: only seq 1 is stable.
        ring.report(0);
        ring.report(1);
        assert_eq!(drain(&mut ring, 1), [1]);
        // Delivered: out of the window, still held.
        assert!(ring.holds(1, 1) && !ring.awaits_delivery(1, 1));

        // The window's base is now seq 2; filling that gap carries the
        // contiguous mark over the 3 stored before the slide.
        ring.store(1, Rc::clone(&msgs[1]));
        assert_eq!(ring.contiguous(1), 3);
        assert_eq!(ring.missing(1).collect::<Vec<_>>(), [4]);
        ring.store(1, Rc::clone(&msgs[3]));
        assert_eq!(ring.contiguous(1), 5);
        assert!(!ring.has_gap(1));
        assert_eq!(ring.gap_fraction(1), 0.0);
        assert_eq!(ring.missing(1).count(), 0);

        ring.report(1);
        assert_eq!(drain(&mut ring, 1), [2, 3, 4, 5]);
        assert!(!ring.flushed(), "daemon 0 has delivered nothing yet");
        assert_eq!(drain(&mut ring, 0), [1, 2, 3, 4, 5]);
        assert!(ring.flushed());
    }

    #[test]
    fn a_late_duplicate_of_a_delivered_message_is_dropped() {
        let (mut ring, msgs) = sequenced(2, 2);
        ring.store(1, Rc::clone(&msgs[0]));
        ring.store(1, Rc::clone(&msgs[1]));
        ring.report(0);
        ring.report(1);
        assert_eq!(ring.pop_stable(1).map(|msg| msg.seq), Some(1));
        // A second re-sent copy of seq 1 arrives after its delivery.
        ring.store(1, Rc::clone(&msgs[0]));
        assert!(ring.holds(1, 1));
        assert!(
            !ring.awaits_delivery(1, 1),
            "a delivered seq must not await delivery again"
        );
        assert_eq!(ring.contiguous(1), 2);
        assert_eq!(drain(&mut ring, 1), [2], "the window did not move");
    }

    #[test]
    fn the_retransmission_buffer_is_indexed_by_seq() {
        let (mut ring, _) = sequenced(1, 3);
        assert!(ring.sent(0).is_none(), "sequence numbers start at 1");
        assert_eq!(ring.sent(1).map(|msg| msg.seq), Some(1));
        assert_eq!(ring.sent(3).map(|msg| msg.seq), Some(3));
        assert!(ring.sent(4).is_none() && ring.sent(u64::MAX).is_none());

        // Delivered everywhere and pruned with a margin of 1: 1 and 2
        // are gone, 3 is still found at its own seq.
        ring.report(0);
        assert_eq!(drain(&mut ring, 0), [1, 2, 3]);
        ring.prune(1);
        assert!((0..=2).all(|seq| ring.sent(seq).is_none()));
        assert_eq!(ring.sent(3).map(|msg| msg.seq), Some(3));
        assert!(ring.sent(4).is_none() && ring.sent(u64::MAX).is_none());
        // What is sequenced after a prune lands at its own seq, and
        // pruning everything keeps the count of seqs handed out.
        assert_eq!(sequence_more(&mut ring, 1)[0].seq, 4);
        assert_eq!(ring.sent(4).map(|msg| msg.seq), Some(4));
        ring.report(0);
        assert_eq!(drain(&mut ring, 0), [4]);
        ring.prune(0);
        assert!((0..=5).all(|seq| ring.sent(seq).is_none()));
        assert_eq!(ring.last_seq(), 4);
        assert_eq!(sequence_more(&mut ring, 1)[0].seq, 5);
        assert_eq!(ring.sent(5).map(|msg| msg.seq), Some(5));
    }

    #[test]
    fn the_buffer_is_pruned_one_generation_below_the_slowest_alive_daemon() {
        const MAX: usize = 4;
        let mut ring = Ring::new(3);
        let msgs: Vec<_> = (0..3).flat_map(|_| sequence_more(&mut ring, MAX)).collect();
        // Daemon 1 receives all twelve, daemon 2 the first ten; the aru
        // is 10 and daemons 0 and 1 deliver that far, daemon 2 only to
        // 7: it lags, in delivery and in reception.
        for msg in &msgs {
            ring.store(1, Rc::clone(msg));
        }
        for msg in &msgs[..10] {
            ring.store(2, Rc::clone(msg));
        }
        for d in 0..3 {
            ring.report(d);
        }
        assert_eq!(drain(&mut ring, 0).len(), 10);
        assert_eq!(drain(&mut ring, 1).len(), 10);
        for _ in 0..7 {
            assert!(ring.pop_stable(2).is_some());
        }
        let readings = |ring: &Ring| {
            let gaps: Vec<bool> = (0..3).map(|d| ring.has_gap(d)).collect();
            let plan: Vec<u64> = ring
                .retransmit_plan(2, 8)
                .iter()
                .map(|(m, _)| m.seq)
                .collect();
            (ring.last_seq(), gaps, ring.flushed(), plan)
        };
        let before = readings(&ring);
        assert_eq!(before, (12, vec![false, false, true], false, vec![11, 12]));

        // The floor is daemon 2's 7: at or below 7 - MAX = 3 is gone.
        ring.prune(MAX);
        assert!((1..=3).all(|seq| ring.sent(seq).is_none()));
        assert!((4..=12).all(|seq| ring.sent(seq).is_some()));
        assert_eq!(readings(&ring), before, "pruning moves nothing else");

        // Crashing the laggard lets the floor rise to 10, and its
        // window goes with it.
        assert!(ring.awaits_delivery(2, 8));
        ring.crash(2);
        assert!(!ring.awaits_delivery(2, 8));
        ring.prune(MAX);
        assert!((1..=6).all(|seq| ring.sent(seq).is_none()));
        assert!((7..=12).all(|seq| ring.sent(seq).is_some()));
        assert_eq!(ring.last_seq(), 12);
        assert!(!ring.flushed(), "daemons 0 and 1 have 11 and 12 to deliver");
    }
}
