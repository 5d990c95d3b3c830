//! The client abstraction: what a group-member process looks like to
//! the group communication system.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;

use bytes::Bytes;
use gkap_sim::{Duration, SimTime};

use crate::message::{Delivery, Dest, Service, View};
use crate::ClientId;

/// A group member process (in the reproduction: a key agreement
/// protocol engine).
///
/// Handlers run in virtual time. Any CPU the handler consumes must be
/// charged through [`ClientCtx::charge_cpu`]; sends are collected and
/// take effect when the charged CPU completes on the member's machine.
pub trait Client: std::any::Any {
    /// A new view was installed (membership change completed).
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View);

    /// A message addressed to this client was delivered.
    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery);

    /// Called after each handler's charged CPU has been scheduled on
    /// the member's machine, with the true completion instant (which
    /// includes core contention). Default: ignored.
    fn on_cpu_complete(&mut self, end: SimTime) {
        let _ = end;
    }
}

/// State the clients of one world share, one value per type: owned by
/// the world, lent to every handler through
/// [`ClientCtx::world_slot`], dropped with the world. The engine never
/// looks inside. What a client finds here depends only on which
/// handlers of the *same world* ran before it, so anything derived
/// from it is as deterministic as the world itself, whatever else the
/// thread has run.
#[derive(Debug, Default)]
pub(crate) struct WorldSlots(BTreeMap<TypeId, Box<dyn Any>>);

impl WorldSlots {
    fn get<T: Any + Default>(&mut self) -> &mut T {
        self.0
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut()
            .expect("a slot holds the type it is keyed by")
    }
}

/// Where a context's world slots live: in the world that runs the
/// handler, or in the context itself when there is no world.
#[derive(Debug)]
enum SlotsRef<'a> {
    World(&'a mut WorldSlots),
    Detached(WorldSlots),
}

/// Handler context: lets a client read the clock, charge CPU, send
/// messages and reach the state its world's clients share.
#[derive(Debug)]
pub struct ClientCtx<'a> {
    pub(crate) id: ClientId,
    pub(crate) now: SimTime,
    pub(crate) view_id: u64,
    pub(crate) charged: Duration,
    /// Sends, in order, as their addressees will receive them (tagged
    /// with the view the sender was in: view synchrony).
    outgoing: Vec<Delivery>,
    pub(crate) speed: f64,
    slots: SlotsRef<'a>,
}

impl<'a> ClientCtx<'a> {
    pub(crate) fn new(
        id: ClientId,
        now: SimTime,
        view_id: u64,
        speed: f64,
        slots: &'a mut WorldSlots,
    ) -> Self {
        ClientCtx::with_slots(id, now, view_id, speed, SlotsRef::World(slots))
    }

    fn with_slots(
        id: ClientId,
        now: SimTime,
        view_id: u64,
        speed: f64,
        slots: SlotsRef<'a>,
    ) -> Self {
        ClientCtx {
            id,
            now,
            view_id,
            charged: Duration::ZERO,
            outgoing: Vec::new(),
            speed,
            slots,
        }
    }

    /// A detached context for driving a [`Client`] outside the
    /// simulator — a harness that delivers views and messages itself
    /// (`gkap_core::testkit::Loopback`) or a unit test that needs
    /// precise control over view delivery. Messages sent through it
    /// are collected for [`ClientCtx::into_sent`] and go nowhere else,
    /// and its world slots start empty and end with it.
    pub fn detached(id: ClientId, now: SimTime, view_id: u64) -> Self {
        let slots = SlotsRef::Detached(WorldSlots::default());
        ClientCtx::with_slots(id, now, view_id, 1.0, slots)
    }

    /// The world's shared value of type `T`, default-constructed the
    /// first time any client of this world asks for it and dropped
    /// with the world.
    pub fn world_slot<T: Any + Default>(&mut self) -> &mut T {
        match &mut self.slots {
            SlotsRef::World(slots) => slots.get(),
            SlotsRef::Detached(slots) => slots.get(),
        }
    }

    /// The messages the handler sent, in order, as their addressees
    /// will receive them (ends the borrow of the world's slots): what
    /// the engine schedules, or a harness without a world moves itself.
    pub fn into_sent(self) -> Vec<Delivery> {
        self.outgoing
    }

    /// This client's identifier.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Current virtual time (start of this handler invocation).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Identifier of the view this handler runs in.
    pub fn view_id(&self) -> u64 {
        self.view_id
    }

    /// Charges `cost` of CPU time (at the paper's baseline machine
    /// speed) to this member. The machine's speed factor and core
    /// contention are applied by the engine.
    pub fn charge_cpu(&mut self, cost: Duration) {
        let scaled = Duration::from_millis_f64(cost.as_millis_f64() / self.speed);
        self.charged += scaled;
    }

    /// Total CPU charged so far in this handler.
    pub fn charged(&self) -> Duration {
        self.charged
    }

    fn send(&mut self, service: Service, dest: Dest, payload: Bytes) {
        self.outgoing.push(Delivery {
            sender: self.id,
            service,
            dest,
            view_id: self.view_id,
            payload,
        });
    }

    /// Sends a totally-ordered multicast to the whole view.
    pub fn multicast_agreed(&mut self, payload: impl Into<Bytes>) {
        self.send(Service::Agreed, Dest::All, payload.into());
    }

    /// Sends a totally-ordered message addressed to one member. Costs
    /// as much as a broadcast (it traverses the token ring) — see
    /// §6.2.2 of the paper.
    pub fn unicast_agreed(&mut self, to: ClientId, payload: impl Into<Bytes>) {
        self.send(Service::Agreed, Dest::One(to), payload.into());
    }

    /// Sends a cheap FIFO point-to-point message that bypasses the
    /// token ring (CKD's pairwise channels).
    pub fn unicast_fifo(&mut self, to: ClientId, payload: impl Into<Bytes>) {
        self.send(Service::Fifo, Dest::One(to), payload.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_scales_with_machine_speed() {
        let mut slots = WorldSlots::default();
        let mut ctx = ClientCtx::new(0, SimTime::ZERO, 1, 2.0, &mut slots);
        ctx.charge_cpu(Duration::from_millis(10));
        assert_eq!(ctx.charged(), Duration::from_millis(5));
        let mut slots = WorldSlots::default();
        let mut slow = ClientCtx::new(0, SimTime::ZERO, 1, 0.5, &mut slots);
        slow.charge_cpu(Duration::from_millis(10));
        assert_eq!(slow.charged(), Duration::from_millis(20));
    }

    #[test]
    fn sends_accumulate_in_order() {
        let mut ctx = ClientCtx::detached(7, SimTime::ZERO, 2);
        ctx.multicast_agreed(vec![1]);
        ctx.unicast_fifo(3, vec![2]);
        ctx.unicast_agreed(4, vec![3]);
        assert_eq!(ctx.outgoing.len(), 3);
        assert_eq!(ctx.outgoing[0].service, Service::Agreed);
        assert_eq!(ctx.outgoing[0].dest, Dest::All);
        assert_eq!(ctx.outgoing[1].service, Service::Fifo);
        assert_eq!(ctx.outgoing[1].dest, Dest::One(3));
        assert_eq!(ctx.outgoing[2].dest, Dest::One(4));
        assert_eq!(ctx.id(), 7);
        assert_eq!(ctx.view_id(), 2);
        let sent = ctx.into_sent();
        assert!(sent.iter().all(|d| d.sender == 7 && d.view_id == 2));
        assert_eq!(sent[2].payload.as_ref(), [3]);
    }

    #[test]
    fn world_slots_outlive_contexts_and_are_per_type() {
        let mut slots = WorldSlots::default();
        *ClientCtx::new(0, SimTime::ZERO, 1, 1.0, &mut slots).world_slot::<u32>() += 5;
        let mut later = ClientCtx::new(1, SimTime::ZERO, 1, 1.0, &mut slots);
        assert_eq!(*later.world_slot::<u32>(), 5, "same world, same value");
        assert_eq!(*later.world_slot::<u64>(), 0, "another type, another slot");
        // A detached context has no world: it starts empty.
        let mut lone = ClientCtx::detached(0, SimTime::ZERO, 1);
        assert_eq!(*lone.world_slot::<u32>(), 0);
    }
}
