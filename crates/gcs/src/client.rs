//! The client abstraction: what a group-member process looks like to
//! the group communication system. The context a handler runs in,
//! [`crate::ClientCtx`], is the engine's: it lends the handler the
//! world's telemetry sink, and only `engine.rs` holds one.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;

use gkap_sim::SimTime;

use crate::message::{Delivery, View};
use crate::ClientCtx;

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
    pub(crate) fn get<T: Any + Default>(&mut self) -> &mut T {
        self.0
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut()
            .expect("a slot holds the type it is keyed by")
    }
}
