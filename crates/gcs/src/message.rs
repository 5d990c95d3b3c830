//! Message and view types delivered to clients.

use bytes::Bytes;
use gkap_telemetry::Label;

use crate::{ClientId, GroupId};

/// Delivery service class, mirroring Spread's service levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Service {
    /// Totally-ordered (Agreed) delivery through the token ring. All
    /// members deliver all Agreed messages in the same order. Expensive
    /// on a WAN (token wait + stability rotation).
    Agreed,
    /// FIFO point-to-point or multicast delivery that bypasses the
    /// token: cheap, but unordered relative to Agreed traffic. Used for
    /// CKD's pairwise channel messages.
    Fifo,
}

impl Service {
    /// Stable lowercase label (the telemetry `service` field).
    pub fn label(self) -> Label {
        match self {
            Service::Agreed => Label::new(&"agreed"),
            Service::Fifo => Label::new(&"fifo"),
        }
    }
}

/// Message destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Every member of the current view (a multicast).
    All,
    /// A single member. Note that an Agreed unicast still traverses the
    /// token ring and costs as much as a broadcast (§6.2.2 of the
    /// paper) — only the final delivery is filtered.
    One(ClientId),
}

impl Dest {
    /// Stable wire encoding as a `(tag, target)` pair for the FEC
    /// record codec: `All` ↔ `(0, 0)`, `One(c)` ↔ `(1, c)`.
    pub(crate) fn to_wire(self) -> (u8, u64) {
        match self {
            Dest::All => (0, 0),
            Dest::One(c) => (1, c as u64),
        }
    }

    /// Inverse of [`Dest::to_wire`]; `None` for an unknown tag (a
    /// corrupt record must fail decode, not panic).
    pub(crate) fn from_wire(tag: u8, target: u64) -> Option<Dest> {
        match tag {
            0 => Some(Dest::All),
            1 => Some(Dest::One(target as usize)),
            _ => None,
        }
    }
}

/// A view identifier; increases with every membership change.
pub type ViewId = u64;

/// A membership view, as installed by the view-synchronous membership
/// service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotonically increasing view number. View ids are unique
    /// across the whole world (all groups share one counter), so a
    /// view id alone identifies an epoch.
    pub id: ViewId,
    /// The group this view belongs to. Worlds that never ask for more
    /// than one group see only group `0`.
    pub group: GroupId,
    /// Current members, in daemon/ring order (the order Spread reports;
    /// the protocols use it to pick controllers and sponsors).
    pub members: Vec<ClientId>,
    /// Members that joined relative to the previous view.
    pub joined: Vec<ClientId>,
    /// Members that left relative to the previous view.
    pub left: Vec<ClientId>,
}

impl View {
    /// Number of members in the view.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether `c` is a member of this view.
    pub fn contains(&self, c: ClientId) -> bool {
        self.members.contains(&c)
    }

    /// The position of `c` in the view order, if present.
    pub fn position(&self, c: ClientId) -> Option<usize> {
        self.members.iter().position(|&m| m == c)
    }
}

/// A message as delivered to a client.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The sending member.
    pub sender: ClientId,
    /// Service class the message was sent with.
    pub service: Service,
    /// Destination as specified by the sender.
    pub dest: Dest,
    /// View in which the message was sent (epoch tag; protocols discard
    /// messages from superseded views).
    pub view_id: ViewId,
    /// Application payload.
    pub payload: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_wire_roundtrip() {
        for d in [Dest::All, Dest::One(0), Dest::One(42)] {
            let (tag, target) = d.to_wire();
            assert_eq!(Dest::from_wire(tag, target), Some(d));
        }
        assert_eq!(Dest::from_wire(2, 0), None, "unknown tag fails decode");
    }

    #[test]
    fn view_membership_queries() {
        let v = View {
            id: 3,
            group: 0,
            members: vec![10, 20, 30],
            joined: vec![30],
            left: vec![],
        };
        assert_eq!(v.size(), 3);
        assert!(v.contains(20));
        assert!(!v.contains(40));
        assert_eq!(v.position(30), Some(2));
        assert_eq!(v.position(99), None);
    }
}
