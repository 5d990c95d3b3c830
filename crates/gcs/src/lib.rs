//! A simulated Spread-like group communication system.
//!
//! The paper integrates its key agreement protocols with the Spread
//! toolkit: a daemon/client architecture in which daemons — one per
//! machine — run a token-based total-ordering protocol (in the style of
//! Totem/Ring), and client processes connect to their local daemon. The
//! experiments could not be reproduced on the original 13-machine
//! LAN + three-continent WAN testbed, so this crate rebuilds the
//! *mechanisms* that the paper identifies as performance-decisive, in a
//! deterministic discrete-event simulation:
//!
//! * **Token-ring Agreed (total-order) multicast** with an
//!   all-received-up-to (aru) stability rule: a message becomes
//!   deliverable at a daemon only once the token has carried proof that
//!   every daemon holds every earlier message. This single mechanism
//!   yields both the paper's ≈1.3 ms LAN Agreed-multicast cost and its
//!   ≈305–335 ms WAN cost (depending on sender site), and the paper's
//!   footnote-10 observation that a missed token costs a full rotation.
//! * **Flow control**: a daemon may send at most a configured number of
//!   messages per token visit, which is what makes the all-to-all
//!   broadcast rounds of BD degrade super-linearly at large group sizes.
//! * **View-synchronous membership**: join/leave/partition/merge events
//!   trigger a membership round lasting a fixed number of token
//!   rotations ([`config::MEMBERSHIP_ROUNDS`]), after which each daemon installs the new view as the
//!   token passes — membership is nearly free on a LAN and costs
//!   hundreds of milliseconds on the WAN, exactly as §6.1.1/§6.2.1
//!   report.
//! * **Unicast service**: point-to-point FIFO messages bypass the token
//!   (CKD's pairwise channels), while *Agreed-ordered* "unicasts"
//!   (GDH's factor-out tokens) pay full broadcast cost — the effect the
//!   paper highlights in §6.2.2.
//! * **CPU contention**: clients are distributed over machines with a
//!   fixed core count ([`gkap_sim::CpuScheduler`]); multiple members
//!   per dual-processor machine serialize, reproducing BD's cost
//!   doubling at group sizes crossing multiples of 13.
//!
//! The [`testbed`] module provides the paper's two configurations: the
//! 13-machine LAN cluster and the JHU/UCI/ICU WAN (Figure 13).
//!
//! # Example
//!
//! ```
//! use gkap_gcs::{testbed, Client, ClientCtx, Delivery, SimWorld, View};
//! use gkap_sim::Duration;
//!
//! /// A client that multicasts one "hello" when a view arrives.
//! struct Hello { got: usize }
//! impl Client for Hello {
//!     fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
//!         ctx.multicast_agreed(vec![1, 2, 3]);
//!     }
//!     fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut world = SimWorld::new(testbed::lan());
//! for _ in 0..3 {
//!     world.add_client(Box::new(Hello { got: 0 }));
//! }
//! world.install_initial_view();
//! world.run_until_quiescent();
//! // Every member received every member's hello (including its own).
//! for i in 0..3 {
//!     assert_eq!(world.client::<Hello>(i).got, 3);
//! }
//! ```

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod config;
mod engine;
mod fault;
pub mod fec;
pub mod loss;
mod membership;
mod message;
mod recovery;
mod ring;
mod shard;
mod stats;
pub mod testbed;
mod topology;

#[cfg(test)]
#[path = "../tests/support/mutate.rs"]
mod mutate;

pub use client::Client;
pub use config::{GcsConfig, WireGranularity};
pub use engine::{ClientCtx, SimWorld};
pub use fault::{Fault, FaultPlan, PlannedFault};
pub use loss::GilbertElliott;
pub use message::{Delivery, Dest, Service, View, ViewId};
pub use shard::ShardedWorld;
pub use stats::WorldStats;
pub use topology::{MachineCfg, SiteCfg, Topology};

/// Client (group member process) identifier: index into the world's
/// client table. Stable for the lifetime of a simulation.
pub type ClientId = usize;

/// Daemon identifier (one daemon per machine).
pub type DaemonId = usize;

/// Group identifier: one daemon ring can carry many independent
/// lightweight groups (per-group view state over a shared token and
/// link model). Single-group worlds use group `0` throughout.
pub type GroupId = usize;

/// Machine identifier.
pub type MachineId = usize;

/// Site (network location) identifier.
pub type SiteId = usize;
