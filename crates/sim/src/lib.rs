//! Discrete-event simulation core for the Secure Spread reproduction.
//!
//! The paper measured wall-clock time on a 13-machine cluster and a
//! three-site WAN. This crate supplies the machinery to reproduce those
//! measurements deterministically in *virtual time*:
//!
//! * [`SimTime`] / [`Duration`] — nanosecond-resolution virtual clock
//!   values (integers, so runs are exactly reproducible).
//! * [`EventQueue`] — the classic discrete-event loop: schedule events
//!   in the future, pop them in time order.
//! * [`CpuScheduler`] — per-machine multi-core FCFS processor model.
//!   The paper's testbed machines were dual-processor PCs, and several
//!   group members share one machine; CPU contention is what makes the
//!   BD protocol's cost "roughly double as the group size grows in
//!   increments of 13" (§6.1.3). This model reproduces that effect.
//! * [`stats`] — summary statistics and series containers for the
//!   experiment harness.
//!
//! # Example
//!
//! ```
//! use gkap_sim::{Duration, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Duration::from_millis(5), "world");
//! q.schedule(Duration::from_millis(1), "hello");
//! let (t1, e1) = q.pop().unwrap();
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((e1, e2), ("hello", "world"));
//! assert!(t1 < t2);
//! ```

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod queue;
pub mod stats;
mod time;

pub use cpu::{CpuRun, CpuScheduler};
pub use queue::EventQueue;
pub use time::{Duration, SimTime};

pub use gkap_bignum::{RandomSource, SplitMix64};
