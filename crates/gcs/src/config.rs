//! Group-communication configuration: what a workload varies
//! ([`GcsConfig`]) plus the Spread costs it does not.
//!
//! The constants are the same on both testbeds (the paper's LAN and
//! WAN differ in topology, not in daemon speed). They are calibrated so
//! that the micro-benchmarks of §6.1.1 and §6.2.1 come out of the
//! simulation rather than being charged directly; see DESIGN.md §5.

use gkap_sim::Duration;

use crate::loss::GilbertElliott;
use crate::topology::Topology;
use crate::MachineId;

/// How the wire charges a payload against [`PER_KB`] link time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireGranularity {
    /// Round every payload up to a whole kilobyte before charging
    /// (the historical model; keeps all pre-existing goldens
    /// byte-identical). A 40-byte parity shard is charged as 1024
    /// bytes.
    WholeKb,
    /// Charge by exact payload length: `PER_KB · len / 1024`, rounded
    /// up to a nanosecond. Makes small parity shards cheap in
    /// proportion to their size, so the loss sweep's
    /// overhead-vs-recovery trade-off reflects real bandwidth.
    Byte,
}

/// Daemon processing time per token visit (independent of traffic).
pub const TOKEN_PROCESSING: Duration = Duration::from_micros(10);
/// Daemon processing time per message sent or received.
pub const PER_MESSAGE_PROCESSING: Duration = Duration::from_micros(25);
/// Wire time per kilobyte of payload on any hop.
pub const PER_KB: Duration = Duration::from_micros(15);
/// One-way latency between a client and its local daemon.
pub const CLIENT_DAEMON_DELAY: Duration = Duration::from_micros(60);
/// Token rotations a membership change needs before the new view can
/// be installed (gather + agree + install).
pub const MEMBERSHIP_ROUNDS: u32 = 3;
/// Additional per-member view-installation processing at each daemon.
pub const MEMBERSHIP_PER_MEMBER: Duration = Duration::from_micros(35);
/// Maximum missing sequence numbers a daemon may request per token
/// visit during gap recovery (Spread caps the per-visit retransmission
/// batch so one lossy link cannot monopolise the token). Larger gaps
/// recover over multiple token rotations;
/// `WorldStats::retransmission_rounds` counts them.
pub const RECOVERY_BATCH: usize = 32;
/// EWMA smoothing factor of the adaptive loss estimator, in `(0, 1]`
/// (larger = more reactive). Only the decay follows it: a sample above
/// the estimate replaces it outright (fast attack).
pub const LOSS_EWMA_ALPHA: f64 = 0.2;

/// Configuration of a simulated group communication system: what a
/// workload varies — the testbed, flow control, the loss process, and
/// the recovery policy. The fixed Spread costs are the constants above.
///
/// The presets are [`crate::testbed::lan`], [`crate::testbed::wan`]
/// and [`crate::testbed::medium_wan`].
#[derive(Clone, Debug)]
pub struct GcsConfig {
    /// Physical testbed.
    pub topology: Topology,
    /// Maximum Agreed messages a daemon may send per token visit
    /// (Spread-style flow control).
    pub flow_control_max_msgs: usize,
    /// Probability that any single daemon-to-daemon copy of an Agreed
    /// message is lost in transit (0.0 = reliable links, the paper's
    /// testbeds). Lost copies are recovered by token-driven
    /// retransmission from the originating daemon.
    pub loss_rate: f64,
    /// Seed for the deterministic loss process.
    pub loss_seed: u64,
    /// Optional Gilbert–Elliott burst-loss process layered over
    /// [`GcsConfig::loss_rate`]. When set, the per-copy loss
    /// probability at any instant is the **max** of the Bernoulli base
    /// rate, the chain's per-state rate, and any active
    /// [`crate::Fault::LossBurst`] window. `None` (the default) draws
    /// nothing from the chain's RNG stream, so the engine stays
    /// byte-identical to the Bernoulli-only engine.
    pub gilbert: Option<GilbertElliott>,
    /// Whether wire time rounds payloads to whole kilobytes
    /// (the historical default) or charges exact bytes.
    pub wire_granularity: WireGranularity,
    /// How long the surviving daemons take to detect a crashed daemon
    /// and reform the ring (Totem's token-loss timeout). Until
    /// detection the token may be lost at the dead daemon; at
    /// detection the ring is reformed, the token regenerated, and the
    /// crashed daemon's clients leave via a view change.
    pub crash_detection_timeout: Duration,
    /// Parity shards appended to every token visit's fan-out
    /// generation (the messages one daemon sequences in one visit form
    /// one erasure-coding generation; see [`crate::fec`]). A receiver
    /// missing up to this many data messages of a generation
    /// reconstructs them locally instead of waiting for token-driven
    /// retransmission. `0` disables FEC entirely: the engine is then
    /// byte-identical to one built without the FEC layer.
    pub fec_parity: usize,
    /// Upper bound for the adaptive parity budget (only consulted when
    /// [`GcsConfig::fec_adaptive`] is set, but always required to be at
    /// least [`GcsConfig::fec_parity`] so the budget clamp is
    /// well-ordered).
    pub fec_parity_max: usize,
    /// When `true`, a loss estimator over the gaps daemons observe at
    /// token visits drives the per-generation parity budget between
    /// [`GcsConfig::fec_parity`] (floor) and
    /// [`GcsConfig::fec_parity_max`] (ceiling). The estimate jumps to
    /// any higher sample at once, so the budget reacts to burst onset
    /// within one token rotation, and decays by [`LOSS_EWMA_ALPHA`],
    /// which keeps parity raised across the gaps inside a burst.
    pub fec_adaptive: bool,
    /// Base delay of the per-daemon exponential retransmission
    /// backoff. `Duration::ZERO` (the default) keeps the legacy
    /// policy: a daemon with a gap requests retransmission on every
    /// token visit. A nonzero base makes successive no-progress
    /// request rounds back off exponentially (with deterministic
    /// jitter from the seeded retransmission RNG), giving an enabled
    /// FEC layer time to repair before the ring is asked to re-send.
    pub retrans_backoff: Duration,
    /// Cap on the exponentially growing backoff delay.
    pub retrans_backoff_max: Duration,
}

impl GcsConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if flow control is zero, the loss rate is not below one,
    /// a fan-out generation overflows the erasure code, the parity
    /// ceiling is below the floor, the Gilbert–Elliott chain is
    /// malformed, or the backoff cap is below its base.
    pub fn validate(&self) {
        assert!(
            self.flow_control_max_msgs > 0,
            "flow control must allow at least one message per visit"
        );
        assert!(
            (0.0..1.0).contains(&self.loss_rate),
            "loss rate must be in [0, 1)"
        );
        let parity_ceiling = self.fec_parity.max(if self.fec_adaptive {
            self.fec_parity_max
        } else {
            0
        });
        assert!(
            self.flow_control_max_msgs + parity_ceiling <= crate::fec::MAX_SHARDS,
            "a fan-out generation (flow control + parity) must fit the erasure code's field"
        );
        // Required unconditionally (not just when adaptive): the budget
        // clamp `want.clamp(fec_parity, fec_parity_max)` panics on an
        // inverted range, and a config validated non-adaptive today may
        // be re-run adaptive tomorrow.
        assert!(
            self.fec_parity_max >= self.fec_parity,
            "parity ceiling (fec_parity_max) must be at least the floor (fec_parity)"
        );
        if let Some(ge) = &self.gilbert {
            assert!(
                (0.0..1.0).contains(&ge.good_loss),
                "Gilbert-Elliott good-state loss rate must be in [0, 1)"
            );
            assert!(
                (0.0..=1.0).contains(&ge.bad_loss),
                "Gilbert-Elliott bad-state loss rate must be in [0, 1]"
            );
            assert!(
                ge.good_dwell > Duration::ZERO && ge.bad_dwell > Duration::ZERO,
                "Gilbert-Elliott dwell means must be positive"
            );
        }
        if self.retrans_backoff > gkap_sim::Duration::ZERO {
            assert!(
                self.retrans_backoff_max >= self.retrans_backoff,
                "backoff cap must be at least the base delay"
            );
        }
    }

    /// Wire time for `len` bytes of payload on any hop. Shared by
    /// data, parity and FIFO paths so coded and plain traffic are
    /// charged identically. At the default
    /// [`WireGranularity::WholeKb`] every payload rounds up to a whole
    /// kilobyte (the historical model, pinned by the engine goldens);
    /// [`WireGranularity::Byte`] charges `PER_KB · len / 1024` rounded
    /// up to a nanosecond, so a 40-byte parity shard costs ~4% of a
    /// 1 KB data message instead of 100%.
    pub(crate) fn wire_cost(&self, len: usize) -> Duration {
        match self.wire_granularity {
            WireGranularity::WholeKb => PER_KB * (len as u64).div_ceil(1024),
            WireGranularity::Byte => {
                let ns = PER_KB.as_nanos().saturating_mul(len as u64).div_ceil(1024);
                Duration::from_nanos(ns)
            }
        }
    }

    /// What one daemon-to-daemon copy of `len` payload bytes costs
    /// between two machines: link latency, wire time, and the
    /// receiver's per-message processing. A zero-length copy (a
    /// retransmission *request*) pays latency and processing only.
    pub(crate) fn hop_delay(&self, from: MachineId, to: MachineId, len: usize) -> Duration {
        self.topology.machine_latency(from, to) + self.wire_cost(len) + PER_MESSAGE_PROCESSING
    }
}

#[cfg(test)]
mod tests {
    use super::{WireGranularity, PER_KB, PER_MESSAGE_PROCESSING};
    use crate::testbed;
    use gkap_sim::Duration;

    #[test]
    fn presets_validate() {
        testbed::lan().validate();
        testbed::wan().validate();
    }

    #[test]
    #[should_panic(expected = "flow control")]
    fn zero_flow_control_rejected() {
        let mut cfg = testbed::lan();
        cfg.flow_control_max_msgs = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn full_loss_rejected() {
        let mut cfg = testbed::lan();
        cfg.loss_rate = 1.0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "erasure code")]
    fn oversized_parity_rejected() {
        let mut cfg = testbed::lan();
        cfg.fec_parity = 250; // 20 (flow control) + 250 > 256 points
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn adaptive_ceiling_below_floor_rejected() {
        let mut cfg = testbed::lan();
        cfg.fec_adaptive = true;
        cfg.fec_parity = 3;
        cfg.fec_parity_max = 1;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "ceiling")]
    fn non_adaptive_ceiling_below_floor_rejected() {
        // Pins the clamp-panic bugfix: `parity_budget` clamps between
        // floor and ceiling, so an inverted range must be rejected even
        // when the config is validated with adaptivity off.
        let mut cfg = testbed::lan();
        cfg.fec_adaptive = false;
        cfg.fec_parity = 6; // lan() ceiling defaults to 4
        cfg.validate();
    }

    #[test]
    fn gilbert_elliott_accepted_when_well_formed() {
        let mut cfg = testbed::lan();
        cfg.gilbert = Some(crate::GilbertElliott {
            good_loss: 0.0,
            bad_loss: 0.8,
            good_dwell: gkap_sim::Duration::from_millis(9),
            bad_dwell: gkap_sim::Duration::from_millis(1),
            seed: 7,
        });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "bad-state loss")]
    fn gilbert_elliott_overfull_bad_loss_rejected() {
        let mut cfg = testbed::lan();
        cfg.gilbert = Some(crate::GilbertElliott {
            good_loss: 0.0,
            bad_loss: 1.5,
            good_dwell: gkap_sim::Duration::from_millis(9),
            bad_dwell: gkap_sim::Duration::from_millis(1),
            seed: 7,
        });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "dwell")]
    fn gilbert_elliott_zero_dwell_rejected() {
        let mut cfg = testbed::lan();
        cfg.gilbert = Some(crate::GilbertElliott {
            good_loss: 0.0,
            bad_loss: 0.5,
            good_dwell: gkap_sim::Duration::ZERO,
            bad_dwell: gkap_sim::Duration::from_millis(1),
            seed: 7,
        });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "backoff cap")]
    fn backoff_cap_below_base_rejected() {
        let mut cfg = testbed::lan();
        cfg.retrans_backoff = gkap_sim::Duration::from_millis(10);
        cfg.retrans_backoff_max = gkap_sim::Duration::from_millis(1);
        cfg.validate();
    }

    #[test]
    fn byte_granularity_charges_exact_sizes() {
        let mut cfg = testbed::lan();
        assert_eq!(PER_KB, Duration::from_micros(15));
        // Historical default: everything rounds up to a whole KB.
        assert_eq!(cfg.wire_cost(40), Duration::from_micros(15));
        assert_eq!(cfg.wire_cost(1024), Duration::from_micros(15));
        assert_eq!(cfg.wire_cost(1025), Duration::from_micros(30));
        cfg.wire_granularity = WireGranularity::Byte;
        // Byte mode: proportional, rounded up to a nanosecond.
        assert_eq!(
            cfg.wire_cost(40),
            Duration::from_nanos((15_000u64 * 40).div_ceil(1024))
        );
        assert_eq!(cfg.wire_cost(1024), Duration::from_micros(15));
        assert_eq!(cfg.wire_cost(0), Duration::ZERO);
        // 2048 bytes costs exactly two KB worth in both modes.
        assert_eq!(cfg.wire_cost(2048), Duration::from_micros(30));
    }

    #[test]
    fn hop_delay_is_the_formulas_it_replaced() {
        // The engine used to spell these out per call site: a data
        // copy, a re-sent copy, a parity shard and a FIFO message
        // (latency + wire + processing), and a retransmission request
        // (latency + processing, nothing on the wire).
        for granularity in [WireGranularity::WholeKb, WireGranularity::Byte] {
            let mut cfg = testbed::wan();
            cfg.wire_granularity = granularity;
            let far = cfg.topology.machine_count() - 1;
            for (from, to) in [(0, 0), (0, 1), (0, far), (far, 1)] {
                let latency = cfg.topology.machine_latency(from, to);
                for len in [40, 1024, 1500] {
                    let copy = latency + cfg.wire_cost(len) + PER_MESSAGE_PROCESSING;
                    assert_eq!(cfg.hop_delay(from, to, len), copy);
                }
                let request = latency + PER_MESSAGE_PROCESSING;
                assert_eq!(cfg.hop_delay(from, to, 0), request);
            }
        }
    }
}
