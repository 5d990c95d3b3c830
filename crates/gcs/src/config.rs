//! Group-communication configuration: topology plus protocol constants.

use gkap_sim::Duration;

use crate::loss::GilbertElliott;
use crate::topology::Topology;
use crate::MachineId;

/// How the wire charges a payload against `per_kb` link time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireGranularity {
    /// Round every payload up to a whole kilobyte before charging
    /// (the historical model; keeps all pre-existing goldens
    /// byte-identical). A 40-byte parity shard is charged as 1024
    /// bytes.
    WholeKb,
    /// Charge by exact payload length: `per_kb · len / 1024`, rounded
    /// up to a nanosecond. Makes small parity shards cheap in
    /// proportion to their size, so the loss sweep's
    /// overhead-vs-recovery trade-off reflects real bandwidth.
    Byte,
}

/// Full configuration of a simulated group communication system.
///
/// The defaults (via [`crate::testbed::lan`] / [`crate::testbed::wan`])
/// are calibrated so that the micro-benchmarks of §6.1.1 and §6.2.1 of
/// the paper come out of the simulation, rather than being charged
/// directly; see DESIGN.md §5.
#[derive(Clone, Debug)]
pub struct GcsConfig {
    /// Physical testbed.
    pub topology: Topology,
    /// Daemon processing time per token visit (independent of traffic).
    pub token_processing: Duration,
    /// Daemon processing time per message sent or received.
    pub per_message_processing: Duration,
    /// Wire time per kilobyte of payload on any hop.
    pub per_kb: Duration,
    /// One-way latency between a client and its local daemon.
    pub client_daemon_delay: Duration,
    /// Maximum Agreed messages a daemon may send per token visit
    /// (Spread-style flow control).
    pub flow_control_max_msgs: usize,
    /// Token rotations a membership change needs before the new view
    /// can be installed (gather + agree + install).
    pub membership_rounds: u32,
    /// Additional per-member view-installation processing at each
    /// daemon.
    pub membership_per_member: Duration,
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
    /// Maximum missing sequence numbers a daemon may request per token
    /// visit during gap recovery (Spread caps the per-visit
    /// retransmission batch so one lossy link cannot monopolise the
    /// token). Larger gaps recover over multiple token rotations;
    /// `WorldStats::retransmission_rounds` counts them.
    pub recovery_batch: usize,
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
    /// When `true`, an EWMA loss estimator over the gaps daemons
    /// observe at token visits drives the per-generation parity budget
    /// between [`GcsConfig::fec_parity`] (floor) and
    /// [`GcsConfig::fec_parity_max`] (ceiling).
    pub fec_adaptive: bool,
    /// EWMA smoothing factor for the adaptive loss estimator, in
    /// `(0, 1]` (larger = more reactive).
    pub loss_ewma_alpha: f64,
    /// Fast-attack mode for the adaptive loss estimator: when a fresh
    /// loss sample *exceeds* a daemon's current estimate, jump the
    /// estimate straight to the sample instead of blending it in, so
    /// the parity budget reacts to burst onset within one token
    /// rotation. Decay back down still follows the EWMA (slow-decay),
    /// which keeps parity raised across the gaps inside a burst.
    /// Only consulted when [`GcsConfig::fec_adaptive`] is set.
    pub fec_fast_attack: bool,
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
    /// Consecutive no-progress retransmission rounds after which the
    /// requesting daemon gives up on the unreachable origin and
    /// escalates to a ring reformation (the crash-detection machinery
    /// excludes the origin and recovers its messages from the
    /// surviving buffers). `0` (the default) never escalates.
    pub retrans_give_up: u32,
}

impl GcsConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if flow control is zero or membership rounds is zero.
    pub fn validate(&self) {
        assert!(
            self.flow_control_max_msgs > 0,
            "flow control must allow at least one message per visit"
        );
        assert!(
            self.membership_rounds > 0,
            "membership needs at least one round"
        );
        assert!(
            (0.0..1.0).contains(&self.loss_rate),
            "loss rate must be in [0, 1)"
        );
        assert!(
            self.recovery_batch > 0,
            "recovery batch must allow at least one retransmission per visit"
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
        if self.fec_adaptive {
            assert!(
                (0.0..=1.0).contains(&self.loss_ewma_alpha) && self.loss_ewma_alpha > 0.0,
                "EWMA smoothing factor must be in (0, 1]"
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
    /// [`WireGranularity::Byte`] charges `per_kb · len / 1024` rounded
    /// up to a nanosecond, so a 40-byte parity shard costs ~4% of a
    /// 1 KB data message instead of 100%.
    pub(crate) fn wire_cost(&self, len: usize) -> Duration {
        match self.wire_granularity {
            WireGranularity::WholeKb => self.per_kb * (len as u64).div_ceil(1024),
            WireGranularity::Byte => {
                let ns = self
                    .per_kb
                    .as_nanos()
                    .saturating_mul(len as u64)
                    .div_ceil(1024);
                Duration::from_nanos(ns)
            }
        }
    }

    /// What one daemon-to-daemon copy of `len` payload bytes costs
    /// between two machines: link latency, wire time, and the
    /// receiver's per-message processing. A zero-length copy (a
    /// retransmission *request*) pays latency and processing only.
    pub(crate) fn hop_delay(&self, from: MachineId, to: MachineId, len: usize) -> Duration {
        self.topology.machine_latency(from, to) + self.wire_cost(len) + self.per_message_processing
    }
}

#[cfg(test)]
mod tests {
    use super::WireGranularity;
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
        assert_eq!(cfg.per_kb, Duration::from_micros(15));
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
                    let copy = latency + cfg.wire_cost(len) + cfg.per_message_processing;
                    assert_eq!(cfg.hop_delay(from, to, len), copy);
                }
                let request = latency + cfg.per_message_processing;
                assert_eq!(cfg.hop_delay(from, to, 0), request);
            }
        }
    }
}
