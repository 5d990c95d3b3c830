//! Counters a world accumulates across a run.

/// Counters the engine accumulates across a run.
#[derive(Clone, Debug, Default)]
pub struct WorldStats {
    /// Agreed messages sequenced through the token ring.
    pub agreed_messages: u64,
    /// FIFO messages sent outside the ring.
    pub fifo_messages: u64,
    /// Completed token rotations.
    pub token_rotations: u64,
    /// Views installed (cluster-wide installs, not per daemon).
    pub views_installed: u64,
    /// Total payload bytes submitted.
    pub payload_bytes: u64,
    /// Daemon-to-daemon message copies lost in transit.
    pub messages_lost: u64,
    /// Retransmissions performed to recover losses.
    pub retransmissions: u64,
    /// Token visits on which a daemon issued at least one
    /// retransmission request (a gap wider than
    /// [`crate::config::RECOVERY_BATCH`] needs several rounds).
    pub retransmission_rounds: u64,
    /// Daemons crashed via fault injection.
    pub daemon_crashes: u64,
    /// Ring reformations performed after crash detection.
    pub ring_reformations: u64,
    /// Parity shard copies dispatched by FEC-coded fan-out generations
    /// (`per-shard × per-peer`, counted whether or not the copy
    /// survives the loss process).
    pub parity_shards_sent: u64,
    /// Data messages reconstructed locally from parity shards by the
    /// FEC layer, without a retransmission round trip.
    pub fec_repairs: u64,
    /// Virtual nanoseconds of completed loss-recovery windows closed
    /// by FEC repair: for every lost copy later reconstructed from
    /// parity, the span from the loss instant to the reconstruction.
    pub fec_repair_recovery_ns: u64,
    /// Virtual nanoseconds of completed loss-recovery windows closed
    /// by retransmission: for every lost copy later recovered by a
    /// re-sent copy, the span from the loss instant to the arrival.
    pub retransmission_recovery_ns: u64,
    /// Parity payload bytes dispatched by FEC-coded fan-out
    /// (`per-shard body × per-peer`, counted whether or not the copy
    /// survives the loss process): the FEC layer's bandwidth overhead,
    /// distinct from the shard *count* in
    /// [`WorldStats::parity_shards_sent`].
    pub parity_bytes_sent: u64,
}

impl WorldStats {
    /// Adds every counter of `other` into `self` (the totals of a
    /// sharded world). The destructuring is exhaustive on purpose: a
    /// new field is a compile error here, not a counter that silently
    /// reads zero on a sharded run.
    pub fn merge(&mut self, other: &WorldStats) {
        let WorldStats {
            agreed_messages,
            fifo_messages,
            token_rotations,
            views_installed,
            payload_bytes,
            messages_lost,
            retransmissions,
            retransmission_rounds,
            daemon_crashes,
            ring_reformations,
            parity_shards_sent,
            fec_repairs,
            fec_repair_recovery_ns,
            retransmission_recovery_ns,
            parity_bytes_sent,
        } = other;
        self.agreed_messages += agreed_messages;
        self.fifo_messages += fifo_messages;
        self.token_rotations += token_rotations;
        self.views_installed += views_installed;
        self.payload_bytes += payload_bytes;
        self.messages_lost += messages_lost;
        self.retransmissions += retransmissions;
        self.retransmission_rounds += retransmission_rounds;
        self.daemon_crashes += daemon_crashes;
        self.ring_reformations += ring_reformations;
        self.parity_shards_sent += parity_shards_sent;
        self.fec_repairs += fec_repairs;
        self.fec_repair_recovery_ns += fec_repair_recovery_ns;
        self.retransmission_recovery_ns += retransmission_recovery_ns;
        self.parity_bytes_sent += parity_bytes_sent;
    }

    /// Total completed loss-recovery time in virtual nanoseconds. By
    /// construction exactly the sum of the FEC-repair and
    /// retransmission attributions: every lost copy's recovery window
    /// is closed by exactly one of the two mechanisms.
    pub fn recovery_ns(&self) -> u64 {
        self.fec_repair_recovery_ns + self.retransmission_recovery_ns
    }
}
