//! Gap recovery policy: what a daemon does about copies that did not
//! arrive.
//!
//! [`Recovery`] owns the recovery-window ledger (when each missing
//! copy was first lost), the per-origin EWMA loss estimate and the
//! parity budget that follows it, each daemon's retransmission-backoff
//! state machine with its jitter RNG stream, and the FEC receive side:
//! buffered parity per incomplete generation and the record codec. It
//! is handed the instant, the daemon, the configuration and (for
//! repair) read access to the [`Ring`]'s store, and returns a decision
//! — a [`GapAction`], a parity budget, the reconstructed messages. It
//! never sees the event queue or a client.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use gkap_sim::{Duration, RandomSource, SimTime, SplitMix64};

use crate::config::{GcsConfig, LOSS_EWMA_ALPHA};
use crate::fec;
use crate::message::{Delivery, Dest, Service};
use crate::ring::{Ring, WireMsg};
use crate::{ClientId, DaemonId};

/// One parity shard of a FEC-coded fan-out generation (the messages a
/// daemon sequences within one token visit form one erasure-coding
/// generation; see [`crate::fec`]).
#[derive(Debug)]
pub(crate) struct ParityShard {
    /// First sequence number of the generation.
    pub first_seq: u64,
    /// Number of data messages in the generation.
    pub k: usize,
    /// Global shard index within the generation (`k..k + r` for the
    /// parity rows, as [`crate::fec::encode`] numbers them).
    pub index: usize,
    /// Coded bytes (the generation's maximum record length).
    pub body: Vec<u8>,
}

/// Per-daemon adaptive retransmission state (exponential backoff with
/// jitter; only consulted when [`GcsConfig::retrans_backoff`] is
/// nonzero).
#[derive(Default)]
struct Backoff {
    /// Earliest instant the next request round may fire.
    next_at: SimTime,
    /// Backoff exponent: consecutive request rounds without progress.
    level: u32,
    /// `contiguous` as of the last arm/request (`None` when no episode
    /// is open); progress past it resets the backoff.
    awaiting_since: Option<u64>,
}

/// What a daemon that observes a gap at its token visit does now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GapAction {
    /// A fresh gap: a window was armed, nothing is requested yet.
    Arm,
    /// The armed window has not elapsed.
    Wait,
    /// Request retransmission of the missing messages.
    Request,
}

/// Loss-recovery state of one world.
pub(crate) struct Recovery {
    /// Loss instants of copies not yet recovered, keyed by
    /// `(destination daemon, seq)`. First loss wins (a re-lost
    /// retransmission keeps the original instant).
    lost_at: BTreeMap<(DaemonId, u64), SimTime>,
    /// Per-origin EWMA loss estimates over the gaps each daemon
    /// observes at its token visits.
    loss_ewma: BTreeMap<DaemonId, f64>,
    backoff: BTreeMap<DaemonId, Backoff>,
    /// Backoff jitter draws from its own stream, so enabling backoff
    /// never perturbs the loss draws.
    jitter_rng: SplitMix64,
    /// Parity shards (by shard index) a daemon has buffered for a
    /// generation it has not fully received, keyed by `(daemon, first
    /// seq of the generation)`. Empty whenever FEC is disabled.
    fec_buf: BTreeMap<(DaemonId, u64), BTreeMap<usize, Rc<ParityShard>>>,
}

impl Recovery {
    pub(crate) fn new(cfg: &GcsConfig) -> Self {
        Recovery {
            lost_at: BTreeMap::new(),
            loss_ewma: BTreeMap::new(),
            backoff: BTreeMap::new(),
            // Golden-ratio tweak: a fixed, documented offset giving the
            // jitter stream its own deterministic seed.
            jitter_rng: SplitMix64::new(cfg.loss_seed ^ 0x9E37_79B9_7F4A_7C15),
            fec_buf: BTreeMap::new(),
        }
    }

    /// The first transmission of `seq` to `daemon` was lost at `now`:
    /// its recovery window opens (unless it already is open).
    pub(crate) fn lost(&mut self, daemon: DaemonId, seq: u64, now: SimTime) {
        self.lost_at.entry((daemon, seq)).or_insert(now);
    }

    /// `daemon` obtained `seq` at `now`: closes the copy's recovery
    /// window, if one is open, and returns how long it was. Every lost
    /// copy's window is closed exactly once.
    pub(crate) fn settle(&mut self, daemon: DaemonId, seq: u64, now: SimTime) -> Option<Duration> {
        self.lost_at.remove(&(daemon, seq)).map(|t0| now.since(t0))
    }

    /// `daemon` crashed: the windows owed to it will never close (only
    /// completed recoveries are attributed) and its parity is gone.
    pub(crate) fn forget(&mut self, daemon: DaemonId) {
        self.lost_at.retain(|&(d, _), _| d != daemon);
        self.fec_buf.retain(|&(d, _), _| d != daemon);
    }

    /// Folds the gap fraction `daemon` observes at a token visit into
    /// *its own* loss estimate. In-flight messages count as missing,
    /// which makes the estimator conservative — it over-provisions
    /// parity rather than under.
    ///
    /// A sample that *raises* the estimate replaces it outright (fast
    /// attack): the very first token visit inside a burst pushes the
    /// estimate to the observed loss fraction, so the parity budget
    /// reacts within one rotation. Decay back down follows the EWMA,
    /// keeping parity raised across the quiet gaps inside a burst.
    pub(crate) fn observe_gap(&mut self, daemon: DaemonId, sample: f64) {
        let estimate = self.loss_ewma.entry(daemon).or_insert(0.0);
        *estimate = folded(*estimate, sample);
    }

    /// `visits` consecutive gap-free token visits of `daemon` at once:
    /// what that many [`Recovery::observe_gap`] calls with a zero
    /// sample leave. The estimate is decayed step by step (so it is
    /// the stepped value bit for bit) until the steps run out or one
    /// stops moving it: at zero, or on a subnormal that `1 - alpha`
    /// rounds back to itself.
    pub(crate) fn observe_clean_visits(&mut self, daemon: DaemonId, visits: u64) {
        let estimate = self.loss_ewma.entry(daemon).or_insert(0.0);
        for _ in 0..visits {
            let next = folded(*estimate, 0.0);
            if next == *estimate {
                break;
            }
            *estimate = next;
        }
    }

    /// Parity shards to append to a generation of `k` data messages:
    /// the configured floor, or — under the adaptive controller — the
    /// worst per-origin estimate among `alive` daemons, scaled to the
    /// expected losses per generation (doubled for headroom) and
    /// clamped to `[fec_parity, fec_parity_max]`. The worst origin
    /// governs because parity fans out to every peer: covering the
    /// lossiest link covers them all (a single global average diluted
    /// one lossy link among seven clean peers 8×). Always capped so
    /// `k + r` fits the code's field.
    pub(crate) fn parity_budget(
        &self,
        cfg: &GcsConfig,
        k: usize,
        alive: impl Fn(DaemonId) -> bool,
    ) -> usize {
        let r = if cfg.fec_adaptive {
            let worst = self
                .loss_ewma
                .iter()
                .filter(|(d, _)| alive(**d))
                .map(|(_, e)| *e)
                .fold(0.0_f64, f64::max);
            let want = (worst * 2.0 * k as f64).ceil() as usize;
            // `validate()` guarantees floor <= ceiling; `max` keeps the
            // clamp well-ordered even against a hand-mutated config.
            want.clamp(cfg.fec_parity, cfg.fec_parity_max.max(cfg.fec_parity))
        } else {
            cfg.fec_parity
        };
        r.min(fec::MAX_SHARDS.saturating_sub(k))
    }

    /// The backoff policy for a `daemon` that sees a gap at `now` with
    /// its contiguous mark at `contiguous`.
    ///
    /// With a zero backoff base the legacy policy holds — request on
    /// every token visit — and nothing is drawn or remembered, keeping
    /// the engine byte-identical to the pre-backoff one. With a
    /// non-zero base a *fresh* gap first arms one window without
    /// requesting, so a run whose parity budget covers its losses
    /// spends **zero** request rounds. Only a gap that survives the
    /// window costs a round; every further no-progress round doubles
    /// the window (capped). Progress since the last arm/request ends
    /// the episode: the still-open gap (residual or newly lost) is a
    /// fresh one and re-arms.
    pub(crate) fn on_gap(
        &mut self,
        cfg: &GcsConfig,
        daemon: DaemonId,
        now: SimTime,
        contiguous: u64,
    ) -> GapAction {
        if cfg.retrans_backoff == Duration::ZERO {
            return GapAction::Request;
        }
        let st = self.backoff.entry(daemon).or_default();
        if st.awaiting_since.is_some_and(|prev| contiguous > prev) {
            *st = Backoff::default();
        }
        if st.awaiting_since.is_none() {
            st.awaiting_since = Some(contiguous);
            st.next_at = now + jittered_backoff(&mut self.jitter_rng, cfg, 0);
            return GapAction::Arm;
        }
        if now < st.next_at {
            return GapAction::Wait;
        }
        // A full window elapsed with no progress: spend a round.
        st.level = (st.level + 1).min(16);
        st.awaiting_since = Some(contiguous);
        st.next_at = now + jittered_backoff(&mut self.jitter_rng, cfg, st.level);
        GapAction::Request
    }

    /// `daemon` received a parity shard of a generation it does not
    /// fully hold yet.
    pub(crate) fn buffer_shard(&mut self, daemon: DaemonId, shard: Rc<ParityShard>) {
        let generation = self.fec_buf.entry((daemon, shard.first_seq)).or_default();
        generation.insert(shard.index, shard);
    }

    /// The generation (by first seq) containing `seq` that `daemon`
    /// has parity buffered for.
    pub(crate) fn buffered_generation_of(&self, daemon: DaemonId, seq: u64) -> Option<u64> {
        let upto = self.fec_buf.range((daemon, 0)..=(daemon, seq));
        upto.map(|(&(_, first), shards)| (first, shards))
            .find(|(first, shards)| shards.values().any(|s| seq < first + s.k as u64))
            .map(|(first, _)| first)
    }

    /// Attempts to decode generation `first` at `daemon` from the data
    /// messages it holds in `ring` plus its buffered parity shards.
    /// Returns the reconstructed messages and drops the buffer — also
    /// when the generation turns out complete with nothing to repair.
    /// While not yet decodable, or if a reconstructed record is
    /// malformed, the buffer stays (retransmission covers the gap) and
    /// nothing is returned.
    pub(crate) fn try_repair(&mut self, daemon: DaemonId, first: u64, ring: &Ring) -> Vec<WireMsg> {
        let repaired = self
            .fec_buf
            .get(&(daemon, first))
            .and_then(|shards| decode_generation(shards, daemon, first, ring));
        if repaired.is_some() {
            self.fec_buf.remove(&(daemon, first));
        }
        repaired.unwrap_or_default()
    }
}

/// A loss estimate after one more `sample`: the EWMA blend, or the
/// sample itself when that is higher (fast attack).
fn folded(estimate: f64, sample: f64) -> f64 {
    let a = LOSS_EWMA_ALPHA;
    (a * sample + (1.0 - a) * estimate).max(sample)
}

/// One backoff window at the given exponential level: the full
/// window is `base << level` capped at the configured maximum, then
/// deterministic jitter into `[full/2, full]` (decorrelates the ring's
/// request rounds).
fn jittered_backoff(rng: &mut SplitMix64, cfg: &GcsConfig, level: u32) -> Duration {
    let full = cfg
        .retrans_backoff
        .as_nanos()
        .saturating_mul(1u64 << level.min(63))
        .min(cfg.retrans_backoff_max.as_nanos())
        .max(1);
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let half = full / 2;
    Duration::from_nanos(half + ((full - half) as f64 * u) as u64)
}

/// Encodes one token visit's generation into its `r` parity shards.
pub(crate) fn encode_parity(generation: &[Rc<WireMsg>], r: usize) -> Vec<ParityShard> {
    let Some(first_seq) = generation.first().map(|m| m.seq) else {
        return Vec::new();
    };
    let records: Vec<Vec<u8>> = generation.iter().map(|m| encode_record(m)).collect();
    let k = generation.len();
    fec::encode(&records, r)
        .unwrap_or_default()
        .into_iter()
        .enumerate()
        .map(|(j, body)| ParityShard {
            first_seq,
            k,
            index: k + j,
            body,
        })
        .collect()
}

/// The missing messages of a buffered generation, or `None` while it
/// cannot be decoded.
fn decode_generation(
    shards: &BTreeMap<usize, Rc<ParityShard>>,
    daemon: DaemonId,
    first: u64,
    ring: &Ring,
) -> Option<Vec<WireMsg>> {
    let k = shards.values().next()?.k;
    let seqs = first..first + k as u64;
    let missing: Vec<u64> = seqs.clone().filter(|&s| !ring.holds(daemon, s)).collect();
    if missing.is_empty() {
        return Some(Vec::new());
    }
    if shards.len() < missing.len() {
        return None;
    }
    // Re-serialize the data records the daemon holds (their content is
    // identical to the origin's encoding input), pad to the
    // generation's record length, add the parity rows, and interpolate
    // the missing points.
    let body_len = shards.values().map(|s| s.body.len()).max().unwrap_or(0);
    let mut have: Vec<(usize, Vec<u8>)> = Vec::new();
    for (i, s) in seqs.enumerate() {
        if !ring.holds(daemon, s) {
            continue;
        }
        let Some(msg) = ring.sent(s) else {
            continue;
        };
        let mut rec = encode_record(msg);
        if rec.len() < body_len {
            rec.resize(body_len, 0);
        }
        have.push((i, rec));
    }
    for (&idx, shard) in shards {
        have.push((idx, shard.body.clone()));
    }
    let refs: Vec<(usize, &[u8])> = have.iter().map(|(i, b)| (*i, b.as_slice())).collect();
    let data = fec::decode(k, &refs)?;
    missing
        .iter()
        .map(|&s| {
            let msg = decode_record(data.get((s - first) as usize)?)?;
            (msg.seq == s).then_some(msg)
        })
        .collect()
}

/// Serializes a sequenced message into a FEC record. The layout is
/// fixed little-endian so encoding is a pure, deterministic function
/// of the message: seq (8) | sender (8) | view_id (8) | origin (8) |
/// dest tag (1) | dest target (8) | payload_len (8) | payload.
/// Trailing zero-padding (from the erasure code's common shard
/// length) is ignored by [`decode_record`] via the embedded
/// `payload_len`.
fn encode_record(msg: &WireMsg) -> Vec<u8> {
    let body = &msg.delivery;
    let mut rec = Vec::with_capacity(49 + body.payload.len());
    rec.extend_from_slice(&msg.seq.to_le_bytes());
    rec.extend_from_slice(&(body.sender as u64).to_le_bytes());
    rec.extend_from_slice(&body.view_id.to_le_bytes());
    rec.extend_from_slice(&(msg.origin as u64).to_le_bytes());
    let (tag, target) = body.dest.to_wire();
    rec.push(tag);
    rec.extend_from_slice(&target.to_le_bytes());
    rec.extend_from_slice(&(body.payload.len() as u64).to_le_bytes());
    rec.extend_from_slice(&body.payload);
    rec
}

/// Reverses [`encode_record`]. `None` on any malformed or truncated
/// record (an interpolation fed bad shards) — the caller falls back
/// to retransmission rather than panicking.
fn decode_record(rec: &[u8]) -> Option<WireMsg> {
    let u64_at = |off: usize| -> Option<u64> {
        rec.get(off..off + 8)?
            .try_into()
            .ok()
            .map(u64::from_le_bytes)
    };
    let seq = u64_at(0)?;
    let sender = u64_at(8)? as ClientId;
    let view_id = u64_at(16)?;
    let origin = u64_at(24)? as DaemonId;
    let tag = *rec.get(32)?;
    let target = u64_at(33)?;
    let dest = Dest::from_wire(tag, target)?;
    let payload_len = u64_at(41)? as usize;
    let payload = rec.get(49..49usize.checked_add(payload_len)?)?;
    Some(WireMsg {
        seq,
        origin,
        delivery: Delivery {
            sender,
            service: Service::Agreed,
            dest,
            view_id,
            payload: Bytes::copy_from_slice(payload),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;

    fn adaptive(floor: usize, ceiling: usize) -> GcsConfig {
        let mut cfg = testbed::lan();
        cfg.fec_parity = floor;
        cfg.fec_parity_max = ceiling;
        cfg.fec_adaptive = true;
        cfg
    }

    fn ms_at(n: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(n)
    }

    /// The codec round-trips, and on hostile records (seeded mutants
    /// of real ones) `decode_record` answers `None` or a record that is
    /// the input's own prefix (a `Dest::All` target aside, which it
    /// ignores), and never panics.
    #[test]
    fn record_codec_roundtrip_and_hostile_records() {
        let mut seeds = Vec::new();
        for dest in [Dest::All, Dest::One(5)] {
            let msg = WireMsg {
                seq: 42,
                origin: 11,
                delivery: Delivery {
                    sender: 3,
                    service: Service::Agreed,
                    dest,
                    view_id: 7,
                    payload: Bytes::from(vec![9u8, 8, 7, 6, 5]),
                },
            };
            let mut rec = encode_record(&msg);
            // Erasure-coded records carry trailing zero-padding up to
            // the generation's common shard length; the codec must see
            // through it.
            rec.resize(rec.len() + 13, 0);
            let back = decode_record(&rec).expect("roundtrip");
            assert_eq!(back.seq, msg.seq);
            assert_eq!(back.delivery.sender, msg.delivery.sender);
            assert_eq!(back.delivery.dest, msg.delivery.dest);
            assert_eq!(back.delivery.view_id, msg.delivery.view_id);
            assert_eq!(back.delivery.payload, msg.delivery.payload);
            assert_eq!(back.origin, msg.origin);
            seeds.push(rec);
        }
        assert!(decode_record(&[1, 2, 3]).is_none(), "truncated record");
        let mut read = 0;
        for (i, rec) in crate::mutate::mutants(&seeds, 20_000).iter().enumerate() {
            let Some(back) = decode_record(rec) else {
                continue;
            };
            read += 1;
            let mut again = encode_record(&back);
            if back.delivery.dest == Dest::All {
                again[33..41].copy_from_slice(&rec[33..41]);
            }
            assert_eq!(rec.get(..again.len()), Some(&again[..]), "mutant {i}");
        }
        assert!(read > 0, "some mutants are still records");
    }

    #[test]
    fn parity_budget_respects_floor_ceiling_and_field() {
        let cfg = adaptive(2, 6);
        let mut r = Recovery::new(&cfg);
        // No losses observed yet: the floor applies.
        assert_eq!(r.parity_budget(&cfg, 10, |_| true), 2);
        // A high loss estimate pushes the budget up to the ceiling.
        r.loss_ewma.insert(3, 0.9);
        assert_eq!(r.parity_budget(&cfg, 10, |_| true), 6);
        // A moderate estimate lands between floor and ceiling:
        // ceil(0.2 * 2 * 10) = 4.
        r.loss_ewma.insert(3, 0.2);
        assert_eq!(r.parity_budget(&cfg, 10, |_| true), 4);
        // The field size always caps the total shard count.
        assert_eq!(r.parity_budget(&cfg, 255, |_| true), 1);
    }

    #[test]
    fn parity_budget_follows_worst_live_origin_not_the_average() {
        // Regression: the estimator used to be one global scalar, so a
        // single lossy link among clean peers diluted the sample 8×
        // and starved the budget. The worst live origin must govern.
        let cfg = adaptive(0, 8);
        let mut r = Recovery::new(&cfg);
        for clean in 0..7 {
            r.loss_ewma.insert(clean, 0.0);
        }
        r.loss_ewma.insert(7, 0.4);
        // ceil(0.4 * 2 * 10) = 8 — the lossy origin alone sets the
        // budget; the seven clean estimates must not average it down
        // (the old global-scalar fold would have seen ~0.05).
        assert_eq!(r.parity_budget(&cfg, 10, |_| true), 8);
        // A dead daemon's estimate is no longer relevant.
        assert_eq!(r.parity_budget(&cfg, 10, |d| d != 7), 0);
    }

    #[test]
    fn parity_budget_survives_inverted_clamp_range() {
        // Regression for the clamp panic: `validate()` now rejects
        // floor > ceiling, but a hand-mutated config must still not
        // panic inside the budget math.
        let mut cfg = adaptive(2, 6);
        let mut r = Recovery::new(&cfg);
        cfg.fec_parity = 6;
        cfg.fec_parity_max = 2;
        r.loss_ewma.insert(0, 0.9);
        // The floor wins over an inverted ceiling; no panic.
        assert_eq!(r.parity_budget(&cfg, 10, |_| true), 6);
    }

    #[test]
    fn fast_attack_jumps_to_the_sample_within_one_update() {
        // One token visit inside a burst must push the estimate to the
        // observed loss fraction — not alpha-blend its way up.
        let cfg = adaptive(0, 16);
        let mut r = Recovery::new(&cfg);
        // Daemon 3 has seen nothing of a 10-message span.
        r.observe_gap(3, 1.0);
        assert_eq!(r.loss_ewma.get(&3).copied(), Some(1.0));
        // The very next parity budget reflects the burst: one visit,
        // full reaction (ceil(1.0 * 2 * 5) = 10, inside the ceiling).
        assert_eq!(r.parity_budget(&cfg, 5, |_| true), 10);
        // Decay back down is still gradual (slow-decay EWMA): a clean
        // visit after recovery blends, it does not snap to zero.
        r.observe_gap(3, 0.0);
        let decayed = r.loss_ewma.get(&3).copied().unwrap();
        assert!(
            (decayed - 0.8).abs() < 1e-12,
            "slow decay expected, got {decayed}"
        );
    }

    #[test]
    fn clean_visits_at_once_decay_like_clean_visits_one_by_one() {
        let cfg = adaptive(0, 4);
        // 10 000 visits run past the point where the estimate stops
        // moving (a few thousand at alpha = 0.2).
        for visits in [0, 1, 7, 10_000] {
            let (mut at_once, mut one_by_one) = (Recovery::new(&cfg), Recovery::new(&cfg));
            for r in [&mut at_once, &mut one_by_one] {
                r.observe_gap(3, 0.7);
            }
            at_once.observe_clean_visits(3, visits);
            at_once.observe_clean_visits(5, visits);
            for _ in 0..visits {
                one_by_one.observe_gap(3, 0.0);
                one_by_one.observe_gap(5, 0.0);
            }
            let bits = |r: &Recovery, d| r.loss_ewma.get(&d).map(|e: &f64| e.to_bits());
            assert_eq!(bits(&at_once, 3), bits(&one_by_one, 3), "{visits}");
            assert_eq!(bits(&at_once, 5).unwrap_or(0), 0, "never-lossy stays zero");
        }
    }

    /// The flow-control cap, hence the longest generation.
    const MAX: usize = 4;

    /// Daemon 0 sequences `MAX` messages in one visit: one generation.
    fn generation(ring: &mut Ring) -> Vec<Rc<WireMsg>> {
        for sender in 0..MAX {
            let sub = crate::ring::Submission {
                sender,
                dest: Dest::All,
                view_id: 1,
                payload: Bytes::from(vec![sender as u8; 1 + sender]),
            };
            ring.submit(0, sub);
        }
        ring.sequence(0, MAX)
    }

    #[test]
    fn repair_reads_delivered_members_above_the_pruned_floor() {
        // Two generations of four. Every daemon holds and delivers the
        // first. Of the second, daemon 1 holds all four and daemon 2,
        // the laggard, three: it lacks seq 7. The aru stops at daemon
        // 2's 6, so nobody delivers past it, and daemon 2 delivers 5
        // and 6 of its own generation.
        let mut ring = Ring::new(3);
        let (old, new) = (generation(&mut ring), generation(&mut ring));
        for msg in old.iter().chain(&new) {
            ring.store(1, Rc::clone(msg));
            if msg.seq != 7 {
                ring.store(2, Rc::clone(msg));
            }
        }
        for d in 0..3 {
            ring.report(d);
        }
        for d in 0..3 {
            while ring.pop_stable(d).is_some() {}
        }
        // The floor is 6: pruning drops the first generation's first
        // two, and must keep 5 and 6, which the repair re-reads.
        ring.prune(MAX);
        assert!(ring.sent(2).is_none());

        let cfg = testbed::lan();
        let mut r = Recovery::new(&cfg);
        let shard = encode_parity(&new, 1).pop().expect("one parity shard");
        r.buffer_shard(2, Rc::new(shard));
        let repaired = r.try_repair(2, 5, &ring);
        assert_eq!(repaired.len(), 1, "seq 7 rebuilt from 5, 6, 8 and parity");
        let (got, want) = (&repaired[0], &new[2]);
        assert_eq!((got.seq, got.origin), (7, 0));
        assert_eq!(got.delivery.payload, want.delivery.payload);
        assert_eq!(got.delivery.sender, want.delivery.sender);
    }

    #[test]
    fn backoff_arms_waits_requests_and_resets_on_progress() {
        let mut cfg = testbed::lan();
        cfg.retrans_backoff = Duration::from_millis(10);
        cfg.retrans_backoff_max = Duration::from_millis(40);
        let mut r = Recovery::new(&cfg);
        // A hand-fed (now, contiguous) series for daemon 2. Windows are
        // jittered into [full/2, full]; `full` is 10 ms after the arm,
        // then 20, 40, 40 (capped).
        let mut at = |ms, contiguous| r.on_gap(&cfg, 2, ms_at(ms), contiguous);
        assert_eq!(at(0, 5), GapAction::Arm);
        assert_eq!(at(4, 5), GapAction::Wait);
        assert_eq!(at(10, 5), GapAction::Request);
        assert_eq!(at(19, 5), GapAction::Wait);
        assert_eq!(at(30, 5), GapAction::Request);
        assert_eq!(at(49, 5), GapAction::Wait);
        assert_eq!(at(70, 5), GapAction::Request);
        // The contiguous mark moved: the episode is over. The gap still
        // open is a fresh one — it arms, and its window starts again
        // from 10 ms.
        assert_eq!(at(101, 6), GapAction::Arm);
        assert_eq!(at(102, 6), GapAction::Wait);
        assert_eq!(at(111, 6), GapAction::Request);
        assert_eq!(at(131, 6), GapAction::Request);
        // Other daemons have their own state; a zero base keeps the
        // legacy policy: request on every visit, remember nothing.
        assert_eq!(r.on_gap(&cfg, 9, ms_at(131), 0), GapAction::Arm);
        cfg.retrans_backoff = Duration::ZERO;
        assert_eq!(r.on_gap(&cfg, 4, ms_at(0), 0), GapAction::Request);
        assert!(!r.backoff.contains_key(&4));
    }
}
