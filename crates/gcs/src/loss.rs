//! The copy-loss layer: every "is this daemon-to-daemon copy lost?"
//! is decided here. `LossProcess` owns the loss RNG stream, the
//! optional Gilbert–Elliott chain, the fault-plan burst window and the
//! sticky "a data copy was lost" flag that arms gap recovery. It is
//! handed the instant of each draw and returns a `bool`; it never sees
//! the event queue, a daemon or a client.
//!
//! ## Gilbert–Elliott burst-correlated loss
//!
//! The base process loses each daemon-to-daemon copy independently with
//! probability [`crate::GcsConfig::loss_rate`] — a Bernoulli process.
//! Real WAN loss is bursty: losses cluster while a path is congested
//! and all but vanish in between. The classic two-state Markov model
//! (Gilbert–Elliott) captures that with a *good* and a *bad* state,
//! each with its own per-copy loss probability, and random dwell times
//! in each state.
//!
//! This implementation advances the chain on **virtual time**, not on
//! packet counts, so the burst structure is independent of how much
//! traffic happens to be in flight. Dwell times are sampled uniformly
//! in `[mean/2, 3·mean/2)` from a dedicated [`SplitMix64`] stream —
//! integer arithmetic only, no transcendental functions, so the state
//! trajectory is a bit-exact pure function of the seed on every
//! platform (the L4 determinism contract). Because dwells are drawn
//! lazily in chain order, the trajectory is also independent of *when*
//! the engine happens to query it: querying at t=5 then t=10 draws the
//! same dwells as querying t=10 directly, which is what makes sweep
//! CSVs bit-identical across `--jobs`.
//!
//! The Bernoulli model is the degenerate case: with no
//! [`GilbertElliott`] configured nothing is drawn from the chain's
//! stream and the engine stays byte-identical to the pre-burst engine
//! (pinned by the engine goldens).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use gkap_sim::{Duration, RandomSource, SimTime, SplitMix64};

use crate::config::GcsConfig;

/// Parameters of a two-state Markov (Gilbert–Elliott) loss process.
///
/// Validated by [`crate::GcsConfig::validate`]: loss rates in
/// `[0, 1]` with `good_loss < 1`, dwell means strictly positive.
#[derive(Clone, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-copy loss probability while the chain is in the good state
    /// (usually 0 or near 0).
    pub good_loss: f64,
    /// Per-copy loss probability while the chain is in the bad state.
    pub bad_loss: f64,
    /// Mean dwell time in the good state (virtual time between bursts).
    pub good_dwell: Duration,
    /// Mean dwell time in the bad state (mean burst length).
    pub bad_dwell: Duration,
    /// Seed of the dedicated dwell-sampling RNG stream. Kept separate
    /// from `loss_seed` so enabling the chain never perturbs the
    /// per-copy loss draws themselves.
    pub seed: u64,
}

/// Runtime state of a Gilbert–Elliott chain.
///
/// The chain starts in the good state at virtual time zero and is
/// advanced lazily by [`GeChain::rate_at`].
#[derive(Clone, Debug)]
pub struct GeChain {
    plan: GilbertElliott,
    /// Whether the chain is currently in the bad (bursty) state.
    bad: bool,
    /// Virtual instant at which the current dwell ends (half-open:
    /// the state flips when `now >= until`).
    until: SimTime,
    rng: SplitMix64,
}

impl GeChain {
    /// Builds a chain from validated parameters; draws the first
    /// (good-state) dwell immediately.
    pub fn new(plan: &GilbertElliott) -> Self {
        let mut rng = SplitMix64::new(plan.seed);
        let first = sample_dwell(&mut rng, plan.good_dwell);
        GeChain {
            plan: plan.clone(),
            bad: false,
            until: SimTime::ZERO + first,
            rng,
        }
    }

    /// Advances the chain to `now` and returns the per-copy loss
    /// probability in force at that instant.
    pub fn rate_at(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        if self.bad {
            self.plan.bad_loss
        } else {
            self.plan.good_loss
        }
    }

    /// Advances the chain to `now` and reports whether it is in the
    /// bad (bursty) state.
    #[cfg(test)]
    fn in_bad_state_at(&mut self, now: SimTime) -> bool {
        self.advance(now);
        self.bad
    }

    fn advance(&mut self, now: SimTime) {
        while now >= self.until {
            self.bad = !self.bad;
            let mean = if self.bad {
                self.plan.bad_dwell
            } else {
                self.plan.good_dwell
            };
            self.until += sample_dwell(&mut self.rng, mean);
        }
    }
}

/// Samples a dwell uniformly in `[mean/2, 3·mean/2)`, never zero.
///
/// A uniform window around the mean keeps burst spacing irregular
/// (fixed dwells would alias against the token rotation period) while
/// staying in pure integer arithmetic. The `max(1)` floor guarantees
/// the chain always moves forward even for degenerate sub-nanosecond
/// means, so [`GeChain::advance`] terminates.
fn sample_dwell(rng: &mut SplitMix64, mean: Duration) -> Duration {
    let mean_ns = mean.as_nanos();
    let base = (mean_ns / 2).max(1);
    let span = mean_ns.max(1);
    Duration::from_nanos(base.saturating_add(rng.next_u64() % span))
}

/// The world's copy-loss process: the Bernoulli base rate, the
/// Gilbert–Elliott chain's per-state rate (when configured) and a
/// fault-plan burst while its window lasts, combined by `max`. The
/// chain advances on its own RNG stream, so configuring it never
/// perturbs the per-copy draws.
#[derive(Clone, Debug)]
pub(crate) struct LossProcess {
    base: f64,
    chain: Option<GeChain>,
    /// Temporary rate override from a fault plan: `(rate, until)`.
    burst: Option<(f64, SimTime)>,
    rng: SplitMix64,
    /// Sticky: set the first time a *data* copy is lost, and the
    /// arming condition for gap-retransmission requests. A token-visit
    /// gap with no loss ever observed is merely in-flight traffic and
    /// must not trigger spurious requests; a gap after a loss burst
    /// has *ended* must still be recovered.
    losses_observed: bool,
}

impl LossProcess {
    pub(crate) fn new(cfg: &GcsConfig) -> Self {
        LossProcess {
            base: cfg.loss_rate,
            chain: cfg.gilbert.as_ref().map(GeChain::new),
            burst: None,
            rng: SplitMix64::new(cfg.loss_seed),
            losses_observed: false,
        }
    }

    /// Starts a burst of `rate` lasting until `until`, replacing any
    /// active one (semantics: [`crate::SimWorld::set_loss_burst`]).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub(crate) fn set_burst(&mut self, rate: f64, until: SimTime) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "burst loss rate must be in [0, 1]"
        );
        self.burst = Some((rate, until));
    }

    /// The loss probability in force at instant `now`. The burst
    /// window is half-open; an expired burst is cleared here (lazily,
    /// on the first query at or past its boundary).
    fn rate_at(&mut self, now: SimTime) -> f64 {
        let mut rate = self.base;
        if let Some(ge) = &mut self.chain {
            rate = rate.max(ge.rate_at(now));
        }
        match self.burst {
            Some((burst, until)) if now < until => rate.max(burst),
            Some(_) => {
                self.burst = None;
                rate
            }
            None => rate,
        }
    }

    /// Deterministic Bernoulli draw for one copy sent at `now` (no
    /// draw at rate 0). A lost *data* copy arms gap recovery for the
    /// rest of the run; a lost parity shard is simply gone — it is
    /// never retransmitted and arms nothing.
    pub(crate) fn lose_copy(&mut self, now: SimTime, data: bool) -> bool {
        let rate = self.rate_at(now);
        if rate <= 0.0 {
            return false;
        }
        let x = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.losses_observed |= data && x < rate;
        x < rate
    }

    /// Whether any data copy has been lost so far.
    pub(crate) fn losses_observed(&self) -> bool {
        self.losses_observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;

    fn plan(seed: u64) -> GilbertElliott {
        GilbertElliott {
            good_loss: 0.01,
            bad_loss: 0.8,
            good_dwell: Duration::from_millis(9),
            bad_dwell: Duration::from_millis(1),
            seed,
        }
    }

    #[test]
    fn starts_good_and_visits_both_states() {
        let p = plan(7);
        let mut c = GeChain::new(&p);
        assert!(!c.in_bad_state_at(SimTime::ZERO));
        let mut saw_bad = false;
        let mut saw_good = false;
        for ms in 0..200u64 {
            let t = SimTime::ZERO + Duration::from_millis(ms);
            if c.in_bad_state_at(t) {
                saw_bad = true;
                assert_eq!(c.rate_at(t), 0.8);
            } else {
                saw_good = true;
                assert_eq!(c.rate_at(t), 0.01);
            }
        }
        assert!(saw_bad && saw_good, "200 ms must cover both states");
    }

    #[test]
    fn trajectory_is_a_pure_function_of_the_seed() {
        // Querying every millisecond must agree with querying sparsely:
        // the dwell draws depend only on chain order, not on the
        // observation pattern.
        let p = plan(42);
        let mut dense = GeChain::new(&p);
        let mut sparse = GeChain::new(&p);
        let mut dense_states = Vec::new();
        for ms in 0..500u64 {
            let t = SimTime::ZERO + Duration::from_millis(ms);
            dense_states.push(dense.in_bad_state_at(t));
        }
        for ms in (0..500u64).step_by(97) {
            let t = SimTime::ZERO + Duration::from_millis(ms);
            assert_eq!(
                sparse.in_bad_state_at(t),
                dense_states[ms as usize],
                "state at {ms} ms must not depend on query pattern"
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = GeChain::new(&plan(1));
        let mut b = GeChain::new(&plan(2));
        let diverged = (0..500u64).any(|ms| {
            let t = SimTime::ZERO + Duration::from_millis(ms);
            a.in_bad_state_at(t) != b.in_bad_state_at(t)
        });
        assert!(diverged, "independent seeds must produce distinct bursts");
    }

    #[test]
    fn dwell_means_shape_state_occupancy() {
        // With a 9:1 good:bad dwell ratio the chain should spend
        // roughly 90% of its time in the good state.
        let p = plan(7);
        let mut c = GeChain::new(&p);
        let bad = (0..10_000u64)
            .filter(|us| {
                let t = SimTime::ZERO + Duration::from_micros(us * 100);
                c.in_bad_state_at(t)
            })
            .count();
        let frac = bad as f64 / 10_000.0;
        assert!(
            (0.05..0.2).contains(&frac),
            "bad-state occupancy {frac} should be near 0.1"
        );
    }

    #[test]
    fn degenerate_dwells_still_terminate() {
        let p = GilbertElliott {
            good_loss: 0.0,
            bad_loss: 1.0,
            good_dwell: Duration::from_nanos(1),
            bad_dwell: Duration::from_nanos(1),
            seed: 3,
        };
        let mut c = GeChain::new(&p);
        // Must not hang or panic even when dwells are single nanoseconds.
        let _ = c.rate_at(SimTime::ZERO + Duration::from_micros(10));
    }

    fn process(loss_rate: f64) -> LossProcess {
        let mut cfg = testbed::lan();
        cfg.loss_rate = loss_rate;
        LossProcess::new(&cfg)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(n)
    }

    #[test]
    fn burst_window_is_half_open_and_clears_on_expiry() {
        let mut l = process(0.0);
        let until = ms(10);
        l.set_burst(0.5, until);
        // One nanosecond before expiry the burst rate applies...
        let just_before = SimTime::from_nanos(until.as_nanos() - 1);
        assert_eq!(l.rate_at(just_before), 0.5);
        assert!(l.burst.is_some(), "burst still active");
        // ...at the exact expiry instant it no longer does (half-open
        // window), and the expired burst is cleared.
        assert_eq!(l.rate_at(until), 0.0);
        assert!(l.burst.is_none(), "expired burst must be cleared");
        // Cleared state is stable: later draws stay on the base rate.
        assert_eq!(l.rate_at(ms(11)), 0.0);
    }

    #[test]
    fn burst_combines_with_base_rate_via_max() {
        let mut l = process(0.3);
        // A 0.0-rate burst cannot suppress the configured base rate.
        l.set_burst(0.0, ms(5));
        assert_eq!(l.rate_at(SimTime::ZERO), 0.3);
        // A burst above the base rate overrides it while it lasts.
        l.set_burst(0.9, ms(5));
        assert_eq!(l.rate_at(SimTime::ZERO), 0.9);
        assert_eq!(l.rate_at(ms(5)), 0.3);
    }

    #[test]
    fn overlapping_bursts_last_writer_wins() {
        let mut l = process(0.0);
        l.set_burst(0.8, ms(100));
        // A shorter, milder burst set while the first is active
        // replaces it entirely — including cutting the window short.
        l.set_burst(0.2, ms(1));
        assert_eq!(l.rate_at(SimTime::ZERO), 0.2);
        assert_eq!(
            l.rate_at(ms(2)),
            0.0,
            "the replaced burst's longer window must not survive"
        );
    }

    #[test]
    fn edge_burst_rates_are_accepted() {
        let mut l = process(0.0);
        l.set_burst(0.0, ms(1));
        assert_eq!(l.rate_at(SimTime::ZERO), 0.0);
        l.set_burst(1.0, ms(1));
        assert_eq!(l.rate_at(SimTime::ZERO), 1.0);
    }

    #[test]
    #[should_panic(expected = "burst loss rate")]
    fn out_of_range_burst_rate_rejected() {
        process(0.0).set_burst(1.5, ms(1));
    }

    #[test]
    fn gilbert_chain_combines_with_burst_window_via_max() {
        // A fault-plan burst window layered over an active
        // Gilbert–Elliott chain must max-combine while it lasts and,
        // on expiry, fall back to the *chain's* rate at that instant —
        // not to the Bernoulli base.
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.0;
        cfg.gilbert = Some(GilbertElliott {
            good_loss: 0.05,
            bad_loss: 0.9,
            // Dwells far longer than the probe horizon: the chain is
            // pinned in its good state for the whole test.
            good_dwell: Duration::from_millis(100_000),
            bad_dwell: Duration::from_millis(1),
            seed: 7,
        });
        let mut l = LossProcess::new(&cfg);
        assert_eq!(l.rate_at(SimTime::ZERO), 0.05);
        l.set_burst(0.5, ms(10));
        // Inside the window the burst dominates the good-state rate.
        assert_eq!(l.rate_at(SimTime::ZERO), 0.5);
        // A burst below the chain's rate cannot suppress it.
        l.set_burst(0.01, ms(10));
        assert_eq!(l.rate_at(SimTime::ZERO), 0.05);
        // At expiry the window clears and the chain's rate remains.
        l.set_burst(0.5, ms(10));
        assert_eq!(l.rate_at(ms(10)), 0.05);
        assert!(l.burst.is_none(), "expired burst must be cleared");
    }
}
