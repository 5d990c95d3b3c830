//! `gcs_storm` — no cryptography at all: a benchmark-owned
//! [`gkap_gcs::Client`] that re-multicasts a 200-byte Agreed message
//! after each complete all-to-all round, on five ring configurations
//! (LAN clean; WAN clean; LAN 5 % loss, retransmission only; LAN 5 %
//! loss with `fec_parity = 4`; 64 groups × 8 members on a
//! `ShardedWorld` with a join or leave every 50 rounds).
//!
//! Why it exists: `gcs` + `sim` do all of the work and `bignum` none,
//! so an engine change shows here and must show nothing on
//! `paper_figs` — and a kernel change must show nothing here. Clean,
//! lossy, FEC and multi-group rings use the same layer differently.
//!
//! Check: every member's `(sender, view, payload)` delivery-order
//! digest is identical, and delivery counts match the closed form
//! `rounds × members²`.

use gkap_gcs::{
    testbed, Client, ClientCtx, Delivery, GcsConfig, ShardedWorld, SimWorld, View, WorldStats,
};
use gkap_sim::{RandomSource, SimTime, SplitMix64};

use super::{fnv64, world_counts, Layers, Pass, Workload, FNV_SEED};
use crate::span::{SpanId, Tracer};

/// Payload bytes of every storm message.
const PAYLOAD: usize = 200;

/// The benchmark's own group member: sends one Agreed multicast per
/// round and starts the next round when it has every member's message
/// of the current one.
pub struct Storm {
    /// Rounds to run in each view.
    rounds_per_view: u64,
    /// Rounds still to start in the current view.
    rounds_left: u64,
    view_size: usize,
    got: usize,
    body: Vec<u8>,
    /// Messages delivered to this member.
    pub deliveries: u64,
    /// Digest of `(sender, view, payload)` in delivery order.
    pub order_digest: u64,
    /// Virtual latency of each completed round (kept by one member per
    /// world only).
    pub round_ms: Option<Vec<f64>>,
    round_started: SimTime,
}

impl Storm {
    /// A member that runs `rounds_per_view` rounds after every view.
    pub fn new(rounds_per_view: u64, seed: u64, log_rounds: bool) -> Self {
        let mut rng = SplitMix64::new(seed);
        Storm {
            rounds_per_view,
            rounds_left: 0,
            view_size: 0,
            got: 0,
            body: (0..PAYLOAD).map(|_| rng.next_u64() as u8).collect(),
            deliveries: 0,
            order_digest: FNV_SEED,
            round_ms: log_rounds.then(Vec::new),
            round_started: SimTime::ZERO,
        }
    }

    fn send(&mut self, ctx: &mut ClientCtx<'_>) {
        self.rounds_left -= 1;
        self.round_started = ctx.now();
        ctx.multicast_agreed(self.body.clone());
    }
}

impl Client for Storm {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.view_size = view.size();
        self.got = 0;
        self.rounds_left = self.rounds_per_view;
        if self.rounds_left > 0 {
            self.send(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.deliveries += 1;
        let mut h = fnv64(self.order_digest, &(msg.sender as u64).to_le_bytes());
        h = fnv64(h, &msg.view_id.to_le_bytes());
        self.order_digest = fnv64(h, &msg.payload);
        self.got += 1;
        if self.got == self.view_size {
            self.got = 0;
            if let Some(log) = &mut self.round_ms {
                log.push(ctx.now().since(self.round_started).as_millis_f64());
            }
            if self.rounds_left > 0 {
                self.send(ctx);
            }
        }
    }
}

/// What one ring configuration produced.
#[derive(Clone, Debug, Default)]
pub struct StormOut {
    /// Rounds attempted (per group).
    pub rounds: u64,
    /// Rounds the logging member saw complete.
    pub completed: u64,
    /// Messages delivered, all members.
    pub deliveries: u64,
    /// Engine steps (single-ring configurations only).
    pub steps: u64,
    /// Engine counters.
    pub stats: WorldStats,
    /// Virtual latency of each round at the logging member.
    pub round_ms: Vec<f64>,
    /// One digest over every member's order digest.
    pub digest: u64,
    /// Host seconds spent stepping the world.
    pub run_s: f64,
}

/// A single ring of `members` running `rounds` all-to-all rounds.
pub fn run_ring(
    cfg: GcsConfig,
    members: usize,
    rounds: u64,
    seed: u64,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    label: &str,
) -> Result<StormOut, String> {
    let cell = tr.open(parent, "cell", label);
    let span = tr.open(Some(cell), "world_build", "");
    let mut world = SimWorld::new(cfg);
    for i in 0..members {
        world.add_client(Box::new(Storm::new(rounds, seed ^ i as u64, i == 0)));
    }
    tr.close(span, Vec::new());

    let span = tr.open(Some(cell), "rekey", "");
    let t0 = std::time::Instant::now();
    world.install_initial_view();
    let steps = crate::cell::step_to_quiescence(&mut world);
    let run_s = t0.elapsed().as_secs_f64();
    let mut counts = world_counts(world.stats()).to_vec();
    counts.push(("gcs.steps", steps));
    tr.close(span, counts);

    let span = tr.open(Some(cell), "collect", "");
    let first = world.client::<Storm>(0);
    let mut out = StormOut {
        rounds,
        completed: first.round_ms.as_ref().map_or(0, |l| l.len() as u64),
        steps,
        stats: world.stats().clone(),
        round_ms: first.round_ms.clone().unwrap_or_default(),
        digest: FNV_SEED,
        run_s,
        ..StormOut::default()
    };
    let want_order = first.order_digest;
    for i in 0..members {
        let m = world.client::<Storm>(i);
        out.deliveries += m.deliveries;
        out.digest = fnv64(out.digest, &m.order_digest.to_le_bytes());
        if m.order_digest != want_order {
            return Err(format!(
                "{label}: member {i} delivered in a different order than member 0"
            ));
        }
    }
    let closed_form = rounds * (members * members) as u64;
    if out.deliveries != closed_form {
        return Err(format!(
            "{label}: {} deliveries, closed form says {closed_form}",
            out.deliveries
        ));
    }
    tr.close(span, Vec::new());
    tr.close(cell, Vec::new());
    Ok(out)
}

/// `groups` groups of `members` on a sharded world; every segment runs
/// `rounds` rounds per group, and between segments every group admits
/// or loses its spare member.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded(
    cfg: GcsConfig,
    groups: usize,
    members: usize,
    shards: usize,
    rounds: u64,
    segments: usize,
    seed: u64,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<StormOut, String> {
    let label = format!("sharded {groups}x{members}");
    let cell = tr.open(parent, "cell", &label);
    let span = tr.open(Some(cell), "world_build", "");
    let mut world = ShardedWorld::new(cfg, shards);
    // Per group: `members` base clients, then one spare.
    let mut ids = vec![Vec::new(); groups];
    for (g, group_ids) in ids.iter_mut().enumerate() {
        for i in 0..=members {
            let log = g == 0 && i == 0;
            let storm = Storm::new(rounds, seed ^ ((g * 64 + i) as u64), log);
            group_ids.push(world.add_client_in(g, Box::new(storm)));
        }
    }
    tr.close(span, Vec::new());

    let span = tr.open(Some(cell), "rekey", "");
    let t0 = std::time::Instant::now();
    let mut closed_form = 0u64;
    for segment in 0..segments {
        let spare_in = segment % 2 == 1;
        for (g, group_ids) in ids.iter().enumerate() {
            let spare = group_ids[members];
            match segment {
                0 => world.install_initial_view_in(g, group_ids[..members].to_vec()),
                _ if spare_in => world.inject_change_in(g, vec![spare], vec![]),
                _ => world.inject_change_in(g, vec![], vec![spare]),
            }
        }
        world.run_until_quiescent();
        let n = (members + usize::from(spare_in)) as u64;
        closed_form += groups as u64 * rounds * n * n;
    }
    let run_s = t0.elapsed().as_secs_f64();
    let stats = world.stats();
    tr.close(span, world_counts(&stats).to_vec());

    let span = tr.open(Some(cell), "collect", "");
    let logger = world.client::<Storm>(ids[0][0]);
    let mut out = StormOut {
        rounds: rounds * segments as u64,
        completed: logger.round_ms.as_ref().map_or(0, |l| l.len() as u64),
        stats,
        round_ms: logger.round_ms.clone().unwrap_or_default(),
        digest: FNV_SEED,
        run_s,
        ..StormOut::default()
    };
    for (g, group_ids) in ids.iter().enumerate() {
        // The base members saw every view of their group; the spare
        // only every other one.
        let want_order = world.client::<Storm>(group_ids[0]).order_digest;
        for (i, &c) in group_ids.iter().enumerate() {
            let m = world.client::<Storm>(c);
            out.deliveries += m.deliveries;
            out.digest = fnv64(out.digest, &m.order_digest.to_le_bytes());
            if i < members && m.order_digest != want_order {
                return Err(format!(
                    "{label}: group {g} member {i} delivered in a different order"
                ));
            }
        }
    }
    if out.deliveries != closed_form {
        return Err(format!(
            "{label}: {} deliveries, closed form says {closed_form}",
            out.deliveries
        ));
    }
    tr.close(span, Vec::new());
    tr.close(cell, Vec::new());
    Ok(out)
}

/// Members of each single-ring configuration.
const RING_MEMBERS: usize = 50;

/// The workload, set up.
pub struct GcsStorm {
    seed: u64,
}

/// The four single-ring configurations: `(label, config, rounds)`.
fn rings(seed: u64, scale: u64) -> Vec<(&'static str, GcsConfig, u64)> {
    let lossy = |fec: bool| {
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.05;
        cfg.loss_seed = seed ^ 0x1055;
        if fec {
            cfg.fec_parity = 4;
            cfg.fec_parity_max = 16;
        }
        cfg
    };
    vec![
        ("lan clean", testbed::lan(), 200 / scale),
        ("wan clean", testbed::wan(), 200 / scale),
        ("lan 5% loss retrans", lossy(false), 100 / scale),
        ("lan 5% loss fec 4", lossy(true), 100 / scale),
    ]
}

impl GcsStorm {
    /// Set-up: a tenth of a pass as warm-up.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut wl = GcsStorm { seed };
        wl.run(10, &mut Tracer::disabled(), None, &mut Layers::default())?;
        Ok(wl)
    }

    /// One pass at `1/scale` of the full round counts.
    fn run(
        &mut self,
        scale: u64,
        tr: &mut Tracer,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut outs = Vec::new();
        for (label, cfg, rounds) in rings(self.seed, scale) {
            outs.push(run_ring(
                cfg,
                RING_MEMBERS,
                rounds,
                self.seed,
                tr,
                parent,
                label,
            )?);
        }
        let segments = if scale == 1 { 3 } else { 2 };
        outs.push(run_sharded(
            testbed::lan(),
            64,
            8,
            4,
            50,
            segments,
            self.seed,
            tr,
            parent,
        )?);
        let (mut deliveries, mut run_s, mut wire_bytes) = (0u64, 0.0, 0u64);
        let mut digest = FNV_SEED;
        for out in &outs {
            pass.attempted += out.rounds;
            pass.failed += out.rounds - out.completed;
            pass.virt_ms.extend(&out.round_ms);
            deliveries += out.deliveries;
            run_s += out.run_s;
            wire_bytes += out.stats.payload_bytes + out.stats.parity_bytes_sent;
            digest = fnv64(digest, &out.digest.to_le_bytes());
            layers.add_counts(&world_counts(&out.stats));
            layers.add("gcs.steps", out.steps as f64);
        }
        pass.exact.push(("gcs.deliveries", deliveries));
        pass.exact.push(("gcs.order_digest", digest));
        layers.set("gcs.deliveries_per_s", deliveries as f64 / run_s);
        layers.set(
            "wire_kb_per_op",
            wire_bytes as f64 / 1000.0 / pass.attempted as f64,
        );
        // Only the single-ring configurations are stepped by hand.
        let ring_s: f64 = outs[..4].iter().map(|o| o.run_s).sum();
        layers.set("gcs.ns_per_step", ring_s * 1e9 / layers.get("gcs.steps"));
        Ok(pass)
    }
}

impl Workload for GcsStorm {
    fn pass(&mut self) -> Pass {
        self.run(1, &mut Tracer::disabled(), None, &mut Layers::default())
            .unwrap_or_else(|e| panic!("gcs_storm: {e}"))
    }

    fn verify(&mut self, _first: &Pass) -> Result<(), String> {
        // Order digests and closed-form delivery counts are checked
        // inside every pass; nothing here has a committed golden.
        Ok(())
    }

    fn traced_pass(
        &mut self,
        tr: &mut Tracer,
        pass: SpanId,
        layers: &mut Layers,
        reference: &Pass,
    ) -> Result<(), String> {
        let traced = self.run(1, tr, Some(pass), layers)?;
        crate::harness::same_outputs(reference, &traced, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_gcs::{Dest, Service};

    fn delivery(sender: usize, byte: u8) -> Delivery {
        Delivery {
            sender,
            service: Service::Agreed,
            dest: Dest::All,
            view_id: 1,
            payload: vec![byte; 4].into(),
        }
    }

    /// Two members fed the same messages agree; swap two deliveries
    /// for one of them and the order digests differ.
    #[test]
    fn order_digest_catches_a_swapped_delivery() {
        let feed = |order: &[usize]| {
            let mut m = Storm::new(0, 1, false);
            m.view_size = 3;
            let msgs = [delivery(0, 10), delivery(1, 11), delivery(2, 12)];
            for &i in order {
                let mut ctx = ClientCtx::detached(0, SimTime::ZERO, 1);
                m.on_message(&mut ctx, &msgs[i]);
            }
            (m.order_digest, m.deliveries)
        };
        assert_eq!(feed(&[0, 1, 2]), feed(&[0, 1, 2]));
        assert_ne!(feed(&[0, 1, 2]).0, feed(&[0, 2, 1]).0);
        assert_eq!(feed(&[0, 2, 1]).1, 3, "same count, different order");
    }

    #[test]
    fn small_ring_meets_the_closed_form() {
        let out = run_ring(
            testbed::lan(),
            5,
            3,
            7,
            &mut Tracer::disabled(),
            None,
            "test",
        )
        .expect("converges");
        assert_eq!(out.deliveries, 3 * 25);
        assert_eq!(out.completed, 3);
        assert!(out.steps > 0);
    }
}
