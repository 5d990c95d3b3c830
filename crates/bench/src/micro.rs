//! Micro-benchmarks of the group communication substrate: the numbers
//! §6.1.1 and §6.2.1 of the paper report for the raw testbeds
//! (Agreed-multicast latency, BD-style all-to-all round, membership
//! service cost).

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, GcsConfig, SimWorld, View};

/// A client that records delivery times and optionally multicasts on
/// its first view.
#[derive(Default)]
struct Probe {
    deliveries: Vec<f64>,
    views: Vec<f64>,
    send_on_view: bool,
    all_broadcast: bool,
}

impl Client for Probe {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
        self.views.push(ctx.now().as_millis_f64());
        if self.send_on_view || self.all_broadcast {
            ctx.multicast_agreed(vec![1u8; 64]);
        }
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, _msg: &Delivery) {
        self.deliveries.push(ctx.now().as_millis_f64());
    }
}

/// Result of one micro measurement.
#[derive(Clone, Debug)]
pub struct Micro {
    /// What was measured.
    pub what: String,
    /// Group size.
    pub n: usize,
    /// Measured value in virtual milliseconds.
    pub ms: f64,
}

/// Mean latency of a single Agreed multicast (send → delivery at every
/// member), from a sender on `sender_machine`.
pub fn agreed_multicast_latency(cfg: &GcsConfig, n: usize, sender_machine: usize) -> f64 {
    let mut world = SimWorld::new(cfg.clone());
    for i in 0..n {
        let probe = Probe {
            send_on_view: i == sender_machine.min(n - 1),
            ..Default::default()
        };
        world.add_client(Box::new(probe));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    let sender = sender_machine.min(n - 1);
    let send_time = world.client::<Probe>(sender).views[0];
    let mut total = 0.0;
    for i in 0..n {
        let d = &world.client::<Probe>(i).deliveries;
        assert_eq!(d.len(), 1, "member {i} deliveries");
        total += d[0] - send_time;
    }
    total / n as f64
}

/// Duration of a BD-style round: every member broadcasts at once and
/// waits for all `n - 1` other messages (§6.1.1's second micro number).
pub fn all_to_all_round(cfg: &GcsConfig, n: usize) -> f64 {
    let mut world = SimWorld::new(cfg.clone());
    for _ in 0..n {
        world.add_client(Box::new(Probe {
            all_broadcast: true,
            ..Default::default()
        }));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    let start = (0..n)
        .map(|i| world.client::<Probe>(i).views[0])
        .fold(f64::INFINITY, f64::min);
    let end = (0..n)
        .map(|i| {
            let d = &world.client::<Probe>(i).deliveries;
            // Every member receives all n messages (its own included).
            assert_eq!(d.len(), n, "member {i}");
            d.last().copied().unwrap_or(start)
        })
        .fold(0.0f64, f64::max);
    end - start
}

/// Cost of the membership service alone: inject a join into a keyless
/// (plain-probe) group and time the view installation.
pub fn membership_cost(cfg: &GcsConfig, n: usize) -> f64 {
    let mut world = SimWorld::new(cfg.clone());
    for _ in 0..=n {
        world.add_client(Box::new(Probe::default()));
    }
    world.install_initial_view_of((0..n).collect());
    world.run_until_quiescent();
    let t0 = world.now().as_millis_f64();
    world.inject_join(n);
    world.run_until_quiescent();
    let worst = (0..=n)
        .map(|i| world.client::<Probe>(i).views.last().copied().unwrap_or(t0))
        .fold(0.0f64, f64::max);
    worst - t0
}

/// The LAN micro table (§6.1.1).
pub fn lan_micro() -> Vec<Micro> {
    let cfg = testbed::lan();
    let mut out = Vec::new();
    for n in [3usize, 13, 26, 50] {
        out.push(Micro {
            what: "agreed multicast (LAN)".into(),
            n,
            ms: agreed_multicast_latency(&cfg, n, 0),
        });
    }
    for n in [5usize, 13, 26, 50] {
        out.push(Micro {
            what: "all-to-all round (LAN)".into(),
            n,
            ms: all_to_all_round(&cfg, n),
        });
    }
    for n in [2usize, 13, 26, 50] {
        out.push(Micro {
            what: "membership service (LAN)".into(),
            n,
            ms: membership_cost(&cfg, n),
        });
    }
    out
}

/// The WAN micro table (§6.2.1), including per-sender-site Agreed
/// latency (JHU = machine 0, UCI = 11, ICU = 12).
pub fn wan_micro() -> Vec<Micro> {
    let cfg = testbed::wan();
    let mut out = Vec::new();
    for (site, machine) in [("JHU", 0usize), ("UCI", 11), ("ICU", 12)] {
        out.push(Micro {
            what: format!("agreed multicast (WAN, sender {site})"),
            n: 13,
            ms: agreed_multicast_latency(&cfg, 13, machine),
        });
    }
    out.push(Micro {
        what: "all-to-all round (WAN)".into(),
        n: 50,
        ms: all_to_all_round(&cfg, 50),
    });
    for n in [13usize, 26, 50] {
        out.push(Micro {
            what: "membership service (WAN)".into(),
            n,
            ms: membership_cost(&cfg, n),
        });
    }
    out
}

/// Renders micros as an aligned table.
pub fn render(micros: &[Micro]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<42} {:>4} {:>12}\n", "measurement", "n", "ms"));
    for m in micros {
        out.push_str(&format!("{:<42} {:>4} {:>12.3}\n", m.what, m.n, m.ms));
    }
    out
}
