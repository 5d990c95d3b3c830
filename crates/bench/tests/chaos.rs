//! End-to-end chaos campaign properties: a pinned campaign passes and
//! replays identically, the failures over seeds 1..=40 only shrink
//! and no view in them changes no membership, and the schedule
//! minimizer — demonstrated on an intentionally broken protocol
//! driver — reduces a failing schedule to its smallest reproduction.

use std::rc::Rc;

use gkap_bench::chaos::{
    campaign_csv, default_factory, generate_schedule, minimize, render_schedule, run_campaign,
    run_schedule, ChaosConfig,
};
use gkap_bench::Console;
use gkap_bignum::Ubig;
use gkap_core::experiment::SuiteKind;
use gkap_core::protocols::{Component, GkaCtx, ProtocolMsg};
use gkap_core::suite::CryptoSuite;
use gkap_core::{GkaError, GkaProtocol, ProtocolKind, SecureMember};
use gkap_gcs::{ClientId, Fault, PlannedFault, View};
use gkap_sim::Duration;

#[test]
fn pinned_campaign_passes_and_replays_identically() {
    let cfg = ChaosConfig::default();
    let factory = default_factory();
    let mut con = Console::quiet();
    let first = run_campaign(7, 3, &cfg, &factory, &mut con);
    assert!(
        first.passed(),
        "pinned campaign failed: {:?}",
        first
            .failures
            .iter()
            .map(|f| (&f.kind, &f.violations))
            .collect::<Vec<_>>()
    );
    assert_eq!(first.rows.len(), 3 * 5);
    // Replaying the same seed yields a bit-identical campaign.
    let second = run_campaign(7, 3, &cfg, &factory, &mut con);
    assert_eq!(campaign_csv(&first), campaign_csv(&second));
}

/// Every `(seed, run, protocol)` of `repro chaos --seed N --runs 8`,
/// for N in 1..=40, that violates an invariant today: GDH 41, TGDH 2,
/// STR 2 (DESIGN.md §21 and §23 name the two causes). A ratchet, not
/// a blessing: a new failure fails the test, and so does a fixed one
/// until it is struck from the list.
const KNOWN_FAILING: [(u64, u64, &str); 45] = [
    (1, 2, "GDH"),
    (1, 2, "STR"),
    (1, 6, "GDH"),
    (3, 3, "GDH"),
    (3, 5, "GDH"),
    (3, 7, "GDH"),
    (4, 1, "GDH"),
    (4, 3, "GDH"),
    (5, 1, "GDH"),
    (5, 7, "GDH"),
    (8, 1, "GDH"),
    (8, 2, "GDH"),
    (8, 4, "GDH"),
    (8, 6, "GDH"),
    (10, 7, "GDH"),
    (11, 0, "GDH"),
    (13, 3, "GDH"),
    (14, 3, "GDH"),
    (15, 4, "GDH"),
    (16, 1, "GDH"),
    (16, 3, "GDH"),
    (16, 4, "GDH"),
    (16, 7, "GDH"),
    (17, 4, "GDH"),
    (19, 3, "GDH"),
    (19, 3, "TGDH"),
    (19, 3, "STR"),
    (19, 7, "GDH"),
    (20, 1, "GDH"),
    (20, 2, "GDH"),
    (20, 6, "GDH"),
    (23, 1, "TGDH"),
    (23, 6, "GDH"),
    (24, 1, "GDH"),
    (26, 1, "GDH"),
    (26, 2, "GDH"),
    (30, 2, "GDH"),
    (31, 0, "GDH"),
    (32, 2, "GDH"),
    (32, 5, "GDH"),
    (32, 6, "GDH"),
    (34, 0, "GDH"),
    (37, 0, "GDH"),
    (37, 5, "GDH"),
    (40, 1, "GDH"),
];

/// Delegates to a real protocol engine and panics on a view that
/// changes no membership. An engine re-keys on a view's `joined` and
/// `left`, so such a view would leave its member without a key; the
/// ratchet's runs show that none reaches one.
struct ChangesMembership(Box<dyn GkaProtocol>);

impl GkaProtocol for ChangesMembership {
    fn kind(&self) -> ProtocolKind {
        self.0.kind()
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>, view: &View) -> Result<(), GkaError> {
        assert!(
            !view.joined.is_empty() || !view.left.is_empty(),
            "view {} changes no membership at member {}",
            view.id,
            ctx.me()
        );
        self.0.on_view(ctx, view)
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        self.0.on_msg(ctx, sender, msg)
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        self.0.component(suite, members, seed)
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        self.0.adopt(component, me)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

#[test]
fn chaos_failures_over_forty_seeds_only_shrink() {
    let cfg = ChaosConfig::default();
    // `default_factory`'s members, each engine behind the check.
    let suite = SuiteKind::Sim512.shared();
    let factory = move |kind: ProtocolKind, i: usize| {
        let checked = Box::new(ChangesMembership(kind.create()));
        SecureMember::with_protocol(checked, Rc::clone(&suite), 900 + i as u64, Some(17))
    };
    let mut failing = Vec::new();
    for seed in 1..=40 {
        for run in 0..8 {
            let schedule = generate_schedule(seed, run, &cfg);
            for kind in ProtocolKind::all() {
                let report = run_schedule(kind, &cfg, &schedule, &factory);
                if report.passed() {
                    continue;
                }
                let triple = (seed, run, kind.name());
                assert!(
                    KNOWN_FAILING.contains(&triple),
                    "new chaos failure {triple:?}: {:?}\nschedule:\n{}",
                    report.violations,
                    render_schedule(&schedule)
                );
                failing.push(triple);
            }
        }
    }
    let fixed: Vec<_> = KNOWN_FAILING
        .iter()
        .filter(|t| !failing.contains(t))
        .collect();
    assert!(
        fixed.is_empty(),
        "these now pass; strike them from KNOWN_FAILING: {fixed:?}"
    );
}

/// Delegates to a real protocol engine but, from the first view that
/// removes a member on, establishes a per-member poison value as every
/// epoch's key before the engine can — a divergence bug of exactly the
/// class the key-convergence invariant and the minimizer exist to
/// catch.
struct ForgetsLeavers {
    inner: Box<dyn GkaProtocol>,
    poison: Option<Ubig>,
}

impl GkaProtocol for ForgetsLeavers {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>, view: &View) -> Result<(), GkaError> {
        if !view.left.is_empty() {
            self.poison = Some(Ubig::from(0xDEC0_DE00u64 + ctx.me() as u64));
        }
        if let Some(poison) = &self.poison {
            ctx.establish(poison.clone());
        }
        self.inner.on_view(ctx, view)
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        self.inner.on_msg(ctx, sender, msg)
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        self.inner.component(suite, members, seed)
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        self.inner.adopt(component, me)
    }

    fn reset(&mut self) {
        self.poison = None;
        self.inner.reset();
    }
}

#[test]
fn minimizer_reduces_broken_driver_to_single_fault() {
    let cfg = ChaosConfig::default();
    let suite = Rc::new(CryptoSuite::sim_512());
    let factory = move |kind: ProtocolKind, i: usize| {
        let broken = ForgetsLeavers {
            inner: kind.create(),
            poison: None,
        };
        SecureMember::with_protocol(
            Box::new(broken),
            Rc::clone(&suite),
            900 + i as u64,
            Some(17),
        )
    };

    let at = Duration::from_millis;
    let schedule = vec![
        PlannedFault {
            after: at(2),
            fault: Fault::LossBurst {
                rate: 0.5,
                duration: at(3),
            },
        },
        PlannedFault {
            after: at(6),
            fault: Fault::Heal { members: vec![8] },
        },
        PlannedFault {
            after: at(12),
            fault: Fault::Partition { members: vec![2] },
        },
        PlannedFault {
            after: at(20),
            fault: Fault::Heal { members: vec![9] },
        },
    ];

    let report = run_schedule(ProtocolKind::Tgdh, &cfg, &schedule, &factory);
    assert!(!report.passed(), "broken driver went undetected");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("key convergence")),
        "expected a key-convergence violation, got {:?}",
        report.violations
    );

    // Joins and loss bursts never trip the bug: the minimizer strips
    // them all, leaving exactly the member removal.
    let minimal = minimize(ProtocolKind::Tgdh, &cfg, &schedule, &factory);
    assert_eq!(
        minimal,
        vec![PlannedFault {
            after: at(12),
            fault: Fault::Partition { members: vec![2] },
        }],
        "minimizer did not reduce to the single removal fault"
    );
    // The minimal schedule is itself a reproduction.
    assert!(!run_schedule(ProtocolKind::Tgdh, &cfg, &minimal, &factory).passed());
}
