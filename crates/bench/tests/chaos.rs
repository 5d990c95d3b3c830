//! End-to-end chaos campaign properties: a pinned campaign passes and
//! replays identically, the failures over seeds 1..=40 only shrink
//! and no view in them changes no membership, DESIGN.md's two restart
//! reproducers keep their pinned outcomes, and the schedule
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
/// for N in 1..=40, that violates an invariant today: GDH 8, TGDH 2,
/// STR 2 (DESIGN.md §29 has the GDH runs' minimized schedules, §23 the
/// tree engines' cause). A ratchet, not a blessing: a new failure fails
/// the test, and so does a fixed one until it is struck from the list.
const KNOWN_FAILING: [(u64, u64, &str); 12] = [
    (1, 2, "STR"),
    (3, 5, "GDH"),
    (3, 7, "GDH"),
    (4, 1, "GDH"),
    (11, 0, "GDH"),
    (16, 3, "GDH"),
    (19, 3, "GDH"),
    (19, 3, "TGDH"),
    (19, 3, "STR"),
    (23, 1, "TGDH"),
    (30, 2, "GDH"),
    (40, 1, "GDH"),
];

/// Delegates to a real protocol engine and panics on a view that
/// changes no membership. GDH, STR, BD and CKD re-key on one as a
/// refresh, but TGDH finds no node to refresh and errors; the
/// ratchet's runs show that none reaches an engine.
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
    // Every triple that moved, with its schedule: one run lists them all.
    let (mut new, mut fixed) = (Vec::new(), Vec::new());
    for seed in 1..=40 {
        for run in 0..8 {
            let schedule = generate_schedule(seed, run, &cfg);
            for kind in ProtocolKind::all() {
                let triple = (seed, run, kind.name());
                let report = run_schedule(kind, &cfg, &schedule, &factory);
                let shown = render_schedule(&schedule);
                match (report.violations.first(), KNOWN_FAILING.contains(&triple)) {
                    (Some(first), false) => new.push(format!("{triple:?}: {first}\n{shown}")),
                    (None, true) => fixed.push(format!("{triple:?}\n{shown}")),
                    _ => {}
                }
            }
        }
    }
    assert!(
        new.is_empty() && fixed.is_empty(),
        "{} new chaos failures:\n{}\n{} now pass; strike them from KNOWN_FAILING:\n{}",
        new.len(),
        new.join("\n"),
        fixed.len(),
        fixed.join("\n")
    );
}

/// The invariant violations `faults` leave under `kind`, with
/// `default_factory`'s members.
fn violations(kind: ProtocolKind, faults: &[(u64, Fault)]) -> Vec<String> {
    let schedule: Vec<PlannedFault> = faults
        .iter()
        .map(|(ms, fault)| PlannedFault {
            after: Duration::from_millis(*ms),
            fault: fault.clone(),
        })
        .collect();
    let cfg = ChaosConfig::default();
    run_schedule(kind, &cfg, &schedule, &default_factory()).violations
}

/// DESIGN.md §21's reproducer. The heal of 9 installs first (view 2,
/// `joined [9]`); the crash's eviction of 6 supersedes that merge (view
/// 3, `left [6]`). GDH reads the leave against what each member last
/// keyed, so 9 is still new and `0..=5` re-key and merge it in. STR is
/// still open: 5 and 9 end view 3 unkeyed.
#[test]
fn a_crash_evicting_a_member_mid_merge_still_keys_gdh() {
    let faults = [
        (6, Fault::Crash { daemon: 6 }),
        (8, Fault::Heal { members: vec![9] }),
    ];
    assert_eq!(violations(ProtocolKind::Gdh, &faults), Vec::<String>::new());
    assert_eq!(
        violations(ProtocolKind::Str, &faults),
        [
            "key convergence: member 5 has no key for view 3",
            "key convergence: member 9 has no key for view 3",
        ],
        "STR: open"
    );
}

/// DESIGN.md §23's reproducer, still open: 7 joins (view 2), then its
/// daemon crashes before the merge assembles (view 3, `left [7]`). A
/// pure-leave view does not clear `TreeGka::merging`, so the tree
/// engines leave 6, the refresher, unkeyed.
#[test]
fn a_joiner_crashing_mid_merge_leaves_the_tree_refresher_unkeyed() {
    let faults = [
        (1, Fault::Heal { members: vec![7] }),
        (12, Fault::Crash { daemon: 7 }),
    ];
    for kind in [ProtocolKind::Tgdh, ProtocolKind::Str] {
        assert_eq!(
            violations(kind, &faults),
            ["key convergence: member 6 has no key for view 3"],
            "{kind}: open"
        );
    }
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
