//! End-to-end chaos campaign properties: a pinned campaign passes and
//! replays identically, every run over seeds 1..=100 passes at two
//! fault horizons and no view in them changes no membership, DESIGN.md's
//! named restart reproducers agree under every protocol, and the schedule
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
use gkap_gcs::{ClientId, Fault, PlannedFault};
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

/// Delegates to a real protocol engine and panics on a view that
/// changes no membership: one whose members are those of its previous
/// call. Every engine re-keys on one as a refresh (in a key tree, the
/// rightmost member draws a new session random); the campaign's runs
/// show that none reaches an engine.
struct ChangesMembership {
    inner: Box<dyn GkaProtocol>,
    /// The members of the previous call since the last reset, sorted:
    /// a rejoiner's engine is reset before the view that admits it.
    last: Option<Vec<ClientId>>,
}

impl GkaProtocol for ChangesMembership {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let mut members = ctx.members().to_vec();
        members.sort_unstable();
        assert!(
            self.last.as_ref() != Some(&members),
            "view {} changes no membership at member {}",
            ctx.epoch,
            ctx.me()
        );
        self.last = Some(members);
        self.inner.on_view(ctx)
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
        self.last = None;
        self.inner.reset();
    }
}

/// Every `(seed, run, protocol)` of `repro chaos --seed N --runs 8`,
/// for N in 1..=100, passes, with faults landing in the default 40 ms
/// window and spread over a 400 ms one. The last 11 and 7 runs to fail
/// were partitions and heals installed as serial views (DESIGN.md §35).
#[test]
fn every_chaos_run_over_a_hundred_seeds_passes() {
    // `default_factory`'s members, each engine behind the check.
    let suite = SuiteKind::Sim512.shared();
    let factory = move |kind: ProtocolKind, i: usize| {
        let checked = Box::new(ChangesMembership {
            inner: kind.create(),
            last: None,
        });
        SecureMember::with_protocol(checked, Rc::clone(&suite), 900 + i as u64, Some(17))
    };
    let wide = ChaosConfig {
        horizon: Duration::from_millis(400),
        ..ChaosConfig::default()
    };
    // Every failing triple, with its schedule: one run lists them all.
    let mut failing = Vec::new();
    for cfg in [ChaosConfig::default(), wide] {
        for seed in 1..=100 {
            for run in 0..8 {
                let schedule = generate_schedule(seed, run, &cfg);
                for kind in ProtocolKind::all() {
                    let report = run_schedule(kind, &cfg, &schedule, &factory);
                    if let Some(first) = report.violations.first() {
                        failing.push(format!(
                            "horizon {}: {:?}: {first}\n{}",
                            cfg.horizon,
                            (seed, run, kind.name()),
                            render_schedule(&schedule)
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failing.is_empty(),
        "{} chaos runs fail:\n{}",
        failing.len(),
        failing.join("\n")
    );
}

/// Delegates to a real protocol engine and, once it has established
/// the key, reports a protocol error all the same.
struct ErrsOnceKeyed(Box<dyn GkaProtocol>);

impl ErrsOnceKeyed {
    fn after(ctx: &GkaCtx<'_, '_>, inner: Result<(), GkaError>) -> Result<(), GkaError> {
        inner?;
        if ctx.established() {
            return Err(GkaError::Protocol("reported after keying"));
        }
        Ok(())
    }
}

impl GkaProtocol for ErrsOnceKeyed {
    fn kind(&self) -> ProtocolKind {
        self.0.kind()
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let inner = self.0.on_view(ctx);
        Self::after(ctx, inner)
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        let inner = self.0.on_msg(ctx, sender, msg);
        Self::after(ctx, inner)
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

/// A survivor that derives the group's key and then records a protocol
/// error fails key convergence: a right key does not absorb the fault.
#[test]
fn a_protocol_error_after_keying_is_a_violation() {
    let suite = SuiteKind::Sim512.shared();
    let factory = move |kind: ProtocolKind, i: usize| {
        let engine = match i {
            3 => Box::new(ErrsOnceKeyed(kind.create())),
            _ => kind.create(),
        };
        SecureMember::with_protocol(engine, Rc::clone(&suite), 900 + i as u64, Some(17))
    };
    let schedule = [PlannedFault {
        after: Duration::from_millis(12),
        fault: Fault::Partition { members: vec![2] },
    }];
    for kind in ProtocolKind::all() {
        let report = run_schedule(kind, &ChaosConfig::default(), &schedule, &factory);
        let error = "protocol invariant violated: reported after keying";
        assert_eq!(
            report.violations,
            [format!(
                "key convergence: member 3 recorded a protocol error in view {}: {error}",
                report.final_epoch
            )],
            "{kind}"
        );
    }
}

/// Named schedules that once left survivors unkeyed or unsettled, as
/// `(virtual ms, fault)` pairs; every protocol keys each of them.
fn reproducers() -> [(&'static str, Vec<(u64, Fault)>); 4] {
    [
        // DESIGN.md §27: the heal of 9 installs first (view 2, `joined
        // [9]`); the crash's eviction of 6 supersedes that merge (view
        // 3, `left [6]`). Every engine reads view 3 against the state
        // it holds, so 9 is still new: `0..=5` re-key and merge it in.
        (
            "a crash evicting a member mid-merge",
            vec![
                (6, Fault::Crash { daemon: 6 }),
                (8, Fault::Heal { members: vec![9] }),
            ],
        ),
        // DESIGN.md §27: 7 joins (view 2), then its daemon crashes
        // before the merge assembles (view 3, `left [7]`). The tree
        // engines' tree never held 7, so view 3 refreshes the tree, and
        // its root is the key because its leaves are the view (§33).
        (
            "a joiner crashing mid-merge",
            vec![
                (1, Fault::Heal { members: vec![7] }),
                (12, Fault::Crash { daemon: 7 }),
            ],
        ),
        // DESIGN.md §34: 2 leaves and rejoins while no agreement
        // converges, then 6's daemon crashes. A member that left is
        // keyed by nobody, so 2 is new to every member, itself
        // included, and GDH's survivors wait on one controller.
        (
            "a member leaving and rejoining before a crash",
            vec![
                (
                    11,
                    Fault::Partition {
                        members: vec![2, 9],
                    },
                ),
                (
                    21,
                    Fault::Heal {
                        members: vec![2, 9],
                    },
                ),
                (29, Fault::Crash { daemon: 6 }),
            ],
        ),
        // DESIGN.md §35: six faults within 37 ms. Installed as six
        // serial views, they cost GDH six agreements at n = 7–8 and the
        // world settled past the liveness bound. Folded, they install
        // one view, `joined [8]`; the rest cancel out.
        (
            "six faults folding into one view",
            vec![
                (2, Fault::Heal { members: vec![8] }),
                (
                    13,
                    Fault::Partition {
                        members: vec![0, 6],
                    },
                ),
                (22, Fault::Heal { members: vec![0] }),
                (
                    27,
                    Fault::Heal {
                        members: vec![0, 6],
                    },
                ),
                (
                    32,
                    Fault::Partition {
                        members: vec![6, 0],
                    },
                ),
                (
                    37,
                    Fault::Heal {
                        members: vec![6, 0],
                    },
                ),
            ],
        ),
    ]
}

#[test]
fn restart_reproducers_key_every_protocol() {
    let (cfg, factory) = (ChaosConfig::default(), default_factory());
    for (name, faults) in reproducers() {
        let schedule: Vec<PlannedFault> = faults
            .into_iter()
            .map(|(ms, fault)| PlannedFault {
                after: Duration::from_millis(ms),
                fault,
            })
            .collect();
        for kind in ProtocolKind::all() {
            let found = run_schedule(kind, &cfg, &schedule, &factory).violations;
            assert_eq!(found, Vec::<String>::new(), "{name}: {kind}");
        }
    }
}

/// Delegates to a real protocol engine but, from the first view that
/// lacks a member of its previous call, establishes a per-member
/// poison value as every epoch's key before the engine can — a
/// divergence bug of exactly the class the key-convergence invariant
/// and the minimizer exist to catch.
struct ForgetsLeavers {
    inner: Box<dyn GkaProtocol>,
    poison: Option<Ubig>,
    /// The members of the previous call since the last reset: the
    /// adopted component's or a view's.
    last: Vec<ClientId>,
}

impl GkaProtocol for ForgetsLeavers {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let view = ctx.members().to_vec();
        if self.last.iter().any(|m| !view.contains(m)) {
            self.poison = Some(Ubig::from(0xDEC0_DE00u64 + ctx.me() as u64));
        }
        if let Some(poison) = &self.poison {
            ctx.establish(poison.clone(), view.iter().copied());
        }
        self.last = view;
        self.inner.on_view(ctx)
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
        self.last = component.members().to_vec();
        self.inner.adopt(component, me)
    }

    fn reset(&mut self) {
        self.poison = None;
        self.last.clear();
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
            last: Vec::new(),
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
