//! Seeded chaos campaigns (`repro chaos`): randomized fault schedules
//! run against every protocol, with three invariants checked after
//! quiescence and a greedy schedule minimizer for failures.
//!
//! A campaign is `runs` schedules × five protocols. Each schedule is a
//! [`FaultPlan`] — crashes, loss bursts, and partition/heal (leave/
//! join) events at virtual-time offsets — derived deterministically
//! from `(seed, run)`, so the same seed always replays the same
//! campaign and CI can pin one. After every run the world must reach
//! quiescence within a virtual-time bound, and the surviving members
//! must agree on both the installed view and the group key. On a
//! violation the schedule is shrunk by greedy delta debugging: drop
//! one fault at a time, keep the removal whenever the run still
//! fails, and repeat to a fixed point.

use std::rc::Rc;

use gkap_bignum::{RandomSource, SplitMix64};
use gkap_core::experiment::{agreed_secret, secure_world, Disagreement, SuiteKind};
use gkap_core::protocols::ProtocolKind;
use gkap_core::{AgreementPhase, SecureMember};
use gkap_gcs::{testbed, Fault, FaultPlan, PlannedFault, SimWorld};
use gkap_sim::Duration;

use crate::trace::recovery_ms;
use crate::Console;

/// Builds one member for a chaos world. Indexed by protocol and
/// client id so every rerun of a schedule (including the minimizer's)
/// constructs an identical population through
/// [`gkap_core::experiment::secure_world`].
pub type MemberFactory = dyn Fn(ProtocolKind, usize) -> SecureMember;

/// Shape of a chaos world and the timing bounds of a run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Clients added to the world (members + joinable spares).
    pub total_clients: usize,
    /// Size of the initial group (clients `0..initial_members`).
    pub initial_members: usize,
    /// Virtual-time window in which generated faults land.
    pub horizon: Duration,
    /// Liveness bound: the world must be quiescent this long after
    /// the last scheduled fault.
    pub settle: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            total_clients: 10,
            initial_members: 7,
            horizon: Duration::from_millis(40),
            settle: Duration::from_millis(300),
        }
    }
}

/// The default member population: DH 512 simulated-cost suite, one
/// deterministic seed stream per client.
pub fn default_factory() -> impl Fn(ProtocolKind, usize) -> SecureMember {
    let suite = SuiteKind::Sim512.shared();
    move |kind, i| SecureMember::new(kind, Rc::clone(&suite), 900 + i as u64, Some(17))
}

/// Outcome of one schedule against one protocol.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Human-readable invariant violations (empty = run passed).
    pub violations: Vec<String>,
    /// Id of the final installed view.
    pub final_epoch: u64,
    /// Members of the final view still alive.
    pub survivors: usize,
    /// Survivors that exhausted their restart budget (reported by the
    /// session layer, not an invariant violation).
    pub gave_up: usize,
    /// Virtual time attributed to crash recovery (ring reformation +
    /// eviction), from the telemetry fault events.
    pub recovery_ms: f64,
    /// Virtual time from fault-plan application to the end of the run.
    pub elapsed_ms: f64,
}

impl RunReport {
    /// Whether all three invariants held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one fault schedule against one protocol and checks the three
/// invariants: liveness (quiescence within `settle` of the last
/// fault), view synchrony (every surviving member installed the final
/// view), and key convergence (every surviving, non-given-up member
/// derived the identical key for it and recorded no protocol error).
/// The world is a LAN [`secure_world`] of `factory`'s members with a
/// live telemetry sink, whose fault events give the run's recovery
/// time.
pub fn run_schedule(
    kind: ProtocolKind,
    cfg: &ChaosConfig,
    faults: &[PlannedFault],
    factory: &MemberFactory,
) -> RunReport {
    let clients = 0..cfg.total_clients;
    let member = |i| factory(kind, i);
    let mut world = secure_world(testbed::lan(), true, clients, cfg.initial_members, member);

    let t0 = world.now();
    let mut plan = FaultPlan::new();
    let mut horizon = Duration::ZERO;
    for f in faults {
        horizon = horizon.max(f.after);
        plan = plan.push(f.after, f.fault.clone());
    }
    world.apply_fault_plan(plan);
    let bound = t0 + horizon + cfg.settle;
    world.run_while(|w| w.now() < bound);

    let elapsed_ms = world.now().since(t0).as_millis_f64();
    let recovery = world
        .telemetry()
        .with(|r| recovery_ms(r.events()))
        .unwrap_or(0.0)
        .min(elapsed_ms);
    if !world.quiescent() {
        // The view and keys are mid-change: the other invariants are
        // not meaningful on a hung run.
        return RunReport {
            violations: vec![format!(
                "liveness: not quiescent within {:.0} virtual ms of the last fault",
                cfg.settle.as_millis_f64()
            )],
            final_epoch: world.view().map(|v| v.id).unwrap_or(0),
            recovery_ms: recovery,
            elapsed_ms,
            ..RunReport::default()
        };
    }
    RunReport {
        recovery_ms: recovery,
        elapsed_ms,
        ..survivor_agreement(&world)
    }
}

/// The agreement invariants of a world at rest, over the *survivors* —
/// the members of the final view whose machine is still alive: view
/// synchrony (each installed that view last) and key convergence
/// ([`agreed_secret`] over the survivors that have not given up). The
/// timing fields are left zero.
pub fn survivor_agreement(world: &SimWorld) -> RunReport {
    let Some(view) = world.view() else {
        // Cannot happen after a quiescent run that installed a view,
        // but a missing view is itself an invariant violation — report
        // it instead of panicking mid-campaign.
        return RunReport {
            violations: vec!["view synchrony: no view installed after the campaign".into()],
            ..RunReport::default()
        };
    };
    let mut violations = Vec::new();
    let survivors: Vec<usize> = view
        .members
        .iter()
        .copied()
        .filter(|&c| world.client_alive(c))
        .collect();
    let mut trying = Vec::new();
    for &c in &survivors {
        let m = world.client::<SecureMember>(c);
        if m.last_view_epoch() != Some(view.id) {
            violations.push(format!(
                "view synchrony: member {c} last installed view {:?}, the group is at {}",
                m.last_view_epoch(),
                view.id
            ));
        }
        if m.phase() != AgreementPhase::GivenUp {
            trying.push(c);
        }
    }
    let convergence = match agreed_secret(world, &trying, view.id) {
        Ok(_) | Err(Disagreement::NoMembers) => None,
        Err(Disagreement::Unkeyed(c)) => {
            let m = world.client::<SecureMember>(c);
            Some(format!(
                "member {c} has no key for view {} ({}, {})",
                view.id,
                format!("{:?}", m.phase()).to_lowercase(),
                m.protocol_error()
                    .map_or("no protocol error".into(), |e| e.to_string())
            ))
        }
        Err(Disagreement::ProtocolError(c, e)) => Some(format!(
            "member {c} recorded a protocol error in view {}: {e}",
            view.id
        )),
        Err(Disagreement::Diverged(c)) => Some(format!(
            "member {c} derived a different key for view {}",
            view.id
        )),
    };
    violations.extend(convergence.map(|why| format!("key convergence: {why}")));
    RunReport {
        violations,
        final_epoch: view.id,
        survivors: survivors.len(),
        gave_up: survivors.len() - trying.len(),
        ..RunReport::default()
    }
}

/// Derives run `run`'s fault schedule from the campaign seed.
///
/// The mix covers every fault class: daemon crashes, loss bursts,
/// partition/heal pairs, and single-member leaves/joins (cascade
/// pressure — they routinely land while the previous agreement is
/// still in flight). Removal-type faults are capped so the group can
/// never be wiped out entirely, which would make the invariants
/// vacuous.
pub fn generate_schedule(seed: u64, run: u64, cfg: &ChaosConfig) -> Vec<PlannedFault> {
    let mut rng = SplitMix64::new(
        seed ^ run
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x5eed_cafe),
    );
    let _ = rng.next_u64(); // decorrelate from the raw seed
    let steps = 3 + (rng.next_u64() % 4) as usize;
    let horizon_ms = (cfg.horizon.as_millis_f64() as u64).max(1);
    // Crashes and unhealed leaves permanently shrink the group; allow
    // only as many as keep a quorum of the initial members alive.
    let removal_cap = cfg.initial_members.saturating_sub(3) / 2;
    let mut removals = 0;
    let mut faults = Vec::new();
    for _ in 0..steps {
        let at = Duration::from_millis(rng.next_u64() % horizon_ms);
        let fault = match rng.next_u64() % 6 {
            0 if removals < removal_cap => {
                removals += 1;
                Fault::Crash {
                    daemon: (rng.next_u64() % 13) as usize,
                }
            }
            1 if removals < removal_cap => {
                removals += 1;
                let a = (rng.next_u64() as usize) % cfg.total_clients;
                let b = (rng.next_u64() as usize) % cfg.total_clients;
                let members = if a == b { vec![a] } else { vec![a, b] };
                faults.push(PlannedFault {
                    after: at + Duration::from_millis(5 + rng.next_u64() % 10),
                    fault: Fault::Heal {
                        members: members.clone(),
                    },
                });
                Fault::Partition { members }
            }
            2 => Fault::LossBurst {
                rate: 0.3 + (rng.next_u64() % 60) as f64 / 100.0,
                duration: Duration::from_millis(1 + rng.next_u64() % 6),
            },
            _ => {
                let c = (rng.next_u64() as usize) % cfg.total_clients;
                if rng.next_u64().is_multiple_of(2) || removals >= removal_cap {
                    Fault::Heal { members: vec![c] }
                } else {
                    removals += 1;
                    Fault::Partition { members: vec![c] }
                }
            }
        };
        faults.push(PlannedFault { after: at, fault });
    }
    faults
}

/// Shrinks a failing schedule by greedy delta debugging: repeatedly
/// drop any single fault whose removal keeps the run failing, until
/// no single removal does.
pub fn minimize(
    kind: ProtocolKind,
    cfg: &ChaosConfig,
    faults: &[PlannedFault],
    factory: &MemberFactory,
) -> Vec<PlannedFault> {
    let mut cur = faults.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if !run_schedule(kind, cfg, &cand, factory).passed() {
                cur = cand;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

/// One failing run of a campaign, with its minimized reproduction.
#[derive(Clone, Debug)]
pub struct CampaignFailure {
    /// The protocol that violated an invariant.
    pub kind: ProtocolKind,
    /// Which run of the campaign (0-based).
    pub run: u32,
    /// The full generated schedule.
    pub schedule: Vec<PlannedFault>,
    /// The smallest still-failing subset of the schedule.
    pub minimized: Vec<PlannedFault>,
    /// The violations the full schedule produced.
    pub violations: Vec<String>,
}

/// One row of the campaign result table (a run × protocol cell).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosRow {
    /// Which run of the campaign (0-based).
    pub run: u32,
    /// Protocol name.
    pub protocol: &'static str,
    /// Number of scheduled faults.
    pub faults: usize,
    /// Whether all invariants held.
    pub passed: bool,
    /// Surviving members of the final view.
    pub survivors: usize,
    /// Members that exhausted their restart budget.
    pub gave_up: usize,
    /// Id of the final installed view.
    pub final_epoch: u64,
    /// Virtual ms attributed to crash recovery.
    pub recovery_ms: f64,
    /// Virtual ms from fault application to run end.
    pub elapsed_ms: f64,
}

/// Full result of a chaos campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The campaign seed.
    pub seed: u64,
    /// Number of schedules run.
    pub runs: u32,
    /// Every run × protocol outcome.
    pub rows: Vec<ChaosRow>,
    /// The failures, each with a minimized reproduction.
    pub failures: Vec<CampaignFailure>,
}

impl CampaignReport {
    /// Whether every run of every protocol held all invariants.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs a full campaign: `runs` schedules × all five protocols.
/// Failures are immediately re-run through [`minimize`].
pub fn run_campaign(
    seed: u64,
    runs: u32,
    cfg: &ChaosConfig,
    factory: &MemberFactory,
    con: &mut Console,
) -> CampaignReport {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for run in 0..runs {
        let schedule = generate_schedule(seed, run as u64, cfg);
        con.note(format!(
            "[chaos run {}/{runs}: {} faults]",
            run + 1,
            schedule.len()
        ));
        for kind in ProtocolKind::all() {
            let report = run_schedule(kind, cfg, &schedule, factory);
            rows.push(ChaosRow {
                run,
                protocol: kind.name(),
                faults: schedule.len(),
                passed: report.passed(),
                survivors: report.survivors,
                gave_up: report.gave_up,
                final_epoch: report.final_epoch,
                recovery_ms: report.recovery_ms,
                elapsed_ms: report.elapsed_ms,
            });
            if !report.passed() {
                con.note(format!(
                    "[chaos run {}: {} FAILED — minimizing]",
                    run + 1,
                    kind.name()
                ));
                let minimized = minimize(kind, cfg, &schedule, factory);
                failures.push(CampaignFailure {
                    kind,
                    run,
                    schedule: schedule.clone(),
                    minimized,
                    violations: report.violations,
                });
            }
        }
    }
    CampaignReport {
        seed,
        runs,
        rows,
        failures,
    }
}

fn fmt_fault(f: &Fault) -> String {
    match f {
        Fault::Crash { daemon } => format!("crash daemon {daemon}"),
        Fault::LossBurst { rate, duration } => format!(
            "loss burst {:.0}% for {:.1} ms",
            rate * 100.0,
            duration.as_millis_f64()
        ),
        Fault::Partition { members } => format!("partition {members:?}"),
        Fault::Heal { members } => format!("heal {members:?}"),
    }
}

/// Renders a schedule one fault per line, in firing order.
pub fn render_schedule(faults: &[PlannedFault]) -> String {
    let mut sorted: Vec<&PlannedFault> = faults.iter().collect();
    sorted.sort_by_key(|f| f.after);
    sorted
        .iter()
        .map(|f| {
            format!(
                "  t+{:>5.1} ms  {}",
                f.after.as_millis_f64(),
                fmt_fault(&f.fault)
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders the per-protocol campaign summary table.
pub fn render_summary(report: &CampaignReport) -> String {
    let mut s = format!(
        "# Chaos campaign — seed {}, {} runs × 5 protocols (virtual ms)\n\
         {:<8} {:>6} {:>6} {:>9} {:>8} {:>12} {:>12}\n",
        report.seed,
        report.runs,
        "protocol",
        "passed",
        "failed",
        "survivors",
        "gave_up",
        "recovery_ms",
        "agreement_ms"
    );
    for kind in ProtocolKind::all() {
        let rows: Vec<&ChaosRow> = report
            .rows
            .iter()
            .filter(|r| r.protocol == kind.name())
            .collect();
        let passed = rows.iter().filter(|r| r.passed).count();
        let failed = rows.len() - passed;
        let survivors: usize = rows.iter().map(|r| r.survivors).sum();
        let gave_up: usize = rows.iter().map(|r| r.gave_up).sum();
        let recovery: f64 = rows.iter().map(|r| r.recovery_ms).sum();
        let elapsed: f64 = rows.iter().map(|r| r.elapsed_ms).sum();
        s.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>9} {:>8} {:>12.2} {:>12.2}\n",
            kind.name(),
            passed,
            failed,
            survivors,
            gave_up,
            recovery,
            (elapsed - recovery).max(0.0)
        ));
    }
    s
}

/// Renders one failure: violations, the seed-reproducible minimal
/// schedule, and how to replay it.
pub fn render_failure(f: &CampaignFailure) -> String {
    let mut s = format!(
        "FAILED: {} run {} ({} faults, minimized to {})\n",
        f.kind.name(),
        f.run,
        f.schedule.len(),
        f.minimized.len()
    );
    for v in &f.violations {
        s.push_str(&format!("  violation: {v}\n"));
    }
    s.push_str("minimal failing schedule:\n");
    s.push_str(&render_schedule(&f.minimized));
    s.push('\n');
    s
}

/// Renders the campaign as CSV (one row per run × protocol).
pub fn campaign_csv(report: &CampaignReport) -> String {
    let mut s = String::from(
        "seed,run,protocol,faults,passed,survivors,gave_up,final_epoch,recovery_ms,elapsed_ms\n",
    );
    for r in &report.rows {
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.6},{:.6}\n",
            report.seed,
            r.run,
            r.protocol,
            r.faults,
            r.passed,
            r.survivors,
            r.gave_up,
            r.final_epoch,
            r.recovery_ms,
            r.elapsed_ms
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_capped() {
        let cfg = ChaosConfig::default();
        for run in 0..16 {
            let a = generate_schedule(7, run, &cfg);
            let b = generate_schedule(7, run, &cfg);
            assert_eq!(a, b, "run {run} not reproducible");
            assert!(!a.is_empty());
            let removals = a
                .iter()
                .filter(|f| matches!(f.fault, Fault::Crash { .. } | Fault::Partition { .. }))
                .count();
            // Crashes plus partitions stay below the wipe-out bound
            // (every partition is ≤ 2 members and may also be healed).
            assert!(removals <= 2, "run {run}: {removals} removal faults");
        }
        // Different seeds diverge.
        assert_ne!(generate_schedule(7, 0, &cfg), generate_schedule(8, 0, &cfg));
    }

    #[test]
    fn clean_schedule_passes_all_invariants() {
        let cfg = ChaosConfig::default();
        let factory = default_factory();
        let report = run_schedule(ProtocolKind::Gdh, &cfg, &[], &factory);
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.survivors, cfg.initial_members);
        assert_eq!(report.recovery_ms, 0.0);
    }

    #[test]
    fn crash_recovery_time_is_attributed() {
        let cfg = ChaosConfig::default();
        let factory = default_factory();
        let faults = vec![PlannedFault {
            after: Duration::from_millis(2),
            fault: Fault::Crash { daemon: 3 },
        }];
        let report = run_schedule(ProtocolKind::Tgdh, &cfg, &faults, &factory);
        assert!(report.passed(), "{:?}", report.violations);
        // Client 3 lived on machine 3: the group shrank by one.
        assert_eq!(report.survivors, cfg.initial_members - 1);
        assert!(
            report.recovery_ms > 0.0,
            "crash recovery not attributed: {report:?}"
        );
        assert!(report.recovery_ms <= report.elapsed_ms);
    }
}
