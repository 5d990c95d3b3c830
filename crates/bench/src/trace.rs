//! Traced runs: per-protocol latency breakdowns for the paper's
//! figures, exported as an aligned table, a CSV, and per-run JSONL
//! event logs (`repro trace` / `repro trace-summary`).
//!
//! Each breakdown row decomposes one membership event's total elapsed
//! time into the §6 cost categories — membership service, protocol
//! rounds (non-crypto processing), cryptographic compute, and network
//! wait — such that the four columns sum to the elapsed time exactly.

use gkap_core::experiment::{run_traced, ExperimentConfig, LeaveTarget, Step, SuiteKind, TraceRun};
use gkap_core::protocols::ProtocolKind;
use gkap_gcs::{testbed, GcsConfig};
use gkap_telemetry::{fault, Event, EventKind};

/// One traced measurement: a protocol × event cell of the breakdown.
#[derive(Debug)]
pub struct TraceRow {
    /// Protocol name (`"GDH"`, …).
    pub protocol: &'static str,
    /// `"join"`, `"leave"` or `"crash"`.
    pub event: &'static str,
    /// Group size after the event.
    pub n: usize,
    /// The full traced run (outcome, events, breakdown).
    pub run: TraceRun,
}

/// The figure a trace command reproduces: which testbed, and which
/// events under which row label.
fn figure_spec(figure: &str) -> Option<(GcsConfig, &'static [(&'static str, Step)])> {
    const JOIN: (&str, Step) = ("join", Step::Join);
    const LEAVE: (&str, Step) = ("leave", Step::Leave(LeaveTarget::Middle));
    match figure {
        "fig11" => Some((testbed::lan(), &[JOIN])),
        "fig12" => Some((testbed::lan(), &[LEAVE])),
        "fig14" => Some((testbed::wan(), &[JOIN, LEAVE])),
        // Extension: a daemon crash evicts its members; elapsed spans
        // detection + ring reformation + eviction + re-keying.
        "crash" => Some((testbed::lan(), &[("crash", Step::Crash)])),
        _ => None,
    }
}

/// Virtual milliseconds the run spent recovering from crashes: the
/// union of the windows from each `crash` fault event to the first
/// view installed afterwards (detection timeout, ring reformation,
/// and the eviction membership change). Zero for fault-free runs.
pub fn recovery_ms(events: &[Event]) -> f64 {
    let mut total = 0.0;
    let mut covered = f64::NEG_INFINITY; // end of the last counted window
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Fault { action, .. } if action == fault::CRASH => {}
            _ => continue,
        }
        let start = e.at.as_millis_f64();
        let end = events[i..]
            .iter()
            .find_map(|v| match v.kind {
                EventKind::ViewInstalled { .. } => Some(v.at.as_millis_f64()),
                _ => None,
            })
            .unwrap_or_else(|| events.last().map(|v| v.at.as_millis_f64()).unwrap_or(start));
        let s = start.max(covered);
        if end > s {
            total += end - s;
            covered = end;
        }
    }
    total
}

/// Runs every protocol through the figure's events at group size `n`
/// with telemetry on. Returns `None` for an unknown figure name.
///
/// # Panics
///
/// Panics if any protocol fails to complete the event (a protocol
/// deadlock — the same invariant the figure builders assert).
pub fn trace_figure(figure: &str, n: usize) -> Option<Vec<TraceRow>> {
    let (gcs, events) = figure_spec(figure)?;
    let mut rows = Vec::new();
    for kind in ProtocolKind::all() {
        for &(event, step) in events {
            let cfg = ExperimentConfig {
                protocol: kind,
                gcs: gcs.clone(),
                suite: SuiteKind::Sim512,
                seed: 0x5eed,
                confirm_keys: false,
                telemetry: true,
            };
            let run = run_traced(&cfg, n, step);
            assert!(run.outcome.ok, "{kind} failed traced {event} at n={n}");
            rows.push(TraceRow {
                protocol: kind.name(),
                event,
                n,
                run,
            });
        }
    }
    Some(rows)
}

/// Renders the aligned per-protocol breakdown table.
pub fn summary_table(figure: &str, rows: &[TraceRow]) -> String {
    let n = rows.first().map(|r| r.n).unwrap_or(0);
    let mut s = format!(
        "# Latency breakdown — {figure}, n={n}, DH 512 bits (virtual ms)\n\
         {:<8} {:<6} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "protocol",
        "event",
        "elapsed",
        "membership",
        "rounds",
        "crypto",
        "network",
        "sum",
        "recovery",
        "agreement"
    );
    for r in rows {
        let b = &r.run.breakdown;
        let recovery = recovery_ms(&r.run.events).min(b.elapsed_ms);
        s.push_str(&format!(
            "{:<8} {:<6} {:>10.2} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
            r.protocol,
            r.event,
            b.elapsed_ms,
            b.membership_ms,
            b.rounds_ms,
            b.crypto_ms,
            b.network_ms,
            b.total_ms(),
            recovery,
            b.elapsed_ms - recovery,
        ));
    }
    s
}

/// Renders the breakdown as CSV (same columns as the table).
pub fn summary_csv(figure: &str, rows: &[TraceRow]) -> String {
    let mut s = String::from(
        "figure,protocol,event,n,elapsed_ms,membership_ms,rounds_ms,crypto_ms,network_ms,sum_ms,\
         recovery_ms,agreement_ms\n",
    );
    for r in rows {
        let b = &r.run.breakdown;
        let recovery = recovery_ms(&r.run.events).min(b.elapsed_ms);
        s.push_str(&format!(
            "{figure},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            r.protocol,
            r.event,
            r.n,
            b.elapsed_ms,
            b.membership_ms,
            b.rounds_ms,
            b.crypto_ms,
            b.network_ms,
            b.total_ms(),
            recovery,
            b.elapsed_ms - recovery,
        ));
    }
    s
}

/// Collapsed-stack ("folded") rendering of traced runs, one line per
/// unique stack: `frames;separated;by;semicolons <weight>`, the input
/// format of every flamegraph renderer (`flamegraph.pl`, inferno,
/// speedscope). Stacks are rooted at `protocol;event`, one frame per
/// cost layer, leaf frames naming the primitive; weights are exact
/// integer **virtual nanoseconds** summed over all spans with that
/// stack, so the output is deterministic and the flame widths
/// reproduce the paper's latency decomposition. Zero-duration point
/// events (sequenced, delivered, …) carry no time and are omitted.
pub fn folded_stacks(rows: &[TraceRow]) -> String {
    use std::collections::BTreeMap;
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    let mut add = |stack: String, ns: u64| {
        if ns > 0 {
            *weights.entry(stack).or_insert(0) += ns;
        }
    };
    for r in rows {
        let root = format!("{};{}", r.protocol, r.event);
        for e in &r.run.events {
            match &e.kind {
                EventKind::CryptoOp { op, .. } => {
                    add(format!("{root};crypto;{}", op.as_str()), e.dur.as_nanos());
                }
                EventKind::HandlerSpan { wait } => {
                    add(format!("{root};cpu;handler_busy"), e.dur.as_nanos());
                    add(format!("{root};cpu;queue_wait"), wait.as_nanos());
                }
                EventKind::MembershipEvent { action, .. } => {
                    add(format!("{root};membership;{action}"), e.dur.as_nanos());
                }
                EventKind::Fault { action, .. } => {
                    add(format!("{root};fault;{action}"), e.dur.as_nanos());
                }
                // Point events: no duration to attribute.
                _ => {}
            }
        }
    }
    let mut s = String::new();
    for (stack, ns) in &weights {
        s.push_str(&format!("{stack} {ns}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_sim::{Duration, SimTime};
    use gkap_telemetry::Actor;

    #[test]
    fn unknown_figure_is_none() {
        assert!(trace_figure("fig99", 8).is_none());
    }

    #[test]
    fn recovery_windows_merge_and_close_at_view_install() {
        let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
        let ev = |t: u64, kind: EventKind| Event {
            at: at(t),
            dur: Duration::ZERO,
            actor: Actor::World,
            kind,
        };
        let crash = |t| {
            ev(
                t,
                EventKind::Fault {
                    action: fault::CRASH,
                    target: 0,
                },
            )
        };
        let install = |t| ev(t, EventKind::ViewInstalled { view_id: 1 });
        assert_eq!(recovery_ms(&[]), 0.0);
        // Fault-free log: nothing attributed.
        assert_eq!(recovery_ms(&[install(5)]), 0.0);
        // crash@10 → install@14 is 4 ms; a second crash@12 inside the
        // same window adds nothing; crash@20 → install@25 adds 5 ms.
        let events = vec![
            install(2),
            crash(10),
            crash(12),
            install(14),
            crash(20),
            install(25),
        ];
        assert!((recovery_ms(&events) - 9.0).abs() < 1e-9);
        // A crash with no later install runs to the end of the log.
        let open = vec![
            crash(10),
            crash(12),
            ev(18, EventKind::TokenRotation { rotation: 1 }),
        ];
        assert!((recovery_ms(&open) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn crash_trace_attributes_recovery_time() {
        let rows = trace_figure("crash", 6).expect("known figure");
        assert_eq!(rows.len(), 5); // one crash row per protocol
        for r in &rows {
            assert_eq!(r.event, "crash");
            let rec = recovery_ms(&r.run.events);
            assert!(rec > 0.0, "{}: no recovery attributed", r.protocol);
            assert!(
                rec <= r.run.breakdown.elapsed_ms + 1e-9,
                "{}: recovery {rec} exceeds elapsed {}",
                r.protocol,
                r.run.breakdown.elapsed_ms
            );
        }
        let table = summary_table("crash", &rows);
        assert!(table.contains("recovery") && table.contains("agreement"));
        let csv = summary_csv("crash", &rows);
        assert!(csv.starts_with("figure,protocol,event,n,"));
        assert!(csv.contains("recovery_ms,agreement_ms"));
    }

    #[test]
    fn folded_stacks_are_deterministic_weighted_nanos() {
        let rows = trace_figure("fig11", 6).expect("known figure");
        let folded = folded_stacks(&rows);
        assert_eq!(folded, folded_stacks(&rows), "deterministic bytes");
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("stack <weight>");
            let w: u64 = weight.parse().unwrap_or_else(|_| panic!("weight: {line}"));
            assert!(w > 0, "zero-weight stack emitted: {line}");
            assert!(stack.contains(';'), "rootless stack: {line}");
        }
        // Every protocol contributes crypto leaves under its own root.
        for proto in ["GDH", "TGDH", "STR", "BD", "CKD"] {
            assert!(
                folded
                    .lines()
                    .any(|l| l.starts_with(&format!("{proto};join;crypto;"))),
                "{proto} missing crypto frames:\n{folded}"
            );
        }
        // Stacks are unique and sorted (BTreeMap order).
        let stacks: Vec<&str> = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' ').map(|(s, _)| s))
            .collect();
        let mut sorted = stacks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(stacks, sorted);
    }

    #[test]
    fn breakdown_columns_sum_to_elapsed() {
        // Small LAN group keeps the test fast; the invariant is
        // structural, not size-dependent.
        let rows = trace_figure("fig11", 6).expect("known figure");
        assert_eq!(rows.len(), 5); // one join row per protocol
        for r in &rows {
            let b = &r.run.breakdown;
            assert!(b.elapsed_ms > 0.0, "{} elapsed", r.protocol);
            let sum = b.total_ms();
            assert!(
                (sum - b.elapsed_ms).abs() <= 0.01 * b.elapsed_ms.max(1e-9),
                "{}: sum {sum} vs elapsed {}",
                r.protocol,
                b.elapsed_ms
            );
            for (name, v) in [
                ("membership", b.membership_ms),
                ("rounds", b.rounds_ms),
                ("crypto", b.crypto_ms),
                ("network", b.network_ms),
            ] {
                assert!(v >= 0.0, "{} {name} negative: {v}", r.protocol);
            }
            assert!(
                !r.run.events.is_empty(),
                "{} captured no events",
                r.protocol
            );
        }
        let table = summary_table("fig11", &rows);
        assert!(table.contains("GDH") && table.contains("membership"));
        let csv = summary_csv("fig11", &rows);
        assert_eq!(csv.lines().count(), 6); // header + 5 rows
    }
}
