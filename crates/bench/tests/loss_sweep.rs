//! The loss-sweep campaign's acceptance contract (`repro chaos
//! --loss-sweep`): at the pinned seed every cell converges; wherever
//! the retransmission-only baseline needs request rounds, the FEC
//! twin needs **zero**; the recovery-time attribution buckets sum
//! exactly; and the CSV and manifest body are bit-identical across
//! `--jobs`. The `--burst` grid gets the same
//! treatment over Gilbert–Elliott burst-correlated loss, where the
//! headline weakens from round-free to strictly-fewer-rounds: a burst
//! can exceed any fixed parity budget.

use gkap_bench::loss_sweep::{
    burst_csv, burst_manifest, burst_table, run_burst_sweep, run_sweep, sweep_csv, sweep_manifest,
    sweep_table, BurstRow, SweepMode, SweepOptions, SweepRow, BURST_BAD_PCTS, BURST_ROTS,
    LOSS_PCTS,
};

fn opts(jobs: usize) -> SweepOptions {
    SweepOptions {
        seed: 7,
        jobs,
        protocol: None,
    }
}

#[test]
fn fec_eliminates_request_rounds_wherever_the_baseline_needs_them() {
    let rows = run_sweep(&opts(4));
    assert_eq!(rows.len(), 80, "2 nets x 4 rates x 2 modes x 5 protocols");
    for r in &rows {
        assert!(
            r.converged,
            "{} {}% {} {} must converge",
            r.net,
            r.loss_pct,
            r.mode.name(),
            r.protocol
        );
    }

    // Like-for-like: every (net, rate, protocol) pair whose baseline
    // spent >= 1 request round is served round-free by the FEC twin.
    let mut baseline_needed = 0;
    for net in ["lan", "wan"] {
        for pct in LOSS_PCTS {
            for proto in ["GDH", "TGDH", "STR", "BD", "CKD"] {
                let find = |mode: SweepMode| {
                    rows.iter()
                        .find(|r| {
                            r.net == net
                                && r.loss_pct == pct
                                && r.mode == mode
                                && r.protocol == proto
                        })
                        .expect("cell present")
                };
                let base = find(SweepMode::Retrans);
                let fec = find(SweepMode::Fec);
                if base.retrans_rounds >= 1 {
                    baseline_needed += 1;
                    assert_eq!(
                        fec.retrans_rounds, 0,
                        "{net} {pct}% {proto}: baseline spent {} rounds, FEC must spend none",
                        base.retrans_rounds
                    );
                }
                // The FEC twin never falls back to retransmission at
                // this parity budget: repairs are all local.
                assert_eq!(fec.retransmissions, 0, "{net} {pct}% {proto}");
                assert_eq!(fec.retransmission_ns, 0, "{net} {pct}% {proto}");
                assert!(
                    fec.lost == 0 || fec.fec_repairs > 0,
                    "{net} {pct}% {proto}: losses must repair via parity"
                );
                assert!(fec.parity_sent > 0, "{net} {pct}% {proto}");
                // The baseline keeps the pre-FEC engine dormant.
                assert_eq!(base.parity_sent, 0);
                assert_eq!(base.fec_repairs, 0);
                assert_eq!(base.fec_repair_ns, 0);
            }
        }
    }
    assert!(
        baseline_needed >= 10,
        "the sweep must exercise cells where the baseline actually \
         needs retransmission rounds (saw {baseline_needed})"
    );
}

#[test]
fn recovery_attribution_sums_exactly_per_cell() {
    let rows = run_sweep(&SweepOptions {
        seed: 7,
        jobs: 4,
        protocol: Some(gkap_core::protocols::ProtocolKind::Bd),
    });
    assert_eq!(rows.len(), 16, "one protocol: 2 nets x 4 rates x 2 modes");
    let mut recovered = 0;
    for r in &rows {
        assert_eq!(
            r.recovery_ns(),
            r.fec_repair_ns + r.retransmission_ns,
            "attribution must sum exactly"
        );
        if r.recovery_ns() > 0 {
            recovered += 1;
        }
    }
    assert!(recovered > 0, "some cells must record recovery time");
    // The rendered CSV carries the same exactness: recovery_ms is the
    // sum of the two attribution columns in every data row.
    let csv = sweep_csv(7, &rows);
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        let fec_ms: f64 = cols[11].parse().unwrap();
        let retrans_ms: f64 = cols[12].parse().unwrap();
        let recovery_ms: f64 = cols[13].parse().unwrap();
        assert!(
            (fec_ms + retrans_ms - recovery_ms).abs() < 1e-9,
            "CSV attribution must sum: {line}"
        );
    }
}

#[test]
fn sweep_csv_and_manifest_bit_identical_across_jobs() {
    let o1 = opts(1);
    let rows1 = run_sweep(&o1);
    let csv1 = sweep_csv(o1.seed, &rows1);
    let man1 = sweep_manifest(&o1, &rows1);
    assert_eq!(csv1.lines().count(), 81, "header + 80 cells");
    for jobs in [4usize, 2] {
        let o = opts(jobs);
        let rows = run_sweep(&o);
        assert_eq!(
            csv1,
            sweep_csv(o.seed, &rows),
            "sweep CSV must be bit-identical at --jobs {jobs}"
        );
        assert_eq!(
            man1.deterministic_json(),
            sweep_manifest(&o, &rows).deterministic_json(),
            "sweep manifest body must be bit-identical at --jobs {jobs}"
        );
    }
    assert_eq!(man1.tag, "loss_s7");
    assert!(man1.counts.contains_key("harness/loss_sweep/cells"));
    let table = sweep_table(o1.seed, &rows1);
    assert!(table.contains("lan") && table.contains("wan"), "{table}");
}

#[test]
fn burst_cells_converge_and_fec_wins_rounds_per_net() {
    let rows = run_burst_sweep(&opts(4));
    assert_eq!(rows.len(), 80, "2 nets x 2 bursts x 2 rates x 2 modes x 5");
    for r in &rows {
        assert!(
            r.converged,
            "{} b{} p{} {} {} must converge",
            r.net,
            r.burst_rot,
            r.bad_pct,
            r.mode.name(),
            r.protocol
        );
        assert_eq!(
            r.recovery_ns(),
            r.fec_repair_ns + r.retransmission_ns,
            "attribution must sum exactly"
        );
        match r.mode {
            // The pre-FEC engine stays dormant in the baseline cells.
            SweepMode::Retrans => {
                assert_eq!(r.parity_sent, 0);
                assert_eq!(r.parity_bytes, 0);
                assert_eq!(r.fec_repairs, 0);
            }
            // Every FEC cell pays (and accounts) parity bandwidth.
            SweepMode::Fec => {
                assert!(
                    r.parity_sent > 0,
                    "{} b{} p{} {}",
                    r.net,
                    r.burst_rot,
                    r.bad_pct,
                    r.protocol
                );
                assert!(r.parity_bytes > 0);
            }
        }
    }

    // Every (net, burst, rate) aggregate actually experiences bursts:
    // a grid point where the chain never leaves the good state would
    // pin nothing.
    for net in ["lan", "wan"] {
        for rot in BURST_ROTS {
            for pct in BURST_BAD_PCTS {
                for mode in [SweepMode::Retrans, SweepMode::Fec] {
                    let lost: u64 = rows
                        .iter()
                        .filter(|r| {
                            r.net == net && r.burst_rot == rot && r.bad_pct == pct && r.mode == mode
                        })
                        .map(|r| r.lost)
                        .sum();
                    assert!(
                        lost > 0,
                        "{net} b{rot} p{pct} {}: bursts must drop copies",
                        mode.name()
                    );
                }
            }
        }
    }

    // The headline: on each testbed, FEC converges with strictly
    // fewer request rounds than the retransmission-only baseline at
    // honestly charged (byte-granularity) bandwidth. Burst losses can
    // exceed any fixed parity budget, so — unlike the Bernoulli sweep
    // — the FEC rounds are few, not zero, and the comparison is at
    // the per-net aggregate where the seeded grid is stable.
    for net in ["lan", "wan"] {
        let rounds = |mode: SweepMode| -> u64 {
            rows.iter()
                .filter(|r| r.net == net && r.mode == mode)
                .map(|r| r.retrans_rounds)
                .sum()
        };
        let base = rounds(SweepMode::Retrans);
        let fec = rounds(SweepMode::Fec);
        assert!(
            fec < base,
            "{net}: FEC must need fewer request rounds ({fec} vs {base})"
        );
    }
}

#[test]
fn burst_csv_and_manifest_bit_identical_across_jobs() {
    let o1 = opts(1);
    let rows1 = run_burst_sweep(&o1);
    let csv1 = burst_csv(o1.seed, &rows1);
    let man1 = burst_manifest(&o1, &rows1);
    assert_eq!(csv1.lines().count(), 81, "header + 80 cells");
    for jobs in [4usize, 2] {
        let o = opts(jobs);
        let rows = run_burst_sweep(&o);
        assert_eq!(
            csv1,
            burst_csv(o.seed, &rows),
            "burst CSV must be bit-identical at --jobs {jobs}"
        );
        assert_eq!(
            man1.deterministic_json(),
            burst_manifest(&o, &rows).deterministic_json(),
            "burst manifest body must be bit-identical at --jobs {jobs}"
        );
    }
    assert_eq!(man1.tag, "burst_s7");
    assert!(man1.counts.contains_key("harness/burst_sweep/cells"));
    let table = burst_table(o1.seed, &rows1);
    assert!(table.contains("lan") && table.contains("wan"), "{table}");
}

/// Two hand-built rows per grid, every column distinct, so a swapped,
/// dropped or reformatted column shows.
fn hand_rows() -> (Vec<SweepRow>, Vec<BurstRow>) {
    let sweep = vec![
        SweepRow {
            net: "lan",
            loss_pct: 5,
            mode: SweepMode::Retrans,
            protocol: "GDH",
            lost: 11,
            retransmissions: 12,
            retrans_rounds: 13,
            fec_repairs: 0,
            parity_sent: 0,
            parity_bytes: 0,
            fec_repair_ns: 0,
            retransmission_ns: 1_234_567,
            elapsed_ms: 42.125,
            converged: true,
        },
        SweepRow {
            net: "wan",
            loss_pct: 20,
            mode: SweepMode::Fec,
            protocol: "BD",
            lost: 21,
            retransmissions: 22,
            retrans_rounds: 23,
            fec_repairs: 24,
            parity_sent: 25,
            parity_bytes: 26_000,
            fec_repair_ns: 2_000_001,
            retransmission_ns: 3_000_002,
            elapsed_ms: 9876.5,
            converged: false,
        },
    ];
    let burst = vec![
        BurstRow {
            net: "lan",
            burst_rot: 1,
            bad_pct: 40,
            mode: SweepMode::Fec,
            protocol: "TGDH",
            lost: 31,
            retransmissions: 32,
            retrans_rounds: 33,
            fec_repairs: 34,
            parity_sent: 35,
            parity_bytes: 3_600,
            fec_repair_ns: 7_000_000,
            retransmission_ns: 500,
            elapsed_ms: 12.000_000_4,
            converged: true,
        },
        BurstRow {
            net: "wan",
            burst_rot: 4,
            bad_pct: 80,
            mode: SweepMode::Retrans,
            protocol: "CKD",
            lost: 41,
            retransmissions: 42,
            retrans_rounds: 43,
            fec_repairs: 0,
            parity_sent: 0,
            parity_bytes: 0,
            fec_repair_ns: 0,
            retransmission_ns: 88_000_000_000,
            elapsed_ms: 90_000.25,
            converged: true,
        },
    ];
    (sweep, burst)
}

#[test]
fn renderers_on_hand_built_rows_match_pinned_strings() {
    let (sweep, burst) = hand_rows();
    let o = SweepOptions {
        seed: 9,
        jobs: 3,
        protocol: None,
    };
    let actual = format!(
        "{}--\n{}--\n{}--\n{}--\n{}--\n{}",
        sweep_csv(9, &sweep),
        sweep_table(9, &sweep),
        sweep_manifest(&o, &sweep).deterministic_json(),
        burst_csv(9, &burst),
        burst_table(9, &burst),
        burst_manifest(&o, &burst).deterministic_json(),
    );
    if actual != include_str!("sweep_renderers.golden") {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweep_renderers.actual");
        std::fs::write(&path, &actual).expect("write actual");
        panic!(
            "differs from sweep_renderers.golden; actual written to {}",
            path.display()
        );
    }
}
