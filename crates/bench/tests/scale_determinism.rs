//! The multi-group workload's determinism contract: the `repro scale`
//! CSV is a function of (groups, churn, window, seed) alone — neither
//! `jobs` nor `shards` may change a single byte, and two
//! same-seed runs must render identical output. The run manifest
//! inherits the same contract: its deterministic body (config,
//! counts, histograms, virtual time) must be bit-identical across
//! every `jobs` x `shards` combination, and `bench-diff` over two
//! same-seed manifests must report zero regressions while a seeded
//! slowdown is flagged.

use gkap_bench::diff::{diff, render, Thresholds};
use gkap_bench::scale::{
    run_all, run_all_timed, scale_csv, scale_manifest, scale_table, ScaleOptions,
};

fn opts(jobs: usize) -> ScaleOptions {
    sharded_opts(jobs, 1)
}

fn sharded_opts(jobs: usize, shards: usize) -> ScaleOptions {
    ScaleOptions {
        groups: 12,
        churn: 0.5,
        window_ms: 5.0,
        protocol: None, // all five protocols
        seed: 7,
        jobs,
        shards,
    }
}

#[test]
fn scale_csv_identical_across_jobs_and_shards() {
    let o1 = opts(1);
    let serial = scale_csv(&o1, &run_all(&o1));
    // header + one row per protocol
    assert_eq!(serial.lines().count(), 6);
    for (jobs, shards) in [(4, 1), (1, 4), (4, 4), (2, 3)] {
        let o = sharded_opts(jobs, shards);
        let got = scale_csv(&o, &run_all(&o));
        assert_eq!(
            serial, got,
            "scale CSV must be bit-identical at jobs {jobs} shards {shards}"
        );
    }
}

/// The acceptance gate for the manifest layer: the acceptance-criteria
/// config (`repro scale --groups 64 --seed 7`) must render a
/// deterministic manifest body — config, op counts, phase histograms,
/// virtual time — that is bit-identical across every
/// `jobs {1,4}` x `shards {1,4}` combination. Only `environment`
/// (wall time, rss, jobs, per-shard attribution) may differ, which is
/// exactly why `deterministic_json()` excludes it.
#[test]
fn scale_manifest_bit_identical_across_jobs_and_shards() {
    let grid: Vec<_> = [(1, 1), (4, 1), (1, 4), (4, 4)]
        .into_iter()
        .map(|(jobs, shards)| {
            let mut o = sharded_opts(jobs, shards);
            o.groups = 64;
            o.churn = 0.1; // the CLI defaults for `repro scale`
            let outcome = run_all_timed(&o);
            assert_eq!(
                outcome.shard_busy_ns.len(),
                shards,
                "one busy-time slot per shard"
            );
            (scale_manifest(&o, &outcome.rows), o)
        })
        .collect();
    let (m1, _) = &grid[0];
    for (m, o) in &grid[1..] {
        assert_eq!(
            m1.deterministic_json(),
            m.deterministic_json(),
            "scale manifest body must be bit-identical at jobs {} shards {}",
            o.jobs,
            o.shards
        );
    }
    assert_eq!(m1.tag, "g64_s7");
    assert!(!m1.histograms.is_empty(), "phase histograms recorded");
    assert!(
        m1.histograms.keys().any(|k| k.ends_with("/rekey_ms")),
        "rekey latency histogram present: {:?}",
        m1.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        m1.counts.keys().any(|k| k.starts_with("crypto/")),
        "bignum kernel op counts present: {:?}",
        m1.counts.keys().collect::<Vec<_>>()
    );
    assert!(m1.virtual_ms > 0.0, "virtual time accounted");
}

/// `bench-diff` acceptance: two same-seed manifests compare clean
/// (zero regressions, exit 0 at the CLI), and a seeded slowdown —
/// a fatter p95 plus extra kernel ops — is flagged as a regression
/// (non-zero exit at the CLI, which maps `!passed()` to 1).
#[test]
fn bench_diff_passes_same_seed_and_gates_seeded_slowdown() {
    let o = opts(1);
    let baseline = scale_manifest(&o, &run_all(&o));
    let candidate = scale_manifest(&o, &run_all(&o));
    let th = Thresholds::default();
    let clean = diff(&baseline, &candidate, &th);
    assert!(clean.passed(), "same seed must compare clean");
    assert_eq!(clean.regressions(), 0, "{:#?}", clean.findings);
    assert!(
        clean.compared > 0,
        "the comparison actually covered metrics"
    );

    // Seed a slowdown into the candidate: inflate one latency
    // histogram well past the relative threshold and bump an op count
    // (counts are deterministic, so any drift is exact-match failure).
    let mut slow = candidate.clone();
    let hist_key = slow
        .histograms
        .keys()
        .find(|k| k.ends_with("/rekey_ms"))
        .expect("rekey_ms histogram")
        .clone();
    let h = slow.histograms.get_mut(&hist_key).unwrap();
    h.p95 *= 1.5;
    h.max *= 1.5;
    let count_key = slow
        .counts
        .keys()
        .find(|k| k.starts_with("crypto/"))
        .expect("crypto op count")
        .clone();
    *slow.counts.get_mut(&count_key).unwrap() += 1000;

    let gated = diff(&baseline, &slow, &th);
    assert!(!gated.passed(), "seeded slowdown must fail the gate");
    assert!(gated.regressions() >= 2, "{:#?}", gated.findings);
    let report = render("baseline.json", "candidate.json", &gated);
    assert!(report.contains("FAIL"), "{report}");
    assert!(report.contains(&hist_key), "{report}");
    assert!(report.contains(&count_key), "{report}");
}

#[test]
fn scale_run_is_reproducible_and_reports_all_protocols() {
    let o = opts(2);
    let rows_a = run_all(&o);
    let rows_b = run_all(&o);
    assert_eq!(scale_csv(&o, &rows_a), scale_csv(&o, &rows_b));
    assert!(rows_a.iter().all(|r| r.run.ok), "every protocol ends keyed");
    let table = scale_table(&o, &rows_a);
    for name in ["GDH", "TGDH", "STR", "BD", "CKD"] {
        assert!(table.contains(name), "table lists {name}");
    }
    assert!(!table.contains("[FAILED]"));
}
