//! `repro` — regenerates every table and figure of the paper (plus the
//! extension studies) from the simulation.
//!
//! ```text
//! cargo run --release -p gkap-bench --bin repro -- all
//! cargo run --release -p gkap-bench --bin repro -- fig11 --jobs 8
//! cargo run --release -p gkap-bench --bin repro -- trace-summary fig14
//! cargo run --release -p gkap-bench --bin repro -- trace fig14 --folded
//! cargo run --release -p gkap-bench --bin repro -- scale --groups 1000 --churn 0.05
//! cargo run --release -p gkap-bench --bin repro -- bench-diff base.json candidate.json
//! ```
//!
//! Output: aligned tables on stdout and CSV files under `results/`;
//! `--quiet` silences the tables (files are still written). `--jobs N`
//! fans the experiment grids across N worker threads (default: all
//! cores) — figure output is bit-identical to a serial run.
//!
//! Every command additionally writes a versioned **run manifest**
//! `results/RUN_<cmd>_<tag>.json` — git revision, full configuration,
//! wall vs virtual time, deterministic op counts and per-phase latency
//! histograms. `bench-diff` compares two manifests with per-class
//! thresholds and exits non-zero on regression; `trace --folded` adds
//! collapsed-stack (flamegraph) output.
//!
//! The commands are the rows of [`REGISTRY`]: dispatch, the order
//! `all` runs them in, the usage text and each manifest's name all
//! derive from it, so adding an experiment is adding a row.
//!
//! Failures (an unwritable `results/` directory, a malformed flag, an
//! unknown protocol) exit non-zero with a one-line diagnostic — never
//! a panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::path::{Path, PathBuf};

use gkap_bench::cli::{self, CliOptions};
use gkap_bench::{
    chaos, diff, emit, figure_sizes, figures, loss_sweep, manifest::Manifest, micro, scale, trace,
    wan_sizes, write_output, Console,
};
use gkap_core::costs_table::render_table1;
use gkap_core::experiment::SuiteKind;
use gkap_core::protocols::ProtocolKind;
use gkap_gcs::testbed::{self, lan, wan};
use gkap_sim::stats::Figure;
use gkap_telemetry::metrics::LogHistogram;

/// What a command's body returns: a one-line diagnostic on failure.
type Step = Result<(), String>;

/// One `repro` command.
struct Experiment {
    /// The command name — the only place it is spelled.
    name: &'static str,
    /// Its own operands and flags, for the usage text.
    args: &'static str,
    /// Whether `all` runs it (in registry order).
    in_all: bool,
    /// What it does.
    run: Run,
    /// The workload parameters that tell runs of the command apart:
    /// its manifest is `RUN_<name>_<tag>.json`.
    tag: fn(&CliOptions) -> Result<String, String>,
}

/// A figure: its CSV stem and its builder from `(reps, jobs)`.
type FigureSpec = (&'static str, fn(u32, usize) -> Figure);

enum Run {
    /// Builds figures; each is printed, written as `<stem>.csv` and
    /// folded into the manifest by [`emit`].
    Figures(&'static [FigureSpec]),
    /// Anything else.
    Custom(fn(&CliOptions, &mut Console, &mut Manifest) -> Step),
}

/// A step of `all` with no flags of its own, tagged by `--reps`.
const fn step(name: &'static str, run: Run) -> Experiment {
    Experiment {
        name,
        args: "",
        in_all: true,
        run,
        tag: reps_tag,
    }
}

fn reps_tag(opts: &CliOptions) -> Result<String, String> {
    Ok(format!("r{}", opts.reps))
}

const PARTITION_MERGE_LAN: [usize; 7] = [4, 8, 12, 20, 30, 40, 50];
const PARTITION_MERGE_WAN: [usize; 5] = [4, 8, 14, 26, 40];

/// Every command, in the order `all` runs them.
const REGISTRY: &[Experiment] = &[
    step("table1", Run::Custom(table1)),
    step("testbed", Run::Custom(testbed)),
    step("microlan", Run::Custom(microlan)),
    step("microwan", Run::Custom(microwan)),
    step(
        "fig11",
        Run::Figures(&[
            ("fig11_join_lan_512", |r, j| {
                figures::fig11_join_lan(SuiteKind::Sim512, &figure_sizes(), r, j)
            }),
            ("fig11_join_lan_1024", |r, j| {
                figures::fig11_join_lan(SuiteKind::Sim1024, &figure_sizes(), r, j)
            }),
        ]),
    ),
    step(
        "fig12",
        Run::Figures(&[
            ("fig12_leave_lan_512", |r, j| {
                figures::fig12_leave_lan(SuiteKind::Sim512, &figure_sizes(), r, j)
            }),
            ("fig12_leave_lan_1024", |r, j| {
                figures::fig12_leave_lan(SuiteKind::Sim1024, &figure_sizes(), r, j)
            }),
        ]),
    ),
    step(
        "fig14",
        Run::Figures(&[
            ("fig14_join_wan_512", |r, j| {
                figures::fig14_join_wan(&wan_sizes(), r, j)
            }),
            ("fig14_leave_wan_512", |r, j| {
                figures::fig14_leave_wan(&wan_sizes(), r, j)
            }),
        ]),
    ),
    step(
        "partition-merge",
        Run::Figures(&[
            ("ext_partition_lan_512", |r, j| {
                let title = "Extension — Partition (half the group), LAN, DH 512";
                figures::partition_figure(&lan(), title, &PARTITION_MERGE_LAN, r, j)
            }),
            ("ext_merge_lan_512", |r, j| {
                let title = "Extension — Merge (two halves), LAN, DH 512";
                figures::merge_figure(&lan(), title, &PARTITION_MERGE_LAN, r, j)
            }),
            ("ext_partition_wan_512", |r, j| {
                let title = "Extension — Partition (half the group), WAN, DH 512";
                figures::partition_figure(&wan(), title, &PARTITION_MERGE_WAN, r, j)
            }),
            ("ext_merge_wan_512", |r, j| {
                let title = "Extension — Merge (two halves), WAN, DH 512";
                figures::merge_figure(&wan(), title, &PARTITION_MERGE_WAN, r, j)
            }),
        ]),
    ),
    step(
        "crossover",
        Run::Figures(&[("ext_crossover_join_n20", |r, j| {
            figures::crossover_figure(20, &[0, 5, 10, 20, 35, 50, 75, 100, 150, 200], r, j)
        })]),
    ),
    step(
        "ablate-flow",
        Run::Figures(&[("ablate_flow_bd_wan_n50", |r, j| {
            figures::flow_control_ablation(50, &[1, 2, 5, 10, 20, 50], r, j)
        })]),
    ),
    step(
        "ablate-sponsor",
        Run::Figures(&[("ablate_sponsor_wan_n26", |_, _| {
            figures::sponsor_location_ablation(26)
        })]),
    ),
    step(
        "ablate-tree",
        Run::Figures(&[("ablate_tree_shape_n24", |_, _| {
            figures::tree_shape_ablation(24, 30)
        })]),
    ),
    step(
        "ablate-sig",
        Run::Figures(&[("ablate_sig_join_n26", |r, j| {
            figures::signature_scheme_ablation(26, r, j)
        })]),
    ),
    step(
        "ablate-avl",
        Run::Figures(&[("ablate_avl_policy_n20", |_, _| {
            figures::avl_policy_ablation(20, 25)
        })]),
    ),
    step(
        "lossy",
        Run::Figures(&[("ext_lossy_wan_join_n20", |r, j| {
            figures::lossy_links_figure(20, &[0, 1, 2, 5, 10, 20], r, j)
        })]),
    ),
    step(
        "ablate-hetero",
        Run::Figures(&[("ablate_hetero_join_n26", |r, j| {
            figures::hetero_machine_ablation(26, r, j)
        })]),
    ),
    step(
        "ablate-confirm",
        Run::Figures(&[("ablate_confirm_join_n20", |r, j| {
            figures::key_confirmation_ablation(20, r, j)
        })]),
    ),
    step(
        "ika",
        Run::Figures(&[
            ("ext_ika_lan_512", |r, j| {
                let title = "Extension — real initial key agreement, LAN, DH 512";
                figures::ika_figure(&lan(), title, &[2, 4, 8, 13, 20, 30, 40, 50], r, j)
            }),
            ("ext_ika_wan_512", |r, j| {
                let title = "Extension — real initial key agreement, WAN, DH 512";
                figures::ika_figure(&wan(), title, &[2, 4, 8, 14, 26], r, j)
            }),
        ]),
    ),
    // The single-group size sweep (one group of up to 100 members);
    // the multi-group workload is `scale`.
    step(
        "ext-scale",
        Run::Figures(&[("ext_scale_join_lan_512", |r, j| {
            figures::scale_figure(&[10, 25, 50, 75, 100], r, j)
        })]),
    ),
    Experiment {
        name: "scale",
        args: "[--groups N] [--churn R] [--window MS] [--protocol NAME] [--seed N]",
        in_all: true,
        run: Run::Custom(scale),
        tag: |opts| Ok(scale_options(opts)?.tag()),
    },
    Experiment {
        name: "trace",
        args: "<figure> [--folded]",
        in_all: false,
        run: Run::Custom(|opts, con, man| trace(opts, true, con, man)),
        tag: trace_tag,
    },
    Experiment {
        name: "trace-summary",
        args: "<figure>",
        in_all: false,
        run: Run::Custom(|opts, con, man| trace(opts, false, con, man)),
        tag: trace_tag,
    },
    Experiment {
        name: "chaos",
        args: "[--seed N] [--runs N] [--loss-sweep [--burst] [--protocol NAME]]",
        in_all: false,
        run: Run::Custom(|opts, con, man| {
            if opts.loss_sweep {
                loss_sweep(opts, con, man)
            } else {
                chaos(opts, con, man)
            }
        }),
        tag: chaos_tag,
    },
];

/// The one command outside the registry: a pure comparison — no
/// workload, no manifest.
const BENCH_DIFF: &str = "bench-diff";

fn usage() -> String {
    let mut usage = String::from("commands: all");
    for exp in REGISTRY {
        usage.push(' ');
        usage.push_str(exp.name);
        if !exp.args.is_empty() {
            usage.push(' ');
            usage.push_str(exp.args);
        }
    }
    format!("{usage} {BENCH_DIFF} <baseline.json> <candidate.json> [--reps N] [--jobs N] [--quiet]")
}

fn out_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Writes one output file under `results/` and says so.
fn write_result(con: &mut Console, name: &str, text: &str) -> Step {
    let path = write_output(&out_dir(), name, text)?;
    con.say(format!("[written: {}]", path.display()));
    Ok(())
}

/// `--protocol NAME`, for the commands that take one.
fn protocol_filter(opts: &CliOptions) -> Result<Option<ProtocolKind>, String> {
    opts.protocol
        .as_deref()
        .map(|name| {
            scale::parse_protocol(name).ok_or_else(|| {
                format!("unknown protocol: {name} (expected gdh, tgdh, str, bd or ckd)")
            })
        })
        .transpose()
}

fn microlan(_: &CliOptions, con: &mut Console, _: &mut Manifest) -> Step {
    con.say("# §6.1.1 micro-parameters (LAN)");
    con.say(micro::render(&micro::lan_micro()));
    Ok(())
}

fn microwan(_: &CliOptions, con: &mut Console, _: &mut Manifest) -> Step {
    con.say("# §6.2.1 micro-parameters (WAN)");
    con.say(micro::render(&micro::wan_micro()));
    Ok(())
}

fn table1(_: &CliOptions, con: &mut Console, man: &mut Manifest) -> Step {
    for (n, m, p) in [(20usize, 5usize, 5usize), (50, 10, 10)] {
        con.say(render_table1(n, m, p));
        man.add_count("harness/table1/tables", 1);
    }
    write_result(con, "table1.txt", &render_table1(50, 10, 10))
}

fn testbed(_: &CliOptions, con: &mut Console, _: &mut Manifest) -> Step {
    let wan = testbed::wan();
    con.say("# Figure 13 — WAN testbed");
    for s in 0..wan.topology.site_count() {
        let machines = (0..wan.topology.machine_count())
            .filter(|&m| wan.topology.machine(m).site == s)
            .count();
        con.say(format!(
            "site {} = {:>4}: {machines} machines",
            s,
            wan.topology.site_name(s)
        ));
    }
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 0)] {
        con.say(format!(
            "RTT {} – {}: {:.0} ms",
            wan.topology.site_name(a),
            wan.topology.site_name(b),
            wan.topology.site_latency(a, b).as_millis_f64() * 2.0
        ));
    }
    Ok(())
}

fn scale_options(opts: &CliOptions) -> Result<scale::ScaleOptions, String> {
    Ok(scale::ScaleOptions {
        groups: opts.groups,
        churn: opts.churn,
        window_ms: opts.window_ms,
        protocol: protocol_filter(opts)?,
        seed: opts.seed,
        jobs: opts.jobs,
        shards: opts.jobs,
    })
}

/// `scale`: the multi-group workload — N concurrent groups
/// partitioned over one independent ring shard per `--jobs` worker,
/// batched membership churn, throughput/latency CSV per protocol.
/// Bit-identical for every `--jobs`, manifest body included;
/// per-shard busy and barrier-wait times land in the manifest
/// environment block.
fn scale(opts: &CliOptions, con: &mut Console, man: &mut Manifest) -> Step {
    let sopts = scale_options(opts)?;
    let outcome = scale::run_all_timed(&sopts);
    let rows = outcome.rows;
    man.set_shard_timing(sopts.shards.max(1), &outcome.shard_busy_ns);
    con.say(scale::scale_table(&sopts, &rows));
    let csv_name = format!("scale_{}.csv", sopts.tag());
    write_result(con, &csv_name, &scale::scale_csv(&sopts, &rows))?;
    man.absorb(&scale::scale_manifest(&sopts, &rows));
    if let Some(row) = rows.iter().find(|r| !r.run.ok) {
        return Err(format!(
            "scale: {} left a group unkeyed or in error (see table)",
            row.protocol.name()
        ));
    }
    Ok(())
}

/// `chaos`: a `--protocol` filter is part of a sweep's name, so a
/// filtered run never overwrites the committed all-protocol CSV (the
/// rule `scale` follows); the default names stay.
fn chaos_tag(opts: &CliOptions) -> Result<String, String> {
    if !opts.loss_sweep {
        return Ok(format!("s{}_r{}", opts.seed, opts.runs));
    }
    let kind = if opts.burst { "burst" } else { "loss" };
    let mut tag = format!("{kind}_s{}", opts.seed);
    if let Some(p) = protocol_filter(opts)? {
        tag.push_str(&format!("_{}", p.name().to_lowercase()));
    }
    Ok(tag)
}

fn trace_tag(opts: &CliOptions) -> Result<String, String> {
    Ok(opts.figure.clone().unwrap_or_else(|| "fig14".into()))
}

/// `trace <figure>` / `trace-summary <figure>`: traced runs with the
/// per-protocol latency breakdown. `full` additionally writes one
/// JSONL event log per protocol × event; `folded` writes collapsed
/// stacks for flamegraph rendering.
fn trace(opts: &CliOptions, full: bool, con: &mut Console, man: &mut Manifest) -> Step {
    let figure = opts.figure.as_deref().unwrap_or("fig14");
    let n = 50;
    let Some(rows) = trace::trace_figure(figure, n) else {
        // A usage error, not a runtime failure: exit 2 like unknown
        // commands and malformed flags do.
        eprintln!(
            "repro: unknown figure for trace: {figure} (expected fig11, fig12, fig14 or crash)"
        );
        std::process::exit(2);
    };
    if full {
        for row in &rows {
            let name = format!(
                "trace_{figure}_{}_{}.jsonl",
                row.protocol.to_lowercase(),
                row.event
            );
            let jsonl = gkap_telemetry::jsonl::render_events(&row.run.events);
            let path = write_output(&out_dir(), &name, &jsonl)?;
            con.say(format!(
                "[written: {} ({} events)]",
                path.display(),
                row.run.events.len()
            ));
        }
    }
    if opts.folded {
        let name = format!("trace_{figure}.folded");
        let path = write_output(&out_dir(), &name, &trace::folded_stacks(&rows))?;
        con.say(format!("[written: {} (collapsed stacks)]", path.display()));
    }
    // Manifest: replay each row's event log through a fresh recorder to
    // rebuild its typed hub, then label every path with protocol and
    // event so the cells stay distinct (`crypto/GDH/join/exp`).
    for row in &rows {
        let mut rec = gkap_telemetry::Recorder::default();
        for e in &row.run.events {
            rec.push(e.clone());
        }
        let cell = |name: &str| format!("{}/{}/{name}", row.protocol, row.event);
        for (k, v) in rec.hub().counters() {
            man.add_count(&format!("{}/{}", k.layer.as_str(), cell(k.name)), v);
        }
        for (k, h) in rec.hub().histograms() {
            man.put_histogram(
                &format!("{}/{}", k.layer.as_str(), cell(k.name)),
                h.summary(),
            );
        }
        let b = &row.run.breakdown;
        for (name, v) in [
            ("elapsed_ms", b.elapsed_ms),
            ("membership_ms", b.membership_ms),
            ("rounds_ms", b.rounds_ms),
            ("crypto_ms", b.crypto_ms),
            ("network_ms", b.network_ms),
            (
                "recovery_ms",
                trace::recovery_ms(&row.run.events).min(b.elapsed_ms),
            ),
        ] {
            man.gauge_max(&format!("harness/{}", cell(name)), v);
        }
        man.add_count(
            &format!("harness/{}", cell("events")),
            row.run.events.len() as u64,
        );
        man.virtual_ms += b.elapsed_ms;
    }
    con.say(trace::summary_table(figure, &rows));
    let csv_name = format!("trace_summary_{figure}.csv");
    write_result(con, &csv_name, &trace::summary_csv(figure, &rows))
}

/// `chaos`: a seeded randomized fault campaign across all five
/// protocols. Exits non-zero when any invariant is violated, printing
/// the minimized failing schedule so CI logs carry the reproduction.
fn chaos(opts: &CliOptions, con: &mut Console, man: &mut Manifest) -> Step {
    let (seed, runs) = (opts.seed, opts.runs);
    let cfg = chaos::ChaosConfig::default();
    let factory = chaos::default_factory();
    let report = chaos::run_campaign(seed, runs, &cfg, &factory, con);
    con.say(chaos::render_summary(&report));
    let csv_name = format!("chaos_seed{seed}.csv");
    write_result(con, &csv_name, &chaos::campaign_csv(&report))?;
    man.set_config("chaos_seed", seed);
    man.set_config("chaos_runs", runs);
    man.add_count("harness/chaos/rows", report.rows.len() as u64);
    man.add_count("harness/chaos/failures", report.failures.len() as u64);
    let mut recovery = LogHistogram::default();
    let mut elapsed = LogHistogram::default();
    for row in &report.rows {
        man.add_count(
            &format!("harness/chaos/{}/faults", row.protocol),
            row.faults as u64,
        );
        recovery.record(row.recovery_ms);
        elapsed.record(row.elapsed_ms);
        man.virtual_ms += row.elapsed_ms;
    }
    man.put_histogram("harness/chaos/recovery_ms", recovery.summary());
    man.put_histogram("harness/chaos/elapsed_ms", elapsed.summary());
    if !report.passed() {
        for f in &report.failures {
            con.say(chaos::render_failure(f));
        }
        con.say(format!(
            "chaos: {} failing run(s) — replay with `repro chaos --seed {seed} --runs {runs}`",
            report.failures.len()
        ));
        std::process::exit(1);
    }
    Ok(())
}

/// `chaos --loss-sweep`: loss rates × {FEC, retransmission-only} ×
/// protocols on both testbeds; with `--burst`, Gilbert–Elliott burst
/// cells ({burst length in rotations} × {bad-state rate}) instead of
/// Bernoulli rates, wire charged at byte granularity. Exits non-zero
/// when any cell misses an invariant (liveness, view synchrony, key
/// convergence).
fn loss_sweep(opts: &CliOptions, con: &mut Console, man: &mut Manifest) -> Step {
    let sopts = loss_sweep::SweepOptions {
        seed: opts.seed,
        jobs: opts.jobs,
        protocol: protocol_filter(opts)?,
    };
    let seed = sopts.seed;
    let (flag, table, csv, body, failed): (_, _, _, _, Vec<String>) = if opts.burst {
        let rows = loss_sweep::run_burst_sweep(&sopts);
        let cell = |r: &loss_sweep::BurstRow| {
            let mode = r.mode.name();
            format!(
                "{} burst={} bad={}% {mode} {}",
                r.net, r.burst_rot, r.bad_pct, r.protocol
            )
        };
        (
            " --burst",
            loss_sweep::burst_table(seed, &rows),
            loss_sweep::burst_csv(seed, &rows),
            loss_sweep::burst_manifest(&sopts, &rows),
            rows.iter().filter(|r| !r.converged).map(cell).collect(),
        )
    } else {
        let rows = loss_sweep::run_sweep(&sopts);
        let cell = |r: &loss_sweep::SweepRow| {
            format!("{} {}% {} {}", r.net, r.loss_pct, r.mode.name(), r.protocol)
        };
        (
            "",
            loss_sweep::sweep_table(seed, &rows),
            loss_sweep::sweep_csv(seed, &rows),
            loss_sweep::sweep_manifest(&sopts, &rows),
            rows.iter().filter(|r| !r.converged).map(cell).collect(),
        )
    };
    con.say(table);
    write_result(con, &format!("chaos_{}.csv", chaos_tag(opts)?), &csv)?;
    man.absorb(&body);
    if !failed.is_empty() {
        for cell in failed {
            con.say(format!(
                "FAILED: {cell} — invariant violated (replay with \
                 `repro chaos --loss-sweep{flag} --seed {seed}`)"
            ));
        }
        std::process::exit(1);
    }
    Ok(())
}

/// `bench-diff <baseline> <candidate>`: the perf-regression gate.
/// Exit codes: 0 pass, 1 regression(s), 2 usage/IO error.
fn bench_diff(opts: &CliOptions, con: &mut Console) -> Result<bool, String> {
    let (Some(base_path), Some(cand_path)) = (opts.figure.as_deref(), opts.arg2.as_deref()) else {
        return Err(
            "bench-diff needs two manifest paths: bench-diff <baseline.json> <candidate.json>"
                .to_string(),
        );
    };
    let base = Manifest::read_from(Path::new(base_path))?;
    let cand = Manifest::read_from(Path::new(cand_path))?;
    let report = diff::diff(&base, &cand, &diff::Thresholds::default());
    con.say(diff::render(base_path, cand_path, &report));
    Ok(report.passed())
}

/// Runs one command: times it and writes its run manifest. `Err` is a
/// one-line diagnostic.
fn run_step(exp: &Experiment, opts: &CliOptions, con: &mut Console) -> Step {
    gkap_core::par::take_busy_nanos(); // reset the busy-time counter
    let mut man = Manifest::new(exp.name, &(exp.tag)(opts)?);
    man.set_config("reps", opts.reps);
    let t0 = std::time::Instant::now();
    match exp.run {
        Run::Figures(figures) => {
            for (stem, build) in figures {
                emit(
                    &build(opts.reps, opts.jobs),
                    &out_dir(),
                    stem,
                    con,
                    &mut man,
                )?;
            }
        }
        Run::Custom(body) => body(opts, con, &mut man)?,
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Wall-clock busy time, not CPU time: `run_indexed` brackets each
    // cell with `Instant`, so this is the serial-equivalent cost only
    // while workers hold their own core. With `--jobs` now clamped to
    // the hardware the usual overstatement (oversubscription) cannot
    // happen, but other processes competing for the machine can still
    // inflate it — treat it as an upper bound on compute.
    let serial_equivalent_s = gkap_core::par::take_busy_nanos() as f64 / 1e9;
    man.fill_environment(opts.jobs, wall_s);
    let man_path = man.write_to(&out_dir())?;
    con.note(format!("[manifest: {}]", man_path.display()));
    con.note(format!(
        "[{}: wall {wall_s:.1}s, serial-equivalent {serial_equivalent_s:.1}s]",
        exp.name
    ));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let mut con = if opts.quiet {
        Console::quiet()
    } else {
        Console::stdio()
    };
    let con = &mut con;

    if opts.cmd == BENCH_DIFF {
        match bench_diff(&opts, con) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(msg) => {
                eprintln!("repro: {msg}");
                std::process::exit(2);
            }
        }
    }

    let steps: Vec<&Experiment> = REGISTRY
        .iter()
        .filter(|exp| {
            if opts.cmd == "all" {
                exp.in_all
            } else {
                exp.name == opts.cmd
            }
        })
        .collect();
    if steps.is_empty() {
        con.note(format!("unknown command: {}", opts.cmd));
        con.note(usage());
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    for exp in steps {
        if let Err(msg) = run_step(exp, &opts, con) {
            eprintln!("repro: {msg}");
            std::process::exit(1);
        }
    }
    con.note(format!(
        "[repro {} done in {:.1}s with --jobs {}]",
        opts.cmd,
        t0.elapsed().as_secs_f64(),
        opts.jobs
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_all_runs_the_same_twenty_steps_in_order() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|exp| exp.name).collect();
        assert_eq!(names.len(), REGISTRY.len());
        assert!(!names.contains("all") && !names.contains(BENCH_DIFF));
        let all: Vec<&str> = REGISTRY
            .iter()
            .filter(|exp| exp.in_all)
            .map(|exp| exp.name)
            .collect();
        assert_eq!(
            all.join(" "),
            "table1 testbed microlan microwan fig11 fig12 fig14 partition-merge crossover \
             ablate-flow ablate-sponsor ablate-tree ablate-sig ablate-avl lossy ablate-hetero \
             ablate-confirm ika ext-scale scale"
        );
    }

    #[test]
    fn every_committed_figure_csv_comes_from_exactly_one_entry() {
        let mut stems = Vec::new();
        for exp in REGISTRY {
            if let Run::Figures(figures) = exp.run {
                stems.extend(figures.iter().map(|(stem, _)| stem.to_string()));
            }
        }
        let unique: BTreeSet<String> = stems.iter().cloned().collect();
        assert_eq!(unique.len(), stems.len(), "a stem is produced twice");
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ is committed")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("name")
            })
            .filter(|name| {
                ["fig", "ext_", "ablate_"]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .filter_map(|name| name.strip_suffix(".csv").map(str::to_string))
            .collect();
        assert_eq!(unique, committed);
    }

    #[test]
    fn usage_lists_every_command() {
        let usage = usage();
        for name in REGISTRY
            .iter()
            .map(|exp| exp.name)
            .chain(["all", BENCH_DIFF])
        {
            assert!(
                usage.split_whitespace().any(|word| word == name),
                "{name} missing from: {usage}"
            );
        }
    }

    #[test]
    fn manifest_tags_follow_the_options_that_change_the_workload() {
        let tag = |argv: &[&str]| {
            let args: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            let opts = cli::parse(&args).expect("parses");
            let exp = REGISTRY
                .iter()
                .find(|exp| exp.name == opts.cmd)
                .expect("known");
            (exp.tag)(&opts)
        };
        assert_eq!(tag(&["fig11"]).as_deref(), Ok("r3"));
        assert_eq!(tag(&["table1", "--reps", "5"]).as_deref(), Ok("r5"));
        assert_eq!(tag(&["scale"]).as_deref(), Ok("g64_s7"));
        assert_eq!(
            tag(&["scale", "--groups", "1000", "--churn", "0.05"]).as_deref(),
            Ok("g1000_s7_c0.05")
        );
        assert!(tag(&["scale", "--protocol", "nope"]).is_err());
        assert_eq!(tag(&["chaos"]).as_deref(), Ok("s7_r8"));
        assert_eq!(tag(&["chaos", "--loss-sweep"]).as_deref(), Ok("loss_s7"));
        assert_eq!(
            tag(&["chaos", "--loss-sweep", "--protocol", "bd"]).as_deref(),
            Ok("loss_s7_bd")
        );
        assert_eq!(
            tag(&["chaos", "--loss-sweep", "--burst", "--seed", "9"]).as_deref(),
            Ok("burst_s9")
        );
        assert_eq!(tag(&["trace-summary"]).as_deref(), Ok("fig14"));
        assert_eq!(tag(&["trace", "crash"]).as_deref(), Ok("crash"));
    }
}
