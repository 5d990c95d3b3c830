//! The run loop of one workload in one process: set-up, timed passes,
//! the determinism guard, set-up probes, and the result lines.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use gkap_core::scale::percentile;

use crate::json::J;
use crate::span::Tracer;
use crate::workloads::{self, Layers, Pass, Workload, END_TO_END, PER_LAYER, VIRTUAL_UNIT};
use crate::{host, stats, units};

/// Timed passes every run makes at least, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// Set-ups a run times and reports the median of: its own, and the rest
/// in fresh `setup-probe` processes. Repeating set-up inside this
/// process would time a warm one (shared suites are cached per thread),
/// which is not what a run pays.
const SETUP_SAMPLES: usize = 5;

/// The tail percentile every workload's pass supports with ten
/// samples beyond it (the smallest pass, real_crypto, has 128
/// operations). Its value jumps between latency clusters from seed to
/// seed on the multi-protocol workloads, so it is reported without a
/// bound, beside the end-to-end metrics.
const TAIL: f64 = 0.90;

/// Arguments of one `run`.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed passes measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed passes.
    pub trace: bool,
    /// Fixed number of timed passes, overriding `seconds`.
    pub passes: Option<usize>,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// One end-to-end reading with its spread.
struct Reading {
    value: Option<f64>,
    median: Option<f64>,
    min: Option<f64>,
    max: Option<f64>,
    n: usize,
}

impl Reading {
    /// The median of the samples.
    fn of(samples: &[f64]) -> Reading {
        let (min, max) = stats::min_max(samples).unzip();
        let median = stats::median(samples);
        Reading {
            value: median,
            median,
            min,
            max,
            n: samples.len(),
        }
    }

    /// The fastest of the samples. Passes are identical work, and what
    /// disturbs them on a shared host (other tenants' load, for seconds
    /// at a time) only ever adds time, so the least disturbed pass is
    /// the steadiest estimate of what the code costs: across ten runs
    /// it spread half as wide as the median did.
    fn fastest(samples: &[f64]) -> Reading {
        let reading = Reading::of(samples);
        Reading {
            value: reading.min,
            ..reading
        }
    }

    fn single(value: Option<f64>) -> Reading {
        Reading {
            value,
            median: value,
            min: value,
            max: value,
            n: usize::from(value.is_some()),
        }
    }
}

/// Passes must repeat bit for bit: the virtual latencies, the failure
/// count, every exact count and every rendered output.
pub fn same_outputs(first: &Pass, later: &Pass, pass_no: usize) -> Result<(), String> {
    let fail = |what: String| {
        Err(format!(
            "determinism: pass {pass_no} differs from pass 1: {what}"
        ))
    };
    if first.attempted != later.attempted || first.failed != later.failed {
        return fail(format!(
            "attempted/failed {}/{} vs {}/{}",
            later.attempted, later.failed, first.attempted, first.failed
        ));
    }
    for ((name, a), (_, b)) in first.exact.iter().zip(&later.exact) {
        if a != b {
            return fail(format!("count {name} is {b}, was {a}"));
        }
    }
    if first.exact.len() != later.exact.len() {
        return fail("a different set of exact counts".to_string());
    }
    workloads::same_virtual_results(&later.virt_ms, &first.virt_ms).or_else(&fail)?;
    for ((name, a), (_, b)) in first.artifacts.iter().zip(&later.artifacts) {
        if a != b {
            return fail(format!("rendered output {name}"));
        }
    }
    Ok(())
}

/// Set-up time of a fresh process, measured by that process.
fn probe_setup(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["setup-probe", "--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string())
        .output()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up probe printed no time: {e}"))
}

/// Checks a run's first pass: the workload's own checks (goldens,
/// self-consistency), and that every operation converged. Workloads
/// are chosen so that none fails; one that does is a hard failure.
fn check_first(wl: &mut dyn Workload, first: &Pass) -> Result<(), String> {
    wl.verify(first)?;
    if first.failed > 0 {
        return Err(format!(
            "{} of {} operations did not converge",
            first.failed, first.attempted
        ));
    }
    Ok(())
}

/// Runs one workload and prints its result lines.
pub fn run(args: &RunArgs, started: Instant) -> Result<(), String> {
    let mut wl = workloads::build(&args.workload, args.seed)?;
    let setup_own = started.elapsed().as_secs_f64();
    if args.trace {
        run_traced(args, wl.as_mut())
    } else {
        run_timed(args, wl.as_mut(), setup_own)
    }
}

fn run_timed(args: &RunArgs, wl: &mut dyn Workload, setup_own: f64) -> Result<(), String> {
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<Pass> = None;
    loop {
        let (c0, t0) = (host::cpu_seconds(), Instant::now());
        let pass = wl.pass();
        walls.push(t0.elapsed().as_secs_f64());
        cpus.extend(c0.zip(host::cpu_seconds()).map(|(a, b)| b - a));
        match &first {
            None => {
                check_first(wl, &pass)?;
                first = Some(pass);
            }
            Some(first) => same_outputs(first, &pass, walls.len())?,
        }
        let done = match args.passes {
            Some(n) => walls.len() >= n.max(1),
            None => walls.len() >= MIN_PASSES && walls.iter().sum::<f64>() >= args.seconds,
        };
        if done {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let passes = walls.len();

    let mut setups = vec![setup_own];
    for _ in 1..SETUP_SAMPLES {
        setups.push(probe_setup(args)?);
    }

    let virt_mean = first.virt_ms.iter().sum::<f64>() / first.virt_ms.len() as f64;
    let readings: [(&str, Reading); 6] = [
        ("wall_s", Reading::fastest(&walls)),
        ("cpu_s", Reading::fastest(&cpus)),
        ("setup_s", Reading::of(&setups)),
        ("peak_rss_mb", Reading::single(host::peak_rss_mb())),
        ("virt_rekey_ms_mean", Reading::single(Some(virt_mean))),
        (
            "virt_rekey_ms_p50",
            Reading::single(Some(percentile(&first.virt_ms, 0.50))),
        ),
    ];
    let supported = stats::highest_supported_percentile(first.virt_ms.len());
    if supported.is_none_or(|q| q < TAIL) {
        return Err(format!(
            "{} operations per pass do not support a p{:.0}",
            first.virt_ms.len(),
            TAIL * 100.0
        ));
    }

    let detail_metrics = J::obj(END_TO_END.iter().zip(&readings).map(
        |((name, unit, better, bound), (rname, r))| {
            debug_assert_eq!(name, rname);
            (
                *name,
                J::obj([
                    ("value", J::opt_num(r.value)),
                    ("unit", J::str(*unit)),
                    ("n", J::Int(r.n as u64)),
                    ("median", J::opt_num(r.median)),
                    ("min", J::opt_num(r.min)),
                    ("max", J::opt_num(r.max)),
                    ("better", J::str(better.as_str())),
                    ("bound", J::Num(*bound)),
                    ("exact", J::Bool(*unit == VIRTUAL_UNIT)),
                ]),
            )
        },
    ));
    let detail = J::obj([
        ("workload", J::str(args.workload.as_str())),
        ("seed", J::Int(args.seed)),
        ("passes", J::Int(passes as u64)),
        ("threads", J::Int(wl.jobs() as u64)),
        ("host_parallelism", J::Int(host_parallelism() as u64)),
        ("ops_per_pass", J::Int(first.attempted)),
        ("failed_per_pass", J::Int(first.failed)),
        (
            "failed_share",
            J::Num(first.failed as f64 / first.attempted.max(1) as f64),
        ),
        (
            "highest_supported_percentile",
            J::opt_num(supported.map(|q| q * 100.0)),
        ),
        (
            "virt_rekey_ms_p90",
            J::Num(percentile(&first.virt_ms, TAIL)),
        ),
        ("setup_own_s", J::Num(setup_own)),
        (
            "wall_s_passes",
            J::Arr(walls.iter().map(|w| J::Num(*w)).collect()),
        ),
        (
            "exact",
            J::obj(first.exact.iter().map(|(k, v)| (*k, J::Int(*v)))),
        ),
        ("metrics", detail_metrics),
    ]);
    println!("{}", J::obj([("detail", detail)]).render());

    let metrics = J::obj(
        END_TO_END
            .iter()
            .zip(&readings)
            .map(|((name, unit, _, _), (_, r))| {
                (
                    *name,
                    J::obj([("value", J::opt_num(r.value)), ("unit", J::str(*unit))]),
                )
            }),
    );
    print_result(
        first.attempted * passes as u64,
        first.failed * passes as u64,
        metrics,
    );
    Ok(())
}

fn run_traced(args: &RunArgs, wl: &mut dyn Workload) -> Result<(), String> {
    // The untraced reference: what the traced pass must reproduce, and
    // the denominator of the tracing overhead.
    gkap_core::par::take_busy_nanos();
    let t0 = Instant::now();
    let reference = wl.pass();
    let untraced_s = t0.elapsed().as_secs_f64();
    let par_busy_s = gkap_core::par::take_busy_nanos() as f64 / 1e9;
    check_first(wl, &reference)?;

    // Unit costs first: a workload may overwrite one with a reading
    // taken on its own data.
    let mut layers = Layers::default();
    units::measure(&mut layers);
    let mut tr = Tracer::enabled();
    let pass = tr.open(None, "pass", &args.workload);
    let t0 = Instant::now();
    wl.traced_pass(&mut tr, pass, &mut layers, &reference)?;
    tr.close(pass, Vec::new());
    // A telemetry-off twin (`trace_on`) is a measurement of its own, not
    // part of the pass: neither the reference nor `attributed` has it.
    let traced_s = t0.elapsed().as_secs_f64() - tr.total_s("twin");

    // Spans the harness could open.
    for (metric, span) in [
        ("core.world_build_s", "world_build"),
        ("core.formation_s", "formation"),
        ("core.rekey_s", "rekey"),
        ("core.collect_s", "collect"),
    ] {
        layers.set(metric, tr.total_s(span));
    }
    layers.set("bench.csv_render_s", tr.total_s("render"));
    let steps = layers.get("gcs.steps");
    if layers.get("gcs.ns_per_step") == 0.0 && steps > 0.0 {
        // Host time per engine step *including* the client handlers it
        // ran (on gcs_storm, where handlers are trivial, the engine's own).
        let stepping_s = tr.total_s("formation") + tr.total_s("rekey");
        layers.set("gcs.ns_per_step", stepping_s * 1e9 / steps);
    }
    layers.set("core.par_busy_s", par_busy_s);
    layers.set(
        "core.par_efficiency",
        par_busy_s / (untraced_s * wl.jobs() as f64),
    );
    layers.set("virt_rekey_ms_p90", percentile(&reference.virt_ms, TAIL));
    layers.set(
        "failed_share",
        reference.failed as f64 / reference.attempted.max(1) as f64,
    );
    let lost = layers.get("gcs.messages_lost");
    if lost > 0.0 {
        layers.set("gcs.repair_ratio", layers.get("gcs.fec_repairs") / lost);
    }

    // Inside formation/rekey the harness cannot open spans; estimate
    // the layers from exact counts × replayed unit costs.
    if layers.get("bignum.busy_est_s") == 0.0 {
        let ops = gkap_bignum::stats::KernelOps {
            mont_mul: layers.get("bignum.mont_mul") as u64,
            mont_sqr: layers.get("bignum.mont_sqr") as u64,
            ..Default::default()
        };
        let est = units::bignum_busy_est_s(&layers, &ops, "4l");
        layers.set("bignum.busy_est_s", est);
    }
    let bignum_s = layers.get("bignum.busy_est_s");
    let gcs_s = layers.get("gcs.steps") * layers.get("gcs.probe_ns_per_step") / 1e9;
    layers.set("gcs.busy_est_s", gcs_s);
    let telemetry_s = layers.get("telemetry.events") * layers.get("telemetry.ns_per_event") / 1e9;
    let attributed = bignum_s
        + gcs_s
        + telemetry_s
        + tr.total_s("world_build")
        + tr.total_s("collect")
        + tr.total_s("render")
        + tr.total_s("manifest");
    layers.set("traced_pass_s", traced_s);
    layers.set("unattributed_share", 1.0 - attributed / traced_s);
    layers.set("trace_overhead_share", traced_s / untraced_s - 1.0);

    if let Some(path) = &args.trace_out {
        std::fs::write(path, tr.to_json(&args.workload, args.seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let metrics = J::obj(PER_LAYER.iter().map(|(name, unit, _)| {
        (
            *name,
            J::obj([("value", J::Num(layers.get(name))), ("unit", J::str(*unit))]),
        )
    }));
    print_result(reference.attempted, reference.failed, metrics);
    Ok(())
}

/// The last line of standard output: the contract's result object.
fn print_result(attempted: u64, failed: u64, metrics: J) {
    let line = J::obj([
        ("correct", J::Bool(true)),
        ("attempted", J::Int(attempted.max(1))),
        ("failed", J::Int(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}

/// Cores the host offers (reported with every thread-dependent result).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass() -> Pass {
        Pass {
            virt_ms: vec![1.5, 2.5],
            attempted: 2,
            failed: 0,
            exact: vec![("bignum.mont_mul", 10), ("core.exp", 4)],
            artifacts: vec![("fig.csv", "a,b\n1,2\n".to_string())],
        }
    }

    /// A mismatch is a hard failure that names the first differing count.
    #[test]
    fn determinism_guard_names_the_first_differing_count() {
        let first = pass();
        assert_eq!(same_outputs(&first, &pass(), 2), Ok(()));

        let mut later = pass();
        later.exact[1].1 = 5;
        let err = same_outputs(&first, &later, 3).expect_err("counts differ");
        assert!(
            err.contains("pass 3") && err.contains("core.exp is 5, was 4"),
            "{err}"
        );

        let mut later = pass();
        later.virt_ms[1] = 2.5000000000000004;
        let err = same_outputs(&first, &later, 2).expect_err("one ulp is a difference");
        assert!(err.contains("operation 1"), "{err}");

        let mut later = pass();
        later.artifacts[0].1.push('x');
        let err = same_outputs(&first, &later, 2).expect_err("bytes differ");
        assert!(err.contains("fig.csv"), "{err}");

        let mut later = pass();
        later.failed = 1;
        assert!(same_outputs(&first, &later, 2).is_err());
    }
}
