//! `perf` — the repository's benchmark.
//!
//! ```text
//! perf [run] --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//!            [--passes N] [--trace-out FILE]
//! perf all   [--seed N] [--seconds S] [--passes N] [--out FILE]
//! perf compare <A.json> <B.json>
//! ```
//!
//! `run` executes one workload in this process and prints, as its last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics, or the
//! per-layer metrics with `--trace 1`); the line before it carries
//! every end-to-end metric with unit, sample count and spread. `all`
//! runs each workload in a process of its own and collects the detail
//! lines into one set; `compare` judges two sets. `setup-probe` is not
//! for users: a run starts it to time set-up in a fresh process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod compare;
mod harness;
mod host;
mod json;
mod span;
mod stats;
mod units;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::RunArgs;
use workloads::{DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  perf [run] --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
             [--passes N] [--trace-out FILE]
  perf all   [--seed N] [--seconds S] [--passes N] [--out FILE]
  perf compare <A.json> <B.json>
workloads: paper_figs scale_churn loss_recovery gcs_storm trace_on real_crypto";

/// Parsed flags of `run` / `all`.
struct Flags {
    run: RunArgs,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        run: RunArgs {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 12.0,
            trace: false,
            passes: None,
            trace_out: None,
        },
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => flags.run.workload = value("a name")?,
            "--seed" => flags.run.seed = num(flag, value("a number")?)?,
            "--seconds" => {
                flags.run.seconds = num(flag, value("a number")?)?;
                if flags.run.seconds.is_nan() || flags.run.seconds < 0.0 {
                    return Err("--seconds must not be negative".to_string());
                }
            }
            "--passes" => flags.run.passes = Some(num(flag, value("a number")?)?),
            "--trace-out" => flags.run.trace_out = Some(PathBuf::from(value("a path")?)),
            "--out" => flags.out = Some(PathBuf::from(value("a path")?)),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                flags.run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

/// `perf all`: every workload in its own process.
fn all(flags: &Flags) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut details = Vec::new();
    let seed = flags.run.seed;
    for (name, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name, "--seed", &seed.to_string()]);
        cmd.args(["--seconds", &flags.run.seconds.to_string()]);
        if let Some(passes) = flags.run.passes {
            cmd.args(["--passes", &passes.to_string()]);
        }
        eprintln!("[perf all] {name} seed {seed}");
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{name} (seed {seed}) failed"));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let detail = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("{\"detail\": "))
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(|| format!("{name} printed no detail line"))?;
        details.push(detail.to_string());
    }
    let doc = format!("{{\"runs\": [\n{}\n]}}\n", details.join(",\n"));
    match &flags.out {
        Some(path) => {
            std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        None => {
            print!("{doc}");
            Ok(())
        }
    }
}

fn real_main(started: Instant) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "all" | "compare" | "setup-probe")) => (cmd, &args[1..]),
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        _ => return Err(USAGE.to_string()),
    };
    match cmd {
        "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        "all" => all(&parse_flags(rest)?).map(|()| true),
        "setup-probe" => {
            let flags = parse_flags(rest)?;
            workloads::build(&flags.run.workload, flags.run.seed)?;
            println!("{}", started.elapsed().as_secs_f64());
            Ok(true)
        }
        _ => harness::run(&parse_flags(rest)?.run, started).map(|()| true),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
