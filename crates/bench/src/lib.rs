//! Shared harness code for the reproduction binary: figure builders
//! for every experiment in DESIGN.md's index, plus the
//! micro-benchmarks of the group communication substrate (§6.1.1 /
//! §6.2.1).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod diff;
pub mod figures;
pub mod loss_sweep;
pub mod manifest;
pub mod micro;
pub mod scale;
pub mod trace;

use std::io::Write;
use std::path::Path;

use gkap_sim::stats::Figure;

/// Where harness narration (tables, progress notes) goes. Replaces
/// scattered `println!`/`eprintln!` so output can be silenced
/// (`--quiet`) or captured in tests.
#[derive(Debug)]
pub struct Console {
    sink: Sink,
}

#[derive(Debug)]
enum Sink {
    /// Tables to stdout, notes to stderr (the default CLI behaviour).
    Stdio,
    /// Swallow everything (`--quiet`: CSV files are the only output).
    Quiet,
    /// Capture everything in order (tests).
    Buffer(String),
}

impl Console {
    /// Console writing tables to stdout and notes to stderr.
    pub fn stdio() -> Self {
        Console { sink: Sink::Stdio }
    }

    /// Console that discards all narration.
    pub fn quiet() -> Self {
        Console { sink: Sink::Quiet }
    }

    /// Console that captures all narration in memory.
    pub fn buffered() -> Self {
        Console {
            sink: Sink::Buffer(String::new()),
        }
    }

    /// Emits one line of primary output (a table row, a result path).
    pub fn say(&mut self, line: impl AsRef<str>) {
        match &mut self.sink {
            Sink::Stdio => {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "{}", line.as_ref());
            }
            Sink::Quiet => {}
            Sink::Buffer(buf) => {
                buf.push_str(line.as_ref());
                buf.push('\n');
            }
        }
    }

    /// Emits one line of side-channel narration (progress, timing).
    pub fn note(&mut self, line: impl AsRef<str>) {
        match &mut self.sink {
            Sink::Stdio => {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{}", line.as_ref());
            }
            Sink::Quiet => {}
            Sink::Buffer(buf) => {
                buf.push_str(line.as_ref());
                buf.push('\n');
            }
        }
    }

    /// Everything captured so far (buffered consoles only).
    pub fn captured(&self) -> Option<&str> {
        match &self.sink {
            Sink::Buffer(buf) => Some(buf.as_str()),
            _ => None,
        }
    }
}

/// Writes `text` to `dir/name`, creating `dir` first, with one-line
/// diagnostics naming the path on failure (a read-only results
/// directory must degrade to an error message, not a panic).
pub fn write_output(dir: &Path, name: &str, text: &str) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create output dir {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Writes a figure as CSV + prints its table; returns the rendered
/// table text, or a one-line diagnostic if the output directory or
/// CSV cannot be written. The figure's deterministic shape also lands
/// in the step's run manifest: a point count per figure and one
/// histogram of per-point mean latencies per series, so `bench-diff`
/// can gate every figure workload without parsing CSVs.
pub fn emit(
    fig: &Figure,
    out_dir: &Path,
    stem: &str,
    con: &mut Console,
    man: &mut manifest::Manifest,
) -> Result<String, String> {
    let csv_path = write_output(out_dir, &format!("{stem}.csv"), &fig.to_csv())?;
    for series in &fig.series {
        man.add_count(
            &format!("harness/{stem}/{}/points", series.name),
            series.points.len() as u64,
        );
        let mut h = gkap_telemetry::metrics::LogHistogram::default();
        for p in &series.points {
            h.record(p.summary.mean());
        }
        if h.count() > 0 {
            man.put_histogram(
                &format!("harness/{stem}/{}/mean_ms", series.name),
                h.summary(),
            );
        }
    }
    let table = fig.to_table();
    con.say(&table);
    con.say(format!("[written: {}]", csv_path.display()));
    Ok(table)
}

/// The group sizes sampled for figures (the paper plots 2..50; we
/// sample the same range densely enough to show every knee, including
/// the multiples of 13 where machine sharing kicks in).
pub fn figure_sizes() -> Vec<usize> {
    vec![2, 5, 8, 11, 13, 14, 17, 20, 23, 26, 27, 30, 35, 40, 45, 50]
}

/// Smaller sample for the slower WAN figures.
pub fn wan_sizes() -> Vec<usize> {
    vec![2, 5, 8, 11, 14, 20, 26, 32, 40, 50]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_console_captures_in_order() {
        let mut con = Console::buffered();
        con.say("table row");
        con.note("[progress]");
        assert_eq!(con.captured(), Some("table row\n[progress]\n"));
    }

    #[test]
    fn quiet_console_discards() {
        let mut con = Console::quiet();
        con.say("nothing");
        assert_eq!(con.captured(), None);
    }
}
