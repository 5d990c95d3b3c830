//! `trace_on` — telemetry **on**: `gkap_core::scale::run` with
//! `telemetry = true` (60 groups, churn 1.0, TGDH and BD) and
//! `gkap_bench::trace::trace_figure` for `fig11 | fig12 | fig14 |
//! crash` at n = 50; then everything a traced `repro` run renders:
//! `jsonl::render_events`, `folded_stacks`, `summary_csv`, a
//! `Recorder` replay into a `Manifest`, `to_json`, `parse`, `diff`.
//!
//! Why it exists: the only workload where `telemetry` recording, token
//! stepping without idle fast-forward and the harness' rendering and
//! JSON code dominate. `scale_churn` is its telemetry-off twin.
//!
//! `trace_figure` takes no seed, so its summary CSVs are compared with
//! the committed ones at every seed. `results/trace_summary_fig12.csv`
//! predates the two recovery columns and is compared on the columns it
//! has.

use gkap_bench::diff::{diff, Thresholds};
use gkap_bench::manifest::Manifest;
use gkap_bench::trace::{folded_stacks, summary_csv, trace_figure, TraceRow};
use gkap_core::protocols::ProtocolKind;
use gkap_core::scale::{self, ScaleConfig, ScaleRun};
use gkap_telemetry::{jsonl, Event, Recorder};

use super::{check_golden, fnv64, Layers, Pass, Workload, DEFAULT_SEED, FNV_SEED};
use crate::span::{SpanId, Tracer};

/// The traced figures and the group size they are committed at.
const FIGURES: [&str; 4] = ["fig11", "fig12", "fig14", "crash"];
const FIGURE_N: usize = 50;

/// Groups per telemetry-on scale run, and the virtual span their churn
/// is scheduled over. With telemetry on the idle token is stepped, not
/// fast-forwarded, so host time grows with the horizon; two virtual
/// seconds (the library default is ten) keep a pass near 2.5 s.
const GROUPS: usize = 60;
const HORIZON_MS: u64 = 2_000;

/// The workload, set up.
pub struct TraceOn {
    seed: u64,
}

fn scale_config(kind: ProtocolKind, groups: usize, seed: u64, telemetry: bool) -> ScaleConfig {
    let mut cfg = ScaleConfig::lan(kind, groups);
    cfg.churn = 1.0;
    cfg.horizon = gkap_sim::Duration::from_millis(HORIZON_MS);
    cfg.seed = seed;
    cfg.telemetry = telemetry;
    cfg
}

/// What the record stage of a pass produced.
struct Recorded {
    scale: Vec<ScaleRun>,
    figures: Vec<(&'static str, Vec<TraceRow>)>,
}

/// The scale cells: TGDH and BD, telemetry on or off.
fn record_scale(groups: usize, seed: u64, telemetry: bool) -> Vec<ScaleRun> {
    [ProtocolKind::Tgdh, ProtocolKind::Bd]
        .into_iter()
        .map(|kind| scale::run(&scale_config(kind, groups, seed, telemetry)))
        .collect()
}

/// The traced figures at group size `n` (telemetry always on).
fn record_figures(n: usize) -> Vec<(&'static str, Vec<TraceRow>)> {
    FIGURES
        .into_iter()
        .map(|fig| (fig, trace_figure(fig, n).expect("known figure")))
        .collect()
}

fn record(groups: usize, n: usize, seed: u64) -> Recorded {
    Recorded {
        scale: record_scale(groups, seed, true),
        figures: record_figures(n),
    }
}

/// What the render stage produced.
struct Rendered {
    jsonl_bytes: usize,
    jsonl_digest: u64,
    folded_digest: u64,
    summaries: Vec<(&'static str, String)>,
}

fn all_events(rec: &Recorded) -> impl Iterator<Item = &[Event]> {
    let scale = rec.scale.iter().map(|run| run.events.as_slice());
    let figures = rec
        .figures
        .iter()
        .flat_map(|(_, rows)| rows.iter().map(|r| r.run.events.as_slice()));
    scale.chain(figures)
}

fn render(rec: &Recorded) -> Rendered {
    let mut out = Rendered {
        jsonl_bytes: 0,
        jsonl_digest: FNV_SEED,
        folded_digest: FNV_SEED,
        summaries: Vec::new(),
    };
    for events in all_events(rec) {
        let text = jsonl::render_events(events);
        out.jsonl_bytes += text.len();
        out.jsonl_digest = fnv64(out.jsonl_digest, text.as_bytes());
    }
    for (fig, rows) in &rec.figures {
        out.folded_digest = fnv64(out.folded_digest, folded_stacks(rows).as_bytes());
        out.summaries.push((fig, summary_csv(fig, rows)));
    }
    out
}

/// Replays every event into a fresh `Recorder`, folds its hub into a
/// manifest and takes the manifest through write → parse → diff.
fn manifest_round_trip(rec: &Recorded) -> Result<(usize, usize), String> {
    let mut recorder = Recorder::default();
    for events in all_events(rec) {
        for ev in events {
            recorder.push(ev.clone());
        }
    }
    let mut manifest = Manifest::new("perf", "trace_on");
    manifest.absorb_hub(recorder.hub());
    for run in &rec.scale {
        manifest.absorb_hub(&run.hub);
    }
    let text = manifest.to_json();
    let parsed = Manifest::parse(&text)?;
    let report = diff(&manifest, &parsed, &Thresholds::default());
    if !report.passed() {
        return Err("a manifest differs from its own parsed rendering".to_string());
    }
    Ok((text.len(), report.compared))
}

/// Cuts every row of both CSVs to the columns the golden has.
fn on_golden_columns(golden_file: &str) -> impl Fn(&str) -> String + '_ {
    move |csv| {
        let cols = super::golden(golden_file)
            .ok()
            .and_then(|g| g.lines().next().map(|h| h.split(',').count()))
            .unwrap_or(usize::MAX);
        csv.lines()
            .map(|l| l.split(',').take(cols).collect::<Vec<_>>().join(","))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl TraceOn {
    /// Set-up: the suite and a warm-up at a tenth of the size (six
    /// groups, figures at n = 8) through record and render.
    pub fn new(seed: u64) -> Self {
        let rec = record(GROUPS / 10, 8, seed);
        std::hint::black_box(render(&rec).jsonl_bytes);
        TraceOn { seed }
    }
}

impl Workload for TraceOn {
    fn pass(&mut self) -> Pass {
        let kernel_before = gkap_bignum::stats::snapshot();
        let rec = record(GROUPS, FIGURE_N, self.seed);
        let rendered = render(&rec);
        let (manifest_bytes, compared) =
            manifest_round_trip(&rec).unwrap_or_else(|e| panic!("trace_on: {e}"));
        let mut pass = Pass::default();
        let mut events = 0u64;
        for run in &rec.scale {
            pass.virt_ms.extend(&run.rekey_ms);
            pass.attempted += run.batches as u64;
            pass.failed += (run.batches - run.rekeys - run.superseded) as u64 + u64::from(!run.ok);
            events += run.events.len() as u64;
        }
        for (_, rows) in &rec.figures {
            for row in rows {
                pass.virt_ms.push(row.run.outcome.elapsed_ms);
                pass.attempted += 1;
                pass.failed += u64::from(!row.run.outcome.ok);
                events += row.run.events.len() as u64;
            }
        }
        pass.push_kernel(&gkap_bignum::stats::snapshot().since(&kernel_before));
        pass.exact.extend([
            ("telemetry.events", events),
            ("telemetry.jsonl_bytes", rendered.jsonl_bytes as u64),
            ("telemetry.jsonl_digest", rendered.jsonl_digest),
            ("bench.folded_digest", rendered.folded_digest),
            ("bench.manifest_bytes", manifest_bytes as u64),
            ("bench.diff_compared", compared as u64),
        ]);
        pass.artifacts = rendered.summaries;
        pass
    }

    fn verify(&mut self, first: &Pass) -> Result<(), String> {
        for (fig, csv) in &first.artifacts {
            let file = format!("trace_summary_{fig}.csv");
            check_golden(DEFAULT_SEED, fig, csv, &file, on_golden_columns(&file))?;
        }
        Ok(())
    }

    fn traced_pass(
        &mut self,
        tr: &mut Tracer,
        pass: SpanId,
        layers: &mut Layers,
        reference: &Pass,
    ) -> Result<(), String> {
        // The record stage goes through the library whole (its cells
        // are `paper_figs`' and `scale_churn`'s, with telemetry on);
        // the spans here separate record, render and manifest.
        let record_span = tr.open(Some(pass), "cell", "record, telemetry on");
        let t0 = std::time::Instant::now();
        let scale = record_scale(GROUPS, self.seed, true);
        let scale_on_s = t0.elapsed().as_secs_f64();
        let rec = Recorded {
            scale,
            figures: record_figures(FIGURE_N),
        };
        tr.close(record_span, Vec::new());

        let render_span = tr.open(Some(pass), "render", "");
        let t0 = std::time::Instant::now();
        let rendered = render(&rec);
        let render_s = t0.elapsed().as_secs_f64();
        tr.close(render_span, Vec::new());

        let manifest_span = tr.open(Some(pass), "manifest", "");
        let (manifest_bytes, _) = manifest_round_trip(&rec)?;
        tr.close(manifest_span, Vec::new());

        // The twin: the same scale cells with telemetry off. (The
        // figure cells have no telemetry-off entry point that returns
        // events; `paper_figs` is their off twin.)
        let off_span = tr.open(Some(pass), "twin", "scale cells, telemetry off");
        let t0 = std::time::Instant::now();
        std::hint::black_box(record_scale(GROUPS, self.seed, false));
        let scale_off_s = t0.elapsed().as_secs_f64();
        tr.close(off_span, Vec::new());
        let scale_events: usize = rec.scale.iter().map(|r| r.events.len()).sum();

        layers.add_prefixed(&reference.exact, "bignum.");
        layers.set(
            "telemetry.events",
            reference.count("telemetry.events").unwrap_or(0) as f64,
        );
        layers.set("telemetry.on_off_ratio", scale_on_s / scale_off_s);
        layers.set(
            "telemetry.ns_per_event",
            (scale_on_s - scale_off_s) * 1e9 / scale_events as f64,
        );
        layers.set(
            "telemetry.jsonl_mb_s",
            rendered.jsonl_bytes as f64 / 1e6 / render_s,
        );
        layers.set("bench.manifest_bytes", manifest_bytes as f64);
        for run in &rec.scale {
            layers.add("core.superseded", run.superseded as f64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_cut_to_the_goldens_columns() {
        let cut = on_golden_columns("trace_summary_fig12.csv");
        // The committed fig12 summary has ten columns.
        assert_eq!(
            cut("a,b,c,d,e,f,g,h,i,j,k,l\n1,2,3,4,5,6,7,8,9,10,11,12"),
            "a,b,c,d,e,f,g,h,i,j\n1,2,3,4,5,6,7,8,9,10"
        );
    }
}
