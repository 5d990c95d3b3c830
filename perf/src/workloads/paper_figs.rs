//! `paper_figs` — the paper's own figures: Figure 11 (join, LAN,
//! DH 1024) over `figure_sizes()` and Figure 14 right (leave, WAN,
//! DH 512) over `wan_sizes()`, one repetition each: 130 cells.
//!
//! Why it exists: this is what `repro fig11`/`fig14` spend their time
//! on. Formation of the pre-event group is O(n²) exponentiations on
//! the 4-limb simulation group, so ≥ 75 % of host time is `bignum`
//! Montgomery work, `gcs` stays under 5 %, and telemetry is off.
//!
//! The committed figures use three repetitions per point; virtual time
//! does not depend on the repetition seed, so one repetition renders
//! the same per-protocol rows. Only the pooled `Membership` series'
//! standard deviation depends on the repetition count and is left out
//! of the golden comparison.

use std::sync::Mutex;

use gkap_bench::{figure_sizes, wan_sizes};
use gkap_core::experiment::{
    build_figure_jobs, run_join, run_leave_weighted, EventOutcome, SuiteKind,
};
use gkap_core::protocols::ProtocolKind;
use gkap_gcs::{testbed, GcsConfig};
use gkap_sim::stats::{Figure, Series, Summary};

use super::{check_golden, Layers, Pass, Workload, DEFAULT_SEED};
use crate::cell::{run_cell, CellSpec, Op};
use crate::span::{SpanId, Tracer};

/// The workload, set up.
pub struct PaperFigs {
    seed: u64,
}

/// One figure of the workload.
struct Fig {
    title: &'static str,
    gcs: GcsConfig,
    suite: SuiteKind,
    sizes: Vec<usize>,
    join: bool,
    /// The committed rendering under `results/`.
    csv: &'static str,
}

fn figs() -> [Fig; 2] {
    [
        Fig {
            title: "Figure 11 — Join, LAN, DH 1024 bits",
            gcs: testbed::lan(),
            suite: SuiteKind::Sim1024,
            sizes: figure_sizes(),
            join: true,
            csv: "fig11_join_lan_1024.csv",
        },
        Fig {
            title: "Figure 14 — Leave, WAN, DH 512 bits",
            gcs: testbed::wan(),
            suite: SuiteKind::Sim512,
            sizes: wan_sizes(),
            join: false,
            csv: "fig14_leave_wan_512.csv",
        },
    ]
}

/// Builds one figure through the library's builder; a non-default
/// seed is XOR-ed into every cell's seed through the runner closure
/// (the default seed leaves the committed cell seeds untouched).
fn build(fig: &Fig, sizes: &[usize], seed: u64) -> (Figure, Vec<EventOutcome>) {
    let log = Mutex::new(Vec::new());
    let figure = build_figure_jobs(fig.title, &fig.gcs, fig.suite, sizes, 1, 1, |cfg, n| {
        let mut cfg = cfg.clone();
        cfg.seed ^= seed ^ DEFAULT_SEED;
        let outcome = if fig.join {
            run_join(&cfg, n)
        } else {
            run_leave_weighted(&cfg, n)
        };
        log.lock().expect("outcome log").push(outcome.clone());
        outcome
    });
    (figure, log.into_inner().expect("outcome log"))
}

/// Drops the standard-deviation column of the pooled `Membership`
/// rows, the one quantity that depends on the repetition count.
fn without_membership_stddev(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            if line.starts_with("Membership,") {
                let cols: Vec<&str> = line.split(',').collect();
                [&cols[..3], &cols[4..]].concat().join(",")
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

impl PaperFigs {
    /// Set-up: both simulation suites (fixed-base tables, Montgomery
    /// contexts) and a warm-up over the sizes up to 14.
    pub fn new(seed: u64) -> Self {
        for fig in figs() {
            let small: Vec<usize> = fig.sizes.iter().copied().filter(|&n| n <= 14).collect();
            build(&fig, &small, seed);
        }
        PaperFigs { seed }
    }
}

impl Workload for PaperFigs {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        let kernel_before = gkap_bignum::stats::snapshot();
        let mut ops = gkap_core::OpCounts::default();
        for fig in figs() {
            let (figure, outcomes) = build(&fig, &fig.sizes, self.seed);
            for o in &outcomes {
                pass.virt_ms.push(o.elapsed_ms);
                pass.attempted += 1;
                pass.failed += u64::from(!o.ok);
                ops.add(&o.counts);
            }
            pass.artifacts.push((fig.csv, figure.to_csv()));
        }
        pass.push_kernel(&gkap_bignum::stats::snapshot().since(&kernel_before));
        pass.push_ops(&ops);
        pass
    }

    fn verify(&mut self, first: &Pass) -> Result<(), String> {
        for (name, csv) in &first.artifacts {
            check_golden(self.seed, name, csv, name, without_membership_stddev)?;
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
        let mut cells = 0u64;
        let mut wire_bytes = 0u64;
        let mut figures = Vec::new();
        for fig in figs() {
            let suite = fig.suite.shared();
            let mut figure = Figure::new(fig.title);
            for kind in ProtocolKind::all() {
                let mut series = Series::new(kind.name());
                for &n in &fig.sizes {
                    // The cell seed `build_figure_jobs` gives repetition 0.
                    let seed = 0x5eed ^ (1u64 << 32) ^ n as u64 ^ self.seed ^ DEFAULT_SEED;
                    let mut run = |op| {
                        let spec = CellSpec {
                            kind,
                            gcs: &fig.gcs,
                            suite: &suite,
                            seed,
                            n,
                            op,
                        };
                        let out = run_cell(&spec, tr, Some(pass));
                        layers.add_cell(&out);
                        wire_bytes += out.stats.payload_bytes + out.stats.parity_bytes_sent;
                        out
                    };
                    let elapsed_ms = if fig.join {
                        run(Op::Join).elapsed_ms
                    } else {
                        // `run_leave_weighted`: the middle member leaves;
                        // CKD is weighted with its controller leaving
                        // at probability 1/n.
                        let mid = run(Op::Leave(n / 2)).elapsed_ms;
                        if kind == ProtocolKind::Ckd {
                            let nf = n as f64;
                            (mid * (nf - 1.0) + run(Op::Leave(0)).elapsed_ms) / nf
                        } else {
                            mid
                        }
                    };
                    let mut summary = Summary::new();
                    summary.add(elapsed_ms);
                    series.push(n as f64, summary);
                    cells += 1;
                }
                figure.push(series);
            }
            figures.push((fig.csv, figure));
        }
        layers.set("wire_kb_per_op", wire_bytes as f64 / 1000.0 / cells as f64);

        // The hand-driven cells, folded and rendered the library's way,
        // must give the library pass's per-protocol rows byte for byte
        // (the pooled Membership series, which comes last, is not rebuilt).
        let render = tr.open(Some(pass), "render", "");
        for ((name, figure), (_, library_csv)) in figures.iter().zip(&reference.artifacts) {
            let csv = figure.to_csv();
            std::hint::black_box(figure.to_table());
            if !library_csv.starts_with(&csv) {
                return Err(format!(
                    "hand-driven cells of {name} do not reproduce the library's rows"
                ));
            }
        }
        tr.close(render, Vec::new());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_stddev_is_the_only_column_dropped() {
        let csv = "series,x,mean_ms,stddev_ms,min_ms,max_ms\n\
                   GDH,2,1.0000,0.0000,1.0000,1.0000\n\
                   Membership,2,481.6300,0.0104,481.6250,481.6500";
        assert_eq!(
            without_membership_stddev(csv),
            "series,x,mean_ms,stddev_ms,min_ms,max_ms\n\
             GDH,2,1.0000,0.0000,1.0000,1.0000\n\
             Membership,2,481.6300,481.6250,481.6500"
        );
    }

    /// Goldens are checked at the default seed and skipped elsewhere.
    #[test]
    fn golden_check_skips_non_default_seeds() {
        let wrong = "not,the,golden\n";
        let file = "fig11_join_lan_1024.csv";
        let exact = |s: &str| s.to_string();
        assert!(check_golden(DEFAULT_SEED, "fig11", wrong, file, exact).is_err());
        assert!(check_golden(DEFAULT_SEED + 1, "fig11", wrong, file, exact).is_ok());
        let right = crate::workloads::golden(file).expect("golden present");
        assert!(check_golden(DEFAULT_SEED, "fig11", &right, file, exact).is_ok());
        assert!(check_golden(
            DEFAULT_SEED,
            "fig11",
            &right,
            file,
            without_membership_stddev
        )
        .is_ok());
    }
}
