//! The `repro scale` workload: N concurrent groups per protocol,
//! partitioned across independent ring shards, batched membership
//! churn, throughput/latency CSV.
//!
//! The CSV is a deterministic function of (groups, churn, window,
//! seed): `(protocol, shard)` cells fan out over worker threads via
//! [`gkap_core::par::run_indexed`] — one *flat* fan-out, so the
//! busy-time counter brackets each cell exactly once — results come
//! back in index order regardless of `--jobs`, and every group is a
//! self-contained serial simulation folded in group-ascending order
//! by [`gkap_core::scale::assemble`]. The bytes written are therefore
//! identical for any `jobs` x `shards` combination and across
//! repeated runs; per-shard wall-clock attribution goes to the
//! manifest *environment* block only.

use std::time::Instant;

use crate::manifest::Manifest;
use gkap_core::batch::EventBatcher;
use gkap_core::par;
use gkap_core::protocols::ProtocolKind;
use gkap_core::scale::{
    assemble, generate_schedule, percentile, run_shard, GroupOutcome, ScaleConfig, ScaleRun,
};
use gkap_sim::Duration;

/// Parses a protocol name as the CLI accepts it (case-insensitive
/// paper names: gdh, tgdh, str, bd, ckd).
pub fn parse_protocol(name: &str) -> Option<ProtocolKind> {
    ProtocolKind::all()
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
}

/// Parameters of one `repro scale` invocation.
#[derive(Clone, Debug)]
pub struct ScaleOptions {
    /// Concurrent groups per run.
    pub groups: usize,
    /// Expected churn events per group over the horizon.
    pub churn: f64,
    /// Batching window in milliseconds (0 disables batching).
    pub window_ms: f64,
    /// Restrict to one protocol (all five when `None`).
    pub protocol: Option<ProtocolKind>,
    /// Schedule and member seed.
    pub seed: u64,
    /// Worker threads for the `(protocol, shard)` cell fan-out.
    pub jobs: usize,
    /// Independent ring shards per protocol (1 = single ring; `repro
    /// scale` runs one per job). A pure execution knob: results are
    /// bit-identical for any value.
    pub shards: usize,
}

/// The `--churn` default: expected events per group.
pub const DEFAULT_CHURN: f64 = 0.1;

/// The `--window` default, in milliseconds.
pub const DEFAULT_WINDOW_MS: f64 = 5.0;

impl ScaleOptions {
    /// Names the run's outputs (`scale_<tag>.csv`,
    /// `RUN_scale_<tag>.json`): groups and seed, then every workload
    /// option that is not at its default, so runs that differ in what
    /// they compute never overwrite each other while the default
    /// workload keeps the short name the gates read (`g64_s7`). `jobs`
    /// and `shards` change no output byte and stay out.
    pub fn tag(&self) -> String {
        let mut tag = format!("g{}_s{}", self.groups, self.seed);
        if self.churn != DEFAULT_CHURN {
            tag.push_str(&format!("_c{}", self.churn));
        }
        if self.window_ms != DEFAULT_WINDOW_MS {
            tag.push_str(&format!("_w{}", self.window_ms));
        }
        if let Some(p) = self.protocol {
            tag.push_str(&format!("_{}", p.name().to_lowercase()));
        }
        tag
    }
}

/// One CSV row: a protocol's scale run boiled down to the throughput
/// and latency quantities the workload reports.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// The protocol measured.
    pub protocol: ProtocolKind,
    /// The full run outcome.
    pub run: ScaleRun,
}

/// Scale rows plus the execution attribution the manifest records in
/// its environment block.
#[derive(Clone, Debug)]
pub struct ScaleOutcome {
    /// One row per protocol, in Table 1 order.
    pub rows: Vec<ScaleRow>,
    /// Wall-clock nanoseconds each shard's cells spent computing,
    /// summed over protocols. Indexed by shard.
    pub shard_busy_ns: Vec<u64>,
}

/// Runs the scale workload for every selected protocol, in Table 1
/// order. Deterministic across `jobs` and `shards`: the fan-out
/// preserves index order, each group is self-contained, and the fold
/// is canonical — only `shard_busy_ns` (wall clock, environment-only)
/// varies between runs.
pub fn run_all_timed(opts: &ScaleOptions) -> ScaleOutcome {
    let protocols: Vec<ProtocolKind> = match opts.protocol {
        Some(p) => vec![p],
        None => ProtocolKind::all().to_vec(),
    };
    let shards = opts.shards.max(1);
    let window = Duration::from_millis_f64(opts.window_ms);
    let prepped: Vec<_> = protocols
        .iter()
        .map(|&p| {
            let mut cfg = ScaleConfig::lan(p, opts.groups);
            cfg.churn = opts.churn;
            cfg.window = window;
            cfg.seed = opts.seed;
            let schedule = generate_schedule(&cfg);
            let batches = EventBatcher::new(cfg.window).coalesce(&schedule.events);
            (cfg, schedule, batches)
        })
        .collect();
    // One flat `(protocol, shard)` fan-out: nesting run_indexed would
    // bracket inner cells twice in the busy-time counter.
    let cells = par::run_indexed(opts.jobs, protocols.len() * shards, |i| {
        let (cfg, schedule, batches) = &prepped[i / shards];
        let t0 = Instant::now();
        let outcomes = run_shard(cfg, schedule, batches, shards, i % shards);
        (outcomes, t0.elapsed().as_nanos() as u64)
    });
    let mut shard_busy_ns = vec![0u64; shards];
    let mut per_protocol: Vec<Vec<GroupOutcome>> = protocols.iter().map(|_| Vec::new()).collect();
    for (i, (o, ns)) in cells.into_iter().enumerate() {
        shard_busy_ns[i % shards] += ns;
        per_protocol[i / shards].extend(o);
    }
    let rows = prepped
        .iter()
        .zip(&protocols)
        .zip(per_protocol)
        .map(
            |(((cfg, schedule, batches), &protocol), outcomes)| ScaleRow {
                protocol,
                run: assemble(cfg, schedule, batches, outcomes),
            },
        )
        .collect();
    ScaleOutcome {
        rows,
        shard_busy_ns,
    }
}

/// [`run_all_timed`] without the attribution, for callers that only
/// want the deterministic rows.
pub fn run_all(opts: &ScaleOptions) -> Vec<ScaleRow> {
    run_all_timed(opts).rows
}

/// CSV of the scale rows, fixed-precision so equal runs render equal
/// bytes.
pub fn scale_csv(opts: &ScaleOptions, rows: &[ScaleRow]) -> String {
    let mut out = String::from(
        "protocol,groups,churn,window_ms,seed,events,batches,rekeys,superseded,\
         events_per_sec,rekey_p50_ms,rekey_p95_ms,batch_wait_mean_ms,\
         transport_mean_ms,agreement_mean_ms,ok\n",
    );
    for row in rows {
        let r = &row.run;
        out.push_str(&format!(
            "{},{},{:.4},{:.3},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
            row.protocol.name(),
            opts.groups,
            opts.churn,
            opts.window_ms,
            opts.seed,
            r.raw_events,
            r.batches,
            r.rekeys,
            r.superseded,
            r.events_per_sec(),
            percentile(&r.rekey_ms, 0.50),
            percentile(&r.rekey_ms, 0.95),
            mean(&r.batch_wait_ms),
            mean(&r.transport_ms),
            mean(&r.agreement_ms),
            r.ok,
        ));
    }
    out
}

/// Human-readable summary table of the scale rows.
pub fn scale_table(opts: &ScaleOptions, rows: &[ScaleRow]) -> String {
    let mut out = format!(
        "scale: {} groups, churn {:.2}/group, window {:.1} ms, seed {}\n\
         {:<6} {:>8} {:>8} {:>8} {:>12} {:>12} {:>12}\n",
        opts.groups,
        opts.churn,
        opts.window_ms,
        opts.seed,
        "proto",
        "events",
        "batches",
        "rekeys",
        "events/sec",
        "p50 ms",
        "p95 ms",
    );
    for row in rows {
        let r = &row.run;
        out.push_str(&format!(
            "{:<6} {:>8} {:>8} {:>8} {:>12.2} {:>12.2} {:>12.2}{}\n",
            row.protocol.name(),
            r.raw_events,
            r.batches,
            r.rekeys,
            r.events_per_sec(),
            percentile(&r.rekey_ms, 0.50),
            percentile(&r.rekey_ms, 0.95),
            if r.ok { "" } else { "  [FAILED]" },
        ));
    }
    out
}

/// Builds the deterministic body of the `scale` run manifest from the
/// rows: each protocol's typed metrics hub (workload counters, phase
/// histograms, kernel op counts) is folded in, and `virtual_ms` totals
/// the per-protocol elapsed virtual time. Every quantity here is a
/// pure function of (groups, churn, window, seed), so the rendered
/// body is bit-identical across `--jobs` values — the property the
/// scale determinism test pins.
pub fn scale_manifest(opts: &ScaleOptions, rows: &[ScaleRow]) -> Manifest {
    let mut man = Manifest::new("scale", &opts.tag());
    man.set_config("groups", opts.groups);
    man.set_config("churn", format!("{:.4}", opts.churn));
    man.set_config("window_ms", format!("{:.3}", opts.window_ms));
    man.set_config("seed", opts.seed);
    man.set_config("protocol", opts.protocol.map(|p| p.name()).unwrap_or("all"));
    for row in rows {
        man.absorb_hub(&row.run.hub);
        man.virtual_ms += row.run.elapsed.as_millis_f64();
    }
    man
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_parsing() {
        assert_eq!(parse_protocol("tgdh"), Some(ProtocolKind::Tgdh));
        assert_eq!(parse_protocol("BD"), Some(ProtocolKind::Bd));
        assert_eq!(parse_protocol("nope"), None);
    }

    #[test]
    fn tag_keeps_the_default_name_and_separates_differing_workloads() {
        let opts = |groups, churn, window_ms, protocol, seed, jobs| ScaleOptions {
            groups,
            churn,
            window_ms,
            protocol,
            seed,
            jobs,
            shards: jobs,
        };
        let default = |jobs| opts(64, DEFAULT_CHURN, DEFAULT_WINDOW_MS, None, 7, jobs);
        assert_eq!(default(1).tag(), "g64_s7");
        assert_eq!(default(4).tag(), "g64_s7", "jobs/shards change no byte");
        let variants = [
            default(1),
            opts(1000, DEFAULT_CHURN, DEFAULT_WINDOW_MS, None, 7, 1),
            opts(64, DEFAULT_CHURN, DEFAULT_WINDOW_MS, None, 8, 1),
            opts(64, 0.05, DEFAULT_WINDOW_MS, None, 7, 1),
            opts(64, 1.0, DEFAULT_WINDOW_MS, None, 7, 1),
            opts(64, DEFAULT_CHURN, 0.0, None, 7, 1),
            opts(64, DEFAULT_CHURN, 0.05, None, 7, 1),
            opts(
                64,
                DEFAULT_CHURN,
                DEFAULT_WINDOW_MS,
                Some(ProtocolKind::Bd),
                7,
                1,
            ),
            opts(64, 0.05, DEFAULT_WINDOW_MS, Some(ProtocolKind::Tgdh), 7, 1),
        ];
        let tags: std::collections::BTreeSet<String> = variants.iter().map(|o| o.tag()).collect();
        assert_eq!(tags.len(), variants.len(), "{tags:?}");
        assert!(tags.contains("g64_s7_c0.05"), "{tags:?}");
        assert!(tags.contains("g64_s7_c0.05_tgdh"), "{tags:?}");
    }

    #[test]
    fn csv_shape_and_determinism() {
        let opts = ScaleOptions {
            groups: 6,
            churn: 1.0,
            window_ms: 5.0,
            protocol: Some(ProtocolKind::Bd),
            seed: 7,
            jobs: 1,
            shards: 1,
        };
        let a = scale_csv(&opts, &run_all(&opts));
        let b = scale_csv(&opts, &run_all(&opts));
        assert_eq!(a, b, "same seed renders identical bytes");
        assert_eq!(a.lines().count(), 2, "header + one protocol row");
        assert!(a.starts_with("protocol,groups,churn,window_ms,seed,"));
    }
}
