//! The six workloads and what they share: the shape of one pass, the
//! per-layer metric table, and the seed conventions.
//!
//! Every workload is a closed loop with one client — the harness
//! itself: the next cell starts when the previous one returns.

use std::collections::BTreeMap;
use std::path::PathBuf;

use gkap_bignum::stats::KernelOps;
use gkap_core::cost::OpCounts;
use gkap_gcs::WorldStats;

use crate::span::{SpanId, Tracer};

pub mod gcs_storm;
pub mod loss_recovery;
pub mod paper_figs;
pub mod real_crypto;
pub mod scale_churn;
pub mod trace_on;

/// The seed at which the committed goldens under `results/` were made.
pub const DEFAULT_SEED: u64 = 7;

/// Workload names and the one-line reason each exists (the same text
/// `BENCHMARK.json` carries).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "paper_figs",
        "the paper's Figures 11 and 14: O(n^2) formation on the 4-limb simulation group is 80% of host time, bignum the largest layer, gcs+sim 2-5%, telemetry off",
    ),
    (
        "scale_churn",
        "1000 three-member groups under churn on 2 threads: world construction, batching and the par/shard fan-out matter; the only multi-threaded workload",
    ),
    (
        "loss_recovery",
        "loss sweeps, burst sweeps and a chaos campaign: the only place loss chains, FEC repair, backoff, ring reformation and restarts run",
    ),
    (
        "gcs_storm",
        "no crypto: all-to-all Agreed rounds on clean, lossy, FEC and sharded rings, so gcs+sim do all the work and bignum none (the bypass for kernel changes)",
    ),
    (
        "trace_on",
        "telemetry on: recording, un-fast-forwarded token stepping, JSONL/folded/manifest rendering dominate; scale_churn is its telemetry-off twin",
    ),
    (
        "real_crypto",
        "full stack on real 512- and 1024-bit groups with real RSA, AES-CTR and HMAC: the same kernels at 8 and 16 limbs (the bypass for 4-limb tuning)",
    ),
];

/// What one full pass of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Simulated latency of every completed operation, virtual ms.
    pub virt_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not converge.
    pub failed: u64,
    /// Exact counts; every one must repeat bit-for-bit across passes.
    pub exact: Vec<(&'static str, u64)>,
    /// Rendered outputs (CSV text) compared against goldens and, by
    /// digest, across passes.
    pub artifacts: Vec<(&'static str, String)>,
}

impl Pass {
    /// The exact count called `name`.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.exact.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Adds the five kernel counters under their per-layer names.
    pub fn push_kernel(&mut self, ops: &KernelOps) {
        self.exact.extend(kernel_counts(ops));
    }

    /// Adds the protocol operation counters under their per-layer names.
    pub fn push_ops(&mut self, c: &OpCounts) {
        self.exact.extend(op_counts(c));
    }
}

/// `KernelOps` under the per-layer metric names.
pub fn kernel_counts(ops: &KernelOps) -> [(&'static str, u64); 5] {
    [
        ("bignum.mont_mul", ops.mont_mul),
        ("bignum.mont_sqr", ops.mont_sqr),
        ("bignum.redc", ops.redc),
        ("bignum.modexp", ops.modexp),
        ("bignum.fixed_base_exp", ops.fixed_base_exp),
    ]
}

/// `OpCounts` under the per-layer metric names.
pub fn op_counts(c: &OpCounts) -> [(&'static str, u64); 6] {
    [
        ("core.exp", c.exp),
        ("core.inverse", c.inverse),
        ("core.sign", c.sign),
        ("core.verify", c.verify),
        ("core.multicast", c.multicast),
        ("core.unicast", c.unicast),
    ]
}

/// `WorldStats` under the per-layer metric names.
pub fn world_counts(s: &WorldStats) -> [(&'static str, u64); 10] {
    [
        ("gcs.agreed_messages", s.agreed_messages),
        ("gcs.token_rotations", s.token_rotations),
        ("gcs.views_installed", s.views_installed),
        ("gcs.messages_lost", s.messages_lost),
        ("gcs.retransmissions", s.retransmissions),
        ("gcs.retransmission_rounds", s.retransmission_rounds),
        ("gcs.fec_repairs", s.fec_repairs),
        ("gcs.parity_bytes_sent", s.parity_bytes_sent),
        ("gcs.payload_bytes", s.payload_bytes),
        ("gcs.ring_reformations", s.ring_reformations),
    ]
}

/// 64-bit FNV-1a, the digest used to compare rendered outputs and
/// delivery orders.
pub fn fnv64(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One workload, set up and warm.
pub trait Workload {
    /// Worker threads a pass uses (1 except `scale_churn`).
    fn jobs(&self) -> usize {
        1
    }

    /// One untraced pass through the layers' public library functions.
    fn pass(&mut self) -> Pass;

    /// Checks the first pass: goldens at the default seed,
    /// self-consistency at every seed, and any extra determinism
    /// guard the workload owns. (That no operation failed is checked
    /// by the harness, for every workload alike.)
    fn verify(&mut self, first: &Pass) -> Result<(), String>;

    /// One pass with the harness driving each cell by hand, recording
    /// spans under `pass` and exact counts into `layers`. `reference`
    /// is an untraced pass of the same inputs; virtual results must
    /// match it.
    fn traced_pass(
        &mut self,
        tr: &mut Tracer,
        pass: SpanId,
        layers: &mut Layers,
        reference: &Pass,
    ) -> Result<(), String>;
}

/// Builds a workload: suite construction, input generation and the
/// untimed warm-up. Everything in here is `setup_s`.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_figs" => Box::new(paper_figs::PaperFigs::new(seed)),
        "scale_churn" => Box::new(scale_churn::ScaleChurn::new(seed)?),
        "loss_recovery" => Box::new(loss_recovery::LossRecovery::new(seed)?),
        "gcs_storm" => Box::new(gcs_storm::GcsStorm::new(seed)?),
        "trace_on" => Box::new(trace_on::TraceOn::new(seed)),
        "real_crypto" => Box::new(real_crypto::RealCrypto::new(seed)?),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {other:?} (want one of {})",
                names.join(", ")
            ));
        }
    })
}

/// The committed golden file `results/<name>`, read from the tree this
/// binary was built from.
pub fn golden(name: &str) -> Result<String, String> {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "results", name]
        .iter()
        .collect();
    std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
}

/// Compares a rendered output with its golden at the default seed and
/// skips the comparison at every other seed (other seeds only check
/// self-consistency). Both sides go through `normalise` first; pass
/// `str::to_string` for a byte-for-byte comparison.
pub fn check_golden(
    seed: u64,
    what: &str,
    got: &str,
    golden_file: &str,
    normalise: impl Fn(&str) -> String,
) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let (got, want) = (normalise(got), normalise(&golden(golden_file)?));
    if got == want {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Err(format!(
        "golden mismatch: {what} differs from results/{golden_file} at line {}",
        line + 1
    ))
}

/// The hand-driven cells must reproduce the library's virtual
/// latencies bit for bit.
pub fn same_virtual_results(mine: &[f64], library: &[f64]) -> Result<(), String> {
    if mine.len() != library.len() {
        return Err(format!(
            "traced pass ran {} operations, the library pass {}",
            mine.len(),
            library.len()
        ));
    }
    match mine
        .iter()
        .zip(library)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "hand-driven operation {i} took {} virtual ms, the library's {}",
            mine[i], library[i]
        )),
    }
}

/// How a per-layer metric is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// Unit of the simulated-latency metrics: virtual (modelled)
/// milliseconds per operation. These are pure functions of code and
/// seed — not host times — and repeat bit for bit at a given seed;
/// the unit says so because `BENCHMARK.json` has no other place for it.
pub const VIRTUAL_UNIT: &str = "exact_virt_ms/op";

/// End-to-end metrics: `(name, unit, better, bound)`.
///
/// Every bound is the contract's maximum, because the host is that
/// noisy: on the shared two-core machine this was sized on, ten runs at
/// ten seeds spread (inter-quartile distance over the median) up to
/// 5.5 % in host time, 9 % in peak memory (`trace_on`) and — for the
/// virtual metrics, which are exact at one seed, where `perf compare`
/// holds them bit for bit — 9.5 % *across* seeds (`loss_recovery`);
/// and two back-to-back sets of the same commit differed by 10 % in
/// `paper_figs`' wall time. A bound should be three spreads wide.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("wall_s", "s", Lower, 0.25),
    ("cpu_s", "s", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.25),
    ("virt_rekey_ms_mean", VIRTUAL_UNIT, Lower, 0.25),
    ("virt_rekey_ms_p50", VIRTUAL_UNIT, Lower, 0.25),
];

/// Per-layer metrics: `(name, unit, better)`. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // bignum: exact kernel counts of the pass, replayed unit costs.
    ("bignum.mont_mul", "count", Lower),
    ("bignum.mont_sqr", "count", Lower),
    ("bignum.redc", "count", Lower),
    ("bignum.modexp", "count", Lower),
    ("bignum.fixed_base_exp", "count", Lower),
    ("bignum.modexp_ns_4l", "ns", Lower),
    ("bignum.modexp_ns_8l", "ns", Lower),
    ("bignum.modexp_ns_16l", "ns", Lower),
    ("bignum.modexp_fixed_ns_4l", "ns", Lower),
    ("bignum.mont_mul_ns_4l", "ns", Lower),
    ("bignum.mont_sqr_ns_4l", "ns", Lower),
    ("bignum.mont_mul_ns_8l", "ns", Lower),
    ("bignum.mont_sqr_ns_8l", "ns", Lower),
    ("bignum.mont_mul_ns_16l", "ns", Lower),
    ("bignum.mont_sqr_ns_16l", "ns", Lower),
    ("bignum.mod_inverse_ns_4l", "ns", Lower),
    ("bignum.busy_est_s", "s", Lower),
    // crypto: replayed unit costs.
    ("crypto.dh_exp_ns", "ns", Lower),
    ("crypto.exp_g_ns", "ns", Lower),
    ("crypto.rsa_sign_ns", "ns", Lower),
    ("crypto.rsa_verify_ns", "ns", Lower),
    ("crypto.sha256_mb_s", "MB/s", Higher),
    ("crypto.aes_ctr_mb_s", "MB/s", Higher),
    ("crypto.hmac_ns", "ns", Lower),
    ("crypto.modeled_sig_ns", "ns", Lower),
    // sim
    ("sim.queue_ns_per_event", "ns", Lower),
    ("sim.cpu_sched_ns", "ns", Lower),
    // gcs
    ("gcs.steps", "count", Lower),
    ("gcs.ns_per_step", "ns", Lower),
    ("gcs.probe_ns_per_step", "ns", Lower),
    ("gcs.busy_est_s", "s", Lower),
    ("gcs.deliveries_per_s", "1/s", Higher),
    ("gcs.view_install_ns", "ns", Lower),
    ("gcs.agreed_messages", "count", Lower),
    ("gcs.token_rotations", "count", Lower),
    ("gcs.views_installed", "count", Lower),
    ("gcs.messages_lost", "count", Lower),
    ("gcs.retransmissions", "count", Lower),
    ("gcs.retransmission_rounds", "count", Lower),
    ("gcs.fec_repairs", "count", Higher),
    ("gcs.parity_bytes_sent", "count", Lower),
    ("gcs.payload_bytes", "count", Lower),
    ("gcs.ring_reformations", "count", Lower),
    ("gcs.repair_ratio", "ratio", Higher),
    ("gcs.fec_encode_mb_s", "MB/s", Higher),
    ("gcs.fec_decode_mb_s", "MB/s", Higher),
    ("gcs.shard_imbalance", "ratio", Lower),
    // core
    ("core.world_build_s", "s", Lower),
    ("core.formation_s", "s", Lower),
    ("core.rekey_s", "s", Lower),
    ("core.collect_s", "s", Lower),
    ("core.loopback_bootstrap_ns.gdh", "ns", Lower),
    ("core.loopback_bootstrap_ns.tgdh", "ns", Lower),
    ("core.loopback_bootstrap_ns.str", "ns", Lower),
    ("core.loopback_bootstrap_ns.bd", "ns", Lower),
    ("core.loopback_bootstrap_ns.ckd", "ns", Lower),
    ("core.loopback_rekey_ns.gdh", "ns", Lower),
    ("core.loopback_rekey_ns.tgdh", "ns", Lower),
    ("core.loopback_rekey_ns.str", "ns", Lower),
    ("core.loopback_rekey_ns.bd", "ns", Lower),
    ("core.loopback_rekey_ns.ckd", "ns", Lower),
    ("core.twin_gcs_sim_share", "ratio", Lower),
    ("core.steps_gcs_sim_share", "ratio", Lower),
    ("core.exp", "count", Lower),
    ("core.inverse", "count", Lower),
    ("core.sign", "count", Lower),
    ("core.verify", "count", Lower),
    ("core.multicast", "count", Lower),
    ("core.unicast", "count", Lower),
    ("core.restarts", "count", Lower),
    ("core.given_up", "count", Lower),
    ("core.superseded", "count", Lower),
    ("core.batch_ratio", "ratio", Higher),
    ("core.session_seal_mb_s", "MB/s", Higher),
    ("core.session_open_mb_s", "MB/s", Higher),
    ("core.par_busy_s", "s", Lower),
    ("core.par_efficiency", "ratio", Higher),
    // telemetry
    ("telemetry.events", "count", Lower),
    ("telemetry.on_off_ratio", "ratio", Lower),
    ("telemetry.ns_per_event", "ns", Lower),
    ("telemetry.disabled_record_ns", "ns", Lower),
    ("telemetry.jsonl_mb_s", "MB/s", Higher),
    ("telemetry.hub_merge_ns", "ns", Lower),
    // bench
    ("bench.csv_render_s", "s", Lower),
    ("bench.manifest_write_ns", "ns", Lower),
    ("bench.manifest_parse_ns", "ns", Lower),
    ("bench.manifest_bytes", "count", Lower),
    ("bench.diff_ns", "ns", Lower),
    // whole run
    ("virt_rekey_ms_p90", VIRTUAL_UNIT, Lower),
    ("wire_kb_per_op", "KB", Lower),
    ("failed_share", "ratio", Lower),
    ("traced_pass_s", "s", Lower),
    ("unattributed_share", "ratio", Lower),
    ("trace_overhead_share", "ratio", Lower),
];

/// The per-layer readings of one traced run. Every name of
/// [`PER_LAYER`] is present from the start, at 0.
#[derive(Clone, Debug)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect(),
        }
    }
}

impl Layers {
    fn slot(&mut self, name: &str) -> &mut f64 {
        self.values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer metric table"))
    }

    /// Sets a reading.
    pub fn set(&mut self, name: &str, v: f64) {
        *self.slot(name) = v;
    }

    /// Adds to a reading (counts summed over cells).
    pub fn add(&mut self, name: &str, v: f64) {
        *self.slot(name) += v;
    }

    /// Adds a batch of exact counts.
    pub fn add_counts(&mut self, counts: &[(&'static str, u64)]) {
        for (name, v) in counts {
            self.add(name, *v as f64);
        }
    }

    /// Adds the counts of `exact` whose name starts with `prefix`.
    pub fn add_prefixed(&mut self, exact: &[(&'static str, u64)], prefix: &str) {
        for (name, v) in exact.iter().filter(|(n, _)| n.starts_with(prefix)) {
            self.add(name, *v as f64);
        }
    }

    /// Adds everything one hand-driven cell counted.
    pub fn add_cell(&mut self, out: &crate::cell::CellOut) {
        self.add_counts(&kernel_counts(&out.kernel));
        self.add_counts(&world_counts(&out.stats));
        self.add_counts(&op_counts(&out.counts));
        self.add("gcs.steps", out.steps as f64);
        self.add("core.restarts", out.restarts as f64);
        self.add("core.given_up", out.given_up as f64);
    }

    /// A reading.
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_bench::manifest::json::{self, Value};

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        json::get(obj.as_obj().expect("object"), key).unwrap_or_else(|| panic!("no {key}"))
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this code prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            field(&doc, key)
                .as_arr()
                .expect("array")
                .iter()
                .map(|entry| {
                    fields
                        .iter()
                        .map(|f| match field(entry, f) {
                            Value::Str(s) => s.clone(),
                            Value::Num(n) => n.to_string(),
                            other => panic!("unexpected {other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        let want: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|(n, why)| vec![n.to_string(), why.to_string()])
            .collect();
        assert_eq!(names("workloads", &["name", "why"]), want);
        let want: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| {
                vec![
                    n.to_string(),
                    u.to_string(),
                    b.as_str().to_string(),
                    bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            names("end_to_end", &["name", "unit", "better", "bound"]),
            want
        );
        let want: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.as_str().to_string()])
            .collect();
        assert_eq!(names("per_layer", &["name", "unit", "better"]), want);
    }

    /// The contract's limits on names, units and reasons.
    #[test]
    fn names_units_and_reasons_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, why) in WORKLOADS {
            assert!(
                name_ok(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let all = END_TO_END
            .iter()
            .map(|(n, u, _, _)| (n, u))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (n, u)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|(_, _, _, bound)| *bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(n, u, b, _)| (*n, *u, *b) == ("setup_s", "s", Better::Lower)));
    }
}
