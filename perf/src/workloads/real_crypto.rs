//! `real_crypto` — the full stack (`SimWorld` + `SecureMember`) on two
//! real-size suites: `CryptoSuite::real_512()` and a 1024-bit MODP
//! group with real RSA signatures; five protocols × sizes × {join,
//! leave, partition, merge}, then `SecureSession::seal`/`open` of
//! 1 MiB in 1 KiB messages per suite.
//!
//! Why it exists: the same `bignum`/`crypto` code at 8 and 16 limbs
//! with real RSA sign/verify, AES-CTR and HMAC. A kernel tuned for the
//! 4-limb simulation group that costs wider operands shows here and
//! nowhere else.
//!
//! The seed picks which member leaves, how many members a partition
//! takes and how large the merging component is, so the operation mix
//! (and with it the virtual latencies) varies with `--seed`.

use std::rc::Rc;

use gkap_core::protocols::ProtocolKind;
use gkap_core::session::SecureSession;
use gkap_core::{CostModel, CryptoSuite, SigMode};
use gkap_crypto::dh::DhGroup;
use gkap_gcs::{testbed, GcsConfig};
use gkap_sim::{RandomSource, SplitMix64};

use super::{fnv64, Layers, Pass, Workload, FNV_SEED};
use crate::cell::{run_cell, CellOut, CellSpec, Op};
use crate::span::{SpanId, Tracer};

/// Group sizes per suite: the wider group runs fewer, smaller cells so
/// both suites cost about the same host time.
const SIZES_512: [usize; 4] = [4, 6, 8, 10];
const SIZES_1024: [usize; 3] = [3, 4, 5];

/// Session payload: 1 KiB messages, 1 MiB per suite.
const MESSAGE: usize = 1024;
const MESSAGES: usize = 1024;

/// One cell of the schedule.
#[derive(Clone, Copy, Debug)]
struct Planned {
    suite: usize,
    kind: ProtocolKind,
    n: usize,
    op: Op,
}

/// The workload, set up.
pub struct RealCrypto {
    seed: u64,
    gcs: GcsConfig,
    suites: [Rc<CryptoSuite>; 2],
    schedule: Vec<Planned>,
}

/// Draws the schedule from the seed.
fn schedule(seed: u64) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed ^ 0x7ea1_c2f9);
    let mut draw = |lo: usize, hi: usize| lo + (rng.next_u64() as usize) % (hi - lo + 1);
    let mut out = Vec::new();
    for (suite, sizes) in [&SIZES_512[..], &SIZES_1024[..]].into_iter().enumerate() {
        for kind in ProtocolKind::all() {
            // CKD pads the group secret it distributes to 64 bytes and
            // panics on any group wider than 512 bits; it runs on the
            // 512-bit suite only.
            if kind == ProtocolKind::Ckd && suite == 1 {
                continue;
            }
            for &n in sizes {
                let ops = [
                    Op::Join,
                    Op::Leave(draw(0, n - 1)),
                    Op::Partition(draw(1, n / 2)),
                    Op::Merge(draw(1, n / 2)),
                ];
                out.extend(ops.map(|op| Planned { suite, kind, n, op }));
            }
        }
    }
    out
}

impl RealCrypto {
    /// Set-up: both suites (RSA key generation, Montgomery contexts
    /// and fixed-base tables at 512 and 1024 bits), the schedule, and
    /// the n = 4 cells as warm-up.
    pub fn new(seed: u64) -> Result<Self, String> {
        let wide = CryptoSuite::new(
            DhGroup::modp_1024(),
            1024,
            CostModel::paper_1024(),
            SigMode::Real,
        );
        let mut wl = RealCrypto {
            seed,
            gcs: testbed::lan(),
            suites: [Rc::new(CryptoSuite::real_512()), Rc::new(wide)],
            schedule: schedule(seed),
        };
        let warm: Vec<Planned> = wl.schedule.iter().copied().filter(|p| p.n == 4).collect();
        let all = std::mem::replace(&mut wl.schedule, warm);
        let warm_up = wl.run(&mut Tracer::disabled(), None, &mut Layers::default());
        wl.schedule = all;
        warm_up.map(|_| wl)
    }

    fn run(
        &mut self,
        tr: &mut Tracer,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut kernel = [gkap_bignum::stats::KernelOps::default(); 2];
        let mut ops = gkap_core::OpCounts::default();
        let mut wire_bytes = 0u64;
        let mut last: [Option<CellOut>; 2] = [None, None];
        for plan in &self.schedule {
            let spec = CellSpec {
                kind: plan.kind,
                gcs: &self.gcs,
                suite: &self.suites[plan.suite],
                seed: self.seed ^ (plan.n as u64) << 8,
                n: plan.n,
                op: plan.op,
            };
            let out = run_cell(&spec, tr, parent);
            pass.attempted += 1;
            pass.failed += u64::from(!out.ok);
            pass.virt_ms.push(out.elapsed_ms);
            kernel[plan.suite].merge(&out.kernel);
            ops.add(&out.counts);
            wire_bytes += out.stats.payload_bytes + out.stats.parity_bytes_sent;
            layers.add_cell(&out);
            last[plan.suite] = Some(out);
        }
        // Each suite's kernel calls priced at its own operand width
        // (its RSA work, on narrower operands, rides along).
        layers.set(
            "bignum.busy_est_s",
            crate::units::bignum_busy_est_s(layers, &kernel[0], "8l")
                + crate::units::bignum_busy_est_s(layers, &kernel[1], "16l"),
        );
        let [mut total, wide] = kernel;
        total.merge(&wide);
        pass.push_kernel(&total);
        pass.push_ops(&ops);

        // Application traffic under each suite's last agreed key.
        let mut digest = FNV_SEED;
        let (mut seal_s, mut open_s) = (0.0, 0.0);
        let mut rng = SplitMix64::new(self.seed);
        let message: Vec<u8> = (0..MESSAGE).map(|_| rng.next_u64() as u8).collect();
        for out in last.iter().flatten() {
            let secret = out.secret.as_ref().ok_or("last cell agreed on no key")?;
            let span = tr.open(parent, "session", "");
            let mut sender = SecureSession::new(secret, 1);
            let receiver = SecureSession::new(secret, 1);
            let t0 = std::time::Instant::now();
            let sealed: Vec<Vec<u8>> = (0..MESSAGES).map(|_| sender.seal(0, &message)).collect();
            seal_s += t0.elapsed().as_secs_f64();
            let t0 = std::time::Instant::now();
            for wire in &sealed {
                let plain = receiver
                    .open(0, wire)
                    .map_err(|e| format!("sealed message does not open: {e}"))?;
                if plain != message {
                    return Err("opened message differs from what was sealed".to_string());
                }
                digest = fnv64(digest, &wire[wire.len() - 8..]);
            }
            open_s += t0.elapsed().as_secs_f64();
            tr.close(span, Vec::new());
        }
        let mb = (2 * MESSAGE * MESSAGES) as f64 / 1e6;
        layers.set("core.session_seal_mb_s", mb / seal_s);
        layers.set("core.session_open_mb_s", mb / open_s);
        layers.set(
            "wire_kb_per_op",
            wire_bytes as f64 / 1000.0 / pass.attempted as f64,
        );
        pass.exact.push(("core.session_digest", digest));
        Ok(pass)
    }
}

impl Workload for RealCrypto {
    fn pass(&mut self) -> Pass {
        self.run(&mut Tracer::disabled(), None, &mut Layers::default())
            .unwrap_or_else(|e| panic!("real_crypto: {e}"))
    }

    fn verify(&mut self, _first: &Pass) -> Result<(), String> {
        // No committed golden uses real-size suites; that every cell's
        // members derived one key is the harness's `failed == 0` check.
        Ok(())
    }

    fn traced_pass(
        &mut self,
        tr: &mut Tracer,
        pass: SpanId,
        layers: &mut Layers,
        reference: &Pass,
    ) -> Result<(), String> {
        let traced = self.run(tr, Some(pass), layers)?;
        crate::harness::same_outputs(reference, &traced, 2)
    }
}
