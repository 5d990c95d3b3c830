//! Replayed unit costs: what one call into a layer's public function
//! costs on this host, measured in tight loops from outside the
//! crates. Together with the exact counts of a traced pass they give
//! the count × unit-cost estimate of the time spent where the harness
//! cannot open spans.
//!
//! These are the same on every workload (they depend on the host and
//! the code, not on the inputs), which is what makes a per-layer
//! change visible on a workload that does not exercise it.

use std::hint::black_box;
use std::time::Instant;

use gkap_bench::diff::{diff, Thresholds};
use gkap_bench::manifest::Manifest;
use gkap_bignum::{Montgomery, SplitMix64, Ubig};
use gkap_core::experiment::SuiteKind;
use gkap_core::protocols::ProtocolKind;
use gkap_core::session::SecureSession;
use gkap_core::testkit::Loopback;
use gkap_core::CryptoSuite;
use gkap_crypto::dh::DhGroup;
use gkap_crypto::rsa::RsaPrivateKey;
use gkap_crypto::sha::{Digest, Sha256};
use gkap_gcs::{fec, testbed, SimWorld};
use gkap_sim::{CpuScheduler, Duration, EventQueue, SimTime};
use gkap_telemetry::{jsonl, Actor, Event, EventKind, Telemetry};

use crate::cell::{run_cell, step_to_quiescence, CellSpec, Op};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::gcs_storm::{run_ring, Storm};
use crate::workloads::Layers;

/// Median nanoseconds per call of `f` over at least `min_calls` calls,
/// timed in batches long enough (≥ 20 µs) that the clock reads do not
/// show.
pub fn per_call_ns(min_calls: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as usize;
    let batch = (20_000 / once).clamp(1, 4096);
    let batches = min_calls.div_ceil(batch).max(15);
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples).expect("at least fifteen batches")
}

/// Megabytes per second of `f`, which processes `bytes` per call.
fn mb_per_s(bytes: usize, calls: usize, f: impl FnMut()) -> f64 {
    bytes as f64 / 1e6 / (per_call_ns(calls, f) / 1e9)
}

/// `(modexp, fixed-base modexp, mont_mul, mont_sqr)` ns at a group's
/// operand width.
fn kernel_units(group: &DhGroup, calls: usize) -> (f64, f64, f64, f64) {
    let mut rng = SplitMix64::new(0xb16_0b5);
    let ctx = Montgomery::new(group.modulus()).expect("odd prime modulus");
    let exp = group.random_exponent(&mut rng);
    let base = group.exp_g(&group.random_exponent(&mut rng));
    let modexp = per_call_ns(calls, || {
        black_box(ctx.modexp(black_box(&base), black_box(&exp)));
    });
    let table = ctx.fixed_base(group.generator(), group.order().bit_len());
    let fixed = per_call_ns(calls, || {
        black_box(ctx.modexp_fixed(&table, black_box(&exp)));
    });
    let (a, b) = (ctx.to_mont(&base), ctx.to_mont(&exp));
    let mut out = ctx.to_mont(&base);
    let mut scratch = ctx.scratch();
    let mul = per_call_ns(calls * 50, || {
        ctx.mont_mul(black_box(&a), black_box(&b), &mut out, &mut scratch);
    });
    let sqr = per_call_ns(calls * 50, || {
        ctx.mont_sqr(black_box(&a), &mut out, &mut scratch);
    });
    (modexp, fixed, mul, sqr)
}

/// Measures every replayed unit cost into `layers`.
pub fn measure(layers: &mut Layers) {
    bignum_and_crypto(layers);
    sim_and_gcs(layers);
    core_twins(layers);
    telemetry_and_bench(layers);
}

fn bignum_and_crypto(layers: &mut Layers) {
    let small = DhGroup::test_256();
    let (modexp, fixed, mul, sqr) = kernel_units(&small, 1000);
    layers.set("bignum.modexp_ns_4l", modexp);
    layers.set("bignum.modexp_fixed_ns_4l", fixed);
    layers.set("bignum.mont_mul_ns_4l", mul);
    layers.set("bignum.mont_sqr_ns_4l", sqr);
    for (width, group, calls) in [
        ("8l", DhGroup::modp_512(), 200),
        ("16l", DhGroup::modp_1024(), 100),
    ] {
        let (modexp, _, mul, sqr) = kernel_units(&group, calls);
        layers.set(&format!("bignum.modexp_ns_{width}"), modexp);
        layers.set(&format!("bignum.mont_mul_ns_{width}"), mul);
        layers.set(&format!("bignum.mont_sqr_ns_{width}"), sqr);
    }
    let mut rng = SplitMix64::new(0x1e4);
    let exp = small.random_exponent(&mut rng);
    layers.set(
        "bignum.mod_inverse_ns_4l",
        per_call_ns(1000, || {
            black_box(black_box(&exp).mod_inverse(small.order()));
        }),
    );

    let base = small.exp_g(&small.random_exponent(&mut rng));
    layers.set(
        "crypto.dh_exp_ns",
        per_call_ns(1000, || {
            black_box(small.exp(black_box(&base), black_box(&exp)));
        }),
    );
    layers.set(
        "crypto.exp_g_ns",
        per_call_ns(1000, || {
            black_box(small.exp_g(black_box(&exp)));
        }),
    );
    let rsa = RsaPrivateKey::generate(512, 3, &mut SplitMix64::new(0x5157_0000));
    let message = [0x5au8; 64];
    let signature = rsa.sign(&message);
    layers.set(
        "crypto.rsa_sign_ns",
        per_call_ns(100, || {
            black_box(rsa.sign(black_box(&message)));
        }),
    );
    layers.set(
        "crypto.rsa_verify_ns",
        per_call_ns(500, || {
            black_box(rsa.public_key().verify(&message, black_box(&signature))).ok();
        }),
    );
    let block = vec![0xa5u8; 64 * 1024];
    layers.set(
        "crypto.sha256_mb_s",
        mb_per_s(block.len(), 30, || {
            black_box(Sha256::digest(black_box(&block)));
        }),
    );
    layers.set(
        "crypto.aes_ctr_mb_s",
        mb_per_s(block.len(), 30, || {
            black_box(gkap_crypto::aes::ctr_xor(
                &[7; 16],
                &[9; 12],
                0,
                block.clone(),
            ));
        }),
    );
    layers.set(
        "crypto.hmac_ns",
        per_call_ns(1000, || {
            black_box(gkap_crypto::hmac::hmac_sha256(
                &[3; 32],
                black_box(&message),
            ));
        }),
    );
    let modeled = CryptoSuite::sim_512();
    layers.set(
        "crypto.modeled_sig_ns",
        per_call_ns(1000, || {
            let sig = modeled.sign(black_box(&message));
            black_box(modeled.verify(&message, &sig)).ok();
        }),
    );
}

fn sim_and_gcs(layers: &mut Layers) {
    // Event queue at a standing depth of 64 pending events.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut rng = SplitMix64::new(0x9e);
    let mut delay =
        || Duration::from_nanos(1 + (gkap_sim::RandomSource::next_u64(&mut rng) % 100_000));
    for i in 0..64 {
        queue.schedule(delay(), i);
    }
    layers.set(
        "sim.queue_ns_per_event",
        per_call_ns(100_000, || {
            let (_, ev) = queue.pop().expect("standing depth");
            queue.schedule(delay(), black_box(ev));
        }),
    );
    let mut cpu = CpuScheduler::new(2);
    let mut ready = SimTime::ZERO;
    layers.set(
        "sim.cpu_sched_ns",
        per_call_ns(100_000, || {
            ready += Duration::from_micros(3);
            black_box(cpu.run(ready, Duration::from_micros(5)));
        }),
    );

    // The engine alone: fifty probe clients, all-to-all Agreed rounds.
    let probe = run_ring(
        testbed::lan(),
        50,
        40,
        1,
        &mut Tracer::disabled(),
        None,
        "probe",
    )
    .expect("a clean LAN ring converges");
    layers.set(
        "gcs.probe_ns_per_step",
        probe.run_s * 1e9 / probe.steps as f64,
    );

    // One view installation on that ring: a member leaves, then rejoins.
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..50 {
        world.add_client(Box::new(Storm::new(0, i, false)));
    }
    world.install_initial_view();
    step_to_quiescence(&mut world);
    let mut inside = true;
    let installs: Vec<f64> = (0..30)
        .map(|_| {
            let t0 = Instant::now();
            if inside {
                world.inject_leave(49);
            } else {
                world.inject_join(49);
            }
            inside = !inside;
            step_to_quiescence(&mut world);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    layers.set(
        "gcs.view_install_ns",
        median(&installs).expect("thirty installs"),
    );

    // Reed–Solomon: 16 data shards of 1 KiB, 4 parity; decode with four
    // data shards erased.
    let data: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i.wrapping_mul(37); 1024]).collect();
    let parity = fec::encode(&data, 4).expect("within MAX_SHARDS");
    layers.set(
        "gcs.fec_encode_mb_s",
        mb_per_s(16 * 1024, 30, || {
            black_box(fec::encode(black_box(&data), 4));
        }),
    );
    let have: Vec<(usize, &[u8])> = (4..16)
        .map(|i| (i, data[i].as_slice()))
        .chain((0..4).map(|j| (16 + j, parity[j].as_slice())))
        .collect();
    layers.set(
        "gcs.fec_decode_mb_s",
        mb_per_s(16 * 1024, 30, || {
            black_box(fec::decode(16, black_box(&have)));
        }),
    );
}

/// The protocol + crypto twins on `testkit::Loopback` (no `gcs`, no
/// `sim`) at n = 50, against the same join through the full stack.
fn core_twins(layers: &mut Layers) {
    const N: usize = 50;
    let ids: Vec<usize> = (0..=N).collect();
    let suite = SuiteKind::Sim512.shared();
    let gcs = testbed::lan();
    let (mut stack_s, mut loopback_s, mut steps) = (0.0, 0.0, 0u64);
    for kind in ProtocolKind::all() {
        let name = kind.name().to_ascii_lowercase();
        let (mut bootstraps, mut rekeys, mut stacks) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            let mut twin = Loopback::new(kind, CryptoSuite::sim_512(), &ids);
            let t0 = Instant::now();
            twin.bootstrap(&ids[..N], 0x5eed);
            bootstraps.push(t0.elapsed().as_nanos() as f64);
            let t0 = Instant::now();
            twin.install_view(ids.clone(), vec![N], vec![]);
            rekeys.push(t0.elapsed().as_nanos() as f64);
            black_box(twin.common_secret());

            let spec = CellSpec {
                kind,
                gcs: &gcs,
                suite: &suite,
                seed: 0x5eed,
                n: N + 1,
                op: Op::Join,
            };
            let out = run_cell(&spec, &mut Tracer::disabled(), None);
            stacks.push(out.stack_s);
            steps += out.steps;
        }
        let bootstrap = median(&bootstraps).expect("three runs");
        let rekey = median(&rekeys).expect("three runs");
        layers.set(&format!("core.loopback_bootstrap_ns.{name}"), bootstrap);
        layers.set(&format!("core.loopback_rekey_ns.{name}"), rekey);
        stack_s += median(&stacks).expect("three runs");
        loopback_s += (bootstrap + rekey) / 1e9;
    }
    // gcs + sim inside a figure cell, estimated two ways: full stack
    // minus its Loopback twin, and engine steps × the probe's ns/step.
    layers.set("core.twin_gcs_sim_share", (stack_s - loopback_s) / stack_s);
    let by_steps = (steps / 3) as f64 * layers.get("gcs.probe_ns_per_step") / 1e9;
    layers.set("core.steps_gcs_sim_share", by_steps / stack_s);

    let secret = Ubig::from(0x5ec2e7u64);
    let message = vec![0x42u8; 1024];
    let mut sender = SecureSession::new(&secret, 1);
    let receiver = SecureSession::new(&secret, 1);
    let wire = sender.seal(0, &message);
    layers.set(
        "core.session_seal_mb_s",
        mb_per_s(message.len(), 300, || {
            black_box(sender.seal(0, black_box(&message)));
        }),
    );
    layers.set(
        "core.session_open_mb_s",
        mb_per_s(message.len(), 300, || {
            black_box(receiver.open(0, black_box(&wire))).ok();
        }),
    );
}

fn telemetry_and_bench(layers: &mut Layers) {
    let event = || Event {
        at: SimTime::ZERO,
        dur: Duration::ZERO,
        actor: Actor::World,
        kind: EventKind::TokenRotation { rotation: 1 },
    };
    // The "zero-cost when off" row.
    let off = Telemetry::disabled();
    layers.set(
        "telemetry.disabled_record_ns",
        per_call_ns(1_000_000, || black_box(&off).record(event)),
    );

    // A real event log and hub: one traced TGDH join at n = 20.
    let cfg = gkap_core::experiment::ExperimentConfig::lan(ProtocolKind::Tgdh, SuiteKind::Sim512);
    let run = gkap_core::experiment::run_join_traced(&cfg, 20);
    let text = jsonl::render_events(&run.events);
    layers.set(
        "telemetry.jsonl_mb_s",
        mb_per_s(text.len(), 15, || {
            black_box(jsonl::render_events(black_box(&run.events)));
        }),
    );
    let mut recorder = gkap_telemetry::Recorder::default();
    for ev in &run.events {
        recorder.push(ev.clone());
    }
    let hub = recorder.hub().clone();
    layers.set(
        "telemetry.hub_merge_ns",
        per_call_ns(200, || {
            let mut into = hub.clone();
            black_box(into.merge(black_box(&hub)));
        }),
    );

    let mut manifest = Manifest::new("perf", "unit");
    manifest.absorb_hub(&hub);
    let rendered = manifest.to_json();
    layers.set("bench.manifest_bytes", rendered.len() as f64);
    layers.set(
        "bench.manifest_write_ns",
        per_call_ns(200, || {
            black_box(black_box(&manifest).to_json());
        }),
    );
    layers.set(
        "bench.manifest_parse_ns",
        per_call_ns(200, || {
            black_box(Manifest::parse(black_box(&rendered))).ok();
        }),
    );
    let parsed = Manifest::parse(&rendered).expect("own rendering parses");
    layers.set(
        "bench.diff_ns",
        per_call_ns(200, || {
            black_box(diff(&manifest, black_box(&parsed), &Thresholds::default()));
        }),
    );
}

/// Σ kernel count × replayed unit cost: the `bignum` busy-time
/// estimate of a pass whose operands are `width` wide (`"4l"`, `"8l"`,
/// `"16l"`). `modexp` and `fixed_base_exp` invocations are made of the
/// `mont_mul`/`mont_sqr` calls counted beside them, so only the two
/// leaf kernels are summed.
pub fn bignum_busy_est_s(layers: &Layers, ops: &gkap_bignum::stats::KernelOps, width: &str) -> f64 {
    (ops.mont_mul as f64 * layers.get(&format!("bignum.mont_mul_ns_{width}"))
        + ops.mont_sqr as f64 * layers.get(&format!("bignum.mont_sqr_ns_{width}")))
        / 1e9
}
